"""Parsing a spec and decoding one mapping grow linearly in the application
graph: the bytecodes they execute per task and message edge stay within a
fixed factor from n to 4n tasks, on a chain, a fan-out and a complete DAG,
and per mapping edge from 176 to 2,816 edges. Decoding one binding costs about the same however many idle cores and
tiles the platform has. Counts, not times, so the tests hold on any host;
counts differ between Python versions, so they assert ratios only."""

import json
import weakref

import pytest

from isoexplore import generate_spec
from isoexplore.mapping import ExplorationMode, Genotype, decode
from isoexplore.model import emit_spec, parse_spec

from conftest import count_opcodes

N = 20
GROWTH = 1.5        # allowed rise of the count per task and edge, n to 4n
PLATFORM_GROWTH = 1.15  # allowed rise of one binding's decode, 2x2 to 8x8 mesh
POLICY = {"arb_delay_ns": 0, "work_conserving": True}
TILES = [(f"t{x}_{y}", [x, y]) for y in range(2) for x in range(2)]
CORES = [f"{tid}.c{k}" for k in range(4) for tid, _ in TILES]    # tiles in turn


def edges_of(shape: str, n: int) -> list[tuple[int, int]]:
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "fan-out":
        return [(0, j) for j in range(1, n)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def spec_text(n: int, edges: list[tuple[int, int]]) -> str:
    """A 2x2 mesh of four 4-core tiles with room for every shape: long
    periods, and adapters and links wide enough for a complete DAG. Task i
    may run on one core only, the i-th in `CORES`, so neighbours in a chain
    sit on different tiles."""
    doc = {
        "application": {
            "tasks": [{"id": f"a{i}", "period_us": 100_000, "wcet_us": {"gp": 10},
                       "mem_demand": 2} for i in range(n)],
            "messages": [{"id": f"m{i}_{j}", "src": f"a{i}", "dst": f"a{j}",
                          "period_us": 100_000, "payload_bytes": 32, "mem_demand": 1}
                         for i, j in edges],
        },
        "architecture": {
            "mesh": [2, 2],
            "tile_types": [{
                "name": "basic", "cores": 4, "core_type": "gp",
                "core_policy": {"slot_len_us": 50, "arb_delay_us": 10, "capacity": 64,
                                "work_conserving": True},
                "memories": [{"service_time_ns": 70}],
                "bus_policy": {"slot_len_ns": 70, **POLICY, "capacity": 6},
                "na": {"tx": {**POLICY, "capacity": 4096},
                       "rx": {**POLICY, "capacity": 4096}},
            }],
            "tiles": [{"id": tid, "type": "basic", "pos": pos} for tid, pos in TILES],
            "noc": {"tau_ns": 10, "router_delay_cycles": 2, "flit_payload_bytes": 16,
                    "header_flits": 1,
                    "link_policy": {"slot_len": 10, "arb_delay": 0, "capacity": 4096,
                                    "work_conserving": True}},
            "energy": {"dynamic_per_core_type": {"gp": 0.9}, "static_per_core": 3.0,
                       "e_link": 0.02, "e_router": 0.03, "e_bus_src": 0.01,
                       "e_bus_dst": 0.01},
        },
        "mapping_edges": [{"task": f"a{i}", "core": CORES[i % len(CORES)]}
                          for i in range(n)],
    }
    return json.dumps(doc)


def parse_and_decode(text: str):
    spec = parse_spec(text)
    n = len(spec.application.tasks)
    return decode(spec, Genotype((0,) * n, (0,) * len(CORES), (0,) * len(TILES)))


@pytest.mark.parametrize("shape", ["chain", "fan-out", "complete"])
def test_parse_and_decode_grow_linearly(shape):
    per_unit = []
    for n in (N, 4 * N):
        edges = edges_of(shape, n)
        count, result = count_opcodes(parse_and_decode, spec_text(n, edges))
        assert result.feasible, result.reason
        assert result.transfers          # transfers are routed and budgeted
        per_unit.append(count / (n + len(edges)))
    assert per_unit[1] <= GROWTH * per_unit[0], per_unit


@pytest.mark.parametrize("mode", [ExplorationMode.ISOLATION_AWARE, ExplorationMode.FIXED_CR])
def test_decode_work_follows_the_binding_not_the_platform(mode):
    """One binding onto the first two tiles, with every flag set, decodes
    on a 2x2 and on an 8x8 mesh (16 and 256 cores). The tables are warm and
    the warm-up result is dead, so both counted decodes build a result."""
    counts = []
    for mesh in ((2, 2), (8, 8)):
        spec = generate_spec("consumer", mesh, 0)
        arch = spec.architecture
        genotype = Genotype(tuple(i % 8 for i in range(len(spec.application.tasks))),
                            (1,) * len(arch.cores), (1,) * len(arch.tiles))
        warm = weakref.ref(decode(spec, genotype, mode))
        assert warm() is None
        count, result = count_opcodes(decode, spec, genotype, mode)
        assert result.feasible, result.reason
        assert [tile.id for tile, *_ in result.placement.tiles] == ["t0_0", "t1_0"]
        counts.append(count)
    assert counts[1] <= PLATFORM_GROWTH * counts[0], counts


def test_first_decode_on_a_fresh_spec_follows_the_binding_not_the_platform():
    """The first decode of one binding on a freshly parsed consumer 2x2 and
    8x8 spec, whose 8x8 has 16 times the cores and the mapping edges. The
    spec builds the record of an edge when a decode first binds it: built
    for every edge at once, the 8x8 decode counts about 8.7 times the 2x2."""
    counts = []
    for mesh in ((2, 2), (8, 8)):
        spec = parse_spec(emit_spec(generate_spec("consumer", mesh, 0)))
        arch = spec.architecture
        genotype = Genotype(tuple(i % 8 for i in range(len(spec.application.tasks))),
                            (1,) * len(arch.cores), (1,) * len(arch.tiles))
        count, result = count_opcodes(decode, spec, genotype, ExplorationMode.ISOLATION_AWARE)
        assert result.feasible, result.reason
        counts.append(count)
    assert counts[1] <= GROWTH * counts[0], counts


def test_parse_work_per_mapping_edge_does_not_grow():
    """One application whose every task may run on every core, on a
    consumer 2x2 and an 8x8 mesh: 16 times the tiles and the mapping edges.
    A membership test over a tuple or list in the edge loop would show."""
    per_edge, apps = [], []
    for mesh in ((2, 2), (8, 8)):
        spec = generate_spec("consumer", mesh, 0)
        apps.append(spec.application)
        count, parsed = count_opcodes(parse_spec, emit_spec(spec))
        assert parsed.mapping_edges == spec.mapping_edges
        per_edge.append(count / len(spec.mapping_edges))
    assert apps[0] == apps[1]
    assert per_edge[1] <= GROWTH * per_edge[0], per_edge
