"""Budgeting: delay extensions, minimal weights, feasibility, refinement."""

import json
import re
from collections import Counter
from random import Random

import pytest

from isoexplore import generate_spec, kernels, scheduling
from isoexplore.arbitration import ArbitrationTuple, make_tuple
from isoexplore.errors import Infeasible
from isoexplore.mapping import _edge, decode, edge_record, random_genotype
from isoexplore.model import emit_spec, parse_spec
from isoexplore.scheduling import (
    IsolationScheme,
    bus_master_tuple,
    check_feasibility,
    extended_bus_policy,
    extended_core_policy,
    min_message_weight,
    min_task_weight,
    place,
    refine_tuples,
    tile_record,
)

from conftest import call_budget, tight_spec_text


def make_spec(*, work_conserving=True, bus_capacity=4, core_capacity=5,
              tx_capacity=4, rx_capacity=4):
    doc = {
        "application": {
            "tasks": [
                {"id": "a", "period_us": 50, "wcet_us": {"gp": 3}, "mem_demand": 8},
                {"id": "b", "period_us": 50, "wcet_us": {"gp": 2}, "mem_demand": 4},
            ],
            "messages": [
                {"id": "m", "src": "a", "dst": "b", "period_us": 100,
                 "payload_bytes": 32, "mem_demand": 6},
            ],
        },
        "architecture": {
            "mesh": [2, 1],
            "tile_types": [
                {
                    "name": "basic",
                    "cores": 2,
                    "core_type": "gp",
                    "core_policy": {"slot_len_us": 1000, "arb_delay_us": 200,
                                    "capacity": core_capacity,
                                    "work_conserving": work_conserving},
                    "bus_policy": {"slot_len_ns": 100, "arb_delay_ns": 0,
                                   "capacity": bus_capacity,
                                   "work_conserving": work_conserving},
                    "na": {
                        "tx": {"arb_delay_ns": 0, "capacity": tx_capacity,
                               "work_conserving": work_conserving},
                        "rx": {"arb_delay_ns": 0, "capacity": rx_capacity,
                               "work_conserving": work_conserving},
                    },
                    "memories": [{"service_time_ns": 5}],
                },
            ],
            "tiles": [
                {"id": "t0", "type": "basic", "pos": [0, 0]},
                {"id": "t1", "type": "basic", "pos": [1, 0]},
            ],
            "noc": {
                "tau_ns": 10,
                "router_delay_cycles": 1,
                "flit_payload_bytes": 16,
                "header_flits": 1,
                "link_policy": {"slot_len": 10, "arb_delay": 0,
                                "capacity": 4, "work_conserving": work_conserving},
            },
        },
        "mapping_edges": [
            {"task": "a", "core": "t0.c0"},
            {"task": "b", "core": "t1.c1"},
        ],
    }
    return parse_spec(json.dumps(doc))


def make_transfer(spec, links=("0,0->1,0",), src="a"):
    """A routed transfer of message m from the tile of `src` to the other
    task's tile, as `mapping.route_instances` lists it; a on t0.c0, b on
    t1.c1."""
    ends = {"a": edge_record(spec, 0, 0), "b": edge_record(spec, 1, 0)}
    dst = "b" if src == "a" else "a"
    m = spec.application.messages[0]
    return (m, (m.id, dst), ends[src], ends[dst], tuple(links), len(links) + 1, 3)


# ----------------------------------------------------------- policy extension


def test_extended_policies_absorb_memory_service():
    spec = make_spec()
    tile = spec.architecture.tile("t0")
    bus = extended_bus_policy(tile)
    assert bus.arb_delay == tile.bus_policy.arb_delay + 5
    assert (bus.slot_len, bus.capacity) == (100, 4)
    core = extended_core_policy(tile)
    assert core.arb_delay == tile.cores[0].policy.arb_delay + 5
    assert core.slot_len == tile.cores[0].policy.slot_len


def test_bus_master_tuple_uses_extended_delay():
    tile = make_spec().architecture.tile("t0")
    t = bus_master_tuple(tile)
    assert t == ArbitrationTuple(100, 1, 4 * 105)
    # at a reduced capacity, as refinement builds it
    assert make_tuple(extended_bus_policy(tile), tile.bus_master_weight, 2) == \
        ArbitrationTuple(100, 1, 2 * 105)


@pytest.mark.parametrize("text", [
    pytest.param(lambda: emit_spec(generate_spec("consumer", (4, 4), 0)), id="consumer"),
    pytest.param(tight_spec_text, id="tight"),
])
def test_tile_record_is_built_once_per_tile(monkeypatch, text):
    """However many decodes run, and whether their searches succeed or fail,
    each tile's record is built once per spec; `bus_master_tuple` extends
    the bus policy a second time."""
    calls = Counter()
    for name in ("extended_bus_policy", "extended_core_policy", "bus_master_tuple"):
        def counted(*args, _name=name, _inner=getattr(scheduling, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(scheduling, name, counted)
    spec = parse_spec(text())
    rng = Random(0)
    reasons = {decode(spec, random_genotype(spec, rng)).reason for _ in range(300)}
    assert None in reasons
    tiles = len(spec.architecture.tiles)
    assert calls["extended_core_policy"] <= tiles
    assert calls["bus_master_tuple"] <= tiles
    assert calls["extended_bus_policy"] <= 2 * tiles


# ------------------------------------------------------------ minimal weights


def task_response_at(w, wcet, md, tile):
    bus = bus_master_tuple(tile)
    core = extended_core_policy(tile)
    return kernels.task_response(
        wcet, md, tile.memory.service_time,
        bus.slot_len, bus.weight, bus.period,
        core.slot_len, w, core.capacity * (core.slot_len + core.arb_delay),
    )


def test_min_task_weight_is_minimal():
    spec = make_spec()
    tile = spec.architecture.tile("t0")
    wcet, md = 3_000_000, 8
    deadline = 9_500_000
    w = min_task_weight(deadline, wcet, md, tile, tile_record({}, tile))
    assert task_response_at(w, wcet, md, tile) <= deadline
    if w > 1:
        assert task_response_at(w - 1, wcet, md, tile) > deadline


def test_min_task_weight_infeasible():
    tile = make_spec().architecture.tile("t0")
    with pytest.raises(Infeasible):
        min_task_weight(1_000, 3_000_000, 8, tile, tile_record({}, tile))


def test_min_task_weight_infeasible_at_huge_capacity(monkeypatch):
    # The search bisects: ruling out a trillion weights takes a few dozen
    # evaluations.
    call_budget(monkeypatch, "ceil_div")
    tile = make_spec(core_capacity=10**12).architecture.tile("t0")
    with pytest.raises(Infeasible, match="no core weight within capacity 1000000000000"):
        min_task_weight(1_000, 3_000_000, 8, tile, tile_record({}, tile))


def test_min_message_weight_is_minimal():
    spec = make_spec()
    src, dst = spec.architecture.tile("t0"), spec.architecture.tile("t1")
    noc = spec.architecture.noc
    flits = noc.flits_for(32)
    deadline = 40_000
    w = min_message_weight(deadline, 6, flits, 2, src, dst, noc,
                           tile_record({}, src), tile_record({}, dst))

    def traversal(weight):
        from isoexplore.timing import wctt
        from isoexplore.arbitration import make_tuple
        bus = bus_master_tuple(src)
        unit = ArbitrationTuple(bus.period, weight, src.tx_policy.capacity * bus.period)
        return sum(wctt(6, flits, 2, 1, 5, bus, unit, make_tuple(noc.link_policy, weight),
                        5, bus_master_tuple(dst), unit))

    assert traversal(w) <= deadline
    if w > 1:
        assert traversal(w - 1) > deadline


def test_min_message_weight_infeasible():
    spec = make_spec()
    src, dst = spec.architecture.tile("t0"), spec.architecture.tile("t1")
    with pytest.raises(Infeasible):
        min_message_weight(10, 6, 3, 2, src, dst, spec.architecture.noc,
                           tile_record({}, src), tile_record({}, dst))


# ---------------------------------------------------------------- feasibility


def test_check_feasibility_accepts_fitting_budgets():
    spec = make_spec()
    transfer = make_transfer(spec)
    assert check_feasibility(spec, {"a": "t0.c0", "b": "t1.c1"}, {"a": 3, "b": 2},
                             [transfer], [4]) == (
        {"t0.c0": 3, "t1.c1": 2}, {"t0": 4}, {"t1": 4})
    # Per core in binding order, shared cores summed.
    cores, _, _ = check_feasibility(spec, {"b": "t1.c1", "a": "t0.c0", "c": "t1.c1"},
                                    {"a": 1, "b": 2, "c": 3}, [], [])
    assert list(cores.items()) == [("t1.c1", 5), ("t0.c0", 1)]


def test_check_feasibility_core_overload():
    spec = make_spec()
    with pytest.raises(Infeasible, match=r"^core t0\.c0 overloaded: 6 > 5$"):
        check_feasibility(spec, {"a": "t0.c0", "b": "t0.c0"}, {"a": 3, "b": 3}, [], [])
    # Of two overloaded cores, the one bound first is reported.
    with pytest.raises(Infeasible, match=r"^core t1\.c1 overloaded: 7 > 5$"):
        check_feasibility(spec, {"b": "t1.c1", "a": "t0.c0"}, {"a": 6, "b": 7}, [], [])


# Raised adapter capacities make each resource in turn the first one over.
OVER_FIRST = {"tx t0": {}, "rx t1": {"tx_capacity": 8},
              "link 0,0->1,0": {"tx_capacity": 8, "rx_capacity": 8}}


@pytest.mark.parametrize(
    "weight, kind", [(5, "tx t0"), (5, "rx t1"), (5, "link 0,0->1,0")]
)
def test_check_feasibility_transfer_overload(weight, kind):
    spec = make_spec(**OVER_FIRST[kind])
    with pytest.raises(Infeasible, match=f"^{re.escape(kind)} overloaded: 5 > 4$"):
        check_feasibility(spec, {"a": "t0.c0", "b": "t1.c1"}, {"a": 1, "b": 1},
                          [make_transfer(spec)], [weight])


def test_check_feasibility_reports_a_core_before_a_transfer():
    spec = make_spec()
    with pytest.raises(Infeasible, match=r"^core t1\.c1 overloaded: 6 > 5$"):
        check_feasibility(spec, {"a": "t0.c0", "b": "t1.c1"}, {"a": 1, "b": 6},
                          [make_transfer(spec)], [5])


def test_check_feasibility_link_overload_is_per_link():
    spec = make_spec()
    a = make_transfer(spec)
    b = make_transfer(spec, ("1,0->0,0",), src="b")
    # opposite directions never collide
    _, tx, rx = check_feasibility(spec, {"a": "t0.c0", "b": "t1.c1"}, {"a": 1, "b": 1},
                                  [a, b], [3, 3])
    assert list(tx.items()) == [("t0", 3), ("t1", 3)]   # transfer order
    assert list(rx.items()) == [("t1", 3), ("t0", 3)]


# ------------------------------------------------------------------ placement


def bound_edges(spec, bindings):
    """Each task's `Edge` to the core `bindings` names, in task order."""
    return [_edge(spec, t, bindings[t.id]) for t in spec.application.tasks]


def test_place_groups_by_core_and_hosting_tile():
    spec = make_spec()
    app = spec.application
    p = place(app, bound_edges(spec, {"b": "t1.c1", "a": "t0.c0"}), [make_transfer(spec)])
    assert p.tasks_on_core == {"t0.c0": ("a",), "t1.c1": ("b",)}   # declaration order
    arch = spec.architecture
    t0, t1 = arch.tile("t0"), arch.tile("t1")
    # Each tile lists its outbound and inbound transfers by position.
    assert p.tiles == ((t0, (arch.core("t0.c0"),), (0,), ()),
                       (t1, (arch.core("t1.c1"),), (), (0,)))
    # A tile that hosts nothing has no entry; hosting cores are in tile order.
    p = place(app, bound_edges(spec, {"a": "t0.c1", "b": "t0.c0"}), [])
    assert p.tasks_on_core == {"t0.c1": ("a",), "t0.c0": ("b",)}
    assert p.tiles == ((t0, t0.cores, (), ()),)


# ----------------------------------------------------------------- refinement


CS, CR, TR = IsolationScheme


def refined(spec, a=CS, b=CS):
    """Refinement of task a (position 0) on t0.c0 and b (position 1) on
    t1.c1, each core under the scheme given for its task, with transfer 0
    from a to b."""
    bindings = {"a": "t0.c0", "b": "t1.c1"}
    edges = [edge_record(spec, 0, 0), edge_record(spec, 1, 0)]
    transfers = [make_transfer(spec)]
    task_weights, transfer_weights = [2, 1], [1]
    loads = check_feasibility(spec, bindings, dict(zip("ab", task_weights)), transfers,
                              transfer_weights)
    schemes = {"t0.c0": a, "t1.c1": b}
    reserved = ({c for c, s in schemes.items() if s is CR},
                {c.split(".")[0] for c, s in schemes.items() if s is TR})
    return refine_tuples(spec, edges, transfers, task_weights, transfer_weights, reserved,
                         loads)


def test_refine_defaults_keep_full_capacity():
    # Each capacity is read off its tuple's period: one slot of a bus
    # master spans 105 ns, and one TX or RX slot a 420 ns bus period.
    spec = make_spec()
    ts = refined(spec)
    core = extended_core_policy(spec.architecture.tile("t0"))
    span = core.slot_len + core.arb_delay
    assert {t: b.period for t, b in ts.bus.items()} == {"t0": 4 * 105, "t1": 4 * 105}
    assert [c.period for c in ts.core] == [5 * span, 5 * span]      # t0.c0, t1.c1
    assert (ts.tx[0].period, ts.rx[0].period) == (4 * 420, 4 * 420)
    assert ts.bus == {"t0": ArbitrationTuple(100, 1, 420), "t1": ArbitrationTuple(100, 1, 420)}
    assert ts.core[0] == ArbitrationTuple(
        core.slot_len, 2, 5 * (core.slot_len + core.arb_delay))
    # Adapter slots equal the extended bus period of their side.
    assert ts.tx[0] == ArbitrationTuple(420, 1, 4 * 420)
    assert ts.rx[0] == ArbitrationTuple(420, 1, 4 * 420)
    assert ts.route[0] == ArbitrationTuple(10, 1, 40)


def test_refine_exclusive_core_shrinks_cycle():
    spec = make_spec()
    ts = refined(spec, a=CR)
    core = extended_core_policy(spec.architecture.tile("t0"))
    span = core.slot_len + core.arb_delay
    assert ts.core[0].period == 2 * span
    a = ts.core[0]
    assert a.period - a.weight * a.slot_len == 2 * core.arb_delay  # only the handoffs
    assert ts.core[1].period == 5 * span   # untouched elsewhere
    assert {t: b.period for t, b in ts.bus.items()} == {"t0": 4 * 105, "t1": 4 * 105}
    assert ts.tx[0].period == 4 * 420


def test_refine_reserved_tile_drops_idle_bus_slots():
    spec = make_spec()
    ts = refined(spec, a=TR)
    # One of two cores hosts nothing: one master slot leaves the cycle.
    assert ts.bus["t0"].period == 3 * 105
    # TX cycle shrinks to allocated traffic; slots follow the shorter bus.
    assert ts.tx[0] == ArbitrationTuple(315, 1, 1 * 315)
    # Destination tile is untouched.
    assert ts.bus["t1"].period == 4 * 105
    assert ts.rx[0].period == 4 * 420


def test_refine_never_shrinks_links():
    spec = make_spec()
    ts = refined(spec, a=TR, b=TR)
    assert ts.route[0] == ArbitrationTuple(10, 1, 40)


def test_refine_ignores_reductions_without_work_conservation():
    spec = make_spec(work_conserving=False)
    ts = refined(spec, a=TR, b=TR)
    core = extended_core_policy(spec.architecture.tile("t0"))
    span = core.slot_len + core.arb_delay
    assert {t: b.period for t, b in ts.bus.items()} == {"t0": 4 * 105, "t1": 4 * 105}
    assert [c.period for c in ts.core] == [5 * span, 5 * span]      # t0.c0, t1.c1
    assert ts.tx[0].period == 4 * 420
    assert ts.rx[0].period == 4 * 420


def test_refine_reduction_tightens_every_wait():
    spec = make_spec()
    base = refined(spec)
    tight = refined(spec, a=TR)
    for kind, key in (("core", 0), ("bus", "t0"), ("tx", 0)):
        t, b = getattr(tight, kind)[key], getattr(base, kind)[key]
        assert t.period - t.weight * t.slot_len <= b.period - b.weight * b.slot_len
