"""Binding decode, routing, isolation schemes, objectives, documents."""

import functools
import gc
import json
import operator
import weakref
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from isoexplore import dse, kernels
from isoexplore.errors import MissingCoefficient, SpecError, ValidationError
from isoexplore.mapping import (
    ExplorationMode,
    Genotype,
    IsolationScheme,
    decode,
    edge_record,
    effective_mem_demand,
    energy,
    from_bindings,
    load_mapping_doc,
    random_genotype,
    resource_usage,
    route_instances,
    xy_route,
)
from isoexplore.generator import generate_spec
from isoexplore.model import emit_spec, parse_spec
from isoexplore.scheduling import Placement

from conftest import bundled_text, tight_spec_text
from test_model import JSON_VALUES, paths_in

SHARED = {"t0": "t0_0.c0", "t1": "t1_0.c0", "t2": "t0_0.c1"}


# -------------------------------------------------------------------- routing


def test_xy_route_golden():
    assert xy_route((0, 0), (0, 0)) == ()
    assert xy_route((0, 0), (2, 1)) == (
        "0,0->1,0", "1,0->2,0", "2,0->2,1")
    assert xy_route((2, 1), (0, 0)) == (
        "2,1->1,1", "1,1->0,1", "0,1->0,0")
    assert xy_route((1, 2), (1, 0)) == ("1,2->1,1", "1,1->1,0")


def routed(spec, bindings):
    """Each task's bound edge, in task order, and the routed transfers."""
    edges = [edge_record(spec, i, spec.edges_of[t.id].index(bindings[t.id]))
             for i, t in enumerate(spec.application.tasks)]
    _, remote = effective_mem_demand(spec.application, [e.tile_id for e in edges])
    return edges, route_instances(spec, edges, remote)


def test_route_instances_skips_local_consumers(two_tile_spec):
    _, transfers = routed(two_tile_spec, SHARED)
    # m0 t0->t2 stays on t0_0; only m1 t1->t2 crosses the mesh.
    assert [key for _, key, *_ in transfers] == [("m1", "t2")]
    _, _, src, dst, links, hops, _ = transfers[0]
    assert (src.tile_id, dst.tile_id) == ("t1_0", "t0_0")
    assert links == ("1,0->0,0",)
    assert hops == 2                        # links + route hop offset


def test_effective_mem_demand_folds_local_messages(two_tile_spec):
    app = two_tile_spec.application
    arch = two_tile_spec.architecture
    eff, remote = effective_mem_demand(app, [arch.core(SHARED[t.id]).tile_id for t in app.tasks])
    # m0 (md 6) is local: producer t0 writes it, consumer t2 re-reads it.
    # m1 is remote: adapters carry it, no task-side traffic.
    assert dict(zip(app.index, eff)) == {"t0": 8 + 6, "t1": 4, "t2": 6 + 6}
    assert [key for _, key, _, _ in remote] == [("m1", "t2")]


# ------------------------------------------------------------- golden mapping


def test_shared_mapping_timing_golden(two_tile_shared):
    res = two_tile_shared
    assert res.feasible
    tasks = res.spec.application.index
    keys = [key for _, key, *_ in res.transfers]
    # each weight is read from its tuple, by position
    assert dict(zip(tasks, (v.weight for v in res.tuples.core))) == {"t0": 3, "t1": 1, "t2": 2}
    assert dict(zip(keys, (v.weight for v in res.tuples.route))) == {("m1", "t2"): 1}
    assert res.task_wcrt == {"t0": 38_000, "t1": 38_500, "t2": 45_500}
    assert res.task_terms[tasks["t0"]] == (3_000, 1_400, 12_600, 21_000)
    assert res.transfer_wctt == {("m1", "t2"): 128_240}
    assert res.makespan == 212_240
    assert res.objectives[0] == 212_240
    assert res.objectives[1] == pytest.approx(1.2)
    assert res.objectives[2] == pytest.approx(9.02)


def test_parts_always_sum_to_totals(two_tile_shared):
    res = two_tile_shared
    tasks = zip(res.spec.application.index, res.task_terms, strict=True)
    assert {t: sum(parts) for t, parts in tasks} == res.task_wcrt
    transfers = zip(res.transfers, res.transfer_terms, strict=True)
    assert {key: sum(parts) for (_, key, *_), parts in transfers} == res.transfer_wctt


SPECS = {p: generate_spec(p, mesh=(4, 4), seed=1) for p in ("consumer", "networking")}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SPECS)), st.sampled_from(list(ExplorationMode)),
       st.integers(0, 2**32))
def test_decoded_bounds_match_the_kernel_on_refined_tuples(profile, mode, seed):
    spec = SPECS[profile]
    arch = spec.architecture
    res = decode(spec, random_genotype(spec, Random(seed)), mode)
    if not res.feasible:
        return
    app = spec.application
    eff = dict(zip(app.index, effective_mem_demand(
        app, [arch.core(res.bindings[t.id]).tile_id for t in app.tasks])[0]))
    for i, t in enumerate(spec.application.tasks):
        core = arch.core(res.bindings[t.id])
        bus, ct = res.tuples.bus[core.tile_id], res.tuples.core[i]
        assert res.task_wcrt[t.id] == kernels.task_response(
            t.wcet[core.core_type], eff[t.id], arch.tile(core.tile_id).memory.service_time,
            bus.slot_len, bus.weight, bus.period, ct.slot_len, ct.weight, ct.period)
        assert res.task_wcrt[t.id] == sum(res.task_terms[i])
    assert list(res.transfer_wctt) == [key for _, key, *_ in res.transfers]
    for (_, key, *_), parts in zip(res.transfers, res.transfer_terms):
        assert res.transfer_wctt[key] == sum(parts)


def test_throughput_matches_slowest_stage(two_tile_shared):
    slowest = max(
        max(two_tile_shared.task_wcrt.values()),
        max(two_tile_shared.transfer_wctt.values()),
    )
    assert two_tile_shared.throughput == pytest.approx(1 / slowest)


# ------------------------------------------------------------- flags, schemes


def test_flags_only_count_on_hosting_resources(two_tile_spec):
    res = from_bindings(
        two_tile_spec, SHARED,
        reserved_cores={"t1_0.c2"},         # hosts nothing
        reserved_tiles=set(),
    )
    assert res.reserved_cores == frozenset()
    assert set(res.schemes) == {"t0_0.c0", "t0_0.c1", "t1_0.c0"}
    assert all(s is IsolationScheme.CORE_SHARING for s in res.schemes.values())


def test_core_flag_masked_on_reserved_tile(two_tile_spec):
    res = from_bindings(
        two_tile_spec, SHARED,
        reserved_cores={"t0_0.c0"},
        reserved_tiles={"t0_0"},
    )
    assert res.reserved_tiles == frozenset({"t0_0"})
    assert res.reserved_cores == frozenset()
    assert res.schemes["t0_0.c0"] is IsolationScheme.TILE_RESERVATION
    assert res.schemes["t0_0.c1"] is IsolationScheme.TILE_RESERVATION
    assert res.schemes["t1_0.c0"] is IsolationScheme.CORE_SHARING


def test_scheme_shorthand():
    assert IsolationScheme.CORE_SHARING.short == "CS"
    assert IsolationScheme.CORE_RESERVATION.short == "CR"
    assert IsolationScheme.TILE_RESERVATION.short == "TR"


def reference_views(spec, bindings, transfers, flagged_cores, flagged_tiles):
    """(schemes, placement, reserved cores, reserved tiles) of a binding,
    derived from the core ids in `bindings` and `arch.core(c).tile_id`
    alone, without the edge records that the product reads. A transfer's
    ends are its message's producer and its consumer."""
    arch = spec.architecture
    tile_of = {c: arch.core(c).tile_id for c in bindings.values()}
    hosting = set(bindings.values())
    reserved_tiles = frozenset({tile_of[c] for c in hosting} & set(flagged_tiles))
    reserved_cores = frozenset(
        c for c in hosting & set(flagged_cores) if tile_of[c] not in reserved_tiles)
    schemes = {
        c: IsolationScheme.TILE_RESERVATION if tile_of[c] in reserved_tiles
        else IsolationScheme.CORE_RESERVATION if c in reserved_cores
        else IsolationScheme.CORE_SHARING
        for c in sorted(hosting)
    }
    tasks_on_core = {}
    for t in spec.application.tasks:
        tasks_on_core.setdefault(bindings[t.id], []).append(t.id)
    out_of, in_of = {}, {}
    for i, (m, (_, consumer), *_) in enumerate(transfers):
        out_of.setdefault(tile_of[bindings[m.src]], []).append(i)
        in_of.setdefault(tile_of[bindings[consumer]], []).append(i)
    tile_index = {t.id: i for i, t in enumerate(arch.tiles)}
    tiles = []
    for tid in sorted({tile_of[c] for c in tasks_on_core}, key=tile_index.get):
        tile = arch.tile(tid)
        tiles.append((tile, tuple(c for c in tile.cores if c.id in tasks_on_core),
                      tuple(out_of.get(tid, ())), tuple(in_of.get(tid, ()))))
    placement = Placement({c: tuple(tasks_on_core[c]) for c in sorted(tasks_on_core)},
                          tuple(tiles))
    return schemes, placement, reserved_cores, reserved_tiles


def assert_views_match_the_reference(res, flagged_cores, flagged_tiles):
    schemes, placement, cores, tiles = reference_views(
        res.spec, res.bindings, res.transfers, flagged_cores, flagged_tiles)
    assert list(res.schemes.items()) == list(schemes.items())
    assert res.placement == placement
    assert list(res.placement.tasks_on_core) == list(placement.tasks_on_core)
    assert (res.reserved_cores, res.reserved_tiles) == (cores, tiles)


def genotype_flags(spec, genotype, mode):
    """The core and tile ids that `mode` and `genotype` flag, before masking."""
    cores = [c.id for c in spec.architecture.cores]
    tiles = [t.id for t in spec.architecture.tiles]
    if mode is ExplorationMode.FIXED_CS:
        return [], []
    if mode is ExplorationMode.FIXED_CR:
        return cores, []
    if mode is ExplorationMode.FIXED_TR:
        return [], tiles
    return ([c for c, f in zip(cores, genotype.core_flags) if f],
            [t for t, f in zip(tiles, genotype.tile_flags) if f])


REFERENCE_SPECS = {f"{p} {w}x{w}": generate_spec(p, (w, w), 2)
                   for p in ("networking", "consumer") for w in (2, 3)}
REFERENCE_SPECS["tight networking 2x2"] = parse_spec(tight_spec_text())


@pytest.mark.parametrize("name", sorted(REFERENCE_SPECS))
def test_views_and_flags_match_a_derivation_from_bindings(name):
    # Decodes in all four modes, feasible or not (the tight spec's mostly
    # not), then documents of the same bindings in reversed task order
    # whose flags name idle cores and tiles too.
    spec = REFERENCE_SPECS[name]
    arch = spec.architecture
    rng = Random(23)
    results = []
    for i in range(40):
        g = random_genotype(spec, rng)
        mode = list(ExplorationMode)[i % 4]
        results.append(decode(spec, g, mode))
        assert_views_match_the_reference(results[-1], *genotype_flags(spec, g, mode))
    for res in results[:20]:
        cores = {c.id for c in arch.cores if rng.random() < 0.5}
        tiles = {t.id for t in arch.tiles if rng.random() < 0.5}
        doc = {"bindings": dict(reversed(res.bindings.items())),
               "core_flags": {c.id: "reserved" if c.id in cores else "shared"
                              for c in arch.cores},
               "tile_flags": {t.id: "reserved" if t.id in tiles else "shared"
                              for t in arch.tiles}}
        loaded = load_mapping_doc(spec, doc)
        assert list(loaded.bindings) == list(reversed(res.bindings))
        assert_views_match_the_reference(loaded, cores, tiles)


def test_isolation_tightens_bounds(two_tile_spec):
    shared = from_bindings(two_tile_spec, SHARED)
    core_res = from_bindings(
        two_tile_spec, SHARED,
        reserved_cores={"t0_0.c0", "t0_0.c1", "t1_0.c0"})
    tile_res = from_bindings(
        two_tile_spec, SHARED, reserved_tiles={"t0_0", "t1_0"})
    for t in shared.task_wcrt:
        assert tile_res.task_wcrt[t] <= core_res.task_wcrt[t] <= shared.task_wcrt[t]
    assert tile_res.makespan <= core_res.makespan <= shared.makespan
    assert (tile_res.objectives[1] >= core_res.objectives[1]
            >= shared.objectives[1])


# --------------------------------------------------------------------- decode


def test_decode_wraps_out_of_range_genes(two_tile_spec):
    n_cores = len(two_tile_spec.architecture.cores)
    g1 = Genotype((0, 1, 2), (0,) * n_cores, (0, 0))
    g2 = Genotype((6, 7, 8), (0,) * n_cores, (0, 0))  # same after wrap
    assert decode(two_tile_spec, g1).digest == decode(two_tile_spec, g2).digest


def test_decode_fixed_modes_override_flags(two_tile_spec):
    n_cores = len(two_tile_spec.architecture.cores)
    g = Genotype((0, 3, 1), (1,) * n_cores, (1, 1))
    cs = decode(two_tile_spec, g, ExplorationMode.FIXED_CS)
    assert cs.reserved_cores == frozenset() and cs.reserved_tiles == frozenset()
    assert all(s is IsolationScheme.CORE_SHARING for s in cs.schemes.values())
    cr = decode(two_tile_spec, g, ExplorationMode.FIXED_CR)
    assert cr.reserved_tiles == frozenset()
    assert all(s is IsolationScheme.CORE_RESERVATION for s in cr.schemes.values())
    tr = decode(two_tile_spec, g, ExplorationMode.FIXED_TR)
    assert all(s is IsolationScheme.TILE_RESERVATION for s in tr.schemes.values())
    assert cs.mode is ExplorationMode.FIXED_CS


def test_decode_is_deterministic(two_tile_spec):
    rng = Random(11)
    for _ in range(25):
        g = random_genotype(two_tile_spec, rng)
        a = decode(two_tile_spec, g)
        b = decode(two_tile_spec, g)
        assert a.digest == b.digest
        assert a.objectives == b.objectives
        assert a.task_wcrt == b.task_wcrt


def test_digest_tracks_decision_variables(two_tile_spec):
    base = from_bindings(two_tile_spec, SHARED)
    flagged = from_bindings(two_tile_spec, SHARED, reserved_tiles={"t0_0"})
    moved = from_bindings(two_tile_spec, {**SHARED, "t2": "t1_0.c1"})
    assert len({base.digest, flagged.digest, moved.digest}) == 3
    assert base.digest == from_bindings(two_tile_spec, dict(SHARED)).digest


# ----------------------------------------------------------------- objectives


def test_resource_usage_tiers(two_tile_spec):
    loads = {"t0_0.c0": 3, "t1_0.c0": 1, "t0_0.c1": 2}
    edges, _ = routed(two_tile_spec, SHARED)
    hosts = sorted(edges, key=lambda e: e.rank)     # one task per core
    shared = resource_usage(hosts, (set(), set()), loads)
    assert shared == pytest.approx(3 / 5 + 2 / 5 + 1 / 5)
    core_res = resource_usage(hosts, ({"t0_0.c0"}, set()), loads)
    assert core_res == pytest.approx(1 + 2 / 5 + 1 / 5)
    tile_res = resource_usage(hosts, (set(), {"t0_0"}), loads)
    assert tile_res == pytest.approx(3 + 1 / 5)     # all 3 cores of t0_0


def test_objectives_strictly_positive(two_tile_spec):
    rng = Random(4)
    feasible = 0
    for _ in range(30):
        res = decode(two_tile_spec, random_genotype(two_tile_spec, rng))
        if not res.feasible:
            continue                        # crowded cores may overload
        feasible += 1
        assert all(v > 0 for v in res.objectives)
    assert feasible >= 10


def test_energy_requires_every_coefficient(two_tile_spec):
    doc = json.loads(bundled_text("specs", "join_two_tile.json"))
    for key in ("static_per_core", "e_link", "dynamic_per_core_type"):
        broken = json.loads(json.dumps(doc))
        broken["architecture"]["energy"].pop(key)
        spec = parse_spec(json.dumps(broken))
        with pytest.raises(MissingCoefficient) as raised:
            from_bindings(spec, SHARED)
        # A decode that raises leaves no entry, so the next decode raises too.
        assert spec.tables[("results",)] == {}
        with pytest.raises(MissingCoefficient):
            from_bindings(spec, SHARED)
        del raised


def test_energy_charges_noc_only_for_remote_traffic(two_tile_spec):
    edges, transfers = routed(two_tile_spec, SHARED)
    local_only = energy(two_tile_spec, edges, (), 1.0)
    with_noc = energy(two_tile_spec, edges, transfers, 1.0)
    assert with_noc > local_only


# ------------------------------------------------------------------ documents


def test_to_doc_matches_bundled_document(two_tile_shared):
    doc = two_tile_shared.to_doc()
    bundled = json.loads(bundled_text("mappings", "join_two_tile_shared.json"))
    assert doc == bundled


def test_mapping_doc_round_trip(two_tile_spec, two_tile_shared):
    doc = two_tile_shared.to_doc()
    again = load_mapping_doc(two_tile_spec, doc)
    assert again.digest == two_tile_shared.digest
    assert again.objectives == two_tile_shared.objectives
    assert again.to_doc() == doc


def test_to_doc_reports_wcrt_breakdown(two_tile_shared):
    doc = two_tile_shared.to_doc()
    entry = doc["timing"]["wcrt"]["t0"]
    assert entry == {"wcet": 3_000, "mem_service": 1_400,
                     "i_bus": 12_600, "i_core": 21_000, "total": 38_000}
    wctt = doc["timing"]["wctt"]["m1->t2"]
    assert wctt["total"] == wctt["d_tx"] + wctt["d_noc"] + wctt["d_rx"]


def test_from_bindings_validation(two_tile_spec):
    with pytest.raises(ValidationError, match="no binding"):
        from_bindings(two_tile_spec, {"t0": "t0_0.c0"})
    with pytest.raises(ValidationError, match="unknown task"):
        from_bindings(two_tile_spec, {**SHARED, "zz": "t0_0.c0"})
    with pytest.raises(ValidationError, match="unknown core"):
        from_bindings(two_tile_spec, SHARED, reserved_cores={"nope"})
    with pytest.raises(ValidationError, match="unknown tile"):
        from_bindings(two_tile_spec, SHARED, reserved_tiles={"nope"})
    with pytest.raises(ValidationError, match="t0 -> t9_9.c0 is not among its mapping edges"):
        from_bindings(two_tile_spec, {**SHARED, "t0": "t9_9.c0"})
    doc = json.loads(emit_spec(two_tile_spec))
    doc["mapping_edges"] = [e for e in doc["mapping_edges"] if e["core"] != "t1_0.c2"]
    with pytest.raises(ValidationError, match="t0 -> t1_0.c2 is not among its mapping edges"):
        from_bindings(parse_spec(json.dumps(doc)), {**SHARED, "t0": "t1_0.c2"})


def test_load_mapping_doc_needs_bindings(two_tile_spec):
    with pytest.raises(ValidationError, match="bindings"):
        load_mapping_doc(two_tile_spec, {"core_flags": {}})


@pytest.mark.parametrize(
    "field, flags",
    [
        ("core_flags", {"t0_0.c0": True}),
        ("core_flags", {"t0_0.c0": 1}),
        ("core_flags", {"t0_0.c0": "Reserved"}),
        ("core_flags", {"t0_0.c0": ["reserved"]}),
        ("core_flags", {"t0_0.c0": None}),
        ("core_flags", {"zz": "shared"}),
        ("core_flags", {"t0_0": "reserved"}),
        ("tile_flags", {"t0_0": "bogus"}),
        ("tile_flags", {"t0_0": False}),
        ("tile_flags", {"zz": "shared"}),
        ("tile_flags", {"t0_0.c0": "reserved"}),
    ],
)
def test_load_mapping_doc_rejects_bad_flags(two_tile_spec, field, flags):
    with pytest.raises(ValidationError, match=field):
        load_mapping_doc(two_tile_spec, {"bindings": SHARED, field: flags})


def test_load_mapping_doc_reads_both_flag_values(two_tile_spec):
    res = load_mapping_doc(two_tile_spec, {
        "bindings": SHARED,
        "core_flags": {"t0_0.c0": "reserved", "t0_0.c1": "shared", "t1_0.c1": "reserved"},
        "tile_flags": {"t0_0": "shared", "t1_0": "reserved"},
    })
    assert res.reserved_cores == {"t0_0.c0"}
    assert res.reserved_tiles == {"t1_0"}


@pytest.mark.parametrize("mode", list(ExplorationMode))
def test_every_to_doc_loads_back(mode):
    spec = generate_spec("networking", (2, 2), 3)
    rng = Random(11)
    for _ in range(20):
        res = decode(spec, random_genotype(spec, rng), mode)
        again = load_mapping_doc(spec, res.to_doc())
        assert again.digest == res.digest
        assert again.objectives == res.objectives


def test_infeasible_binding_reports_reason(two_tile_spec):
    res = from_bindings(
        two_tile_spec, {"t0": "t0_0.c0", "t1": "t0_0.c0", "t2": "t0_0.c0"})
    assert not res.feasible
    assert res.reason
    assert res.objectives is None
    doc = res.to_doc()
    assert doc["feasible"] is False and "reason" in doc


def test_complete_dag_decodes():
    # 30 tasks and every forward pair wired: 2**28 end-to-end chains.
    doc = json.loads(emit_spec(generate_spec("telecom", (1, 1), 0,
                                             tasks=30, messages=435)))
    for node in (*doc["application"]["tasks"], *doc["application"]["messages"]):
        node["period_us"] *= 2                 # room for eight tasks per core
    spec = parse_spec(json.dumps(doc))
    cores = spec.architecture.tiles[0].cores
    res = from_bindings(spec, {t.id: cores[k % len(cores)].id
                               for k, t in enumerate(spec.application.tasks)})
    assert res.feasible and not res.transfer_wctt        # every transfer is local
    assert res.makespan == sum(res.task_wcrt.values())   # the chain through all


# ------------------------------------------------------------ per-spec tables


TABLE_SPECS = {
    **{p: emit_spec(generate_spec(p, (4, 4), 0))
       for p in ("automotive", "consumer", "networking", "telecom")},
    "tight": tight_spec_text(),
}


@pytest.mark.parametrize("name", sorted(TABLE_SPECS))
def test_warm_tables_decode_like_a_fresh_spec(name):
    # json.dumps without sort_keys also compares the order of every
    # document map; the tuple maps follow the architecture's tile order.
    text = TABLE_SPECS[name]
    warm = parse_spec(text)
    arch = warm.architecture
    core_ids = [c.id for c in arch.cores]
    tile_ids = [t.id for t in arch.tiles]
    rng = Random(5)
    modes = list(ExplorationMode)
    reasons = set()
    for i in range(300):
        g = random_genotype(warm, rng)
        mode = modes[i % len(modes)]
        doc = decode(warm, g, mode).to_doc()
        assert json.dumps(doc) == json.dumps(decode(parse_spec(text), g, mode).to_doc())
        reasons.add(" ".join(doc.get("reason", "feasible").split()[:3]))
        if doc["feasible"]:
            tuples = doc["tuples"]
            assert list(tuples["core_bus"]) == [c for c in core_ids if c in tuples["core_bus"]]
            for side in ("tx_bus", "rx_bus"):
                assert list(tuples[side]) == [t for t in tile_ids if t in tuples[side]]

        bindings = doc["bindings"]
        cores = {c.id for c, bit in zip(arch.cores, g.core_flags) if not bit}
        tiles = {t.id for t, bit in zip(arch.tiles, g.tile_flags) if not bit}
        doc = from_bindings(warm, bindings, cores, tiles).to_doc()
        fresh = from_bindings(parse_spec(text), bindings, cores, tiles).to_doc()
        assert json.dumps(doc) == json.dumps(fresh)
    assert warm.tables
    if name == "tight":
        # failed searches are kept in the tables too
        assert {"feasible", "no core weight", "no transfer weight"} <= reasons


@pytest.mark.parametrize("name", sorted(TABLE_SPECS))
def test_live_results_share_decodes_like_a_fresh_spec(name):
    # Every result stays alive, so each binding decoded again (under
    # another mode, or bound explicitly) may reuse what an earlier decode
    # of it holds; no later decode may change an earlier result.
    text = TABLE_SPECS[name]
    warm = parse_spec(text)
    rng = Random(8)
    kept, dumps = [], []
    for _ in range(12):
        g = random_genotype(warm, rng)
        for mode in ExplorationMode:
            res = decode(warm, g, mode)
            assert decode(warm, g, mode) is res
            dump = json.dumps(res.to_doc())
            assert dump == json.dumps(decode(parse_spec(text), g, mode).to_doc())
            kept.append(res)
            dumps.append(dump)
        args = (res.bindings, res.reserved_cores, res.reserved_tiles)
        res = from_bindings(warm, *args)
        dump = json.dumps(res.to_doc())
        assert dump == json.dumps(from_bindings(parse_spec(text), *args).to_doc())
        kept.append(res)
        dumps.append(dump)
    assert [json.dumps(r.to_doc()) for r in kept] == dumps


def test_reordered_binding_names_its_own_overloaded_core():
    # Core loads are summed in binding order, so which overloaded core a
    # binding names depends on that order: a live result of one order must
    # not answer for the same binding in another.
    doc = json.loads(emit_spec(generate_spec("automotive", (2, 2), 2)))
    for tile_type in doc["architecture"]["tile_types"]:
        tile_type["core_policy"]["capacity"] = 4
    text = json.dumps(doc)
    spec = parse_spec(text)
    tasks = [t.id for t in spec.application.tasks]
    cores = [c.id for c in spec.architecture.cores]
    differs = []
    for hosts in (cores[:2], cores[:3], cores[::-5], cores[1::7], cores[2:4], cores[::3]):
        forward = {t: hosts[k % len(hosts)] for k, t in enumerate(tasks)}
        kept = from_bindings(spec, forward)
        assert from_bindings(spec, forward) is kept
        backward = dict(reversed(forward.items()))
        other = from_bindings(spec, backward)
        assert other is not kept
        doc = other.to_doc()
        assert json.dumps(doc) == json.dumps(
            from_bindings(parse_spec(text), backward).to_doc())
        differs.append(kept.reason != doc.get("reason"))
    assert sum(differs) == 5


def test_live_results_map_lives_only_as_long_as_its_results():
    spec = generate_spec("networking", (4, 4), 0)
    rng = Random(2)
    genotypes = [random_genotype(spec, rng) for _ in range(30)]
    results = [decode(spec, g, mode) for g in genotypes for mode in ExplorationMode]
    live = spec.tables[("results",)]
    keys = [(r.mode, r.reserved_cores, r.reserved_tiles, *r.bindings, *r.bindings.values())
            for r in results]
    assert len(live) == len(set(keys))
    assert all(live[k] is r for k, r in zip(keys, results))
    gc.disable()            # reference counting alone empties the map
    try:
        del results
        assert len(live) == 0
    finally:
        gc.enable()
    for mode in ExplorationMode:
        decode(spec, genotypes[0], mode)
        size = len(spec.tables)
        kept = decode(spec, genotypes[0], mode)
        for _ in range(5):
            assert decode(spec, genotypes[0], mode) is kept
            assert len(spec.tables) == size
        assert len(live) == 1
        del kept
        decode(spec, genotypes[0], mode)
        assert len(spec.tables) == size
    assert len(live) == 0


def test_a_repeated_phenotype_returns_its_live_result():
    spec = generate_spec("networking", (4, 4), 0)
    arch = spec.architecture
    rng = Random(4)
    for _ in range(20):
        g = random_genotype(spec, rng)
        res = decode(spec, g)
        assert decode(spec, g) is res
        args = (res.bindings, res.reserved_cores, res.reserved_tiles)
        assert from_bindings(spec, *args) is res
        # flags of cores and tiles that host nothing are masked out
        idle_cores = {c.id for c in arch.cores} - set(res.placement.tasks_on_core)
        idle_tiles = {t.id for t in arch.tiles} - {t.id for t, *_ in res.placement.tiles}
        assert idle_cores and idle_tiles
        assert from_bindings(spec, res.bindings, res.reserved_cores | idle_cores,
                             res.reserved_tiles | idle_tiles) is res
        # the same bindings and flags under another mode: another result,
        # whose document names its own mode
        fixed = decode(spec, g, ExplorationMode.FIXED_CS)
        free = from_bindings(spec, res.bindings)
        assert fixed is not free
        a, b = fixed.to_doc(), free.to_doc()
        assert (a.pop("mode"), b.pop("mode")) == ("FixedCS", "IsolationAware")
        assert json.dumps(a) == json.dumps(b)


def test_dead_references_are_misses():
    # While the map is being iterated, the entry of a result that dies
    # stays in it until the iteration ends. A decode that finds such an
    # entry builds afresh, and the newer entry outlives the iteration.
    text = bundled_text("specs", "join_two_tile.json")
    spec = parse_spec(text)
    expected = json.dumps(from_bindings(parse_spec(text), SHARED).to_doc())
    first = from_bindings(spec, SHARED)
    live = spec.tables[("results",)]
    key = (first.mode, first.reserved_cores, first.reserved_tiles,
           *SHARED, *SHARED.values())
    assert live[key] is first
    gone = weakref.ref(first)
    refs = live.itervaluerefs()
    assert next(refs)() is first        # the iteration has begun
    del first
    assert gone() is None and key in live.data      # dead, but still there
    second = from_bindings(spec, SHARED)
    assert live[key] is second
    refs.close()                        # the iteration ends
    assert live[key] is second and len(live) == 1
    assert json.dumps(second.to_doc()) == expected


# ------------------------------------------------------------- derived views


VIEWS = ("schemes", "placement", "task_wcrt", "transfer_wctt")


def test_explore_derives_no_view(monkeypatch):
    # Ranking reads feasibility, objectives and digests only; the views are
    # derived on first read, and a reloaded archive entry reads them all.
    text = emit_spec(generate_spec("consumer", (4, 4), 1))
    spec = parse_spec(text)
    decoded = []

    def keep(*args):
        decoded.append(decode(*args))
        return decoded[-1]

    monkeypatch.setattr(dse, "decode", keep)
    result = dse.explore(spec, ExplorationMode.ISOLATION_AWARE, seed=1, iterations=20)
    assert len(decoded) == result.evaluations
    assert [v for r in decoded for v in VIEWS if v in vars(r)] == []
    fresh = parse_spec(text)
    for entry in result.archive.entries:
        assert load_mapping_doc(fresh, entry.to_doc()).objectives == entry.objectives


@pytest.mark.parametrize("name", sorted(TABLE_SPECS))
def test_views_read_late_and_in_any_order_match_a_fresh_decode(name):
    # Every result is kept and read only after all are decoded, its views
    # in a shuffled order: a view must not depend on tables that later
    # decodes filled, nor on which view was read first.
    text = TABLE_SPECS[name]
    warm = parse_spec(text)
    rng = Random(21)
    modes = list(ExplorationMode)
    kept = []
    for i in range(300):
        g = random_genotype(warm, rng)
        kept.append((g, modes[i % len(modes)], decode(warm, g, modes[i % len(modes)])))
    assert [v for *_, r in kept for v in VIEWS if v in vars(r)] == []
    for g, mode, res in kept:
        for view in rng.sample(VIEWS, len(VIEWS)):
            getattr(res, view)
        fresh = decode(parse_spec(text), g, mode)
        assert json.dumps(res.to_doc()) == json.dumps(fresh.to_doc())


MAPPED_SPEC = parse_spec(bundled_text("specs", "join_two_tile.json"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_mapping_document_loads_or_raises_a_spec_error(data):
    """1-3 edits of the bundled mapping document, each dropping a key or
    replacing a value with one of another JSON type."""
    doc = json.loads(bundled_text("mappings", "join_two_tile_shared.json"))
    for _ in range(data.draw(st.integers(1, 3))):
        *head, key = data.draw(st.sampled_from(list(paths_in(doc))))
        parent = functools.reduce(operator.getitem, head, doc)
        kinds = [kind for kind in JSON_VALUES if kind is not type(parent[key])]
        kind = data.draw(st.sampled_from([None, *kinds]))
        if kind is None:
            del parent[key]
        else:
            parent[key] = data.draw(JSON_VALUES[kind])
    try:
        load_mapping_doc(MAPPED_SPEC, doc)
    except SpecError:
        pass
