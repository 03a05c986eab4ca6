"""Adversarial discrete-event replay of the analytic bounds."""

import copy
import gc
import hashlib
import itertools
import json

import pytest

from isoexplore import generate_spec, scheduling
from isoexplore.errors import BoundViolation, DomainError, SimHorizonExceeded
from isoexplore.mapping import ExplorationMode, decode, from_bindings, random_genotype
from isoexplore.model import emit_spec, parse_spec
from isoexplore.simoracle import (
    PATTERNS,
    PHANTOM_LOADS,
    TrialConfig,
    _Engine,
    _Owner,
    _Phantom,
    _SlotArbiter,
    adversarial_sweep,
    simulate,
)

from conftest import bundled_text
from random import Random

SHARED = {"t0": "t0_0.c0", "t1": "t1_0.c0", "t2": "t0_0.c1"}


def edited_spec(edit):
    doc = json.loads(bundled_text("specs", "join_two_tile.json"))
    edit(doc)
    return parse_spec(json.dumps(doc))


# --------------------------------------------------------------------- config


def test_trial_config_validation():
    TrialConfig(seed=1)                              # defaults are valid
    TrialConfig(seed=1, phantom_load="none", pattern="mix", jobs=3)
    with pytest.raises(DomainError):
        TrialConfig(seed=1, phantom_load="heavy")
    with pytest.raises(DomainError):
        TrialConfig(seed=1, pattern="zigzag")
    with pytest.raises(DomainError):
        TrialConfig(seed=1, jobs=0)


def test_replay_doc_is_complete():
    cfg = TrialConfig(seed=5, phantom_load="random", jitter=True,
                      pattern="front", jobs=4)
    assert cfg.replay_doc() == {
        "seed": 5, "phantom_load": "random", "jitter": True,
        "pattern": "front", "jobs": 4,
    }


# ----------------------------------------------------------- platform contract


def test_rejects_bus_slot_differing_from_service_time(two_tile_shared):
    spec = edited_spec(
        lambda d: d["architecture"]["tile_types"][0]["memories"][0].update(
            {"service_time_ns": 50}))
    res = from_bindings(spec, SHARED)
    with pytest.raises(DomainError, match="bus slot"):
        simulate(spec, res, TrialConfig(seed=1))


def test_rejects_off_grid_durations():
    spec = edited_spec(
        lambda d: d["application"]["tasks"][0].update({"period_us": 50.005}))
    res = from_bindings(spec, SHARED)
    with pytest.raises(DomainError, match="not a multiple"):
        simulate(spec, res, TrialConfig(seed=1))


def test_rejects_link_arbitration_delay():
    spec = edited_spec(
        lambda d: d["architecture"]["noc"]["link_policy"].update(
            {"arb_delay": 10}))
    res = from_bindings(spec, SHARED)
    with pytest.raises(DomainError, match="link arbitration delay"):
        simulate(spec, res, TrialConfig(seed=1))


def test_rejects_message_period_off_producer_grid():
    spec = edited_spec(
        lambda d: d["application"]["messages"][0].update({"period_us": 75}))
    res = from_bindings(spec, SHARED)
    with pytest.raises(DomainError, match="producer"):
        simulate(spec, res, TrialConfig(seed=1))


def test_rejects_capacity_above_event_cap():
    # Every capacity slot is one slot-table entry: a table longer than the
    # event cap is refused before any is built.
    doc = json.loads(emit_spec(
        generate_spec("networking", mesh=(1, 1), seed=0, tasks=1, messages=0)))
    doc["architecture"]["tile_types"][0]["core_policy"]["capacity"] = 300
    doc["application"]["tasks"][0]["period_us"] = 100_000
    spec = parse_spec(json.dumps(doc))
    mapping = from_bindings(spec, {"t00": "t0_0.c0"})
    assert mapping.feasible
    with pytest.raises(DomainError, match="t0_0.c0 core capacity 300 exceeds the event cap 100"):
        simulate(spec, mapping, TrialConfig(seed=1, max_events=100))
    assert simulate(spec, mapping, TrialConfig(seed=1)).events > 0


def test_unused_capacities_above_event_cap_are_not_checked():
    # Only the tables a trial builds count: a tile that hosts no task and
    # carries no traffic, and links no transfer crosses, have none.
    doc = json.loads(emit_spec(
        generate_spec("networking", mesh=(1, 2), seed=0, tasks=1, messages=0)))
    unused = doc["architecture"]["tile_types"][1]
    unused["core_policy"]["capacity"] = 300
    unused["bus_master_weight"] = 50
    unused["bus_policy"]["capacity"] = 300
    unused["na"]["tx"]["capacity"] = unused["na"]["rx"]["capacity"] = 300
    doc["architecture"]["noc"]["link_policy"]["capacity"] = 300
    spec = parse_spec(json.dumps(doc))
    mapping = from_bindings(spec, {"t00": "t0_0.c0"})
    assert simulate(spec, mapping, TrialConfig(seed=1, max_events=100)).events > 0


def slow(doc):
    """Every period set to 10 s, so that huge demands stay feasible."""
    for item in doc["application"]["tasks"] + doc["application"]["messages"]:
        item["period_us"] = 10_000_000


# Each case needs more events of one kind than the cap allows: job
# releases, bus grants for a task's accesses or a packet's words, or link
# grants for a packet's flits.
OVER_CAP = {
    "releases": (lambda d: None, 40),
    "accesses": (lambda d: d["application"]["tasks"][0].update(mem_demand=100), 1),
    "words": (lambda d: d["application"]["messages"][1].update(mem_demand=50), 1),
    "flits": (lambda d: d["application"]["messages"][1].update(payload_bytes=1_600), 1),
}


@pytest.mark.parametrize("case", sorted(OVER_CAP))
def test_event_cap_is_checked_before_the_trial_is_set_up(monkeypatch, case):
    edit, jobs = OVER_CAP[case]
    spec = edited_spec(lambda d: (slow(d), edit(d)))
    mapping = from_bindings(spec, SHARED)
    assert simulate(spec, mapping, TrialConfig(seed=1, jobs=jobs)).events > 99

    def run(_):
        raise AssertionError("a trial over the cap ran")

    monkeypatch.setattr(_Engine, "run", run)
    with pytest.raises(SimHorizonExceeded, match="more than 99 events"):
        simulate(spec, mapping, TrialConfig(seed=1, jobs=jobs, max_events=99))


def test_rejects_infeasible_mapping(two_tile_spec):
    res = from_bindings(
        two_tile_spec, {"t0": "t0_0.c0", "t1": "t0_0.c0", "t2": "t0_0.c0"})
    assert not res.feasible
    with pytest.raises(ValueError, match="feasible"):
        simulate(two_tile_spec, res, TrialConfig(seed=1))


# ------------------------------------------------------------------- arbiter


def test_work_conserving_arbiter_charges_delay_between_distinct_owners():
    # Random(0) starts the rotation at slot 3, so the grants go to p1, p2,
    # then twice to the owner, whose two queued items are then served.
    eng = _Engine(100)
    owner, p1, p2 = _Owner(), _Phantom(), _Phantom()
    grants = []

    def grant(o, start, end):
        grants.append((o, start, end))
        if o is owner:
            owner.queue.popleft()

    arbiter = _SlotArbiter(eng, Random(0), [p2, owner, owner, p1], 10, 3, True,
                           grant, "max", True)
    owner.queue.extend("ab")
    arbiter.kick(0)
    eng.run()
    assert grants == [(p1, 0, 10), (p2, 13, 23), (owner, 26, 36), (owner, 36, 46)]
    assert eng.count == 5 and arbiter.sleeping       # 4 grants, then an idle tick


# --------------------------------------------------------------------- trials


def test_trials_are_deterministic(two_tile_spec, two_tile_shared):
    cfg = TrialConfig(seed=42, pattern="mix", jitter=True)
    a = simulate(two_tile_spec, two_tile_shared, cfg)
    b = simulate(two_tile_spec, two_tile_shared, cfg)
    assert a.responses == b.responses
    assert a.traversals == b.traversals
    assert (a.makespan, a.events) == (b.makespan, b.events)
    assert a.makespan > 0 and a.events > 0


def test_trial_records_every_job_and_packet(two_tile_spec, two_tile_shared):
    res = simulate(two_tile_spec, two_tile_shared, TrialConfig(seed=3, jobs=2))
    # t1 feeds m1, which fires once per 8 task periods: its job count grows
    # so that two full packets are still observed.
    assert len(res.responses["t0"]) == 2
    assert len(res.responses["t2"]) == 2
    assert len(res.responses["t1"]) == 16
    assert list(res.traversals) == [("m1", "t2")]
    assert len(res.traversals[("m1", "t2")]) == 2
    assert all(v > 0 for vals in res.responses.values() for v in vals)


REMOTE = {"t00": "t0_0.c0", "t01": "t1_0.c0", "t02": "t0_1.c0", "t03": "t1_1.c0",
          "t04": "t0_0.c1", "t05": "t1_1.c1", "t06": "t1_0.c1"}

GOLDEN = {
    "max": (5922, 27657330, {
        "t00": [442820, 272540, 452050, 212260], "t01": [15980, 446540],
        "t02": [268280, 517510], "t03": [561400, 392100],
        "t04": [391310, 341590, 461730, 220890],
        "t05": [93440, 583020, 522670, 402880], "t06": [507960, 158380],
    }, {
        ("m00", "t04"): [89830, 80280], ("m01", "t05"): [52830, 52920, 55460, 49440],
        ("m02", "t03"): [41370, 36490], ("m03", "t06"): [53220, 44910],
        ("m05", "t06"): [39540, 38380], ("m06", "t03"): [20970, 35510],
        ("m07", "t01"): [22250, 16180],
    }),
    "random": (4842, 27515600, {
        "t00": [81630, 92120, 92190, 92190], "t01": [76190, 266120],
        "t02": [147160, 27370], "t03": [201540, 150980],
        "t04": [331030, 221170, 161310, 30960],
        "t05": [93090, 342670, 32530, 102390], "t06": [388240, 338100],
    }, {
        ("m00", "t04"): [47640, 52290], ("m01", "t05"): [29380, 28650, 28180, 27780],
        ("m02", "t03"): [19280, 20030], ("m03", "t06"): [40240, 39670],
        ("m05", "t06"): [18530, 16020], ("m06", "t03"): [16630, 22520],
        ("m07", "t01"): [13920, 15540],
    }),
    "none": (2576, 27419200, {
        "t00": [21210] * 4, "t01": [14440] * 2, "t02": [25060] * 2,
        "t03": [20350] * 2, "t04": [30680] * 4, "t05": [31760] * 4,
        "t06": [27610] * 2,
    }, {
        ("m00", "t04"): [3140, 3140], ("m01", "t05"): [3200, 2360, 3200, 2360],
        ("m02", "t03"): [1640, 1640], ("m03", "t06"): [2420, 2420],
        ("m05", "t06"): [1320, 1320], ("m06", "t03"): [1740, 1740],
        ("m07", "t01"): [2020, 1180],
    }),
}


@pytest.mark.parametrize("load", sorted(GOLDEN))
def test_trial_golden_on_remote_mapping(small_mesh_spec, load):
    # Pins the simulator's event order and arbitration: one- and two-hop
    # transfers, shared links, both adapters, jitter and mixed patterns.
    mapping = from_bindings(small_mesh_spec, REMOTE)
    res = simulate(small_mesh_spec, mapping, TrialConfig(
        seed=7, phantom_load=load, jitter=True, pattern="mix"))
    events, makespan, responses, traversals = GOLDEN[load]
    assert (res.events, res.makespan) == (events, makespan)
    assert res.responses == responses
    assert res.traversals == traversals


@pytest.mark.parametrize("load", sorted(GOLDEN))
def test_event_cap_trips_at_the_exact_count(small_mesh_spec, load):
    # The cap counts every popped event: a trial capped at its own event
    # count runs to the same end, and one event less raises.
    mapping = from_bindings(small_mesh_spec, REMOTE)
    cfg = dict(seed=7, phantom_load=load, jitter=True, pattern="mix")
    res = simulate(small_mesh_spec, mapping, TrialConfig(**cfg))
    assert res == simulate(small_mesh_spec, mapping,
                           TrialConfig(**cfg, max_events=res.events))
    with pytest.raises(SimHorizonExceeded):
        simulate(small_mesh_spec, mapping, TrialConfig(**cfg, max_events=res.events - 1))


def test_finished_trial_is_freed_by_reference_counting(small_mesh_spec):
    mapping = from_bindings(small_mesh_spec, REMOTE)
    gc.collect()
    gc.disable()
    try:
        for load in PHANTOM_LOADS:
            simulate(small_mesh_spec, mapping, TrialConfig(
                seed=7, phantom_load=load, jitter=True, pattern="mix"))
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_exclusive_path_is_observed_exactly():
    # One task alone on a reserved single-tile mesh: the simulator must
    # reproduce the collapsed bound with zero slack, whatever the adversary
    # does elsewhere.
    spec = generate_spec("networking", mesh=(1, 1), seed=0, tasks=1, messages=0)
    task = spec.application.tasks[0]
    core = spec.architecture.cores[0]
    mapping = from_bindings(spec, {task.id: core.id}, reserved_tiles={"t0_0"})
    st = spec.architecture.tile("t0_0").memory.service_time
    exact = task.wcet[core.core_type] + task.mem_demand * st
    for seed in (1, 2):
        for pattern in ("front", "back", "spread", "mix"):
            res = simulate(spec, mapping, TrialConfig(
                seed=seed, phantom_load="max", jitter=True, pattern=pattern))
            assert res.responses[task.id] == [exact, exact]
    assert mapping.task_wcrt[task.id] >= exact


def test_job_without_accesses_runs_for_its_wcet():
    # No memory demand: no access offsets are drawn, whatever the pattern.
    doc = json.loads(emit_spec(
        generate_spec("networking", mesh=(1, 1), seed=0, tasks=1, messages=0)))
    doc["application"]["tasks"][0]["mem_demand"] = 0
    spec = parse_spec(json.dumps(doc))
    task = spec.application.tasks[0]
    mapping = from_bindings(spec, {task.id: "t0_0.c0"}, reserved_tiles={"t0_0"})
    wcet = task.wcet[spec.architecture.core("t0_0.c0").core_type]
    for pattern in PATTERNS:
        res = simulate(spec, mapping, TrialConfig(seed=1, jitter=True, pattern=pattern))
        assert res.responses[task.id] == [wcet, wcet]


@pytest.mark.parametrize("load, responses", [
    ("max", [10560, 17460, 21700, 28200]),
    ("none", [4450, 4850, 5250, 5650]),
])
def test_finished_job_hands_the_rest_of_its_window_on(two_tile_spec, load, responses):
    # t0's period is cut to 4 us, below its response time, so each job is
    # still queued when the one before it finishes inside the window.
    mapping = from_bindings(two_tile_spec, SHARED)
    spec = edited_spec(lambda d: d["application"]["tasks"][0].update({"period_us": 4}))
    res = simulate(spec, mapping, TrialConfig(seed=1, phantom_load=load, jobs=4))
    assert res.responses["t0"] == responses


def tdm_cores(spec):
    doc = json.loads(emit_spec(spec))
    for tile_type in doc["architecture"]["tile_types"]:
        tile_type["core_policy"]["work_conserving"] = False
    return doc


@pytest.mark.parametrize("load", ["max", "random", "none"])
def test_tdm_job_released_mid_slot_runs_in_that_slot(load):
    # Core timetable: 10 slots of 10 us delay + 50 us, the task owns the
    # first. The second job is released at 4,220 us, 20 us into its own
    # slot, and must finish by the slot's end at 4,260 us instead of
    # waiting a whole 600 us period.
    doc = tdm_cores(generate_spec("networking", mesh=(1, 1), seed=0, tasks=1, messages=0))
    doc["application"]["tasks"][0]["period_us"] = 4220
    spec = parse_spec(json.dumps(doc))
    mapping = from_bindings(spec, {"t00": "t0_0.c0"})
    res = simulate(spec, mapping, TrialConfig(seed=1, phantom_load=load))
    first, second = res.responses["t00"]
    assert second <= 40_000
    assert max(first, second) <= mapping.task_wcrt["t00"]


def test_sweep_bounds_hold_with_tdm_cores(small_mesh_spec):
    spec = parse_spec(json.dumps(tdm_cores(small_mesh_spec)))
    rng = Random(3)
    res = decode(spec, random_genotype(spec, rng))
    while not res.feasible:
        res = decode(spec, random_genotype(spec, rng))
    sweep = adversarial_sweep(spec, res, trials=6, seed=3)
    assert all(row["margin_ns"] >= 0 for row in sweep.rows())


# ---------------------------------------------------------------------- sweep


def test_sweep_validates_trials(two_tile_spec, two_tile_shared):
    with pytest.raises(DomainError):
        adversarial_sweep(two_tile_spec, two_tile_shared, trials=0)


def test_sweep_bounds_hold_on_bundled_example(two_tile_spec, two_tile_shared):
    sweep = adversarial_sweep(two_tile_spec, two_tile_shared, trials=6, seed=1)
    rows = sweep.rows()
    assert {r["id"] for r in rows} == {"t0", "t1", "t2", "m1->t2"}
    for row in rows:
        assert row["samples"] > 0
        assert row["worst_ns"] > 0
        assert row["margin_ns"] >= 0
        assert row["worst_ns"] <= row["bound_ns"]
    by_id = {r["id"]: r for r in rows}
    assert by_id["t0"]["kind"] == "task"
    assert by_id["m1->t2"]["kind"] == "transfer"
    assert by_id["t0"]["samples"] == 6 * 2


def test_sweep_bounds_hold_on_random_mappings(small_mesh_spec):
    rng = Random(12)
    checked = 0
    while checked < 3:
        res = decode(small_mesh_spec, random_genotype(small_mesh_spec, rng))
        if not res.feasible:
            continue
        checked += 1
        sweep = adversarial_sweep(small_mesh_spec, res, trials=4, seed=checked)
        assert all(row["margin_ns"] >= 0 for row in sweep.rows())


def test_sweep_refutes_a_reduction_the_isolation_scheme_forbids(monkeypatch):
    # A planted fault: refinement shrinks every hosting core's cycle as if
    # the core were reserved. The simulator sizes its tables from the spec
    # and the mapping's own reserved sets, so it keeps the phantoms that the
    # shrunk bounds leave out, and a trial exceeds one of them. The spec is
    # fresh, since the faulty tuples stay in its tables.
    refine = scheduling.refine_tuples

    def every_core_reserved(spec, edges, transfers, task_weights, transfer_weights,
                            reserved, loads):
        return refine(spec, edges, transfers, task_weights, transfer_weights,
                      ({e.core_id for e in edges}, reserved[1]), loads)

    monkeypatch.setattr(scheduling, "refine_tuples", every_core_reserved)
    spec = generate_spec("networking", (2, 2), 3)
    rng = Random(0)
    res = decode(spec, random_genotype(spec, rng))
    while not res.feasible:
        res = decode(spec, random_genotype(spec, rng))
    with pytest.raises(BoundViolation, match="exceeds bound"):
        adversarial_sweep(spec, res, trials=4, seed=3)


def test_sweep_accepts_fixed_phantom_load(two_tile_spec, two_tile_shared):
    sweep = adversarial_sweep(
        two_tile_spec, two_tile_shared, trials=2, seed=4, phantom_load="none")
    assert all(row["margin_ns"] >= 0 for row in sweep.rows())


def test_violation_carries_replayable_scenario(two_tile_spec, two_tile_shared):
    with pytest.raises(BoundViolation) as exc:
        adversarial_sweep(
            two_tile_spec, two_tile_shared, trials=3, seed=2,
            bound_overrides={"t1": 1},
        )
    replay = exc.value.replay
    assert replay["id"] == "t1"
    assert replay["bound"] == 1
    assert replay["observed"] > 1
    assert replay["trial"] == 0
    assert set(replay) >= {"seed", "phantom_load", "jitter", "pattern", "jobs"}
    # The scenario replays to the reported observation.
    cfg = TrialConfig(
        seed=replay["seed"], phantom_load=replay["phantom_load"],
        jitter=replay["jitter"], pattern=replay["pattern"], jobs=replay["jobs"],
    )
    res = simulate(two_tile_spec, two_tile_shared, cfg)
    assert replay["observed"] in res.responses["t1"]


# ------------------------------------------------------------------- corpus

CORPUS_SHA1 = "bbc56ce66513cbe13a12d4e4441cad265434c7f0"


def corpus_specs():
    """The networking 2x2 seed-0 spec under each of the 16 combinations of
    work-conserving core, bus, TX/RX and link arbitration."""
    base = json.loads(emit_spec(generate_spec("networking", (2, 2), 0)))
    for flags in itertools.product((True, False), repeat=4):
        core, bus, adapter, link = flags
        doc = copy.deepcopy(base)
        for tile_type in doc["architecture"]["tile_types"]:
            tile_type["core_policy"]["work_conserving"] = core
            tile_type["bus_policy"]["work_conserving"] = bus
            tile_type["na"]["tx"]["work_conserving"] = adapter
            tile_type["na"]["rx"]["work_conserving"] = adapter
        doc["architecture"]["noc"]["link_policy"]["work_conserving"] = link
        yield parse_spec(json.dumps(doc))


def test_simulate_corpus_golden():
    # Pins every trial of every policy combination: responses, traversals,
    # event counts and makespans under each phantom load and access
    # pattern, plus the rows of a short sweep.
    digest = hashlib.sha1()
    for spec in corpus_specs():
        rng = Random(0)
        mapping = decode(spec, random_genotype(spec, rng))
        while not mapping.feasible:
            mapping = decode(spec, random_genotype(spec, rng))
        for load in PHANTOM_LOADS:
            for pattern in PATTERNS + ("mix",):
                res = simulate(spec, mapping, TrialConfig(
                    seed=0, phantom_load=load, pattern=pattern, jobs=2))
                digest.update(repr((
                    sorted(res.responses.items()), sorted(res.traversals.items()),
                    res.events, res.makespan,
                )).encode())
        digest.update(repr(adversarial_sweep(spec, mapping, trials=2).rows()).encode())
    assert digest.hexdigest() == CORPUS_SHA1


def test_trials_of_results_read_late_match_a_fresh_decode():
    # Every result is kept and simulated only after all are decoded: the
    # simulator reads the transfers and tuples by position, and must not
    # depend on what later decodes left in the spec's tables.
    text = emit_spec(generate_spec("networking", (2, 2), 0))
    warm = parse_spec(text)
    rng = Random(5)
    kept = [(g, mode, decode(warm, g, mode))
            for g in [random_genotype(warm, rng) for _ in range(20)]
            for mode in ExplorationMode]
    trials = 0
    for g, mode, res in kept:
        if not res.feasible:
            continue
        cfg = TrialConfig(seed=trials, jitter=True, pattern="mix", phantom_load="random")
        fresh_spec = parse_spec(text)
        late = simulate(warm, res, cfg)
        fresh = simulate(fresh_spec, decode(fresh_spec, g, mode), cfg)
        assert (late.responses, late.traversals, late.events, late.makespan) == \
            (fresh.responses, fresh.traversals, fresh.events, fresh.makespan)
        trials += 1
    assert trials >= 40
