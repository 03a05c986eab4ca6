"""Acceptance gate: one test per shipping criterion, each timed and printed.

Each test prints exactly one `criterion N: PASS` line with its wall time;
a failing assertion is the corresponding FAIL line in the pytest report.
Randomized checks use frozen seeds so the gate is reproducible.
"""

import itertools
import json
import math
import time
from fractions import Fraction
from random import Random

import pytest

from isoexplore import kernels
from isoexplore.arbitration import ArbitrationPolicy, ArbitrationTuple, make_tuple, reduce_capacity
from isoexplore.cli import main
from isoexplore.dse import epsilon_dominance, explore, compare_approaches, nondominated
from isoexplore.generator import generate_spec, make_architecture
from isoexplore.mapping import ExplorationMode, Genotype, decode, from_bindings, random_genotype
from isoexplore.model import parse_spec
from isoexplore.scheduling import (
    bus_master_tuple,
    extended_core_policy,
    min_message_weight,
    min_task_weight,
    tile_record,
)
from isoexplore.simoracle import adversarial_sweep
from isoexplore.timing import wctt

from conftest import bundled_text

SHARED = {"t0": "t0_0.c0", "t1": "t1_0.c0", "t2": "t0_0.c1"}


def _report(n: int, started: float, limit_s: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, f"criterion {n} took {elapsed:.1f}s (limit {limit_s}s)"
    print(f"criterion {n}: PASS ({elapsed:.2f}s) - {detail}")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_reference_tuple_reproduction():
    started = time.perf_counter()
    # 1.0 ms slots, 0.2 ms handoff, five slots per cycle, in nanoseconds.
    policy = ArbitrationPolicy(1_000_000, 200_000, 5, True)
    full = make_tuple(policy, 3)
    assert full == ArbitrationTuple(1_000_000, 3, 6_000_000)
    reduced = make_tuple(policy, 3, reduce_capacity(policy, 3))
    assert reduced == ArbitrationTuple(1_000_000, 3, 3_600_000)
    _report(1, started, 1.0, "(1.0, 3, 6.0) and reduced (1.0, 3, 3.6) exact")


# --------------------------------------------------------------- criterion 2


def xceil(a, b) -> int:
    return math.ceil(Fraction(a, b))


def rand_share(rng, slot):
    w = rng.randrange(1, 6)
    k = w + rng.randrange(0, 6)
    return w, k * (slot + rng.randrange(0, 40))


def test_criterion_2_formulas_match_independent_evaluation():
    started = time.perf_counter()
    rng = Random(20260814)
    checks = 0
    for _ in range(60):
        st = rng.randrange(1, 60)
        sb = st * rng.randrange(1, 5)
        wcet = rng.randrange(1, 40_000)
        md = rng.randrange(0, 50)
        wb, pb = rand_share(rng, sb)
        sc = rng.randrange(10, 3_000)
        wc, pc = rand_share(rng, sc)

        n = 0 if md == 0 else min(md, xceil(wcet + md * st, sb))
        assert kernels.task_bus_slots(wcet, md, st, sb) == n
        stall = n * (pb - wb * sb)
        assert kernels.bus_stall(n, sb, wb, pb) == stall
        demand = wcet + md * st + stall
        core = xceil(demand, wc * sc) * (pc - wc * sc)
        assert kernels.core_stall(demand, sc, wc, pc) == core
        assert kernels.task_response(
            wcet, md, st, sb, wb, pb, sc, wc, pc) == demand + core

        deadline = rng.randrange(1, 2 * (demand + core) + 1)
        cap = rng.randrange(1, 8)
        expect = 0
        for w in range(1, cap + 1):
            r = demand + xceil(demand, w * sc) * (pc - w * sc)
            if r <= deadline:
                expect = w
                break
        assert kernels.min_task_weight(deadline, demand, sc, pc, cap) == expect
        checks += 5

    for _ in range(60):
        st = rng.randrange(1, 30)
        sb = st * rng.randrange(1, 5)
        md = rng.randrange(1, 60)
        wb, pb = rand_share(rng, sb)
        slots = xceil(md, xceil(sb, st))
        assert kernels.msg_bus_slots(md, sb, st) == slots
        us, ww = pb, rng.randrange(1, 5)
        pu = (ww + rng.randrange(0, 5)) * (us + rng.randrange(0, 20))
        rounds = xceil(slots, wb)
        adapter = (md * st + rounds * (pb - wb * sb)
                   + xceil(rounds, ww) * (pu - ww * us))
        assert kernels.adapter_latency(md, st, slots, sb, wb, pb, us, ww, pu) == adapter

        flits = rng.randrange(1, 40)
        hops = rng.randrange(1, 6)
        dr = rng.randrange(0, 4)
        tau = rng.randrange(1, 25)
        wl, pl = rand_share(rng, tau)
        route = ((flits - 1 + hops * dr) * tau
                 + (xceil(flits, wl) - 1 + hops) * (pl - wl * tau))
        assert kernels.route_latency(flits, hops, dr, tau, wl, pl) == route

        w = min(wb, ww, wl)
        tx_fixed = md * st + rounds * (pb - wb * sb)
        total = (tx_fixed + xceil(rounds, w) * (pu - w * us)
                 + (flits - 1 + hops * dr) * tau
                 + (xceil(flits, w) - 1 + hops) * (pl - w * tau)
                 + tx_fixed + xceil(rounds, w) * (pu - w * us))
        assert kernels.msg_traversal(
            tx_fixed, rounds, us, pu, tx_fixed, rounds, us, pu,
            flits, hops, dr, tau, w, pl) == total

        deadline = rng.randrange(1, 2 * total + 1)
        cap = rng.randrange(1, 6)
        expect = 0
        for cand in range(1, cap + 1):
            t = (tx_fixed + xceil(rounds, cand) * (pu - cand * us)
                 + (flits - 1 + hops * dr) * tau
                 + (xceil(flits, cand) - 1 + hops) * (pl - cand * tau)
                 + tx_fixed + xceil(rounds, cand) * (pu - cand * us))
            if t <= deadline:
                expect = cand
                break
        assert kernels.min_msg_weight(
            deadline, tx_fixed, rounds, us, pu, tx_fixed, rounds, us, pu,
            flits, hops, dr, tau, pl, cap) == expect
        checks += 5
    _report(2, started, 5.0, f"{checks} exact matches across 10 operations")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_sweep_never_violates_bounds(small_mesh_spec):
    started = time.perf_counter()
    rng = Random(300)
    swept = 0
    min_margin = None
    while swept < 20:
        res = decode(small_mesh_spec, random_genotype(small_mesh_spec, rng))
        if not res.feasible:
            continue
        sweep = adversarial_sweep(
            small_mesh_spec, res, trials=100, seed=1000 + swept)
        worst = min(row["margin_ns"] for row in sweep.rows())
        min_margin = worst if min_margin is None else min(min_margin, worst)
        assert worst >= 0
        swept += 1
    _report(3, started, 120.0,
            f"20 mappings x 100 trials, min margin {min_margin} ns")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_assigned_weights_are_minimal():
    started = time.perf_counter()
    arch = make_architecture((2, 2))
    noc = arch.noc
    rng = Random(40)
    tables = {}
    task_checks = msg_checks = 0

    def task_response(w, wcet, md, tile):
        bus = bus_master_tuple(tile)
        core = extended_core_policy(tile)
        return kernels.task_response(
            wcet, md, tile.memory.service_time,
            bus.slot_len, bus.weight, bus.period,
            core.slot_len, w, core.capacity * (core.slot_len + core.arb_delay))

    while task_checks < 100:
        tile = rng.choice(arch.tiles)
        wcet = rng.randrange(100, 6_000) * 10
        md = rng.randrange(0, 40)
        cap = tile.cores[0].policy.capacity
        lo, hi = task_response(cap, wcet, md, tile), task_response(1, wcet, md, tile)
        deadline = rng.randrange(lo, hi + 1)
        w = min_task_weight(deadline, wcet, md, tile, tile_record(tables, tile))
        assert task_response(w, wcet, md, tile) <= deadline
        if w > 1:
            assert task_response(w - 1, wcet, md, tile) > deadline
        task_checks += 1

    def traversal(w, md, flits, hops, src, dst):
        bus_s, bus_d = bus_master_tuple(src), bus_master_tuple(dst)
        cap_tx = src.tx_policy.capacity
        cap_rx = dst.rx_policy.capacity
        return sum(wctt(
            md, flits, hops, noc.router_delay,
            src.memory.service_time, bus_s,
            ArbitrationTuple(bus_s.period, w, cap_tx * bus_s.period),
            make_tuple(noc.link_policy, w),
            dst.memory.service_time, bus_d,
            ArbitrationTuple(bus_d.period, w, cap_rx * bus_d.period),
        ))

    while msg_checks < 100:
        src, dst = rng.sample(list(arch.tiles), 2)
        md = rng.randrange(4, 17)
        flits = noc.flits_for(rng.choice((64, 128, 256)))
        hops = rng.randrange(1, 5)
        cap = min(src.tx_policy.capacity, dst.rx_policy.capacity,
                  noc.link_policy.capacity)
        lo = traversal(cap, md, flits, hops, src, dst)
        hi = traversal(1, md, flits, hops, src, dst)
        deadline = rng.randrange(lo, hi + 1)
        w = min_message_weight(deadline, md, flits, hops, src, dst, noc,
                               tile_record(tables, src), tile_record(tables, dst))
        assert traversal(w, md, flits, hops, src, dst) <= deadline
        if w > 1:
            assert traversal(w - 1, md, flits, hops, src, dst) > deadline
        msg_checks += 1
    _report(4, started, 10.0,
            f"{task_checks} task and {msg_checks} transfer instances minimal")


# --------------------------------------------------------------- criterion 5


TINY_DOC = {
    "application": {
        "tasks": [
            {"id": "t0", "period_us": 50, "wcet_us": {"gp": 3}, "mem_demand": 8},
            {"id": "t1", "period_us": 50, "wcet_us": {"gp": 1.5}, "mem_demand": 4},
            {"id": "t2", "period_us": 50, "wcet_us": {"gp": 2}, "mem_demand": 6},
        ],
        "messages": [
            {"id": "m0", "src": "t0", "dst": "t2", "period_us": 400,
             "payload_bytes": 32, "mem_demand": 6},
            {"id": "m1", "src": "t1", "dst": "t2", "period_us": 400,
             "payload_bytes": 64, "mem_demand": 16},
        ],
    },
    "architecture": {
        "mesh": [2, 1],
        "tile_types": [{
            "name": "basic", "cores": 2, "core_type": "gp",
            "core_policy": {"slot_len_us": 1, "arb_delay_us": 0.2,
                            "capacity": 4, "work_conserving": True},
            "bus_policy": {"slot_len_ns": 100, "arb_delay_ns": 0,
                           "capacity": 4, "work_conserving": True},
            "na": {"tx": {"arb_delay_ns": 0, "capacity": 4, "work_conserving": True},
                   "rx": {"arb_delay_ns": 0, "capacity": 4, "work_conserving": True}},
            "memories": [{"service_time_ns": 100}],
        }],
        "tiles": [{"id": "tA", "type": "basic", "pos": [0, 0]},
                  {"id": "tB", "type": "basic", "pos": [1, 0]}],
        "noc": {"tau_ns": 10, "router_delay_cycles": 1, "flit_payload_bytes": 16,
                "header_flits": 1,
                "link_policy": {"slot_len": 10, "arb_delay": 0,
                                "capacity": 4, "work_conserving": True}},
        "energy": {"dynamic_per_core_type": {"gp": 0.8}, "static_per_core": 2.5,
                   "e_link": 0.02, "e_router": 0.03,
                   "e_bus_src": 0.01, "e_bus_dst": 0.01},
    },
    "mapping_edges": [
        {"task": t, "core": c}
        for t in ("t0", "t1", "t2")
        for c in ("tA.c0", "tA.c1", "tB.c0", "tB.c1")
    ],
}


def test_criterion_5_explore_equals_exhaustive_front():
    started = time.perf_counter()
    spec = parse_spec(json.dumps(TINY_DOC))
    vectors = []
    for bind in itertools.product(range(4), repeat=3):
        for cf in itertools.product(range(2), repeat=4):
            for tf in itertools.product(range(2), repeat=2):
                res = decode(spec, Genotype(bind, cf, tf))
                if res.feasible:
                    vectors.append(res.objectives)
    brute = sorted(nondominated(vectors))
    assert brute
    result = explore(spec, seed=0)
    assert sorted(result.archive.vectors()) == brute
    _report(5, started, 60.0,
            f"front of {len(brute)} vectors equals exhaustive enumeration "
            f"of 4096 genotypes ({len(vectors)} feasible)")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_isolation_aware_beats_fixed_modes():
    started = time.perf_counter()
    cases = [("networking", 0), ("consumer", 1), ("telecom", 2)]
    fixed_modes = ("FixedCS", "FixedCR", "FixedTR")
    details = []
    for profile, seed in cases:
        spec = generate_spec(profile, mesh=(4, 4), seed=seed)
        cmp_ = compare_approaches(spec, seed=seed, repetitions=5, iterations=200)
        ia = cmp_.mean_epsilon["IsolationAware"]
        for mode in fixed_modes:
            assert ia <= cmp_.mean_epsilon[mode], (
                f"{profile}: IsolationAware {ia:.4f} worse than "
                f"{mode} {cmp_.mean_epsilon[mode]:.4f}")
        gain = max(cmp_.mean_epsilon[m] for m in fixed_modes) - ia
        assert gain > 0
        details.append(f"{profile} {ia:.3f} (+{gain:.3f})")
    _report(6, started, 1_800.0, "; ".join(details))


# --------------------------------------------------------------- criterion 7


def test_criterion_7_epsilon_indicator_properties():
    started = time.perf_counter()
    assert epsilon_dominance([(2, 2)], [(1, 1)]) == pytest.approx(0.5)
    rng = Random(70)

    def front(n=5):
        return [tuple(rng.randrange(1, 60) for _ in range(3)) for _ in range(n)]

    for _ in range(50):
        f = front()
        assert epsilon_dominance(f, f) == 0.0
    for _ in range(100):
        f, s, extra = front(), front(), front(2)
        assert epsilon_dominance(f + extra, s) <= epsilon_dominance(f, s)
        assert epsilon_dominance(f, s + extra) >= epsilon_dominance(f, s)
    _report(7, started, 1.0, "identity, golden 0.5, monotone in both fronts")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_isolation_level_orderings(two_tile_spec):
    started = time.perf_counter()
    cs = from_bindings(two_tile_spec, SHARED)
    cr = from_bindings(two_tile_spec, SHARED,
                       reserved_cores=set(SHARED.values()))
    tr = from_bindings(two_tile_spec, SHARED,
                       reserved_tiles={"t0_0", "t1_0"})
    assert tr.feasible and cr.feasible and cs.feasible
    assert tr.makespan <= cr.makespan <= cs.makespan
    assert tr.objectives[1] >= cr.objectives[1] >= cs.objectives[1]
    _report(8, started, 1.0,
            f"makespan {tr.makespan} <= {cr.makespan} <= {cs.makespan}, "
            f"cores {tr.objectives[1]:.1f} >= {cr.objectives[1]:.1f} "
            f">= {cs.objectives[1]:.1f}")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_cli_archives_byte_identical(tmp_path):
    started = time.perf_counter()
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(bundled_text("specs", "join_two_tile.json"))
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(["explore", "--spec", str(spec_file), "--seed", "42",
                     "--iterations", "20", "--population", "30",
                     "--offspring", "10", "--out-dir", str(out)])
        assert code == 0
        blobs.append((out / "archive.csv").read_bytes())
    assert blobs[0] == blobs[1]
    _report(9, started, 60.0,
            f"two runs, {len(blobs[0])} archive bytes identical")
