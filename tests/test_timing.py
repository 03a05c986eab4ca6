"""Golden values and invariants of the response/traversal composition.

Every frozen number below was hand-derived from the closed forms before
being asserted here; the randomized blocks check monotonicity in the wait
times and the longest-path makespan against path enumeration.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from isoexplore import kernels
from isoexplore.arbitration import ArbitrationTuple
from isoexplore.errors import EmptyGraph
from isoexplore.model import ApplicationGraph, Message, Task, end_to_end_paths
from isoexplore.timing import (
    bus_interference,
    core_preemption,
    makespan,
    noc_latency,
    rx_latency,
    throughput,
    tx_latency,
    wcrt,
    wctt,
)


# ----------------------------------------------------------------- tasks


def test_task_bus_slots_golden():
    assert kernels.task_bus_slots(100, 10, 2, 50) == 3       # span-bound: ceil(120/50)
    assert kernels.task_bus_slots(1000, 2, 1, 10) == 2       # demand-bound: min{2, 101}
    assert kernels.task_bus_slots(100, 0, 1, 50) == 0        # MD=0: no access, no slots
    assert bus_interference(100, 0, 1, ArbitrationTuple(50, 1, 300)) == 0


def test_bus_interference_golden():
    # Force N=3 via a span that needs exactly three slots.
    bus = ArbitrationTuple(1_000, 1, 6_000)
    assert kernels.task_bus_slots(2_990, 3, 1, bus.slot_len) == 3
    assert bus_interference(2_990, 3, 1, bus) == 15_000     # 3 * (6000 - 1000)


def test_bus_interference_zero_cases():
    # Full reservation: W*S == P, zero gap whatever N is.
    assert bus_interference(10_000, 5, 1, ArbitrationTuple(1_000, 6, 6_000)) == 0


def test_core_preemption_golden():
    # demand 135 over budget 150: one period gap of 450.
    assert bus_interference(100, 10, 2, ArbitrationTuple(40, 1, 45)) == 15
    assert core_preemption(100 + 20 + 15, ArbitrationTuple(50, 3, 600)) == 450
    # Exclusive core: W*S == P.
    assert core_preemption(100, ArbitrationTuple(50, 12, 600)) == 0
    # Three budget rounds, gap 550 each.
    assert core_preemption(150, ArbitrationTuple(50, 1, 600)) == 1_650


def test_wcrt_composition_golden():
    parts = wcrt(100, 10, 2, ArbitrationTuple(40, 1, 45), ArbitrationTuple(50, 3, 600))
    assert parts == (100, 20, 15, 450)
    assert sum(parts) == 585


def test_wcrt_collapses_under_isolation():
    parts = wcrt(123, 0, 1, ArbitrationTuple(10, 1, 60), ArbitrationTuple(50, 12, 600))
    assert sum(parts) == 123
    # Zero-interference collapse with memory traffic: WCET + MD*ST.
    parts = wcrt(100, 10, 2, ArbitrationTuple(2, 6, 12), ArbitrationTuple(50, 12, 600))
    assert sum(parts) == 100 + 20


# ----------------------------------------------------------------- transfers


BUS = ArbitrationTuple(14, 1, 84)
UNIT = ArbitrationTuple(84, 1, 840)
ROUTE = ArbitrationTuple(10, 2, 100)


def test_adapter_bus_slots_golden():
    assert kernels.msg_bus_slots(10, 14, 7) == 5             # ceil(10 / ceil(14/7))
    assert kernels.msg_bus_slots(1, 14, 7) == 1
    assert kernels.msg_bus_slots(7, 7, 7) == 7               # one access per slot


def test_adapter_latency_golden():
    assert tx_latency(10, 7, BUS, UNIT) == 4_200             # 70 + 5*70 + 5*756
    assert rx_latency(10, 7, BUS, UNIT) == 4_200             # symmetric sides


def test_adapter_latency_collapses_exclusive():
    # Wait-free bus and unit: only the word service remains.
    assert tx_latency(10, 7, ArbitrationTuple(14, 6, 84),
                      ArbitrationTuple(84, 10, 840)) == 70


def test_noc_latency_golden():
    assert noc_latency(8, 3, 2, ROUTE) == 610                # 13*10 + 6*80
    # Full link reservation: pipeline only.
    assert noc_latency(8, 3, 2, ArbitrationTuple(10, 10, 100)) == 130
    # Single flit, single hop, no router delay: one service gap.
    assert noc_latency(1, 1, 0, ArbitrationTuple(10, 1, 100)) == 90


def test_wctt_composition():
    parts = wctt(10, 8, 3, 2, 7, BUS, UNIT, ROUTE, 7, BUS, UNIT)
    assert parts == (4_200, 610, 4_200)


# -------------------------------------------------------------- composition


def graph(tasks, messages=()) -> ApplicationGraph:
    """Tasks by id; messages as (id, src, consumers...)."""
    return ApplicationGraph(
        tasks=tuple(Task(t, 1_000, {"gp": 10}, 1) for t in tasks),
        messages=tuple(
            Message(mid, src, dst, 1_000, 16, 1, tuple(extras))
            for mid, src, dst, *extras in messages
        ),
    )


def span(app, tasks, msgs) -> int:
    """`makespan` of response times by task id."""
    return makespan(app, [tasks[t.id] for t in app.tasks], msgs)


def test_makespan_single_task():
    assert span(graph("a"), {"a": 380}, {}) == 380
    assert throughput([380], []) == pytest.approx(1 / 380)


def test_makespan_parallel_chains():
    app = graph("abcd", [("m1", "a", "b"), ("m2", "c", "d")])
    tasks = {"a": 100, "b": 200, "c": 250, "d": 250}
    msgs = {("m1", "b"): 30, ("m2", "d"): 25}
    assert span(app, tasks, msgs) == 525
    chain = graph("ab", [("m1", "a", "b")])
    assert span(chain, {"a": 100, "b": 200}, msgs) == 330


def test_makespan_join_chain():
    # Two producers into one consumer; the local edge contributes nothing.
    app = graph(["t0", "t1", "t2"], [("m0", "t0", "t2"), ("m1", "t1", "t2")])
    tasks = {"t0": 290, "t1": 75, "t2": 105}
    msgs = {("m1", "t2"): 12}                # m0 is tile-local: absent
    assert span(app, tasks, msgs) == max(290 + 105, 75 + 12 + 105)
    assert span(app, tasks, msgs) == 395


def test_throughput_is_reciprocal_of_slowest_stage():
    assert throughput([10, 40], [25]) == pytest.approx(1 / 40)
    assert throughput([10], [50]) == pytest.approx(1 / 50)


def test_empty_composition_errors():
    with pytest.raises(EmptyGraph):
        graph(())
    with pytest.raises(EmptyGraph):
        throughput([], [])


# ------------------------------------------ longest path against enumeration


def chain_total(path, tasks, msgs) -> int:
    """One enumerated chain summed by the lookup rule: a message costs its
    (message, next task) entry, else 0."""
    total = 0
    for i, node in enumerate(path):
        if node in tasks:
            total += tasks[node]
        else:
            total += msgs.get((node, path[i + 1]), 0)
    return total


@st.composite
def timed_dags(draw):
    """A DAG of up to 8 tasks, declared out of topological order, with
    response times and a traversal map mixing per-consumer entries and
    absent (local) ones."""
    n = draw(st.integers(1, 8))
    names = draw(st.permutations([f"t{i}" for i in range(n)]))
    cost = st.integers(0, 1_000)
    messages, msgs = [], {}
    for k in range(draw(st.integers(0, 12)) if n > 1 else 0):
        i = draw(st.integers(0, n - 2))
        consumers = draw(st.lists(st.sampled_from(names[i + 1:]), min_size=1,
                                  max_size=3, unique=True))
        mid = f"m{k}"
        messages.append((mid, names[i], *consumers))
        for c in consumers:
            if draw(st.booleans()):
                msgs[(mid, c)] = draw(cost)
    tasks = {t: draw(cost) for t in names}
    declared = draw(st.permutations(names))
    return graph(declared, messages), tasks, msgs


@settings(max_examples=300, deadline=None)
@given(timed_dags())
def test_makespan_equals_longest_enumerated_chain(case):
    app, tasks, msgs = case
    expected = max(chain_total(p, tasks, msgs) for p in end_to_end_paths(app))
    assert span(app, tasks, msgs) == expected


def test_long_chain_builds_and_composes():
    ids = [f"t{i}" for i in range(5_000)]
    wires = [(f"m{i}", a, b) for i, (a, b) in enumerate(zip(ids, ids[1:]))]
    app = graph(ids, wires)
    assert app.topo_order == tuple(ids)
    msgs = {(mid, b): 1 for mid, _, b in wires}
    assert span(app, dict.fromkeys(ids, 2), msgs) == 2 * 5_000 + 4_999


# ------------------------------------------------- randomized monotonicities


def random_task(rng: Random):
    """(wcet, mem_demand, service_time, bus tuple, core tuple)."""
    st = rng.randrange(1, 50)
    bus_slot = st * rng.randrange(1, 5)
    bus_w = rng.randrange(1, 5)
    bus_k = bus_w + rng.randrange(0, 5)
    core_slot = rng.randrange(10, 2_000)
    core_w = rng.randrange(1, 5)
    core_k = core_w + rng.randrange(0, 5)
    core_d = rng.randrange(0, 200)
    return (
        rng.randrange(1, 50_000), rng.randrange(0, 60), st,
        ArbitrationTuple(bus_slot, bus_w, bus_k * bus_slot),
        ArbitrationTuple(core_slot, core_w, core_k * (core_slot + core_d)),
    )


def shrink(t: ArbitrationTuple, rng: Random) -> ArbitrationTuple:
    lo = t.weight * t.slot_len
    return ArbitrationTuple(t.slot_len, t.weight, rng.randrange(lo, t.period + 1))


def test_wcrt_monotone_in_wait_times():
    rng = Random(20260814)
    for _ in range(1_000):
        wcet, md, st, bus, core = random_task(rng)
        better = wcrt(wcet, md, st, shrink(bus, rng), shrink(core, rng))
        assert sum(better) <= sum(wcrt(wcet, md, st, bus, core))


def test_wctt_monotone_in_wait_times():
    rng = Random(77)
    for _ in range(1_000):
        st = rng.randrange(1, 30)
        bus_slot = st * rng.randrange(1, 4)
        bus_w, bus_k = rng.randrange(1, 4), rng.randrange(4, 8)
        bus = ArbitrationTuple(bus_slot, bus_w, bus_k * bus_slot)
        unit_w, unit_k = rng.randrange(1, 4), rng.randrange(4, 8)
        unit = ArbitrationTuple(bus.period, unit_w, unit_k * bus.period)
        tau = rng.randrange(1, 20)
        rw, rk = rng.randrange(1, 4), rng.randrange(4, 8)
        route = ArbitrationTuple(tau, rw, rk * tau)
        md, flits = rng.randrange(1, 50), rng.randrange(1, 40)
        hops, router_delay = rng.randrange(1, 6), rng.randrange(0, 4)
        better_unit = shrink(unit, rng)
        better = wctt(md, flits, hops, router_delay, st, bus, better_unit,
                      shrink(route, rng), st, bus, better_unit)
        worse = wctt(md, flits, hops, router_delay, st, bus, unit, route, st, bus, unit)
        assert sum(better) <= sum(worse)


def test_isolation_ordering_at_formula_level():
    # Same task set under the three tuple families: exclusive tile beats
    # exclusive core beats plain sharing, at equal weights.
    rng = Random(5)
    for _ in range(300):
        st = rng.randrange(1, 30)
        bus_slot = st
        bus_k = 6
        w = rng.randrange(1, 4)
        core_slot, core_d, core_k = 1_000, 200, 5
        wcet = rng.randrange(1, 20_000)
        md = rng.randrange(0, 40)

        def bound(bus_kk, core_kk):
            return sum(wcrt(
                wcet, md, st, ArbitrationTuple(bus_slot, 1, bus_kk * bus_slot),
                ArbitrationTuple(core_slot, w, core_kk * (core_slot + core_d)),
            ))

        shared = bound(bus_k, core_k)
        core_res = bound(bus_k, w)                 # exclusive core
        tile_res = bound(2, w)                     # bus shrunk to live masters
        assert tile_res <= core_res <= shared
