"""Golden values and invariants of the response/traversal composition.

Every frozen number below was hand-derived from the closed forms before
being asserted here; the randomized blocks re-derive the formulas with
exact Fraction arithmetic.
"""

from fractions import Fraction
from math import ceil
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from isoexplore import timing
from isoexplore.arbitration import ArbitrationTuple
from isoexplore.errors import EmptyGraph
from isoexplore.model import ApplicationGraph, Message, Task, end_to_end_paths
from isoexplore.timing import (
    BusAccess,
    MessageTimingInputs,
    TaskTimingInputs,
    bus_interference,
    bus_slots_needed,
    core_preemption,
    makespan,
    noc_latency,
    rx_latency,
    throughput,
    tx_latency,
    wcrt,
    wctt,
)


def ex(num, den) -> int:
    return ceil(Fraction(num, den))


# ------------------------------------------------------------- bus slots (N)


def task_inputs(wcet, md, st, bus, core=ArbitrationTuple(1, 1, 1)):
    acc = (BusAccess(md, st, bus),) if md else ()
    return TaskTimingInputs(wcet=wcet, core_tuple=core, accesses=acc)


def test_task_bus_slots_golden():
    t = task_inputs(100, 10, 2, ArbitrationTuple(50, 1, 300))
    assert bus_slots_needed(t) == 3          # span-bound: ceil(120/50)
    t = task_inputs(1000, 2, 1, ArbitrationTuple(10, 1, 60))
    assert bus_slots_needed(t) == 2          # demand-bound: min{2, 101}
    t = task_inputs(100, 0, 1, ArbitrationTuple(50, 1, 300))
    assert t.accesses == ()                  # MD=0: no access, no slots


def test_bus_interference_golden():
    t = task_inputs(1, 3, 1, ArbitrationTuple(1_000, 1, 6_000))
    t = TaskTimingInputs(1, ArbitrationTuple(1, 1, 1),
                         (BusAccess(3, 1, ArbitrationTuple(1_000, 1, 6_000)),))
    # Force N=3 via a span that needs exactly three slots.
    t = task_inputs(2_990, 3, 1, ArbitrationTuple(1_000, 1, 6_000))
    assert bus_slots_needed(t) == 3
    assert bus_interference(t) == 15_000     # 3 * (6000 - 1000)


def test_bus_interference_zero_cases():
    # Full reservation: W*S == P, zero gap whatever N is.
    t = task_inputs(10_000, 5, 1, ArbitrationTuple(1_000, 6, 6_000))
    assert bus_interference(t) == 0


def test_core_preemption_golden():
    # demand 135 over budget 150: one period gap of 450.
    t = TaskTimingInputs(100, ArbitrationTuple(50, 3, 600),
                         (BusAccess(10, 2, ArbitrationTuple(40, 1, 45)),))
    assert timing._demand(t) == 135          # 100 + 20 + 3*(45-40)
    assert core_preemption(t) == 450
    # Exclusive core: W*S == P.
    t = task_inputs(100, 0, 1, ArbitrationTuple(50, 1, 300),
                    core=ArbitrationTuple(50, 12, 600))
    assert core_preemption(t) == 0
    # Three budget rounds, gap 550 each.
    t = task_inputs(150, 0, 1, ArbitrationTuple(50, 1, 300),
                    core=ArbitrationTuple(50, 1, 600))
    assert core_preemption(t) == 1_650


def test_wcrt_composition_golden():
    t = TaskTimingInputs(100, ArbitrationTuple(50, 3, 600),
                         (BusAccess(10, 2, ArbitrationTuple(40, 1, 45)),))
    assert wcrt(t) == 585                    # 100 + 20 + 15 + 450


def test_wcrt_collapses_under_isolation():
    t = task_inputs(123, 0, 1, ArbitrationTuple(10, 1, 60),
                    core=ArbitrationTuple(50, 12, 600))
    assert wcrt(t) == 123
    # Zero-interference collapse with memory traffic: WCET + MD*ST.
    t = TaskTimingInputs(100, ArbitrationTuple(50, 12, 600),
                         (BusAccess(10, 2, ArbitrationTuple(2, 6, 12)),))
    assert wcrt(t) == 100 + 20


def test_bus_access_validation():
    with pytest.raises(ValueError):
        BusAccess(-1, 1, ArbitrationTuple(10, 1, 60))
    with pytest.raises(ValueError):
        BusAccess(1, 0, ArbitrationTuple(10, 1, 60))
    with pytest.raises(ValueError):
        BusAccess(1, 20, ArbitrationTuple(10, 1, 60))   # slot < service time
    with pytest.raises(ValueError):
        TaskTimingInputs(0, ArbitrationTuple(10, 1, 60))


# ----------------------------------------------------------------- transfers


def msg_inputs(
    md=10, flits=8, hops=3, router_delay=2, tau=10,
    st=7, bus=ArbitrationTuple(14, 1, 84),
    unit=ArbitrationTuple(84, 1, 840),
    route=ArbitrationTuple(10, 2, 100),
):
    return MessageTimingInputs(
        mem_demand=md, flits=flits, hops=hops, router_delay=router_delay,
        tau=tau, src_service_time=st, src_bus_tuple=bus, tx_tuple=unit,
        route_tuple=route, dst_service_time=st, dst_bus_tuple=bus,
        rx_tuple=unit,
    )


def test_adapter_bus_slots_golden():
    m = msg_inputs()
    assert timing.tx_bus_slots(m) == 5       # ceil(10 / ceil(14/7))
    m = msg_inputs(md=1)
    assert timing.tx_bus_slots(m) == 1
    m = msg_inputs(md=7, st=7, bus=ArbitrationTuple(7, 1, 42),
                   unit=ArbitrationTuple(42, 1, 420))
    assert timing.tx_bus_slots(m) == 7       # one access per slot


def test_adapter_latency_golden():
    m = msg_inputs()
    assert tx_latency(m) == 4_200            # 70 + 5*70 + 5*756
    assert rx_latency(m) == 4_200            # symmetric sides


def test_adapter_latency_collapses_exclusive():
    # Wait-free bus and unit: only the word service remains.
    m = msg_inputs(bus=ArbitrationTuple(14, 6, 84),
                   unit=ArbitrationTuple(84, 10, 840))
    assert tx_latency(m) == 70


def test_noc_latency_golden():
    m = msg_inputs()
    assert noc_latency(m) == 610             # 13*10 + 6*80
    # Full link reservation: pipeline only.
    m = msg_inputs(route=ArbitrationTuple(10, 10, 100))
    assert noc_latency(m) == 130
    # Single flit, single hop, no router delay: one service gap.
    m = msg_inputs(flits=1, hops=1, router_delay=0,
                   route=ArbitrationTuple(10, 1, 100))
    assert noc_latency(m) == 90


def test_wctt_composition():
    m = msg_inputs()
    assert wctt(m) == 4_200 + 610 + 4_200


def test_message_inputs_validation():
    with pytest.raises(ValueError):
        msg_inputs(md=0)
    with pytest.raises(ValueError):
        msg_inputs(flits=0)
    with pytest.raises(ValueError):
        msg_inputs(hops=0)
    with pytest.raises(ValueError):
        msg_inputs(route=ArbitrationTuple(20, 2, 100))   # slot != tau
    with pytest.raises(ValueError):
        msg_inputs(unit=ArbitrationTuple(80, 1, 840))    # slot != bus period


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


def test_makespan_single_task():
    assert makespan(graph("a"), {"a": 380}, {}) == 380
    assert throughput({"a": 380}, {}) == pytest.approx(1 / 380)


def test_makespan_parallel_chains():
    app = graph("abcd", [("m1", "a", "b"), ("m2", "c", "d")])
    tasks = {"a": 100, "b": 200, "c": 250, "d": 250}
    msgs = {"m1": 30, "m2": 25}
    assert makespan(app, tasks, msgs) == 525
    chain = graph("ab", [("m1", "a", "b")])
    assert makespan(chain, {"a": 100, "b": 200}, msgs) == 330


def test_makespan_join_chain():
    # Two producers into one consumer; the local edge contributes nothing.
    app = graph(["t0", "t1", "t2"], [("m0", "t0", "t2"), ("m1", "t1", "t2")])
    tasks = {"t0": 290, "t1": 75, "t2": 105}
    msgs = {("m1", "t2"): 12}                # m0 is tile-local: absent
    assert makespan(app, tasks, msgs) == max(290 + 105, 75 + 12 + 105)
    assert makespan(app, tasks, msgs) == 395


def test_makespan_prefers_per_consumer_entries():
    app = graph("ab", [("m", "a", "b")])
    assert makespan(app, {"a": 1, "b": 1}, {("m", "b"): 10, "m": 99}) == 12


def test_throughput_is_reciprocal_of_slowest_stage():
    assert throughput({"a": 10, "b": 40}, {("m", "b"): 25}) == pytest.approx(1 / 40)
    assert throughput({"a": 10}, {("m", "b"): 50}) == pytest.approx(1 / 50)


def test_empty_composition_errors():
    with pytest.raises(EmptyGraph):
        graph(())
    with pytest.raises(EmptyGraph):
        throughput({}, {})


# ------------------------------------------ longest path against enumeration


def chain_total(path, tasks, msgs) -> int:
    """One enumerated chain summed by the lookup rule: a message costs its
    (message, next task) entry, else its message-id entry, else 0."""
    total = 0
    for i, node in enumerate(path):
        if node in tasks:
            total += tasks[node]
        elif (node, path[i + 1]) in msgs:
            total += msgs[(node, path[i + 1])]
        else:
            total += msgs.get(node, 0)
    return total


@st.composite
def timed_dags(draw):
    """A DAG of up to 8 tasks, declared out of topological order, with
    response times and a traversal map mixing per-consumer entries,
    message-id entries and absent (local) ones."""
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
        if draw(st.booleans()):
            msgs[mid] = draw(cost)
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
    assert makespan(app, tasks, msgs) == expected


def test_long_chain_builds_and_composes():
    ids = [f"t{i}" for i in range(5_000)]
    wires = [(f"m{i}", a, b) for i, (a, b) in enumerate(zip(ids, ids[1:]))]
    app = graph(ids, wires)
    assert app.topo_order == tuple(ids)
    msgs = {mid: 1 for mid, _, _ in wires}
    assert makespan(app, dict.fromkeys(ids, 2), msgs) == 2 * 5_000 + 4_999


# ------------------------------------------------- randomized monotonicities


def random_task(rng: Random) -> TaskTimingInputs:
    st = rng.randrange(1, 50)
    bus_slot = st * rng.randrange(1, 5)
    bus_w = rng.randrange(1, 5)
    bus_k = bus_w + rng.randrange(0, 5)
    core_slot = rng.randrange(10, 2_000)
    core_w = rng.randrange(1, 5)
    core_k = core_w + rng.randrange(0, 5)
    core_d = rng.randrange(0, 200)
    return TaskTimingInputs(
        wcet=rng.randrange(1, 50_000),
        core_tuple=ArbitrationTuple(core_slot, core_w, core_k * (core_slot + core_d)),
        accesses=(
            BusAccess(
                rng.randrange(0, 60), st,
                ArbitrationTuple(bus_slot, bus_w, bus_k * bus_slot),
            ),
        ),
    )


def shrink(t: ArbitrationTuple, rng: Random) -> ArbitrationTuple:
    lo = t.weight * t.slot_len
    return ArbitrationTuple(t.slot_len, t.weight, rng.randrange(lo, t.period + 1))


def test_wcrt_monotone_in_wait_times():
    rng = Random(20260814)
    for _ in range(1_000):
        t = random_task(rng)
        acc = t.accesses[0]
        better = TaskTimingInputs(
            wcet=t.wcet,
            core_tuple=shrink(t.core_tuple, rng),
            accesses=(BusAccess(acc.mem_demand, acc.service_time,
                                shrink(acc.bus_tuple, rng)),),
        )
        assert wcrt(better) <= wcrt(t)


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
        m = MessageTimingInputs(
            mem_demand=rng.randrange(1, 50), flits=rng.randrange(1, 40),
            hops=rng.randrange(1, 6), router_delay=rng.randrange(0, 4),
            tau=tau, src_service_time=st, src_bus_tuple=bus, tx_tuple=unit,
            route_tuple=route, dst_service_time=st, dst_bus_tuple=bus,
            rx_tuple=unit,
        )
        better_unit = shrink(unit, rng)
        better = MessageTimingInputs(
            mem_demand=m.mem_demand, flits=m.flits, hops=m.hops,
            router_delay=m.router_delay, tau=tau, src_service_time=st,
            src_bus_tuple=bus, tx_tuple=better_unit,
            route_tuple=shrink(route, rng), dst_service_time=st,
            dst_bus_tuple=bus, rx_tuple=better_unit,
        )
        assert wctt(better) <= wctt(m)


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

        def inputs(bus_kk, core_kk):
            return TaskTimingInputs(
                wcet=wcet,
                core_tuple=ArbitrationTuple(
                    core_slot, w, core_kk * (core_slot + core_d)),
                accesses=(BusAccess(md, st, ArbitrationTuple(
                    bus_slot, 1, bus_kk * bus_slot)),),
            )

        shared = wcrt(inputs(bus_k, core_k))
        core_res = wcrt(inputs(bus_k, w))          # exclusive core
        tile_res = wcrt(inputs(2, w))              # bus shrunk to live masters
        assert tile_res <= core_res <= shared
