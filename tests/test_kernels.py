"""Independent re-derivations of the timing kernels.

Every kernel must agree exactly, on random inputs, with a Fraction-based
oracle that re-derives its formula without sharing any kernel code.
"""

from fractions import Fraction
from math import ceil
from random import Random

from hypothesis import given, settings, strategies as st

from isoexplore import kernels

from conftest import call_budget


def exact_ceil(num, den) -> int:
    return ceil(Fraction(num, den))


# ------------------------------------------------------------ exact oracles

pos = st.integers(1, 10**7)
nonneg = st.integers(0, 10**7)
small = st.integers(1, 64)


@given(a=nonneg, b=pos)
def test_ceil_div_oracle(a, b):
    assert kernels.ceil_div(a, b) == exact_ceil(a, b)


@given(wcet=pos, md=st.integers(0, 500), st_=st.integers(1, 1_000), slot=st.integers(1, 10_000))
def test_task_bus_slots_parity(wcet, md, st_, slot):
    slot = max(slot, st_)
    expected = 0 if md == 0 else min(md, exact_ceil(wcet + md * st_, slot))
    assert kernels.task_bus_slots(wcet, md, st_, slot) == expected


@given(slots=st.integers(0, 500), slot=pos, w=small, k=small)
def test_bus_stall_parity(slots, slot, w, k):
    k = max(k, w)
    period = k * slot
    assert kernels.bus_stall(slots, slot, w, period) == slots * (k - w) * slot


@settings(max_examples=200)
@given(
    wcet=st.integers(1, 10**6),
    md=st.integers(0, 200),
    st_=st.integers(1, 200),
    bw=small,
    bk=small,
    cw=small,
    ck=small,
    cslot=st.integers(1, 10**5),
    cdelay=st.integers(0, 10**4),
)
def test_task_response_parity(wcet, md, st_, bw, bk, cw, ck, cslot, cdelay):
    bk, ck = max(bk, bw), max(ck, cw)
    bslot = st_
    args = (wcet, md, st_, bslot, bw, bk * bslot, cslot, cw, ck * (cslot + cdelay))
    slots = 0 if md == 0 else min(md, exact_ceil(wcet + md * st_, bslot))
    demand = wcet + md * st_ + slots * (bk - bw) * bslot
    core_gap = ck * (cslot + cdelay) - cw * cslot
    expected = demand + exact_ceil(demand, cw * cslot) * core_gap
    assert kernels.task_response(*args) == expected


@settings(max_examples=200)
@given(
    md=st.integers(1, 500),
    st_=st.integers(1, 200),
    slots=st.integers(1, 500),
    bw=small,
    bk=small,
    uw=small,
    uk=small,
)
def test_adapter_latency_parity(md, st_, slots, bw, bk, uw, uk):
    bk, uk = max(bk, bw), max(uk, uw)
    bslot = st_
    bperiod = bk * bslot
    args = (md, st_, slots, bslot, bw, bperiod, bperiod, uw, uk * bperiod)
    rounds = exact_ceil(slots, bw)
    expected = (
        md * st_
        + rounds * (bk - bw) * bslot
        + exact_ceil(rounds, uw) * (uk - uw) * bperiod
    )
    assert kernels.adapter_latency(*args) == expected


@given(
    flits=st.integers(1, 1_000),
    links=st.integers(0, 12),
    dr=st.integers(0, 8),
    tau=st.integers(1, 100),
    w=small,
    k=small,
)
def test_route_latency_parity(flits, links, dr, tau, w, k):
    k = max(k, w)
    hops = links + 1
    args = (flits, hops, dr, tau, w, k * tau)
    pipeline = (flits - 1 + hops * dr) * tau
    stall_rounds = exact_ceil(flits, w) - 1 + hops
    assert kernels.route_latency(*args) == pipeline + stall_rounds * (k - w) * tau


@settings(max_examples=100)
@given(
    deadline=st.integers(1, 10**9),
    demand=pos,
    slot=st.integers(1, 10**5),
    k=small,
    delay=st.integers(0, 10**4),
)
def test_min_task_weight_parity(deadline, demand, slot, k, delay):
    period = k * (slot + delay)
    meets = [
        w for w in range(1, k + 1)
        if demand + exact_ceil(demand, w * slot) * (period - w * slot) <= deadline
    ]
    expected = meets[0] if meets else 0
    assert kernels.min_task_weight(deadline, demand, slot, period, k) == expected


@given(wcet=pos, md=st.integers(0, 500), st_=st.integers(1, 1_000), mult=st.integers(1, 32))
def test_task_bus_slots_oracle(wcet, md, st_, mult):
    slot = st_ * mult
    expected = 0 if md == 0 else min(md, exact_ceil(wcet + md * st_, slot))
    assert kernels.task_bus_slots(wcet, md, st_, slot) == expected


@given(md=st.integers(1, 2_000), st_=st.integers(1, 500), mult=st.integers(1, 8))
def test_msg_bus_slots_oracle(md, st_, mult):
    slot = st_ * mult
    # Words per owned slot, then slots for all words; nested exact ceilings.
    assert kernels.msg_bus_slots(md, slot, st_) == exact_ceil(
        md, exact_ceil(slot, st_)
    )


@given(demand=pos, slot=pos, w=small, k=small, delay=st.integers(0, 1_000))
def test_core_stall_oracle(demand, slot, w, k, delay):
    k = max(k, w)
    period = k * (slot + delay)
    rounds = exact_ceil(demand, w * slot)
    assert kernels.core_stall(demand, slot, w, period) == rounds * (
        period - w * slot
    )


@settings(max_examples=100)
@given(
    deadline=st.integers(1, 10**8),
    demand=st.integers(1, 10**6),
    slot=st.integers(1, 10**5),
    k=small,
    delay=st.integers(0, 10**4),
)
def test_min_task_weight_is_minimal(deadline, demand, slot, k, delay):
    period = k * (slot + delay)

    def response(w: int) -> int:
        return demand + exact_ceil(demand, w * slot) * (period - w * slot)

    w = kernels.min_task_weight(deadline, demand, slot, period, k)
    if w == 0:
        assert all(response(x) > deadline for x in range(1, k + 1))
    else:
        assert response(w) <= deadline
        if w > 1:
            assert response(w - 1) > deadline


# The weight searches must return the first weight a linear search from 1
# finds, also for a period shorter than its slots, which no policy yields
# but the kernels accept. Such periods break the ordering the searches
# bisect on in a few cases per thousand, so each check runs many cases.


def first_meeting(bound, deadline: int, capacity: int) -> int:
    return next((w for w in range(1, capacity + 1) if bound(w) <= deadline), 0)


def test_min_task_weight_equals_linear_search():
    rng = Random(58)
    for _ in range(4_000):
        demand, slot = rng.randrange(0, 3_000), rng.randrange(1, 60)
        period, k = rng.randrange(0, 4_000), rng.randrange(1, 40)
        deadline = demand + rng.randrange(-6_000, 6_000)

        def response(w: int) -> int:
            return demand + exact_ceil(demand, w * slot) * (period - w * slot)

        expected = first_meeting(response, deadline, k)
        assert kernels.min_task_weight(deadline, demand, slot, period, k) == expected


def check_msg_weight(slack, fixed, tx_rounds, tx_period, rx_rounds, rx_period,
                     slot, flits, hops, dr, tau, link_period, k):
    """Compare at the deadline `slack` off the traversal at weight 1."""

    def traversal(w: int) -> int:
        tx = fixed + exact_ceil(tx_rounds, w) * (tx_period - w * slot)
        rx = fixed + exact_ceil(rx_rounds, w) * (rx_period - w * slot)
        route = ((flits - 1 + hops * dr) * tau
                 + (exact_ceil(flits, w) - 1 + hops) * (link_period - w * tau))
        return tx + route + rx

    deadline = traversal(1) + slack
    assert kernels.min_msg_weight(
        deadline, fixed, tx_rounds, slot, tx_period, fixed, rx_rounds, slot,
        rx_period, flits, hops, dr, tau, link_period, k,
    ) == first_meeting(traversal, deadline, k)


def test_min_msg_weight_equals_linear_search():
    # Rarer here, so pinned: one short period at a time, TX, RX, the link.
    check_msg_weight(-185933, 0, 2488, 49, 12, 960, 25, 228, 1, 2, 3, 256, 32)
    check_msg_weight(-234585, 0, 45, 1782, 205, 224, 49, 323, 3, 1, 6, 363, 33)
    check_msg_weight(-409308, 0, 103, 342, 241, 342, 4, 1858, 1, 1, 15, 163, 38)
    rng = Random(137)
    for _ in range(4_000):
        check_msg_weight(
            rng.randrange(-3_000, 1_000), rng.randrange(0, 500),
            rng.randrange(0, 30), rng.randrange(0, 2_000),      # TX rounds, period
            rng.randrange(0, 30), rng.randrange(0, 2_000),      # RX rounds, period
            rng.randrange(1, 60), rng.randrange(0, 30), rng.randrange(1, 6),
            rng.randrange(0, 3), rng.randrange(1, 20), rng.randrange(0, 600),
            rng.randrange(1, 40),
        )


def test_weight_searches_take_logarithmic_steps_in_capacity(monkeypatch):
    call_budget(monkeypatch, "ceil_div")
    call_budget(monkeypatch, "msg_traversal")
    cap = 10**12
    slot, delay = 1_000, 100
    period = cap * (slot + delay)
    assert kernels.min_task_weight(10**6, 10**6, slot, period, cap) == 0
    assert kernels.min_msg_weight(
        10**6, 0, 4, slot, period, 0, 4, slot, period,
        8, 3, 1, 10, cap * 10, cap) == 0

    # A reachable deadline: the least weight lies deep inside the range.
    demand = 10**15
    deadline = 2 * demand
    w = kernels.min_task_weight(deadline, demand, slot, period, cap)

    def response(x: int) -> int:
        return demand + exact_ceil(demand, x * slot) * (period - x * slot)

    assert 1 < w < cap
    assert response(w) <= deadline < response(w - 1)


def test_backend_name_is_python():
    assert kernels.backend_name() == "python"
