"""Independent re-derivations of the timing kernels.

Every kernel must agree exactly, on random inputs, with a Fraction-based
oracle that re-derives its formula without sharing any kernel code.
"""

from fractions import Fraction
from math import ceil

from hypothesis import given, settings, strategies as st

from isoexplore import kernels


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


def test_backend_name_is_python():
    assert kernels.backend_name() == "python"
