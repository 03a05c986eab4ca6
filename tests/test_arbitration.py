"""Arbitration tuples: golden values, capacity reduction, validation."""

import pytest
from hypothesis import given, strategies as st

from isoexplore.arbitration import (
    ArbitrationPolicy,
    ArbitrationTuple,
    make_tuple,
    reduce_capacity,
)
from isoexplore.errors import CapacityError

# A five-way shared resource with 1.0 us slots and 0.2 us switch delay;
# the worked example every other golden value builds on.
FIVE_WAY = ArbitrationPolicy(1_000, 200, 5, True)


def test_tuple_full_capacity_golden():
    t = make_tuple(FIVE_WAY, 3)
    assert t == ArbitrationTuple(1_000, 3, 6_000)


def test_tuple_reduced_capacity_golden():
    k = reduce_capacity(FIVE_WAY, 3)
    assert k == 3
    t = make_tuple(FIVE_WAY, 3, effective_capacity=k)
    assert t == ArbitrationTuple(1_000, 3, 3_600)


def test_reduction_is_identity_without_work_conservation():
    tdm = ArbitrationPolicy(1_000, 200, 5, False)
    assert reduce_capacity(tdm, 3) == 5
    assert make_tuple(tdm, 3, reduce_capacity(tdm, 3)).period == 6_000


def test_slot_override_for_adapters():
    na = ArbitrationPolicy(None, 0, 4, True)
    t = make_tuple(na, 2, slot_len=1_000)
    assert t == ArbitrationTuple(1_000, 2, 4_000)
    with pytest.raises(ValueError):
        make_tuple(na, 2)


def test_policy_validation():
    with pytest.raises(ValueError):
        ArbitrationPolicy(0, 0, 1, True)
    with pytest.raises(ValueError):
        ArbitrationPolicy(10, -1, 1, True)
    with pytest.raises(ValueError):
        ArbitrationPolicy(10, 0, 0, True)


def test_capacity_errors():
    with pytest.raises(CapacityError):
        make_tuple(FIVE_WAY, 0)
    with pytest.raises(CapacityError):
        make_tuple(FIVE_WAY, 6)
    with pytest.raises(CapacityError):
        make_tuple(FIVE_WAY, 3, effective_capacity=2)
    with pytest.raises(CapacityError):
        make_tuple(FIVE_WAY, 3, effective_capacity=6)
    with pytest.raises(CapacityError):
        reduce_capacity(FIVE_WAY, 6)
    with pytest.raises(CapacityError):
        reduce_capacity(FIVE_WAY, -1)


@given(
    slot=st.integers(1, 10_000),
    delay=st.integers(0, 1_000),
    capacity=st.integers(1, 64),
    data=st.data(),
)
def test_period_formula_property(slot, delay, capacity, data):
    weight = data.draw(st.integers(1, capacity))
    policy = ArbitrationPolicy(slot, delay, capacity, True)
    full = make_tuple(policy, weight)
    reduced = make_tuple(policy, weight, reduce_capacity(policy, weight))
    assert full.period == capacity * (slot + delay)
    assert reduced.period == weight * (slot + delay)
    assert reduced.period <= full.period
    reduced_wait = reduced.period - weight * slot
    assert reduced_wait == weight * delay
    assert full.period - weight * slot >= reduced_wait >= 0
