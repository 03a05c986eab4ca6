"""Slot-based resource arbitration.

A requestor on a shared resource is characterized by the triple
(slot length, weight, period): it owns `weight` slots of `slot_len` each
within an arbitration period of `period`. The period derives from the
resource policy as capacity * (slot_len + arb_delay); work-conserving
policies may shrink the capacity to the weight actually allocated.

All times are integer nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapacityError


@dataclass(frozen=True)
class ArbitrationPolicy:
    """Static arbitration parameters of one shared resource.

    slot_len is None for network-adapter policies whose slot length is
    derived later (it equals the arbitration period of the memory bus the
    adapter is attached to).
    """

    slot_len: int | None
    arb_delay: int
    capacity: int
    work_conserving: bool

    def __post_init__(self):
        if self.slot_len is not None and self.slot_len <= 0:
            raise ValueError(f"slot_len must be positive, got {self.slot_len}")
        if self.arb_delay < 0:
            raise ValueError(f"arb_delay must be >= 0, got {self.arb_delay}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")


class ArbitrationTuple(NamedTuple):
    """Reserved share of one requestor on one resource."""

    slot_len: int
    weight: int
    period: int


def reduce_capacity(policy: ArbitrationPolicy, allocated_weight: int) -> int:
    """Effective capacity once only `allocated_weight` slots are in use.

    Work-conserving arbitration skips idle slots, so the cycle shrinks to
    the allocated weight; otherwise the full capacity stays in effect.
    """
    if allocated_weight < 0:
        raise CapacityError(f"allocated weight {allocated_weight} is negative")
    if allocated_weight > policy.capacity:
        raise CapacityError(
            f"allocated weight {allocated_weight} exceeds capacity {policy.capacity}"
        )
    if policy.work_conserving:
        return allocated_weight
    return policy.capacity


def make_tuple(
    policy: ArbitrationPolicy,
    weight: int,
    effective_capacity: int | None = None,
    slot_len: int | None = None,
) -> ArbitrationTuple:
    """Build the arbitration tuple for one requestor.

    `effective_capacity` defaults to the full policy capacity; pass the
    result of reduce_capacity() for exclusively allocated resources.
    `slot_len` overrides the policy slot length (used for network adapters).
    """
    s = policy.slot_len if slot_len is None else slot_len
    if s is None:
        raise ValueError("policy has no slot length and none was provided")
    k = policy.capacity if effective_capacity is None else effective_capacity
    if weight < 1:
        raise CapacityError(f"weight must be >= 1, got {weight}")
    if weight > policy.capacity:
        raise CapacityError(
            f"weight {weight} exceeds capacity {policy.capacity}"
        )
    if k < weight:
        raise CapacityError(
            f"effective capacity {k} below allocated weight {weight}"
        )
    if k > policy.capacity:
        raise CapacityError(
            f"effective capacity {k} exceeds capacity {policy.capacity}"
        )
    return ArbitrationTuple(s, weight, k * (s + policy.arb_delay))
