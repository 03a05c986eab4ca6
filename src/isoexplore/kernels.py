"""Timing kernels: the closed-form bound arithmetic over service tuples.

All arguments and results are integer nanoseconds or counts; ceilings are
exact integer arithmetic.

`min_task_weight` and `min_msg_weight` share one doubling-then-bisection
search, `_least_weight`, each passing the probe of its own bound.
"""

from __future__ import annotations


def backend_name() -> str:
    """Name of the kernel implementation, for run provenance."""
    return "python"


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def task_bus_slots(wcet: int, md: int, st: int, bus_slot: int) -> int:
    """Bus slots a task needs: one per access, capped by the slots that can
    pass during its undisturbed execution span."""
    if md == 0:
        return 0
    return min(md, ceil_div(wcet + md * st, bus_slot))


def bus_stall(slots: int, bus_slot: int, weight: int, period: int) -> int:
    """Worst-case bus interference: one full service gap per needed slot."""
    return slots * (period - weight * bus_slot)


def core_stall(demand: int, core_slot: int, weight: int, period: int) -> int:
    """Worst-case preemption: one service gap per core period the demand
    (execution + memory service + bus stalls) spreads over."""
    budget = weight * core_slot
    return ceil_div(demand, budget) * (period - budget)


def task_response(
    wcet: int,
    md: int,
    st: int,
    bus_slot: int,
    bus_weight: int,
    bus_period: int,
    core_slot: int,
    core_weight: int,
    core_period: int,
) -> int:
    """Worst-case response time of a task with all accesses on one bus."""
    service = md * st
    slots = task_bus_slots(wcet, md, st, bus_slot)
    stall = bus_stall(slots, bus_slot, bus_weight, bus_period)
    demand = wcet + service + stall
    return demand + core_stall(demand, core_slot, core_weight, core_period)


def _least_weight(meets, top: int, capacity: int) -> int:
    """Least weight in 1..capacity for which `meets(weight)` holds, 0 if none.

    Up to `top` the probed bound is non-increasing in the weight, so the
    search doubles the weight, then bisects: weights 1 and 2 take a linear
    search's probes and any other O(log capacity). Above `top` (a period
    shorter than its slots, which no policy yields) it goes one by one.
    """
    lo, hi = 0, capacity + 1        # fails at lo (0: none tried); meets at hi
    while hi - lo > 1:
        if hi <= capacity:
            w = (lo + hi) // 2
        elif lo < top:
            w = (2 * lo if 2 * lo < top else top) or 1
        else:
            w = lo + 1
        if meets(w):
            hi = w
        else:
            lo = w
    return hi if hi <= capacity else 0


def min_task_weight(
    deadline: int, demand: int, core_slot: int, core_period: int, capacity: int
) -> int:
    """Least core weight whose response time meets the deadline, 0 if none.

    `demand` is the weight-independent numerator (execution + memory service
    + bus stalls); only the preemption term, a product of two factors that
    shrink as the weight grows, varies with the weight.
    """

    def meets(w: int) -> bool:
        return demand + core_stall(demand, core_slot, w, core_period) <= deadline

    return _least_weight(meets, min(core_period // core_slot, capacity), capacity)


def msg_bus_slots(md: int, bus_slot: int, st: int) -> int:
    """Bus slots a network adapter needs to move a message's words."""
    return ceil_div(md, ceil_div(bus_slot, st))


def adapter_latency(
    md: int,
    st: int,
    slots: int,
    bus_slot: int,
    bus_weight: int,
    bus_period: int,
    unit_slot: int,
    unit_weight: int,
    unit_period: int,
) -> int:
    """One side of a transfer: adapter moves `md` words over `slots` bus
    slots, itself scheduled on the adapter's own arbitration unit."""
    bus_rounds = ceil_div(slots, bus_weight)
    return (
        md * st
        + bus_rounds * (bus_period - bus_weight * bus_slot)
        + ceil_div(bus_rounds, unit_weight) * (unit_period - unit_weight * unit_slot)
    )


def route_latency(
    flits: int, hops: int, router_delay: int, cycle: int, weight: int, period: int
) -> int:
    """Wormhole traversal of a routed message: pipeline fill plus one
    service gap per link period in which flits can stall."""
    pipeline = (flits - 1 + hops * router_delay) * cycle
    stall_rounds = ceil_div(flits, weight) - 1 + hops
    return pipeline + stall_rounds * (period - weight * cycle)


def msg_traversal(
    tx_fixed: int,
    tx_rounds: int,
    tx_slot: int,
    tx_period: int,
    rx_fixed: int,
    rx_rounds: int,
    rx_slot: int,
    rx_period: int,
    flits: int,
    hops: int,
    router_delay: int,
    cycle: int,
    weight: int,
    link_period: int,
) -> int:
    """Worst-case traversal at one shared weight for the TX, route and RX.

    `*_fixed` is the weight-independent part of the adapter latency
    (word service + bus stalls); `*_rounds` the bus rounds to schedule.
    """
    d_tx = tx_fixed + ceil_div(tx_rounds, weight) * (tx_period - weight * tx_slot)
    d_rx = rx_fixed + ceil_div(rx_rounds, weight) * (rx_period - weight * rx_slot)
    d_noc = route_latency(flits, hops, router_delay, cycle, weight, link_period)
    return d_tx + d_noc + d_rx


def min_msg_weight(
    deadline: int,
    tx_fixed: int,
    tx_rounds: int,
    tx_slot: int,
    tx_period: int,
    rx_fixed: int,
    rx_rounds: int,
    rx_slot: int,
    rx_period: int,
    flits: int,
    hops: int,
    router_delay: int,
    cycle: int,
    link_period: int,
    capacity: int,
) -> int:
    """Least shared TX/route/RX weight meeting the deadline, 0 if none. A
    routed transfer has a hop, so every stall term shrinks with the weight
    up to the shortest period in slots."""

    def meets(w: int) -> bool:
        return msg_traversal(
            tx_fixed, tx_rounds, tx_slot, tx_period,
            rx_fixed, rx_rounds, rx_slot, rx_period,
            flits, hops, router_delay, cycle, w, link_period,
        ) <= deadline

    top = min(tx_period // tx_slot, rx_period // rx_slot, link_period // cycle, capacity)
    return _least_weight(meets, top, capacity)
