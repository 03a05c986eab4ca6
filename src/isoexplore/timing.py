"""Worst-case timing composition for tasks and routed messages.

Every bound is read straight off the service tuples that the isolation
schemes leave. A task's response time is its execution time, plus memory
service, plus the stall its accesses can suffer on the tile bus, plus the
preemption the combined demand can suffer on its core: `wcrt` returns those
four terms. A message traversal is three phases in sequence, returned by
`wctt`: the source adapter reads words over the source bus, the flits cross
the routed links, the destination adapter writes words over the
destination bus.

All values are integer nanoseconds; every ceiling is exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import kernels
from .arbitration import ArbitrationTuple
from .errors import EmptyGraph

if TYPE_CHECKING:
    from .model import ApplicationGraph


def bus_interference(
    wcet: int, mem_demand: int, service_time: int, bus: ArbitrationTuple
) -> int:
    """Worst-case stall of a task's accesses on its tile bus."""
    slots = kernels.task_bus_slots(wcet, mem_demand, service_time, bus.slot_len)
    return kernels.bus_stall(slots, bus.slot_len, bus.weight, bus.period)


def core_preemption(demand: int, core: ArbitrationTuple) -> int:
    """Worst-case preemption of a core demand (execution, memory service
    and bus stall) on the task's core."""
    return kernels.core_stall(demand, core.slot_len, core.weight, core.period)


def wcrt(
    wcet: int,
    mem_demand: int,
    service_time: int,
    bus: ArbitrationTuple,
    core: ArbitrationTuple,
) -> tuple[int, int, int, int]:
    """Terms of one task's worst-case response time, which is their sum:
    (wcet, memory service, bus stall, core preemption)."""
    service = mem_demand * service_time
    i_bus = bus_interference(wcet, mem_demand, service_time, bus)
    return wcet, service, i_bus, core_preemption(wcet + service + i_bus, core)


def tx_latency(
    mem_demand: int, service_time: int, bus: ArbitrationTuple, unit: ArbitrationTuple
) -> int:
    """One adapter phase: the adapter moves the words over its bus (as a
    bus master with tuple `bus`), scheduled on its own unit (`unit`)."""
    slots = kernels.msg_bus_slots(mem_demand, bus.slot_len, service_time)
    return kernels.adapter_latency(
        mem_demand, service_time, slots,
        bus.slot_len, bus.weight, bus.period, unit.slot_len, unit.weight, unit.period,
    )


# The destination adapter writes with the same arithmetic as the source reads.
rx_latency = tx_latency


def noc_latency(flits: int, hops: int, router_delay: int, route: ArbitrationTuple) -> int:
    """Route phase: wormhole traversal over the reserved link slots; a link
    slot is one link cycle (tau)."""
    return kernels.route_latency(
        flits, hops, router_delay, route.slot_len, route.weight, route.period
    )


def wctt(
    mem_demand: int,
    flits: int,
    hops: int,
    router_delay: int,
    src_service_time: int,
    src_bus: ArbitrationTuple,
    tx: ArbitrationTuple,
    route: ArbitrationTuple,
    dst_service_time: int,
    dst_bus: ArbitrationTuple,
    rx: ArbitrationTuple,
) -> tuple[int, int, int]:
    """Terms of one routed message's worst-case traversal time, which is
    their sum: (source adapter, route, destination adapter)."""
    return (
        tx_latency(mem_demand, src_service_time, src_bus, tx),
        noc_latency(flits, hops, router_delay, route),
        rx_latency(mem_demand, dst_service_time, dst_bus, rx),
    )


def makespan(
    app: ApplicationGraph,
    response_times: Sequence[int],
    traversal_times: Mapping[tuple[str, str], int],
) -> int:
    """Longest end-to-end chain: response times plus traversal times.

    `response_times[i]` belongs to `app.tasks[i]`. Traversals are keyed by
    (message id, consumer id), so each consumer's can differ; a local
    message has no entry and takes 0. One longest-path pass over the tasks
    in topological order: finish(t) = wcrt(t) + max over input messages m
    of (finish(m.src) + traversal of m to t).
    """
    finish = [0] * len(response_times)
    for t, inputs in app.topo_inputs:
        arrival = 0
        for src, key in inputs:
            ready = finish[src] + traversal_times.get(key, 0)
            if ready > arrival:
                arrival = ready
        finish[t] = response_times[t] + arrival
    return max(finish)


def throughput(response_times: Iterable[int], traversal_times: Iterable[int]) -> float:
    """Inverse of the slowest pipeline stage (responses and traversals)."""
    slowest = max(max(response_times, default=0), max(traversal_times, default=0))
    if slowest <= 0:
        raise EmptyGraph("throughput needs at least one positive stage time")
    return 1.0 / slowest
