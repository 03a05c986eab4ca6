"""Worst-case timing composition for tasks and routed messages.

A task's response time is its execution time, plus memory service, plus the
bus stalls those accesses can suffer, plus the core preemption the combined
demand can suffer. A message traversal is three phases in sequence: the
source adapter reads words over the source bus, the flits cross the routed
links, the destination adapter writes words over the destination bus.

All values are integer nanoseconds; every ceiling is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from . import kernels
from .arbitration import ArbitrationTuple
from .errors import EmptyGraph

if TYPE_CHECKING:
    from .model import ApplicationGraph


@dataclass(frozen=True)
class BusAccess:
    """One task's accesses to one memory over its bus."""

    mem_demand: int
    service_time: int
    bus_tuple: ArbitrationTuple

    def __post_init__(self):
        if self.mem_demand < 0:
            raise ValueError("mem_demand must be >= 0")
        if self.mem_demand > 0 and self.service_time <= 0:
            raise ValueError("service_time must be positive")
        if self.mem_demand > 0 and self.bus_tuple.slot_len < self.service_time:
            raise ValueError(
                "bus slot shorter than the memory service time"
            )


@dataclass(frozen=True)
class TaskTimingInputs:
    wcet: int
    core_tuple: ArbitrationTuple
    accesses: tuple[BusAccess, ...] = ()

    def __post_init__(self):
        if self.wcet <= 0:
            raise ValueError("wcet must be positive")


def bus_slots_needed(inputs: TaskTimingInputs, index: int = 0) -> int:
    """Bus slots needed on the index-th accessed bus (0 when no demand)."""
    acc = inputs.accesses[index]
    return kernels.task_bus_slots(
        inputs.wcet, acc.mem_demand, acc.service_time, acc.bus_tuple.slot_len
    )


def bus_interference(inputs: TaskTimingInputs, index: int = 0) -> int:
    """Worst-case stall on the index-th accessed bus."""
    acc = inputs.accesses[index]
    n = bus_slots_needed(inputs, index)
    return kernels.bus_stall(
        n, acc.bus_tuple.slot_len, acc.bus_tuple.weight, acc.bus_tuple.period
    )


def _demand(inputs: TaskTimingInputs) -> int:
    """Core demand: execution plus per-bus service and stalls, accumulated."""
    total = inputs.wcet
    for i, acc in enumerate(inputs.accesses):
        total += acc.mem_demand * acc.service_time
        total += bus_interference(inputs, i)
    return total


def core_preemption(inputs: TaskTimingInputs) -> int:
    """Worst-case preemption stall on the task's core."""
    ct = inputs.core_tuple
    return kernels.core_stall(_demand(inputs), ct.slot_len, ct.weight, ct.period)


def wcrt(inputs: TaskTimingInputs) -> int:
    """Worst-case response time of one task."""
    return _demand(inputs) + core_preemption(inputs)


@dataclass(frozen=True)
class MessageTimingInputs:
    mem_demand: int
    flits: int
    hops: int
    router_delay: int
    tau: int
    src_service_time: int
    src_bus_tuple: ArbitrationTuple   # the source TX as a bus master
    tx_tuple: ArbitrationTuple        # the message on the source TX
    route_tuple: ArbitrationTuple     # the message on every route link
    dst_service_time: int
    dst_bus_tuple: ArbitrationTuple   # the destination RX as a bus master
    rx_tuple: ArbitrationTuple        # the message on the destination RX

    def __post_init__(self):
        if self.mem_demand <= 0:
            raise ValueError("mem_demand must be positive")
        if self.flits <= 0:
            raise ValueError("flits must be positive")
        if self.hops <= 0:
            raise ValueError("hops must be positive")
        if self.tau <= 0 or self.route_tuple.slot_len != self.tau:
            raise ValueError("route slot length must equal tau")
        # An adapter slot spans exactly one arbitration period of its bus.
        if self.tx_tuple.slot_len != self.src_bus_tuple.period:
            raise ValueError("tx slot length must equal the source bus period")
        if self.rx_tuple.slot_len != self.dst_bus_tuple.period:
            raise ValueError("rx slot length must equal the destination bus period")


def tx_bus_slots(inputs: MessageTimingInputs) -> int:
    """Source-bus slots needed to read the message out of memory."""
    return kernels.msg_bus_slots(
        inputs.mem_demand, inputs.src_bus_tuple.slot_len, inputs.src_service_time
    )


def rx_bus_slots(inputs: MessageTimingInputs) -> int:
    """Destination-bus slots needed to write the message into memory."""
    return kernels.msg_bus_slots(
        inputs.mem_demand, inputs.dst_bus_tuple.slot_len, inputs.dst_service_time
    )


def tx_latency(inputs: MessageTimingInputs) -> int:
    """Source phase: the TX reads the words and injects into the route."""
    bt, ut = inputs.src_bus_tuple, inputs.tx_tuple
    return kernels.adapter_latency(
        inputs.mem_demand, inputs.src_service_time, tx_bus_slots(inputs),
        bt.slot_len, bt.weight, bt.period, ut.slot_len, ut.weight, ut.period,
    )


def rx_latency(inputs: MessageTimingInputs) -> int:
    """Destination phase: the RX writes the words into the target memory."""
    bt, ut = inputs.dst_bus_tuple, inputs.rx_tuple
    return kernels.adapter_latency(
        inputs.mem_demand, inputs.dst_service_time, rx_bus_slots(inputs),
        bt.slot_len, bt.weight, bt.period, ut.slot_len, ut.weight, ut.period,
    )


def noc_latency(inputs: MessageTimingInputs) -> int:
    """Route phase: wormhole traversal over the reserved link slots."""
    rt = inputs.route_tuple
    return kernels.route_latency(
        inputs.flits, inputs.hops, inputs.router_delay, inputs.tau,
        rt.weight, rt.period,
    )


def wctt(inputs: MessageTimingInputs) -> int:
    """Worst-case traversal time of one routed message."""
    return tx_latency(inputs) + noc_latency(inputs) + rx_latency(inputs)


def makespan(
    app: ApplicationGraph,
    task_response_times: Mapping[str, int],
    message_traversal_times: Mapping[str, int] | Mapping[tuple[str, str], int],
) -> int:
    """Longest end-to-end chain: response times plus traversal times.

    One longest-path pass over the tasks in topological order:
    finish(t) = wcrt(t) + max over input messages m of
    (finish(m.src) + traversal of m to t). A traversal is looked up by
    (message id, consumer id) first so per-consumer traversals can differ,
    then by message id alone; local messages may simply be absent (0).
    """
    finish: dict[str, int] = {}
    for t in app.topo_order:
        arrival = 0
        for m in app.inputs_of[t]:
            wctt_m = message_traversal_times.get(
                (m.id, t), message_traversal_times.get(m.id, 0))
            arrival = max(arrival, finish[m.src] + wctt_m)
        finish[t] = task_response_times[t] + arrival
    return max(finish.values())


def throughput(
    task_response_times: Mapping[str, int],
    message_traversal_times: Mapping,
) -> float:
    """Inverse of the slowest pipeline stage (responses and traversals)."""
    slowest = max(task_response_times.values(), default=0)
    for v in message_traversal_times.values():
        slowest = max(slowest, v)
    if slowest <= 0:
        raise EmptyGraph("throughput needs at least one positive stage time")
    return 1.0 / slowest
