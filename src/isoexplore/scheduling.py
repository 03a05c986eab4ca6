"""Budget assignment and arbitration-tuple construction for one binding.

Weights are searched at unreduced capacity (smallest weight whose bound
meets the element's period); capacity reductions are applied afterwards,
which only tightens the bounds. Two compensation rules are baked into every
tuple built here: a bus arbitration delay is extended by its memory's
service time, and a core's context-switch delay by the largest service time
it can reach, so that an access granted late can complete.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from . import kernels
from .arbitration import ArbitrationPolicy, ArbitrationTuple, make_tuple, reduce_capacity
from .errors import Infeasible
from .model import ArchitectureGraph, NocConfig, ProblemSpec, Tile

InstanceKey = tuple[str, str]  # (message id, consumer task id)


def extended_bus_policy(tile: Tile) -> ArbitrationPolicy:
    """Bus policy with the delay extension for in-flight memory service."""
    p = tile.bus_policy
    return replace(p, arb_delay=p.arb_delay + tile.memory.service_time)


def extended_core_policy(tile: Tile) -> ArbitrationPolicy:
    """Core policy with the delay extension for in-flight memory service."""
    p = tile.cores[0].policy
    return replace(p, arb_delay=p.arb_delay + tile.max_service_time)


def bus_master_tuple(tile: Tile, effective_capacity: int | None = None) -> ArbitrationTuple:
    """Arbitration tuple of one bus master (core, TX or RX) on a tile's bus."""
    return make_tuple(extended_bus_policy(tile), tile.bus_master_weight, effective_capacity)


def _task_demand(wcet: int, mem_demand: int, tile: Tile) -> int:
    """Weight-independent response-time part on a tile at full capacity."""
    bus = bus_master_tuple(tile)
    slots = kernels.task_bus_slots(wcet, mem_demand, tile.memory.service_time, bus.slot_len)
    stall = kernels.bus_stall(slots, bus.slot_len, bus.weight, bus.period)
    return wcet + mem_demand * tile.memory.service_time + stall


def min_task_weight(deadline: int, wcet: int, mem_demand: int, tile: Tile) -> int:
    """Least core weight meeting the deadline at unreduced capacity."""
    policy = extended_core_policy(tile)
    period = policy.capacity * (policy.slot_len + policy.arb_delay)
    w = kernels.min_task_weight(
        deadline, _task_demand(wcet, mem_demand, tile),
        policy.slot_len, period, policy.capacity,
    )
    if w == 0:
        raise Infeasible(
            f"no core weight within capacity {policy.capacity} meets deadline {deadline}"
        )
    return w


def _adapter_side(tile: Tile, mem_demand: int, policy: ArbitrationPolicy):
    """Fixed latency part, bus rounds, unit slot/period for one adapter side."""
    bus = bus_master_tuple(tile)
    st = tile.memory.service_time
    slots = kernels.msg_bus_slots(mem_demand, bus.slot_len, st)
    rounds = kernels.ceil_div(slots, bus.weight)
    fixed = mem_demand * st + rounds * (bus.period - bus.weight * bus.slot_len)
    unit_slot = bus.period
    unit_period = policy.capacity * (unit_slot + policy.arb_delay)
    return fixed, rounds, unit_slot, unit_period


def min_message_weight(
    deadline: int,
    mem_demand: int,
    flits: int,
    hops: int,
    src_tile: Tile,
    dst_tile: Tile,
    noc: NocConfig,
) -> int:
    """Least shared TX/route/RX weight meeting the deadline, unreduced."""
    tx_fixed, tx_rounds, tx_slot, tx_period = _adapter_side(
        src_tile, mem_demand, src_tile.tx_policy
    )
    rx_fixed, rx_rounds, rx_slot, rx_period = _adapter_side(
        dst_tile, mem_demand, dst_tile.rx_policy
    )
    lp = noc.link_policy
    link_period = lp.capacity * (lp.slot_len + lp.arb_delay)
    capacity = min(src_tile.tx_policy.capacity, dst_tile.rx_policy.capacity, lp.capacity)
    w = kernels.min_msg_weight(
        deadline,
        tx_fixed, tx_rounds, tx_slot, tx_period,
        rx_fixed, rx_rounds, rx_slot, rx_period,
        flits, hops, noc.router_delay, noc.tau,
        link_period, capacity,
    )
    if w == 0:
        raise Infeasible(
            f"no transfer weight within capacity {capacity} meets deadline {deadline}"
        )
    return w


@dataclass
class BudgetAssignment:
    task_weights: dict[str, int]
    message_weights: dict[InstanceKey, int]
    feasible: bool = True
    reason: str | None = None


def check_feasibility(
    spec: ProblemSpec,
    bindings: Mapping[str, str],
    instances: Sequence,
    task_weights: Mapping[str, int],
    message_weights: Mapping[InstanceKey, int],
) -> BudgetAssignment:
    """Verify per-resource weight sums against capacities.

    `instances` are routed-transfer records (message, consumer, src/dst tile
    ids, route link ids) as produced by the mapping layer.
    """
    arch = spec.architecture
    result = BudgetAssignment(dict(task_weights), dict(message_weights))

    per_core: dict[str, int] = {}
    for task_id, core_id in bindings.items():
        per_core[core_id] = per_core.get(core_id, 0) + task_weights[task_id]
    for core_id, total in per_core.items():
        cap = arch.core(core_id).policy.capacity
        if total > cap:
            result.feasible = False
            result.reason = f"core {core_id} overloaded: {total} > {cap}"
            return result

    per_tx: dict[str, int] = {}
    per_rx: dict[str, int] = {}
    per_link: dict[str, int] = {}
    for inst in instances:
        w = message_weights[inst.key]
        per_tx[inst.src_tile] = per_tx.get(inst.src_tile, 0) + w
        per_rx[inst.dst_tile] = per_rx.get(inst.dst_tile, 0) + w
        for link in inst.links:
            per_link[link] = per_link.get(link, 0) + w
    for tile_id, total in per_tx.items():
        cap = arch.tile(tile_id).tx_policy.capacity
        if total > cap:
            result.feasible = False
            result.reason = f"tx {tile_id} overloaded: {total} > {cap}"
            return result
    for tile_id, total in per_rx.items():
        cap = arch.tile(tile_id).rx_policy.capacity
        if total > cap:
            result.feasible = False
            result.reason = f"rx {tile_id} overloaded: {total} > {cap}"
            return result
    link_cap = arch.noc.link_policy.capacity
    for link, total in per_link.items():
        if total > link_cap:
            result.feasible = False
            result.reason = f"link {link} overloaded: {total} > {link_cap}"
            return result
    return result


@dataclass
class TupleSet:
    """All arbitration tuples of one feasible binding, after refinement."""

    core: dict[str, ArbitrationTuple]            # per task
    core_bus: dict[str, ArbitrationTuple]        # per hosting core
    tx_bus: dict[str, ArbitrationTuple]          # per tile with outbound traffic
    rx_bus: dict[str, ArbitrationTuple]          # per tile with inbound traffic
    tx: dict[InstanceKey, ArbitrationTuple]
    rx: dict[InstanceKey, ArbitrationTuple]
    route: dict[InstanceKey, ArbitrationTuple]
    bus_capacity: dict[str, int]                 # effective, per tile
    core_capacity: dict[str, int]                # effective, per hosting core


def _tabled(
    tables: dict,
    key: tuple,
    policy: ArbitrationPolicy,
    weight: int,
    effective_capacity: int | None = None,
    slot_len: int | None = None,
) -> ArbitrationTuple:
    """`make_tuple(...)`, built on the first call for `key` and kept in the
    spec's tables under it."""
    t = tables.get(key)
    if t is None:
        t = tables[key] = make_tuple(policy, weight, effective_capacity, slot_len)
    return t


def refine_tuples(
    spec: ProblemSpec,
    bindings: Mapping[str, str],
    instances: Sequence,
    task_weights: Mapping[str, int],
    message_weights: Mapping[InstanceKey, int],
    reserved_tiles: Iterable[str] = (),
    exclusive_cores: Iterable[str] = (),
) -> TupleSet:
    """Build every tuple, reducing capacities where isolation allows.

    Exclusively allocated cores keep only their tasks' slots; reserved tiles
    drop the bus slots of idle cores and shrink TX/RX cycles to the traffic
    they actually carry. Route links never shrink. Reductions apply to
    work-conserving policies only.

    Each tuple is built once per spec and kept in its tables, keyed by
    what it depends on.
    """
    arch = spec.architecture
    reserved_tiles = set(reserved_tiles)
    exclusive_cores = set(exclusive_cores)

    tasks_on_core: dict[str, list[str]] = {}
    for t in spec.application.tasks:
        if t.id in bindings:
            tasks_on_core.setdefault(bindings[t.id], []).append(t.id)
    out_of_tile: dict[str, list] = {}
    in_of_tile: dict[str, list] = {}
    for inst in instances:
        out_of_tile.setdefault(inst.src_tile, []).append(inst)
        in_of_tile.setdefault(inst.dst_tile, []).append(inst)

    ts = TupleSet({}, {}, {}, {}, {}, {}, {}, {}, {})
    tables = spec.tables

    for tile in arch.tiles:
        tid = tile.id
        hosting = [c for c in tile.cores if c.id in tasks_on_core]
        outbound = out_of_tile.get(tid)
        inbound = in_of_tile.get(tid)
        if not hosting and not outbound and not inbound:
            continue

        policies = tables.get(tid)
        if policies is None:
            policies = tables[tid] = (extended_bus_policy(tile), extended_core_policy(tile))
        bus_policy, core_policy = policies
        bmw = tile.bus_master_weight
        k_bus = bus_policy.capacity
        if tid in reserved_tiles and bus_policy.work_conserving:
            k_bus -= (len(tile.cores) - len(hosting)) * bmw
        ts.bus_capacity[tid] = k_bus
        bus = _tabled(tables, ("bus", tid, bmw, k_bus), bus_policy, bmw, k_bus)
        for core in hosting:
            ts.core_bus[core.id] = bus

        for core in hosting:
            on_core = tasks_on_core[core.id]
            if core.id in exclusive_cores:
                k_core = reduce_capacity(core_policy, sum(task_weights[t] for t in on_core))
            else:
                k_core = core_policy.capacity
            ts.core_capacity[core.id] = k_core
            for task_id in on_core:
                w = task_weights[task_id]
                ts.core[task_id] = _tabled(
                    tables, ("core", tid, w, k_core), core_policy, w, k_core)

        for kind, out, traffic, policy, bus_of in (
            ("tx", ts.tx, outbound, tile.tx_policy, ts.tx_bus),
            ("rx", ts.rx, inbound, tile.rx_policy, ts.rx_bus),
        ):
            if not traffic:
                continue
            bus_of[tid] = bus
            weights = [message_weights[i.key] for i in traffic]
            if tid in reserved_tiles and policy.work_conserving:
                k_na = reduce_capacity(policy, sum(weights))
            else:
                k_na = policy.capacity
            for inst, w in zip(traffic, weights):
                out[inst.key] = _tabled(
                    tables, (kind, tid, w, k_na, k_bus), policy, w, k_na, bus.period)

    lp = arch.noc.link_policy
    for inst in instances:
        w = message_weights[inst.key]
        ts.route[inst.key] = _tabled(tables, ("route", w), lp, w)
    return ts
