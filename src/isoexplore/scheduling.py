"""Budget assignment and arbitration-tuple construction for one binding.

`place` groups a binding once: each hosting core's tasks, and each hosting
tile's cores and the positions of its outbound and inbound transfers. The
mapping document and the simulator read that grouping.

Weights are searched at unreduced capacity (smallest weight whose bound
meets the element's period); `check_feasibility` sums them per core and
per adapter, and raises `Infeasible` for the first resource whose weights
exceed its capacity. Refinement and the resource objective read those
sums. Capacity reductions are applied afterwards, which only tightens the
bounds. Two compensation rules are baked into every tuple built here: a
bus arbitration delay is extended by its memory's service time, and a
core's context-switch delay by the largest service time it can reach, so
that an access granted late can complete.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from operator import attrgetter
from typing import AbstractSet, Mapping, NamedTuple, Sequence

from . import kernels, timing
from .arbitration import ArbitrationPolicy, ArbitrationTuple, make_tuple, reduce_capacity
from .errors import Infeasible
from .model import ApplicationGraph, Core, NocConfig, ProblemSpec, Tile

InstanceKey = tuple[str, str]  # (message id, consumer task id)


class IsolationScheme(IntEnum):
    CORE_SHARING = 0
    CORE_RESERVATION = 1
    TILE_RESERVATION = 2

    @property
    def short(self) -> str:
        return ("CS", "CR", "TR")[int(self)]


def extended_bus_policy(tile: Tile) -> ArbitrationPolicy:
    """Bus policy with the delay extension for in-flight memory service."""
    p = tile.bus_policy
    return replace(p, arb_delay=p.arb_delay + tile.memory.service_time)


def extended_core_policy(tile: Tile) -> ArbitrationPolicy:
    """Core policy with the delay extension for in-flight memory service."""
    p = tile.cores[0].policy
    return replace(p, arb_delay=p.arb_delay + tile.max_service_time)


def bus_master_tuple(tile: Tile) -> ArbitrationTuple:
    """Arbitration tuple of one bus master (core, TX or RX) on a tile's bus
    at full capacity."""
    return make_tuple(extended_bus_policy(tile), tile.bus_master_weight)


def tile_record(tables: dict, tile: Tile) -> tuple:
    """The tile's extended bus and core policies and full-capacity bus-master
    tuple, built on first use and kept in a spec's `tables` by tile id."""
    record = tables.get(tile.id)
    if record is None:
        record = tables[tile.id] = (
            extended_bus_policy(tile), extended_core_policy(tile), bus_master_tuple(tile))
    return record


def min_task_weight(
    deadline: int, wcet: int, mem_demand: int, tile: Tile, record: tuple
) -> int:
    """Least core weight meeting the deadline at unreduced capacity, given
    the tile's `tile_record`. Only the last term of `timing.wcrt` varies
    with the weight."""
    _, policy, bus = record
    st = tile.memory.service_time
    demand = wcet + mem_demand * st + timing.bus_interference(wcet, mem_demand, st, bus)
    period = policy.capacity * (policy.slot_len + policy.arb_delay)
    w = kernels.min_task_weight(deadline, demand, policy.slot_len, period, policy.capacity)
    if w == 0:
        raise Infeasible(
            f"no core weight within capacity {policy.capacity} meets deadline {deadline}"
        )
    return w


def _adapter_side(tile: Tile, record: tuple, mem_demand: int, policy: ArbitrationPolicy):
    """Fixed latency part, bus rounds, unit slot/period for one adapter side."""
    bus = record[2]
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
    src_record: tuple,
    dst_record: tuple,
) -> int:
    """Least shared TX/route/RX weight meeting the deadline, unreduced,
    given the tiles' `tile_record`s."""
    tx_fixed, tx_rounds, tx_slot, tx_period = _adapter_side(
        src_tile, src_record, mem_demand, src_tile.tx_policy
    )
    rx_fixed, rx_rounds, rx_slot, rx_period = _adapter_side(
        dst_tile, dst_record, mem_demand, dst_tile.rx_policy
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


@dataclass(frozen=True, slots=True)
class Placement:
    """Where one binding puts its work.

    `tasks_on_core` maps each hosting core id, in id order, to its tasks,
    in declaration order. `tiles` holds one (tile, hosting cores, outbound,
    inbound) entry per hosting tile, in architecture order; outbound and
    inbound are positions in the routed transfers, in routing order. A
    transfer leaves its producer's tile and enters its consumer's, so every
    tile with traffic is a hosting tile.
    """

    tasks_on_core: dict[str, tuple[str, ...]]
    tiles: tuple[tuple[Tile, tuple[Core, ...], tuple[int, ...], tuple[int, ...]], ...]


def place(app: ApplicationGraph, edges: Sequence[Edge], transfers: Sequence[tuple]) -> Placement:
    """Group a complete binding, each task's bound `Edge` in task order, and
    its routed transfers (those of `mapping.route_instances`) by core and tile."""
    tasks_on_core: dict[str, list[str]] = {}
    for t, e in zip(app.index, edges):
        tasks_on_core.setdefault(e.core_id, []).append(t)
    out_of: dict[str, list[int]] = {}
    in_of: dict[str, list[int]] = {}
    for i, (_, _, src, dst, *_) in enumerate(transfers):
        out_of.setdefault(src.tile_id, []).append(i)
        in_of.setdefault(dst.tile_id, []).append(i)
    # By core rank, the hosting tiles come in architecture order. Every result
    # keeps its placement, so it holds tuples, which are smaller than lists.
    tiles = {e.tile_id: e.tile for e in sorted(edges, key=attrgetter("rank"))}
    return Placement(
        {c: tuple(tasks_on_core[c]) for c in sorted(tasks_on_core)},
        tuple((tile, tuple(c for c in tile.cores if c.id in tasks_on_core),
               tuple(out_of.get(tid, ())), tuple(in_of.get(tid, ())))
              for tid, tile in tiles.items()))


class Edge(NamedTuple):
    """A mapping edge as a decode reads it: the core, its tile and the
    task's WCET there. Each is built once per spec."""

    core_id: str
    tile_id: str
    core_type: str
    wcet: int
    service_time: int               # of the tile's memory
    capacity: int                   # of the core's policy
    record: tuple                   # the tile's `tile_record`
    tile: Tile
    rank: int                       # the core's position in architecture order


def check_feasibility(
    spec: ProblemSpec,
    bindings: Mapping[str, str],
    task_weights: Mapping[str, int],
    transfers: Sequence[tuple],
    transfer_weights: Sequence[int],
) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """The weights summed per core, in binding order, and per TX and per RX
    tile, in transfer order. Raises `Infeasible` for the first resource
    whose weights exceed its capacity: cores, then TX, RX and links.

    `transfers` are the routed transfers of `mapping.route_instances`, and
    `transfer_weights` their weights, in the same order.
    """
    arch = spec.architecture
    per_core: dict[str, int] = {}
    for task_id, core_id in bindings.items():
        per_core[core_id] = per_core.get(core_id, 0) + task_weights[task_id]
    per_tx: dict[str, int] = {}
    per_rx: dict[str, int] = {}
    per_link: dict[str, int] = {}
    for (_, _, src, dst, links, _, _), w in zip(transfers, transfer_weights):
        per_tx[src.tile_id] = per_tx.get(src.tile_id, 0) + w
        per_rx[dst.tile_id] = per_rx.get(dst.tile_id, 0) + w
        for link in links:
            per_link[link] = per_link.get(link, 0) + w
    cores, tiles = arch._cores_by_id, arch._tiles_by_id
    link_cap = arch.noc.link_policy.capacity
    for kind, loads, capacity in (
        ("core", per_core, lambda c: cores[c].policy.capacity),
        ("tx", per_tx, lambda t: tiles[t].tx_policy.capacity),
        ("rx", per_rx, lambda t: tiles[t].rx_policy.capacity),
        ("link", per_link, lambda _: link_cap),
    ):
        for resource, total in loads.items():
            cap = capacity(resource)
            if total > cap:
                raise Infeasible(f"{kind} {resource} overloaded: {total} > {cap}")
    return per_core, per_tx, per_rx


class TupleSet(NamedTuple):
    """All arbitration tuples of one feasible binding, after refinement:
    the per-element tuples by position, the bus tuples by tile id."""

    core: list[ArbitrationTuple]                 # per task position
    tx: list[ArbitrationTuple]                   # per transfer position
    rx: list[ArbitrationTuple]                   # per transfer position
    route: list[ArbitrationTuple]                # per transfer position
    bus: dict[str, ArbitrationTuple]             # per hosting tile, any bus master


def refine_tuples(
    spec: ProblemSpec,
    edges: Sequence[Edge],
    transfers: Sequence[tuple],
    task_weights: Sequence[int],
    transfer_weights: Sequence[int],
    reserved: tuple[AbstractSet[str], AbstractSet[str]],
    loads: tuple[Mapping[str, int], Mapping[str, int], Mapping[str, int]],
) -> TupleSet:
    """Build every tuple, reducing capacities where isolation allows.

    `edges` and `transfers` come with their weights; `reserved` holds the
    reserved hosting cores and tiles, and `loads` what `check_feasibility`
    returns. Reserved cores and cores of reserved tiles keep only their
    tasks' slots; reserved tiles drop the bus slots of idle cores and shrink
    TX/RX cycles to the traffic they actually carry. Route links never
    shrink. Reductions apply to work-conserving policies only. Each tuple is
    built once per spec and kept in its tables, keyed by what it depends on.

    The `TupleSet` lists the core tuples in the order of `edges` and the
    adapter and route tuples in the order of `transfers`.
    """
    core_loads, tx_loads, rx_loads = loads
    reserved_cores, reserved_tiles = reserved
    # No stored tuple is falsy, so `tables.get(key) or` builds only on a miss.
    tables = spec.tables
    bus: dict[str, ArbitrationTuple] = {}
    core_caps: dict[str, int] = {}               # each hosting core's effective capacity
    core: list[ArbitrationTuple] = []
    for (core_id, tid, _, _, _, _, (bus_policy, core_policy, _), tile, _), w in zip(
            edges, task_weights):
        if tid not in bus:
            bmw = tile.bus_master_weight
            k_bus = bus_policy.capacity
            if tid in reserved_tiles and bus_policy.work_conserving:
                idle = len(tile.cores) - sum(map(core_loads.__contains__,
                                                 map(attrgetter("id"), tile.cores)))
                k_bus -= idle * bmw
            key = ("bus", tid, bmw, k_bus)
            bus[tid] = tables.get(key) or tables.setdefault(
                key, make_tuple(bus_policy, bmw, k_bus))
        k_core = core_caps.get(core_id)
        if k_core is None:
            k_core = core_caps[core_id] = (
                reduce_capacity(core_policy, core_loads[core_id])
                if core_id in reserved_cores or tid in reserved_tiles
                else core_policy.capacity)
        key = ("core", tid, w, k_core)
        core.append(tables.get(key) or tables.setdefault(
            key, make_tuple(core_policy, w, k_core)))

    # Per adapter side: its tuple for each transfer.
    sides = []
    for kind, end, policy_of, side_loads in (
            ("tx", 2, attrgetter("tx_policy"), tx_loads),
            ("rx", 3, attrgetter("rx_policy"), rx_loads)):
        side, k_of = [], {}
        for transfer, w in zip(transfers, transfer_weights):
            edge = transfer[end]
            tid = edge.tile_id
            k_na = k_of.get(tid)
            if k_na is None:
                policy = policy_of(edge.tile)
                k_na = k_of[tid] = (reduce_capacity(policy, side_loads[tid])
                                    if tid in reserved_tiles else policy.capacity)
            key = (kind, tid, w, k_na, bus[tid].period)
            side.append(tables.get(key) or tables.setdefault(
                key, make_tuple(policy_of(edge.tile), w, k_na, bus[tid].period)))
        sides.append(side)
    lp = spec.architecture.noc.link_policy
    route = []
    for w in transfer_weights:
        key = ("route", w)
        route.append(tables.get(key) or tables.setdefault(key, make_tuple(lp, w)))
    return TupleSet(core, *sides, route, bus)
