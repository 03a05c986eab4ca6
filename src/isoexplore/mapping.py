"""Mapping decode: from a genotype (or explicit bindings) to a fully
analyzed mapping with budgets, tuples, timing and objectives.

Isolation follows from where tasks land and which flags are set: a task on
any core of a reserved tile gets the whole tile exclusively; a reserved core
on a shared tile is exclusive to its tasks; anything else shares its core.
Flags of cores and tiles that host nothing are masked out.

A decode runs once per phenotype (mode, bindings in order, and effective
flags) while a result of it is alive: a repeated phenotype gets the live
result back. Routes, least weights, arbitration tuples and bound terms are
looked up in the spec's tables by their arguments.

A decode computes what ranking reads, the reason or the objectives, in one
walk over the tasks and one over the transfers, and stores its facts by
position; the few id-keyed views of a `MappingResult` are derived on first
read.
"""

from __future__ import annotations

import hashlib
import json
import math
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import compress
from operator import attrgetter, getitem, itemgetter, mod
from random import Random
from typing import AbstractSet, Sequence
from typing import Mapping as TMapping

from . import scheduling, timing
from .errors import Infeasible, MissingCoefficient, ValidationError
from .model import ApplicationGraph, Message, ProblemSpec, Task
from .scheduling import Edge, InstanceKey, IsolationScheme, Placement, TupleSet

_CORE_ID, _TILE_ID, _RANK = attrgetter("core_id"), attrgetter("tile_id"), attrgetter("rank")
_WCRT_TERMS = ("wcet", "mem_service", "i_bus", "i_core")
_WCTT_TERMS = ("d_tx", "d_noc", "d_rx")


class ExplorationMode(Enum):
    ISOLATION_AWARE = "IsolationAware"
    FIXED_CS = "FixedCS"
    FIXED_CR = "FixedCR"
    FIXED_TR = "FixedTR"


@dataclass(frozen=True)
class Genotype:
    """Per-task edge index plus one reservation bit per core and per tile."""

    bindings: tuple[int, ...]
    core_flags: tuple[int, ...]
    tile_flags: tuple[int, ...]


def random_genotype(spec: ProblemSpec, rng: Random) -> Genotype:
    return Genotype(
        bindings=tuple(
            rng.randrange(len(spec.edges_of[t.id])) for t in spec.application.tasks
        ),
        core_flags=tuple(rng.randrange(2) for _ in spec.architecture.cores),
        tile_flags=tuple(rng.randrange(2) for _ in spec.architecture.tiles),
    )


def xy_route(src_pos: tuple[int, int], dst_pos: tuple[int, int]) -> tuple[str, ...]:
    """Dimension-ordered route: X first, then Y, as directed link ids."""
    links: list[str] = []
    x, y = src_pos
    dx, dy = dst_pos
    while x != dx:
        nx = x + (1 if dx > x else -1)
        links.append(f"{x},{y}->{nx},{y}")
        x = nx
    while y != dy:
        ny = y + (1 if dy > y else -1)
        links.append(f"{x},{y}->{x},{ny}")
        y = ny
    return tuple(links)


@dataclass
class MappingResult:
    """One decoded mapping. Two decodes of the same phenotype (the same
    mode, the same bindings in the same order, the same effective flags)
    return the same object while it is alive: read results, never change
    them. A result is feasible when it has no `reason`.

    A decode sets the fields: the reason or the objectives, and the
    per-position arrays. `edges` are the tasks' bound `Edge`s, `transfers`
    `route_instances`' tuples; a feasible result's `task_terms` follow the
    tasks, its `tuples` and `transfer_terms` the transfers. A task's weight
    is read from its core tuple, a transfer's from its route tuple. The
    views below are derived from the arrays on first read."""

    mode: ExplorationMode
    bindings: dict[str, str]
    reserved_cores: frozenset[str]          # effective (masked) core flags
    reserved_tiles: frozenset[str]          # effective (masked) tile flags
    spec: ProblemSpec = field(repr=False, compare=False)
    edges: list[Edge] = field(repr=False, compare=False)    # per task, as bound
    transfers: tuple[tuple, ...]            # `route_instances`, in routing order
    reason: str | None = None
    tuples: TupleSet | None = None          # `scheduling.refine_tuples`
    task_terms: list[tuple[int, int, int, int]] | None = None    # per task
    transfer_terms: list[tuple[int, int, int]] | None = None     # per transfer
    makespan: int = 0
    throughput: float = 0.0
    objectives: tuple[int, float, float] | None = None  # latency, cores, energy
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def digest(self) -> str:
        """SHA-1 prefix of the bindings and effective flags, computed once."""
        if self._digest is None:
            payload = json.dumps({"bindings": dict(sorted(self.bindings.items())),
                                  "cores": sorted(self.reserved_cores),
                                  "tiles": sorted(self.reserved_tiles)}, sort_keys=True)
            self._digest = hashlib.sha1(payload.encode()).hexdigest()[:16]
        return self._digest

    @property
    def feasible(self) -> bool:
        return self.reason is None

    @cached_property
    def schemes(self) -> dict[str, IsolationScheme]:
        """The isolation scheme of each hosting core, in id order."""
        return {
            e.core_id: IsolationScheme.TILE_RESERVATION if e.tile_id in self.reserved_tiles
            else IsolationScheme.CORE_RESERVATION if e.core_id in self.reserved_cores
            else IsolationScheme.CORE_SHARING
            for e in sorted(self.edges, key=_CORE_ID)
        }

    @cached_property
    def placement(self) -> Placement:
        return scheduling.place(self.spec.application, self.edges, self.transfers)

    @cached_property
    def task_wcrt(self) -> dict[str, int]:
        return dict(zip(self.spec.application.index, map(sum, self.task_terms or ())))

    @cached_property
    def transfer_wctt(self) -> dict[InstanceKey, int]:
        return dict(zip(map(itemgetter(1), self.transfers), map(sum, self.transfer_terms or ())))

    def to_doc(self) -> dict:
        doc: dict = {
            "feasible": self.feasible,
            "mode": self.mode.value,
            "digest": self.digest,
            "bindings": dict(self.bindings),
            "core_flags": {
                c: ("reserved" if c in self.reserved_cores else "shared")
                for c in sorted(self.schemes)
            },
            "tile_flags": {
                t: ("reserved" if t in self.reserved_tiles else "shared")
                for t in sorted(set(map(_TILE_ID, self.edges)))
            },
            "schemes": {c: s.short for c, s in sorted(self.schemes.items())},
        }
        if self.reason is not None:
            doc["reason"] = self.reason
            return doc
        tasks = self.spec.application.index
        keys = ["->".join(k) for _, k, *_ in self.transfers]
        ts, tiles, on_core = self.tuples, self.placement.tiles, self.placement.tasks_on_core
        bus = ts.bus
        doc["weights"] = {
            "tasks": {t: c.weight for t, c in zip(tasks, ts.core)},
            "transfers": {k: r.weight for k, r in zip(keys, ts.route)},
        }
        doc["routes"] = {k: list(links) for k, (*_, links, _, _) in zip(keys, self.transfers)}
        # Tiles in architecture order, each with its cores, tasks and transfers.
        doc["tuples"] = {
            "core": {t: list(ts.core[tasks[t]]) for _, cores, _, _ in tiles
                     for c in cores for t in on_core[c.id]},
            "core_bus": {c.id: list(bus[t.id]) for t, cores, _, _ in tiles for c in cores},
            "tx_bus": {t.id: list(bus[t.id]) for t, _, out, _ in tiles if out},
            "rx_bus": {t.id: list(bus[t.id]) for t, _, _, inb in tiles if inb},
            "tx": {keys[i]: list(ts.tx[i]) for _, _, out, _ in tiles for i in out},
            "rx": {keys[i]: list(ts.rx[i]) for _, _, _, inb in tiles for i in inb},
            "route": {k: list(r) for k, r in zip(keys, ts.route)},
        }
        doc["timing"] = {
            "wcrt": {t: dict(zip(_WCRT_TERMS, p), total=sum(p))
                     for t, p in zip(tasks, self.task_terms)},
            "wctt": {k: dict(zip(_WCTT_TERMS, p), total=sum(p))
                     for k, p in zip(keys, self.transfer_terms)},
            "makespan": self.makespan,
            "throughput": self.throughput,
        }
        doc["objectives"] = dict(zip(("latency", "resource", "energy"), self.objectives))
        return doc


def effective_mem_demand(
    app: ApplicationGraph, tiles: Sequence[str]
) -> tuple[list[int], list[tuple[Message, InstanceKey, int, int]]]:
    """Task memory demand plus the local-message reads and writes, per task
    position, and the remote message ends.

    `tiles[i]` is the tile that hosts task i. A message whose consumer sits
    on the producer's tile is exchanged through the tile memory: the
    consumer re-reads it, and the producer writes it once if at least one
    consumer is local. Every other consumer is a remote end, listed as
    (message, (message id, consumer id), producer position, consumer
    position) in declaration order.
    """
    eff = list(map(attrgetter("mem_demand"), app.tasks))
    remote = []
    for m, src, consumers in app.ends:
        src_tile, md = tiles[src], m.mem_demand
        local = False
        for c, key in consumers:
            if tiles[c] == src_tile:
                local = True
                eff[c] += md
            else:
                remote.append((m, key, src, c))
        if local:
            eff[src] += md
    return eff, remote


def route_instances(
    spec: ProblemSpec, edges: Sequence[Edge], remote: Sequence[tuple]
) -> tuple[tuple, ...]:
    """One routed transfer per remote end of `effective_mem_demand`, in its
    order: (message, (message id, consumer id), producer's edge, consumer's
    edge, links, hops, flits), XY-routed from the producer's tile to the
    consumer's.

    Each tile pair's route is computed once per spec and kept in its tables.
    """
    arch = spec.architecture
    tables = spec.tables
    out = []
    for m, key, src, dst in remote:
        src, dst = edges[src], edges[dst]
        pair = (src.tile_id, dst.tile_id)
        route = tables.get(pair)
        if route is None:
            links = xy_route(src.tile.pos, dst.tile.pos)
            route = tables[pair] = (links, len(links) + arch.noc.route_hop_offset)
        out.append((m, key, src, dst, *route, arch.noc.flits_for(m.payload_bytes)))
    return tuple(out)


def resource_usage(
    hosts: Sequence[Edge],
    reserved: tuple[AbstractSet[str], AbstractSet[str]],
    core_loads: TMapping[str, int],
) -> float:
    """Allocated compute, in cores: a reserved tile claims all its cores, a
    reserved core claims one, a shared core its weight fraction. `hosts`
    holds one edge per hosting core, in architecture order, and `reserved`
    the reserved cores and tiles, as for `scheduling.refine_tuples`."""
    reserved_cores, reserved_tiles = reserved
    usage = 0.0
    claimed = None
    for e in hosts:
        if e.tile_id in reserved_tiles:
            if e.tile_id != claimed:
                claimed = e.tile_id
                usage += len(e.tile.cores)
        elif e.core_id in reserved_cores:
            usage += 1.0
        else:
            usage += core_loads[e.core_id] / e.capacity
    return usage


def _coeff(cfg: TMapping, name: str) -> float:
    if name not in cfg:
        raise MissingCoefficient(name)
    return float(cfg[name])


def energy(
    spec: ProblemSpec,
    edges: Sequence[Edge],
    transfers: Sequence[tuple],
    usage: float,
) -> float:
    """Affine energy surrogate per iteration of each element: the tasks on
    their `edges`, then the routed `transfers`.

    Summed in floats; a total that overflows raises ValidationError, so
    that every objective stays finite."""
    cfg = spec.architecture.energy
    dyn_map = cfg.get("dynamic_per_core_type", {})
    total = _coeff(cfg, "static_per_core") * usage
    for e in edges:
        if e.core_type not in dyn_map:
            raise MissingCoefficient(f"dynamic_per_core_type[{e.core_type}]")
        total += float(dyn_map[e.core_type]) * (e.wcet / 1000.0)
    if transfers:
        per_hop = _coeff(cfg, "e_link") + _coeff(cfg, "e_router")
        per_word = _coeff(cfg, "e_bus_src") + _coeff(cfg, "e_bus_dst")
        for m, _, _, _, _, hops, flits in transfers:
            total += flits * hops * per_hop
            total += m.mem_demand * per_word
    if not math.isfinite(total):
        raise ValidationError(
            "architecture.energy: coefficients so large that a mapping's energy overflows"
        )
    return total


def _search(tables: dict, key: tuple, search, *args) -> int | str:
    """`search(*args)`, kept in the spec's tables under `key`. An infeasible
    search is kept as its reason, which the caller raises afresh."""
    try:
        w = search(*args)
    except Infeasible as exc:
        w = str(exc)
    tables[key] = w
    return w


_RESULTS = ("results",)     # the key of the live-result map in `spec.tables`
_EDGES = ("edges",)         # the key of the edge records in `spec.tables`


def _edge_rows(spec: ProblemSpec) -> list[list[Edge | None]]:
    """Per task, a slot for the record of each of its mapping edges."""
    rows = spec.tables.get(_EDGES)
    if rows is None:
        rows = spec.tables[_EDGES] = [
            [None] * len(spec.edges_of[t.id]) for t in spec.application.tasks]
    return rows


def edge_record(spec: ProblemSpec, i: int, j: int) -> Edge:
    """Task i's j-th mapping edge, built on first use."""
    row = _edge_rows(spec)[i]
    if row[j] is None:
        task = spec.application.tasks[i]
        row[j] = _edge(spec, task, spec.edges_of[task.id][j])
    return row[j]


def _edge(spec: ProblemSpec, task: Task, core_id: str) -> Edge:
    """The record of the edge from `task` to the core `core_id`."""
    arch = spec.architecture
    core = arch._cores_by_id[core_id]
    tile = arch._tiles_by_id[core.tile_id]
    return Edge(core.id, tile.id, core.core_type, task.wcet[core.core_type],
                tile.memory.service_time, core.policy.capacity,
                scheduling.tile_record(spec.tables, tile), tile,
                arch.core_index[core_id])


def _build(
    spec: ProblemSpec,
    bindings: dict[str, str],
    edges: list[Edge],
    flagged_cores: AbstractSet[str],
    flagged_tiles: AbstractSet[str],
    mode: ExplorationMode,
) -> MappingResult:
    """The live result of the phenotype, or a new one. `edges` holds each
    task's bound edge, in task order.

    The key is the mode and the effective flags, then the task ids and the
    core ids in binding order, which say what `tuple(bindings.items())`
    says. The order matters, since `check_feasibility` sums core loads in
    it and so decides which overloaded core the reason names."""
    arch = spec.architecture
    app = spec.application
    tables = spec.tables
    hosting = dict(zip(map(_CORE_ID, edges), edges))    # each bound core's edge
    reserved_tiles = frozenset(set(map(_TILE_ID, hosting.values())) & flagged_tiles)
    reserved_cores = frozenset(
        c for c in hosting.keys() & flagged_cores if hosting[c].tile_id not in reserved_tiles)
    results = tables.get(_RESULTS)
    if results is None:
        results = tables[_RESULTS] = weakref.WeakValueDictionary()
    key = (mode, reserved_cores, reserved_tiles, *bindings, *bindings.values())
    result = results.get(key)
    if result is not None:
        return result

    # One walk over the tasks and one over the transfers, by position.
    eff_md, remote = effective_mem_demand(app, list(map(_TILE_ID, edges)))
    transfers = route_instances(spec, edges, remote)
    fields = (mode, bindings, reserved_cores, reserved_tiles, spec, edges, transfers)
    task_weights, transfer_weights = [], []
    # A weight is looked up before the search's arguments are evaluated;
    # no stored weight is 0 and no stored reason is empty.
    try:
        for t, e, md in zip(app.tasks, edges, eff_md):
            wkey = (t.id, e.core_type, e.tile_id, md)
            w = tables.get(wkey) or _search(
                tables, wkey, scheduling.min_task_weight, t.period, e.wcet, md, e.tile,
                e.record)
            if isinstance(w, str):
                raise Infeasible(w)
            task_weights.append(w)
        for m, _, src, dst, _, hops, flits in transfers:
            wkey = (m.id, src.tile_id, dst.tile_id)
            w = tables.get(wkey) or _search(
                tables, wkey, scheduling.min_message_weight, m.period, m.mem_demand,
                flits, hops, src.tile, dst.tile, arch.noc, src.record, dst.record)
            if isinstance(w, str):
                raise Infeasible(w)
            transfer_weights.append(w)
        loads = scheduling.check_feasibility(
            spec, bindings, dict(zip(app.index, task_weights)), transfers, transfer_weights)
    except Infeasible as exc:
        result = MappingResult(*fields, reason=str(exc))
    else:
        reserved = (reserved_cores, reserved_tiles)
        tuples = core, tx, rx, route, bus, *_ = scheduling.refine_tuples(
            spec, edges, transfers, task_weights, transfer_weights, reserved, loads)

        # Each bound term is kept in the spec's tables, keyed by the name of
        # its bound and its arguments; no term is 0.
        task_terms = []
        for e, md, c in zip(edges, eff_md, core):
            k = ("wcrt", e.wcet, md, e.service_time, bus[e.tile_id], c)
            task_terms.append(tables.get(k) or tables.setdefault(k, timing.wcrt(*k[1:])))
        wctt: dict[InstanceKey, int] = {}
        router_delay = arch.noc.router_delay
        transfer_terms = []
        for (m, end, src, dst, _, hops, flits), t_tx, t_rx, t_route in zip(
                transfers, tx, rx, route):
            md = m.mem_demand
            k_tx = ("d_tx", md, src.service_time, bus[src.tile_id], t_tx)
            k_noc = ("d_noc", flits, hops, router_delay, t_route)
            k_rx = ("d_rx", md, dst.service_time, bus[dst.tile_id], t_rx)
            parts = (
                tables.get(k_tx) or tables.setdefault(k_tx, timing.tx_latency(*k_tx[1:])),
                tables.get(k_noc) or tables.setdefault(k_noc, timing.noc_latency(*k_noc[1:])),
                tables.get(k_rx) or tables.setdefault(k_rx, timing.rx_latency(*k_rx[1:])))
            transfer_terms.append(parts)
            wctt[end] = sum(parts)
        wcrt = list(map(sum, task_terms))
        makespan = timing.makespan(app, wcrt, wctt)
        throughput = timing.throughput(wcrt, wctt.values())

        usage = resource_usage(sorted(hosting.values(), key=_RANK), reserved, loads[0])
        result = MappingResult(
            *fields, None, tuples, task_terms, transfer_terms, makespan, throughput,
            (makespan, usage, energy(spec, edges, transfers, usage)))
    # Kept only once whole: a decode that raises leaves no entry, and the
    # entry goes as soon as the result dies.
    results[key] = result
    return result


def decode(
    spec: ProblemSpec,
    genotype: Genotype,
    mode: ExplorationMode = ExplorationMode.ISOLATION_AWARE,
) -> MappingResult:
    """Decode a genotype under a mode; fixed modes override every flag.

    Out-of-range binding genes are repaired by wrapping onto the task's
    edge list, so any integer genotype decodes deterministically.
    """
    rows = _edge_rows(spec)
    genes = list(map(mod, genotype.bindings, map(len, rows)))
    edges = list(map(getitem, rows, genes))
    if None in edges:
        edges = [edge_record(spec, i, j) for i, j in enumerate(genes)]
    bindings = dict(zip(spec.application.index, map(_CORE_ID, edges)))
    # Both id maps are in architecture order, as the genotype's flags are.
    arch = spec.architecture
    if mode is ExplorationMode.FIXED_CS:
        cores = tiles = frozenset()
    elif mode is ExplorationMode.FIXED_CR:
        cores, tiles = arch._cores_by_id.keys(), frozenset()
    elif mode is ExplorationMode.FIXED_TR:
        cores, tiles = frozenset(), arch._tiles_by_id.keys()
    else:
        cores = set(compress(arch._cores_by_id, genotype.core_flags))
        tiles = set(compress(arch._tiles_by_id, genotype.tile_flags))
    return _build(spec, bindings, edges, cores, tiles, mode)


def from_bindings(
    spec: ProblemSpec,
    bindings: TMapping[str, str],
    reserved_cores: set[str] | frozenset[str] = frozenset(),
    reserved_tiles: set[str] | frozenset[str] = frozenset(),
    mode: ExplorationMode = ExplorationMode.ISOLATION_AWARE,
) -> MappingResult:
    """Analyze an explicit binding (a mapping file) through the same pipeline."""
    arch = spec.architecture
    edges = []
    for i, t in enumerate(spec.application.tasks):
        if t.id not in bindings:
            raise ValidationError(f"mapping: task {t.id} has no binding")
        core = bindings[t.id]
        if core not in spec.edges_of[t.id]:
            raise ValidationError(
                f"mapping: {t.id} -> {core} is not among its mapping edges"
            )
        edges.append(_edge(spec, t, core))
    for name in bindings:
        if name not in spec.application._tasks_by_id:
            raise ValidationError(f"mapping: unknown task {name!r}")
    _check_ids(reserved_cores, arch._cores_by_id, "core", "core_flags")
    _check_ids(reserved_tiles, arch._tiles_by_id, "tile", "tile_flags")
    return _build(spec, dict(bindings), edges, set(reserved_cores), set(reserved_tiles),
                  mode)


def _check_ids(ids, known: TMapping, what: str, field_name: str) -> None:
    for i in ids:
        if i not in known:
            raise ValidationError(f"mapping: unknown {what} {i!r} in {field_name}")


def _reserved_ids(doc: dict, field_name: str, what: str, known: TMapping) -> set[str]:
    """Ids that a document's flag map marks reserved. Each key must be a
    known id and each value "reserved" or "shared"."""
    flags = doc.get(field_name, {})
    if not isinstance(flags, dict):
        raise ValidationError(f"mapping document field {field_name!r} must be an object")
    _check_ids(flags, known, what, field_name)
    for i, v in flags.items():
        if v not in ("reserved", "shared"):
            raise ValidationError(
                f'mapping: {field_name}[{i!r}] must be "reserved" or "shared", got {v!r}')
    return {i for i, v in flags.items() if v == "reserved"}


def load_mapping_doc(spec: ProblemSpec, doc: dict) -> MappingResult:
    """Build from a mapping document: bindings plus optional flag maps."""
    if not isinstance(doc, dict) or not isinstance(doc.get("bindings"), dict):
        raise ValidationError("mapping document needs a 'bindings' object")
    arch = spec.architecture
    cores = _reserved_ids(doc, "core_flags", "core", arch._cores_by_id)
    tiles = _reserved_ids(doc, "tile_flags", "tile", arch._tiles_by_id)
    return from_bindings(spec, doc["bindings"], cores, tiles)
