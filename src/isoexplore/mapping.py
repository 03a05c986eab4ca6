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
"""

from __future__ import annotations

import hashlib
import json
import math
import weakref
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from random import Random
from typing import AbstractSet, Sequence
from typing import Mapping as TMapping

from . import scheduling, timing
from .errors import Infeasible, MissingCoefficient, ValidationError
from .model import Message, NocConfig, ProblemSpec
from .scheduling import InstanceKey, IsolationScheme, Placement, TupleSet


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


@dataclass(frozen=True, slots=True)
class RoutedInstance:
    """One inter-tile transfer: a message toward one remote consumer."""

    message: Message
    src_tile: str
    dst_tile: str
    links: tuple[str, ...]
    hops: int
    key: InstanceKey                # (message id, consumer)
    flits: int                      # of the message's payload


@dataclass
class MappingResult:
    """One decoded mapping. Two decodes of the same phenotype (the same
    mode, the same bindings in the same order, the same effective flags)
    return the same object while it is alive: read results, never change
    them. A result is feasible when it has no `reason`; then every
    weight is read from its tuple: a task's from `tuples.core`, a
    transfer's from `tuples.route`."""

    mode: ExplorationMode
    bindings: dict[str, str]
    reserved_cores: frozenset[str]          # effective (masked) core flags
    reserved_tiles: frozenset[str]          # effective (masked) tile flags
    schemes: dict[str, IsolationScheme]     # per hosting core
    instances: tuple[RoutedInstance, ...]
    placement: Placement
    reason: str | None = None
    tuples: TupleSet | None = None
    task_wcrt: dict[str, int] = field(default_factory=dict)
    task_parts: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)
    transfer_parts: dict[InstanceKey, tuple[int, int, int]] = field(default_factory=dict)
    transfer_wctt: dict[InstanceKey, int] = field(default_factory=dict)
    makespan: int = 0
    throughput: float = 0.0
    objectives: tuple[int, float, float] | None = None  # latency, cores, energy
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def digest(self) -> str:
        """SHA-1 prefix of the bindings and effective flags, computed once."""
        if self._digest is None:
            payload = json.dumps(
                {
                    "bindings": dict(sorted(self.bindings.items())),
                    "cores": sorted(self.reserved_cores),
                    "tiles": sorted(self.reserved_tiles),
                },
                sort_keys=True,
            )
            self._digest = hashlib.sha1(payload.encode()).hexdigest()[:16]
        return self._digest

    @property
    def feasible(self) -> bool:
        return self.reason is None

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
                for t in sorted(tile.id for tile, *_ in self.placement.tiles)
            },
            "schemes": {c: s.short for c, s in sorted(self.schemes.items())},
        }
        if self.reason is not None:
            doc["reason"] = self.reason
            return doc
        key = lambda k: f"{k[0]}->{k[1]}"
        bus, tiles = self.tuples.bus, self.placement.tiles
        doc["weights"] = {
            "tasks": {t: self.tuples.core[t].weight for t in self.task_wcrt},
            "transfers": {key(k): v.weight for k, v in self.tuples.route.items()},
        }
        doc["routes"] = {key(i.key): list(i.links) for i in self.instances}
        doc["tuples"] = {
            "core": {t: list(v) for t, v in self.tuples.core.items()},
            "core_bus": {c.id: list(bus[t.id]) for t, cores, _, _ in tiles for c in cores},
            "tx_bus": {t.id: list(bus[t.id]) for t, _, out, _ in tiles if out},
            "rx_bus": {t.id: list(bus[t.id]) for t, _, _, inb in tiles if inb},
            "tx": {key(k): list(v) for k, v in self.tuples.tx.items()},
            "rx": {key(k): list(v) for k, v in self.tuples.rx.items()},
            "route": {key(k): list(v) for k, v in self.tuples.route.items()},
        }
        doc["timing"] = {
            "wcrt": {
                t: {
                    "wcet": self.task_parts[t][0],
                    "mem_service": self.task_parts[t][1],
                    "i_bus": self.task_parts[t][2],
                    "i_core": self.task_parts[t][3],
                    "total": v,
                }
                for t, v in self.task_wcrt.items()
            },
            "wctt": {
                key(k): {
                    "d_tx": self.transfer_parts[k][0],
                    "d_noc": self.transfer_parts[k][1],
                    "d_rx": self.transfer_parts[k][2],
                    "total": v,
                }
                for k, v in self.transfer_wctt.items()
            },
            "makespan": self.makespan,
            "throughput": self.throughput,
        }
        doc["objectives"] = {
            "latency": self.objectives[0],
            "resource": self.objectives[1],
            "energy": self.objectives[2],
        }
        return doc


def effective_mem_demand(
    app, bindings: TMapping[str, str], tile_of: TMapping[str, str]
) -> dict[str, int]:
    """Task memory demand plus the local-message reads and writes.

    `tile_of` maps each core id to its tile id. A message whose consumer
    sits on the producer's tile is exchanged through the tile memory: the
    consumer re-reads it, and the producer writes it once if at least one
    consumer is local.
    """
    eff = {t.id: t.mem_demand for t in app.tasks}
    for m in app.messages:
        src_tile = tile_of[bindings[m.src]]
        local = False
        for consumer in m.consumers:
            if tile_of[bindings[consumer]] == src_tile:
                local = True
                eff[consumer] += m.mem_demand
        if local:
            eff[m.src] += m.mem_demand
    return eff


def route_instances(
    spec: ProblemSpec, bindings: TMapping[str, str]
) -> tuple[RoutedInstance, ...]:
    """One routed instance per message and remote consumer, XY-routed.

    Each tile pair's route is computed once per spec and kept in its tables.
    """
    arch = spec.architecture
    tile_of = arch.tile_id_of
    tables = spec.tables
    out: list[RoutedInstance] = []
    for m in spec.application.messages:
        src = tile_of[bindings[m.src]]
        flits = arch.noc.flits_for(m.payload_bytes)
        for consumer in m.consumers:
            dst = tile_of[bindings[consumer]]
            if dst == src:
                continue
            route = tables.get((src, dst))
            if route is None:
                links = xy_route(arch.tile(src).pos, arch.tile(dst).pos)
                route = tables[(src, dst)] = (
                    links, len(links) + arch.noc.route_hop_offset)
            out.append(RoutedInstance(m, src, dst, *route, (m.id, consumer), flits))
    return tuple(out)


def resource_usage(
    placement: Placement,
    schemes: TMapping[str, IsolationScheme],
    core_loads: TMapping[str, int],
) -> float:
    """Allocated compute, in cores: a reserved tile claims all its cores, a
    reserved core claims one, a shared core its weight fraction."""
    usage = 0.0
    for tile, hosting, _, _ in placement.tiles:
        if schemes[hosting[0].id] is IsolationScheme.TILE_RESERVATION:
            usage += len(tile.cores)
            continue
        for core in hosting:
            if schemes[core.id] is IsolationScheme.CORE_RESERVATION:
                usage += 1.0
            else:
                usage += core_loads[core.id] / core.policy.capacity
    return usage


def _coeff(cfg: TMapping, name: str) -> float:
    if name not in cfg:
        raise MissingCoefficient(name)
    return float(cfg[name])


def energy(
    spec: ProblemSpec,
    bindings: TMapping[str, str],
    instances: Sequence[RoutedInstance],
    usage: float,
) -> float:
    """Affine energy surrogate per iteration of each element.

    Summed in floats; a total that overflows raises ValidationError, so
    that every objective stays finite."""
    arch = spec.architecture
    cfg = arch.energy
    dyn_map = cfg.get("dynamic_per_core_type", {})
    total = _coeff(cfg, "static_per_core") * usage
    for t in spec.application.tasks:
        core = arch.core(bindings[t.id])
        if core.core_type not in dyn_map:
            raise MissingCoefficient(f"dynamic_per_core_type[{core.core_type}]")
        total += float(dyn_map[core.core_type]) * (t.wcet[core.core_type] / 1000.0)
    if instances:
        per_hop = _coeff(cfg, "e_link") + _coeff(cfg, "e_router")
        per_word = _coeff(cfg, "e_bus_src") + _coeff(cfg, "e_bus_dst")
        for inst in instances:
            total += inst.flits * inst.hops * per_hop
            total += inst.message.mem_demand * per_word
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


def _term(tables: dict, key: tuple, bound):
    """`bound(*key[1:])`, computed on the first call for `key` and kept in
    the spec's tables under it."""
    v = tables.get(key)
    if v is None:
        v = tables[key] = bound(*key[1:])
    return v


_RESULTS = ("results",)     # the key of the live-result map in `spec.tables`


def _build(
    spec: ProblemSpec,
    bindings: dict[str, str],
    flagged_cores: AbstractSet[str],
    flagged_tiles: AbstractSet[str],
    mode: ExplorationMode,
) -> MappingResult:
    """The live result of the phenotype, or a new one.

    The key is the mode and the effective flags, then the task ids and the
    core ids in binding order, which say what `tuple(bindings.items())`
    says. The order matters, since `check_feasibility` sums core loads in
    it and so decides which overloaded core the reason names."""
    arch = spec.architecture
    app = spec.application
    noc = arch.noc
    tile_of = arch.tile_id_of
    tables = spec.tables
    hosting = set(bindings.values())
    reserved_tiles = frozenset({tile_of[c] for c in hosting} & flagged_tiles)
    reserved_cores = frozenset(
        c for c in hosting if c in flagged_cores and tile_of[c] not in reserved_tiles)
    results = tables.get(_RESULTS)
    if results is None:
        results = tables[_RESULTS] = weakref.WeakValueDictionary()
    key = (mode, reserved_cores, reserved_tiles, *bindings, *bindings.values())
    result = results.get(key)
    if result is not None:
        return result

    instances = route_instances(spec, bindings)
    placement = scheduling.place(spec, bindings, instances)
    schemes: dict[str, IsolationScheme] = {}
    for core_id in placement.tasks_on_core:         # in id order
        if tile_of[core_id] in reserved_tiles:
            schemes[core_id] = IsolationScheme.TILE_RESERVATION
        elif core_id in reserved_cores:
            schemes[core_id] = IsolationScheme.CORE_RESERVATION
        else:
            schemes[core_id] = IsolationScheme.CORE_SHARING
    eff_md = effective_mem_demand(app, bindings, tile_of)
    task_weights: dict[str, int] = {}
    message_weights: dict[InstanceKey, int] = {}
    task_args, transfer_args = [], []
    # A weight is looked up before the search's arguments are evaluated;
    # no stored weight is 0 and no stored reason is empty.
    try:
        for t in app.tasks:
            core = arch.core(bindings[t.id])
            tile = arch.tile(core.tile_id)
            wcet = t.wcet[core.core_type]
            md = eff_md[t.id]
            wkey = (t.id, core.core_type, tile.id, md)
            w = tables.get(wkey) or _search(
                tables, wkey, scheduling.min_task_weight, t.period, wcet, md, tile,
                scheduling.tile_record(tables, tile))
            if isinstance(w, str):
                raise Infeasible(w)
            task_weights[t.id] = w
            task_args.append((t.id, tile.id, wcet, md, tile.memory.service_time))
        for inst in instances:
            m = inst.message
            src, dst = arch.tile(inst.src_tile), arch.tile(inst.dst_tile)
            wkey = (m.id, src.id, dst.id)
            w = tables.get(wkey) or _search(
                tables, wkey, scheduling.min_message_weight,
                m.period, m.mem_demand, inst.flits, inst.hops, src, dst, noc,
                scheduling.tile_record(tables, src), scheduling.tile_record(tables, dst),
            )
            if isinstance(w, str):
                raise Infeasible(w)
            message_weights[inst.key] = w
            transfer_args.append((
                inst.key, src.id, dst.id, m.mem_demand, src.memory.service_time,
                inst.flits, inst.hops, dst.memory.service_time,
            ))
        loads = scheduling.check_feasibility(
            spec, bindings, instances, task_weights, message_weights)
    except Infeasible as exc:
        result = MappingResult(mode, bindings, reserved_cores, reserved_tiles, schemes,
                               instances, placement, reason=str(exc))
    else:
        tuples = scheduling.refine_tuples(
            spec, placement, instances, task_weights, message_weights, schemes, loads)

        # Each bound term is kept in the spec's tables, keyed by its arguments.
        bus, core_tuple = tuples.bus, tuples.core
        task_parts, task_wcrt = {}, {}
        for task_id, tile_id, wcet, md, st in task_args:
            parts = _term(tables, ("wcrt", wcet, md, st, bus[tile_id], core_tuple[task_id]),
                          timing.wcrt)
            task_parts[task_id] = parts
            task_wcrt[task_id] = sum(parts)

        tx, route, rx = tuples.tx, tuples.route, tuples.rx
        transfer_parts, transfer_wctt = {}, {}
        for k, src, dst, md, src_st, flits, hops, dst_st in transfer_args:
            parts = (
                _term(tables, ("d_tx", md, src_st, bus[src], tx[k]), timing.tx_latency),
                _term(tables, ("d_noc", flits, hops, noc.router_delay, route[k]),
                      timing.noc_latency),
                _term(tables, ("d_rx", md, dst_st, bus[dst], rx[k]), timing.rx_latency),
            )
            transfer_parts[k] = parts
            transfer_wctt[k] = sum(parts)

        makespan = timing.makespan(app, task_wcrt, transfer_wctt)
        throughput = timing.throughput(task_wcrt, transfer_wctt)

        usage = resource_usage(placement, schemes, loads[0])
        result = MappingResult(
            mode, bindings, reserved_cores, reserved_tiles, schemes, instances, placement,
            tuples=tuples, task_wcrt=task_wcrt, task_parts=task_parts,
            transfer_parts=transfer_parts, transfer_wctt=transfer_wctt,
            makespan=makespan, throughput=throughput,
            objectives=(makespan, usage, energy(spec, bindings, instances, usage)),
        )
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
    tasks = spec.application.tasks
    bindings = {
        t.id: spec.edges_of[t.id][genotype.bindings[i] % len(spec.edges_of[t.id])]
        for i, t in enumerate(tasks)
    }
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
    return _build(spec, bindings, cores, tiles, mode)


def from_bindings(
    spec: ProblemSpec,
    bindings: TMapping[str, str],
    reserved_cores: set[str] | frozenset[str] = frozenset(),
    reserved_tiles: set[str] | frozenset[str] = frozenset(),
    mode: ExplorationMode = ExplorationMode.ISOLATION_AWARE,
) -> MappingResult:
    """Analyze an explicit binding (a mapping file) through the same pipeline."""
    arch = spec.architecture
    for t in spec.application.tasks:
        if t.id not in bindings:
            raise ValidationError(f"mapping: task {t.id} has no binding")
        core = bindings[t.id]
        if core not in spec.edges_of[t.id]:
            raise ValidationError(
                f"mapping: {t.id} -> {core} is not among its mapping edges"
            )
    for name in bindings:
        if name not in spec.application._tasks_by_id:
            raise ValidationError(f"mapping: unknown task {name!r}")
    _check_ids(reserved_cores, arch._cores_by_id, "core", "core_flags")
    _check_ids(reserved_tiles, arch._tiles_by_id, "tile", "tile_flags")
    return _build(spec, dict(bindings), set(reserved_cores), set(reserved_tiles), mode)


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
