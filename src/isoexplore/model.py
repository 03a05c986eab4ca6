"""Problem model: application graph, platform graph, mapping options.

A problem document is one JSON object with three sections:

  application    periodic tasks and the messages between them (a DAG)
  architecture   mesh of tiles; each tile has cores, a memory with its bus,
                 and a network adapter (TX/RX) onto the routed mesh
  mapping_edges  which task may run on which core

Times in the document carry unit suffixes (_us, _ns); in memory everything
is integer nanoseconds so ceiling arithmetic is exact.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Any, Iterable, Mapping

from .arbitration import ArbitrationPolicy
from .errors import (
    CycleError,
    EmptyGraph,
    SpecSyntaxError,
    ValidationError,
)

NS_PER_US = 1000
_CORE_TYPE = attrgetter("core_type")
# Scalar energy coefficients; dynamic_per_core_type maps core types to more.
ENERGY_COEFFICIENTS = ("static_per_core", "e_link", "e_router", "e_bus_src", "e_bus_dst")


# ---------------------------------------------------------------- application


@dataclass(frozen=True)
class Task:
    id: str
    period: int                      # release period = implicit deadline, ns
    wcet: Mapping[str, int]          # worst-case execution time per core type, ns
    mem_demand: int                  # single-word memory accesses per iteration

    def __post_init__(self):
        if self.period <= 0:
            raise ValidationError(f"task {self.id}: period must be positive")
        if not self.wcet:
            raise ValidationError(f"task {self.id}: wcet map is empty")
        for ctype, val in self.wcet.items():
            if val <= 0:
                raise ValidationError(
                    f"task {self.id}: wcet for core type {ctype!r} must be positive"
                )
        if self.mem_demand < 0:
            raise ValidationError(f"task {self.id}: mem_demand must be >= 0")


@dataclass(frozen=True)
class Message:
    id: str
    src: str
    dst: str                         # primary consumer; extras via consumers
    period: int                      # ns
    payload_bytes: int
    mem_demand: int                  # words read by TX / written by RX
    extra_consumers: tuple[str, ...] = ()

    def __post_init__(self):
        if self.period <= 0:
            raise ValidationError(f"message {self.id}: period must be positive")
        if self.payload_bytes <= 0:
            raise ValidationError(f"message {self.id}: payload_bytes must be positive")
        if self.mem_demand <= 0:
            raise ValidationError(f"message {self.id}: mem_demand must be positive")
        if self.src == self.dst or self.src in self.extra_consumers:
            raise ValidationError(f"message {self.id}: src equals a consumer")

    @cached_property
    def consumers(self) -> tuple[str, ...]:
        return (self.dst, *self.extra_consumers)


@dataclass(frozen=True)
class ApplicationGraph:
    tasks: tuple[Task, ...]
    messages: tuple[Message, ...]

    def __post_init__(self):
        if not self.tasks:
            raise EmptyGraph("application declares no tasks")
        ids: set[str] = set()
        for node in (*self.tasks, *self.messages):
            if node.id in ids:
                raise ValidationError(f"duplicate node id {node.id!r}")
            ids.add(node.id)
        task_ids = {t.id for t in self.tasks}
        for m in self.messages:
            if m.src not in task_ids:
                raise ValidationError(f"message {m.id}: src {m.src!r} is not a task")
            for c in m.consumers:
                if c not in task_ids:
                    raise ValidationError(
                        f"message {m.id}: consumer {c!r} is not a task"
                    )
            if len(set(m.consumers)) != len(m.consumers):
                raise ValidationError(f"message {m.id}: duplicate consumer")
        self.topo_order  # raises CycleError on cycles

    def task(self, task_id: str) -> Task:
        return self._tasks_by_id[task_id]

    @cached_property
    def _tasks_by_id(self) -> dict[str, Task]:
        return {t.id: t for t in self.tasks}

    @cached_property
    def outputs_of(self) -> dict[str, tuple[Message, ...]]:
        """Messages produced by each task, in declaration order."""
        out: dict[str, list[Message]] = {t.id: [] for t in self.tasks}
        for m in self.messages:
            out[m.src].append(m)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def inputs_of(self) -> dict[str, tuple[Message, ...]]:
        """Messages consumed by each task, in declaration order."""
        inc: dict[str, list[Message]] = {t.id: [] for t in self.tasks}
        for m in self.messages:
            for c in m.consumers:
                inc[c].append(m)
        return {k: tuple(v) for k, v in inc.items()}

    @cached_property
    def index(self) -> dict[str, int]:
        """Task id -> position of the task in `tasks`."""
        return {t.id: i for i, t in enumerate(self.tasks)}

    @cached_property
    def ends(self) -> tuple[tuple[Message, int, tuple[tuple[int, tuple[str, str]], ...]], ...]:
        """Per message: (message, producer position, ((consumer position,
        (message id, consumer id)), ...)); each pair is one message end."""
        index = self.index
        return tuple((m, index[m.src], tuple((index[c], (m.id, c)) for c in m.consumers))
                     for m in self.messages)

    @cached_property
    def topo_inputs(self) -> tuple[tuple[int, tuple[tuple[int, tuple[str, str]], ...]], ...]:
        """Per task in topological order (Kahn's algorithm; among ready tasks
        the earliest declared comes first): (position, ((producer position,
        end key), ...)) over its input messages, in declaration order."""
        inputs: list[list] = [[] for _ in self.tasks]
        successors: list[list] = [[] for _ in self.tasks]
        for _, src, consumers in self.ends:
            for c, key in consumers:
                inputs[c].append((src, key))
                successors[src].append(c)
        waiting = list(map(len, inputs))
        ready = [i for i, n in enumerate(waiting) if n == 0]
        if not ready:
            raise CycleError("application graph has no source task (cycle)")
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append((i, tuple(inputs[i])))
            for c in successors[i]:
                waiting[c] -= 1
                if waiting[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) < len(self.tasks):
            # Every unordered task has an unordered producer; walking back
            # through those producers must revisit a task on a cycle.
            seen: set[int] = set()
            i = next(i for i, n in enumerate(waiting) if n)
            while i not in seen:
                seen.add(i)
                i = next(src for src, _ in inputs[i] if waiting[src])
            raise CycleError(f"application graph has a cycle through {self.tasks[i].id!r}")
        return tuple(order)

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        """Task ids in the order of `topo_inputs`."""
        return tuple(self.tasks[i].id for i, _ in self.topo_inputs)


def end_to_end_paths(app: ApplicationGraph) -> tuple[tuple[str, ...], ...]:
    """All maximal source-to-sink chains, alternating task and message ids.

    Deterministic: depth-first in declaration order. A task without any
    messages forms a path of length one.
    """
    produced: dict[str, list[str]] = {t.id: [] for t in app.tasks}
    consumed_by: dict[str, tuple[str, ...]] = {}
    has_input: set[str] = set()
    for m in app.messages:
        produced[m.src].append(m.id)
        consumed_by[m.id] = m.consumers
        has_input.update(m.consumers)

    paths: list[tuple[str, ...]] = []
    chain: list[str] = []
    on_chain: set[str] = set()

    def walk(node: str, successors: Iterable[str], is_task: bool):
        if node in on_chain:
            raise CycleError(f"application graph has a cycle through {node!r}")
        chain.append(node)
        on_chain.add(node)
        succ = list(successors)
        if not succ:
            paths.append(tuple(chain))
        for nxt in succ:
            if is_task:
                walk(nxt, consumed_by[nxt], is_task=False)
            else:
                walk(nxt, produced[nxt], is_task=True)
        chain.pop()
        on_chain.discard(node)

    sources = [t.id for t in app.tasks if t.id not in has_input]
    if not sources and app.tasks:
        raise CycleError("application graph has no source task (cycle)")
    for s in sources:
        walk(s, produced[s], is_task=True)
    return tuple(paths)


# --------------------------------------------------------------- architecture


@dataclass(frozen=True)
class Core:
    id: str
    tile_id: str
    core_type: str
    policy: ArbitrationPolicy


@dataclass(frozen=True)
class Memory:
    id: str
    service_time: int                # per single-word access, ns

    def __post_init__(self):
        if self.service_time <= 0:
            raise ValidationError(f"memory {self.id}: service time must be positive")


def _check_tile_counts(tile_id: str, n_cores: int, n_memories: int,
                       bus_master_weight: int, capacity: int) -> None:
    """At least one core and one memory, and a bus cycle of
    `bus_master_weight` slots per core, TX and RX in the bus `capacity`."""
    if n_cores < 1:
        raise ValidationError(f"tile {tile_id}: needs at least one core")
    if n_memories < 1:
        raise ValidationError(f"tile {tile_id}: needs at least one memory")
    if bus_master_weight < 1:
        raise ValidationError(f"tile {tile_id}: bus_master_weight must be >= 1")
    expected = (n_cores + 2) * bus_master_weight
    if capacity != expected:
        raise ValidationError(
            f"tile {tile_id}: bus capacity {capacity} does not "
            f"cover its masters (cores + TX + RX = {expected} slots)"
        )


@dataclass(frozen=True)
class Tile:
    id: str
    type_name: str
    pos: tuple[int, int]
    cores: tuple[Core, ...]
    memories: tuple[Memory, ...]     # primary memory first; one bus serves it
    bus_policy: ArbitrationPolicy
    bus_master_weight: int           # per-master slots within the bus cycle
    tx_policy: ArbitrationPolicy
    rx_policy: ArbitrationPolicy

    def __post_init__(self):
        _check_tile_counts(self.id, len(self.cores), len(self.memories),
                           self.bus_master_weight, self.bus_policy.capacity)
        if self.bus_policy.slot_len < self.memory.service_time:
            raise ValidationError(
                f"tile {self.id}: bus slot_len {self.bus_policy.slot_len} is shorter "
                f"than the memory service time {self.memory.service_time}"
            )

    @property
    def memory(self) -> Memory:
        return self.memories[0]

    @property
    def max_service_time(self) -> int:
        return max(m.service_time for m in self.memories)


@dataclass(frozen=True)
class NocConfig:
    tau: int                         # link cycle = link slot length, ns
    router_delay: int                # per-router pipeline, cycles
    link_policy: ArbitrationPolicy
    flit_payload_bytes: int
    header_flits: int
    route_hop_offset: int            # hops = links on route + offset

    def __post_init__(self):
        if self.tau <= 0:
            raise ValidationError("noc: tau_ns must be positive")
        if self.router_delay < 0:
            raise ValidationError("noc: router_delay_cycles must be >= 0")
        if self.link_policy.slot_len != self.tau:
            raise ValidationError(
                f"noc: link slot_len {self.link_policy.slot_len} must equal tau {self.tau}"
            )
        if self.flit_payload_bytes <= 0:
            raise ValidationError("noc: flit_payload_bytes must be positive")
        if self.header_flits < 0:
            raise ValidationError("noc: header_flits must be >= 0")
        if self.route_hop_offset < 0:
            raise ValidationError("noc: route_hop_offset must be >= 0")

    def flits_for(self, payload_bytes: int) -> int:
        return -(-payload_bytes // self.flit_payload_bytes) + self.header_flits


@dataclass(frozen=True)
class ArchitectureGraph:
    mesh: tuple[int, int]
    tiles: tuple[Tile, ...]
    noc: NocConfig
    energy: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        w, h = self.mesh
        if w < 1 or h < 1:
            raise ValidationError(f"mesh {self.mesh} must be at least 1x1")
        seen_pos: dict[tuple[int, int], str] = {}
        seen_ids: set[str] = set()
        for tile in self.tiles:
            if tile.id in seen_ids:
                raise ValidationError(f"duplicate tile id {tile.id!r}")
            seen_ids.add(tile.id)
            x, y = tile.pos
            if not (0 <= x < w and 0 <= y < h):
                raise ValidationError(
                    f"tile {tile.id}: pos {tile.pos} outside mesh {self.mesh}"
                )
            if tile.pos in seen_pos:
                raise ValidationError(
                    f"tile {tile.id}: pos {tile.pos} already taken by {seen_pos[tile.pos]}"
                )
            seen_pos[tile.pos] = tile.id
        if not self.tiles:
            raise ValidationError("architecture declares no tiles")

    def tile(self, tile_id: str) -> Tile:
        return self._tiles_by_id[tile_id]

    def core(self, core_id: str) -> Core:
        return self._cores_by_id[core_id]

    @cached_property
    def cores(self) -> tuple[Core, ...]:
        return tuple(c for t in self.tiles for c in t.cores)

    @cached_property
    def core_index(self) -> dict[str, int]:
        """Core id -> position of the core in `cores` (architecture order)."""
        return {c: i for i, c in enumerate(self._cores_by_id)}

    @cached_property
    def _tiles_by_id(self) -> dict[str, Tile]:
        return {t.id: t for t in self.tiles}

    @cached_property
    def _cores_by_id(self) -> dict[str, Core]:
        return {c.id: c for t in self.tiles for c in t.cores}


# ------------------------------------------------------------------- problem


@dataclass
class ProblemSpec:
    application: ApplicationGraph
    architecture: ArchitectureGraph
    mapping_edges: tuple[tuple[str, str], ...]     # (task id, core id) pairs
    # Allowed target cores per task, in declaration order; built by the checks.
    edges_of: dict[str, tuple[str, ...]] = field(init=False, compare=False)

    def __post_init__(self):
        tasks = self.application._tasks_by_id
        cores = self.architecture._cores_by_id
        allowed: dict[str, dict] = {t: {} for t in tasks}
        # One pass files every edge under its task; counts and core types
        # are then checked per task. On any fault the edges are checked one
        # by one, in declaration order, to name the first faulty one.
        try:
            for task, core in self.mapping_edges:
                allowed[task][core] = cores[core]
            valid = sum(map(len, allowed.values())) == len(self.mapping_edges) and all(
                set(map(_CORE_TYPE, row.values())) <= tasks[t].wcet.keys()
                for t, row in allowed.items())
        except KeyError:
            valid = False
        if not valid:
            allowed = {t: {} for t in tasks}
            for task, core in self.mapping_edges:
                if task not in tasks:
                    raise ValidationError(f"mapping edge: unknown task {task!r}")
                if core not in cores:
                    raise ValidationError(f"mapping edge: unknown core {core!r}")
                if core in allowed[task]:
                    raise ValidationError(f"duplicate mapping edge {task!r} -> {core!r}")
                allowed[task][core] = None
                ctype = cores[core].core_type
                if ctype not in tasks[task].wcet:
                    raise ValidationError(
                        f"task {task}: no wcet for core type {ctype!r} "
                        f"(mapping edge to {core})"
                    )
        self.edges_of = {t: tuple(c) for t, c in allowed.items()}
        for t, c in self.edges_of.items():
            if not c:
                raise ValidationError(f"task {t}: has no mapping edges")

    @cached_property
    def tables(self) -> dict:
        """Decode results that depend on this spec alone, filled on first use
        by the mapping and scheduling layers and dropped with the spec. Each
        kind of key has its own shape:

          ("edges",) -> per task position, a slot for each of the task's
              mapping edges, in `edges_of` order, holding the edge's record
              (`scheduling.Edge`) once a decode has bound it
          (task id, core type, tile id, effective memory demand)
              -> least task weight, or the reason text of a failed search
          (message id, source tile id, destination tile id)
              -> least transfer weight, or the reason text of a failed search
          (source tile id, destination tile id)
              -> XY route between the tiles: (link ids, hops)
          tile id
              -> the tile's record (`scheduling.tile_record`): its extended
              bus and core policies and its full-capacity bus-master tuple
          (kind, tile id, weight, effective capacity), kind "bus" or "core"
              -> arbitration tuple of a bus master or a task on its core
          (kind, tile id, weight, effective capacity, bus capacity), kind
          "tx" or "rx" -> arbitration tuple of a transfer on the adapter,
              whose slot is the period of the bus at that capacity
          ("route", weight) -> arbitration tuple of a transfer on a link
          ("wcrt", wcet, effective memory demand, service time, bus tuple,
          core tuple) -> the terms of `timing.wcrt`
          ("d_tx", memory demand, service time, bus tuple, tx tuple),
          ("d_noc", flits, hops, router delay, route tuple) and
          ("d_rx", memory demand, service time, bus tuple, rx tuple)
              -> `timing.tx_latency`, `noc_latency` and `rx_latency`
          ("results",) -> a `weakref.WeakValueDictionary` from (mode,
              reserved cores, reserved tiles, task ids..., core ids...), in
              binding order, to that phenotype's `mapping.MappingResult`.
              An entry is removed when its result dies.
        """
        return {}


# ------------------------------------------------------------ parse and emit


def _join(parts: tuple) -> str:
    """A path or field name, passed in parts such as ("application.tasks[",
    3, "]") and joined only into the text of an error."""
    return "".join(map(str, parts))


def _ctx(parts: tuple) -> str:
    path = _join(parts)
    return f" at {path}" if path else ""


def _req(obj: Any, key: str, *path: Any) -> Any:
    if not isinstance(obj, dict):
        raise SpecSyntaxError(f"expected an object{_ctx(path)}")
    if key not in obj:
        raise SpecSyntaxError(f"missing field {key!r}{_ctx(path)}")
    return obj[key]


def _req_list(obj: Any, key: str, *path: Any) -> list:
    val = _req(obj, key, *path)
    if not isinstance(val, list):
        raise SpecSyntaxError(f"field {key!r} must be an array{_ctx(path)}")
    return val


def _int(val: Any, *what: Any) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise SpecSyntaxError(f"{_join(what)} must be an integer, got {val!r}")
    return val


def _ns_from_us(val: Any, *what: Any) -> int:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SpecSyntaxError(f"{_join(what)} must be a number, got {val!r}")
    ns = val * NS_PER_US
    if isinstance(ns, float) and not math.isfinite(ns):
        raise SpecSyntaxError(f"{_join(what)} must be a finite number, got {val!r}")
    if abs(ns - round(ns)) > 1e-6:
        raise SpecSyntaxError(
            f"{_join(what)} must be a whole number of nanoseconds, got {val!r}")
    return round(ns)


def _coefficient(val: Any, what: str) -> None:
    """An energy coefficient: a finite number >= 0 (never a bool)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SpecSyntaxError(f"{what} must be a number, got {val!r}")
    if not 0 <= val <= sys.float_info.max:
        raise ValidationError(f"{what} must be a finite number >= 0, got {val!r}")


def _policy(
    obj: Any, path: str, *, suffix: str, slot_required: bool = True
) -> ArbitrationPolicy:
    """Policy whose time fields end in `suffix`: "_us" (converted to
    nanoseconds), "_ns", or "" (nanoseconds implied, the NoC link)."""
    if not isinstance(obj, dict):
        raise SpecSyntaxError(f"expected a policy object{_ctx(path)}")
    conv = _ns_from_us if suffix == "_us" else _int
    slot = None
    if slot_required:
        slot = conv(_req(obj, f"slot_len{suffix}", path), f"{path}.slot_len{suffix}")
    delay = conv(_req(obj, f"arb_delay{suffix}", path), f"{path}.arb_delay{suffix}")
    cap = _int(_req(obj, "capacity", path), f"{path}.capacity")
    wc = _req(obj, "work_conserving", path)
    if not isinstance(wc, bool):
        raise SpecSyntaxError(f"{path}.work_conserving must be a boolean")
    try:
        return ArbitrationPolicy(slot, delay, cap, wc)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_application(obj: Any) -> ApplicationGraph:
    tasks = []
    for i, raw in enumerate(_req_list(obj, "tasks", "application")):
        at = ("application.tasks[", i, "]")
        wcet_raw = _req(raw, "wcet_us", *at)
        if not isinstance(wcet_raw, dict):
            raise SpecSyntaxError(f"{_join(at)}.wcet_us must be a map of core type to time")
        tasks.append(
            Task(
                id=str(_req(raw, "id", *at)),
                period=_ns_from_us(_req(raw, "period_us", *at), *at, ".period_us"),
                wcet={
                    str(k): _ns_from_us(v, *at, ".wcet_us[", k, "]")
                    for k, v in wcet_raw.items()
                },
                mem_demand=_int(_req(raw, "mem_demand", *at), *at, ".mem_demand"),
            )
        )

    fields = []         # each message's, built once its consumers are known
    for i, raw in enumerate(_req_list(obj, "messages", "application") if "messages" in obj else []):
        at = ("application.messages[", i, "]")
        fields.append({
            "id": str(_req(raw, "id", *at)),
            "src": str(_req(raw, "src", *at)),
            "dst": str(_req(raw, "dst", *at)),
            "period": _ns_from_us(_req(raw, "period_us", *at), *at, ".period_us"),
            "payload_bytes": _int(_req(raw, "payload_bytes", *at), *at, ".payload_bytes"),
            "mem_demand": _int(_req(raw, "mem_demand", *at), *at, ".mem_demand"),
        })

    # Optional explicit edge list: must agree with src/dst; message->task
    # edges beyond dst add consumers.
    extras: dict[str, list[str]] = {f["id"]: [] for f in fields}
    if "edges" in obj:
        by_id = {f["id"]: f for f in fields}
        task_ids = {t.id for t in tasks}
        for i, raw in enumerate(_req_list(obj, "edges", "application")):
            at = ("application.edges[", i, "]")
            src = str(_req(raw, "src", *at))
            dst = str(_req(raw, "dst", *at))
            if src in task_ids and dst in by_id:
                if by_id[dst]["src"] != src:
                    raise ValidationError(
                        f"{_join(at)}: producer edge {src}->{dst} contradicts "
                        f"message src {by_id[dst]['src']!r}"
                    )
            elif src in by_id and dst in task_ids:
                if dst != by_id[src]["dst"] and dst not in extras[src]:
                    extras[src].append(dst)
            else:
                raise ValidationError(
                    f"{_join(at)}: edge {src!r}->{dst!r} must link a task and a message"
                )
    messages = [Message(**f, extra_consumers=tuple(extras[f["id"]])) for f in fields]

    return ApplicationGraph(tasks=tuple(tasks), messages=tuple(messages))


def _parse_architecture(obj: Any) -> ArchitectureGraph:
    mesh_raw = _req_list(obj, "mesh", "architecture")
    if len(mesh_raw) != 2:
        raise SpecSyntaxError("architecture.mesh must be [width, height]")
    mesh = (_int(mesh_raw[0], "mesh width"), _int(mesh_raw[1], "mesh height"))

    types: dict[str, dict] = {}
    for i, raw in enumerate(_req_list(obj, "tile_types", "architecture")):
        path = f"architecture.tile_types[{i}]"
        name = str(_req(raw, "name", path))
        if name in types:
            raise ValidationError(f"{path}: duplicate tile type {name!r}")
        types[name] = raw

    noc_raw = _req(obj, "noc", "architecture")
    noc = NocConfig(
        tau=_int(_req(noc_raw, "tau_ns", "architecture.noc"), "noc.tau_ns"),
        router_delay=_int(
            _req(noc_raw, "router_delay_cycles", "architecture.noc"),
            "noc.router_delay_cycles",
        ),
        link_policy=_policy(
            _req(noc_raw, "link_policy", "architecture.noc"),
            "architecture.noc.link_policy",
            suffix="",
        ),
        flit_payload_bytes=_int(
            _req(noc_raw, "flit_payload_bytes", "architecture.noc"), "noc.flit_payload_bytes"
        ),
        header_flits=_int(
            _req(noc_raw, "header_flits", "architecture.noc"), "noc.header_flits"
        ),
        route_hop_offset=_int(
            noc_raw.get("route_hop_offset", 1), "noc.route_hop_offset"
        ),
    )

    # The first tile of a type parses the type, around its own position so
    # that the first fault is reported as before; later tiles share it.
    parsed_types: dict[str, tuple] = {}
    tiles = []
    for i, raw in enumerate(_req_list(obj, "tiles", "architecture")):
        at = ("architecture.tiles[", i, "]")
        tid = str(_req(raw, "id", *at))
        type_name = str(_req(raw, "type", *at))
        if type_name not in types:
            raise ValidationError(f"{_join(at)}: unknown tile type {type_name!r}")
        pos_raw = _req_list(raw, "pos", *at)
        if len(pos_raw) != 2:
            raise SpecSyntaxError(f"{_join(at)}.pos must be [x, y]")
        parsed = parsed_types.get(type_name)
        if parsed is None:
            traw = types[type_name]
            tpath = f"architecture.tile_types[{type_name}]"
            core_policy = _policy(
                _req(traw, "core_policy", tpath), f"{tpath}.core_policy", suffix="_us"
            )
            n_cores = _int(_req(traw, "cores", tpath), f"{tpath}.cores")
            core_type = str(_req(traw, "core_type", tpath))
            memories = [
                Memory(f"{tid}.mem{j}", _int(
                    _req(mraw, "service_time_ns", f"{tpath}.memories[{j}]"),
                    f"{tpath}.memories[{j}].service_time_ns"))
                for j, mraw in enumerate(_req_list(traw, "memories", tpath))
            ]
            na_raw = _req(traw, "na", tpath)
        pos = (_int(pos_raw[0], *at, ".pos x"), _int(pos_raw[1], *at, ".pos y"))
        if parsed is None:
            bus_policy = _policy(_req(traw, "bus_policy", tpath), f"{tpath}.bus_policy",
                                 suffix="_ns")
            bmw = _int(traw.get("bus_master_weight", 1), f"{tpath}.bus_master_weight")
            tx_policy = _policy(_req(na_raw, "tx", f"{tpath}.na"), f"{tpath}.na.tx",
                                suffix="_ns", slot_required=False)
            rx_policy = _policy(_req(na_raw, "rx", f"{tpath}.na"), f"{tpath}.na.rx",
                                suffix="_ns", slot_required=False)
            # Checked before the cores are built, so a huge count costs nothing.
            _check_tile_counts(tid, n_cores, len(memories), bmw, bus_policy.capacity)
            parsed_types[type_name] = parsed = (
                core_policy, n_cores, core_type, [m.service_time for m in memories],
                bus_policy, bmw, tx_policy, rx_policy)
        core_policy, n_cores, core_type, times, bus_policy, bmw, tx_policy, rx_policy = parsed
        memories = tuple(Memory(f"{tid}.mem{j}", st) for j, st in enumerate(times))
        cores = tuple(Core(f"{tid}.c{j}", tid, core_type, core_policy) for j in range(n_cores))
        tiles.append(Tile(tid, type_name, pos, cores, memories, bus_policy, bmw,
                          tx_policy, rx_policy))

    energy = obj.get("energy", {})
    if not isinstance(energy, dict):
        raise SpecSyntaxError("architecture.energy must be an object")
    for name in ENERGY_COEFFICIENTS:
        if name in energy:
            _coefficient(energy[name], f"architecture.energy.{name}")
    dynamic = energy.get("dynamic_per_core_type", {})
    if not isinstance(dynamic, dict):
        raise SpecSyntaxError("architecture.energy.dynamic_per_core_type must be an object")
    for core_type, val in dynamic.items():
        _coefficient(val, f"architecture.energy.dynamic_per_core_type[{core_type}]")
    return ArchitectureGraph(mesh=mesh, tiles=tuple(tiles), noc=noc, energy=energy)


def parse_json(text: str) -> Any:
    """Decode JSON text; malformed or too deeply nested text, or an integer
    literal longer than the interpreter converts, raises SpecSyntaxError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:     # JSONDecodeError is a ValueError
        raise SpecSyntaxError(f"not valid JSON: {exc}") from exc


def parse_spec(text: str) -> ProblemSpec:
    """Parse and validate a problem document from JSON text."""
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise SpecSyntaxError("document root must be an object")
    app = _parse_application(_req(doc, "application", ""))
    arch = _parse_architecture(_req(doc, "architecture", ""))
    raw_edges = _req_list(doc, "mapping_edges", "")
    try:
        edges = tuple([(str(raw["task"]), str(raw["core"])) for raw in raw_edges])
    except (TypeError, KeyError):       # not an object, or a field is missing
        for i, raw in enumerate(raw_edges):
            _req(raw, "task", "mapping_edges[", i, "]")
            _req(raw, "core", "mapping_edges[", i, "]")
        raise
    return ProblemSpec(application=app, architecture=arch, mapping_edges=edges)


def read_document(path: str) -> str:
    """The UTF-8 text of the file at `path`; other bytes raise
    SpecSyntaxError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SpecSyntaxError(f"{path}: not valid UTF-8: {exc}") from exc


def load_spec(path: str) -> ProblemSpec:
    return parse_spec(read_document(path))


def _us(ns: int) -> float | int:
    val = ns / NS_PER_US
    return int(val) if val == int(val) else val


def _policy_doc(policy: ArbitrationPolicy, suffix: str) -> dict:
    """Inverse of `_policy`: time fields in microseconds for "_us", else in
    nanoseconds; the slot length only where the policy has one."""
    conv = _us if suffix == "_us" else (lambda ns: ns)
    doc = {} if policy.slot_len is None else {f"slot_len{suffix}": conv(policy.slot_len)}
    doc[f"arb_delay{suffix}"] = conv(policy.arb_delay)
    doc["capacity"] = policy.capacity
    doc["work_conserving"] = policy.work_conserving
    return doc


def emit_spec(spec: ProblemSpec) -> str:
    """Serialize back to document JSON; parse(emit(s)) is structurally equal."""
    app = spec.application
    arch = spec.architecture

    tile_types: dict[str, dict] = {}
    tiles_doc = []
    for tile in arch.tiles:
        if tile.type_name not in tile_types:
            tile_types[tile.type_name] = {
                "name": tile.type_name,
                "cores": len(tile.cores),
                "core_type": tile.cores[0].core_type,
                "core_policy": _policy_doc(tile.cores[0].policy, "_us"),
                "memories": [
                    {"service_time_ns": m.service_time} for m in tile.memories
                ],
                "bus_policy": _policy_doc(tile.bus_policy, "_ns"),
                "bus_master_weight": tile.bus_master_weight,
                "na": {
                    "tx": _policy_doc(tile.tx_policy, "_ns"),
                    "rx": _policy_doc(tile.rx_policy, "_ns"),
                },
            }
        tiles_doc.append({"id": tile.id, "type": tile.type_name, "pos": list(tile.pos)})

    edges_doc = []
    for m in app.messages:
        edges_doc.append({"src": m.src, "dst": m.id})
        for c in m.consumers:
            edges_doc.append({"src": m.id, "dst": c})

    doc = {
        "application": {
            "tasks": [
                {
                    "id": t.id,
                    "period_us": _us(t.period),
                    "wcet_us": {k: _us(v) for k, v in t.wcet.items()},
                    "mem_demand": t.mem_demand,
                }
                for t in app.tasks
            ],
            "messages": [
                {
                    "id": m.id,
                    "src": m.src,
                    "dst": m.dst,
                    "period_us": _us(m.period),
                    "payload_bytes": m.payload_bytes,
                    "mem_demand": m.mem_demand,
                }
                for m in app.messages
            ],
            "edges": edges_doc,
        },
        "architecture": {
            "mesh": list(arch.mesh),
            "tile_types": list(tile_types.values()),
            "tiles": tiles_doc,
            "noc": {
                "tau_ns": arch.noc.tau,
                "router_delay_cycles": arch.noc.router_delay,
                "link_policy": _policy_doc(arch.noc.link_policy, ""),
                "flit_payload_bytes": arch.noc.flit_payload_bytes,
                "header_flits": arch.noc.header_flits,
                "route_hop_offset": arch.noc.route_hop_offset,
            },
            "energy": dict(arch.energy),
        },
        "mapping_edges": [
            {"task": task, "core": core} for task, core in spec.mapping_edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
