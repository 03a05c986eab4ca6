"""Adversarial discrete-event execution of a mapped workload.

Independent check of the analytical bounds: the mapped tasks and transfers
run on a simulated platform (slotted cores and buses, adapter units, a
synchronous mesh) under adversary-controlled background load, release
jitter and access patterns. Observed response and traversal times must
never exceed the bounds computed for the same mapping.

Every shared resource (core, tile bus, TX or RX adapter, mesh link) is one
slot arbiter, as in the analysis; the TX and RX adapters differ only in
what follows a packet's last word. Under a TDM (non-work-conserving)
timetable, a job released inside its own task's slot runs for the rest of
that slot.

Supported platform family, validated up front:
  - every bus slot equals its memory's single-word service time,
  - every duration is a multiple of the link cycle, link arbitration
    carries no switch delay, so all events stay on the cycle grid,
  - message periods are multiples of their producer's period.
While the tables are built, each one's capacity is checked against the
trial's event cap before its entries are made: each slot is one table
entry, and a table longer than the cap could not turn once within it.
Tiles that host no task (and so carry no traffic) and links no transfer
crosses get no table, so their capacities are not limited. Before any job
is made, the trial counts the events it cannot do without (a release per
job, a bus grant per word a job or an adapter moves, a link grant per
flit and link) and raises SimHorizonExceeded if they exceed the cap.

Each slot-table entry is an owner object: a queue of jobs, stalled memory
words, packets or flits; a TX or RX adapter, which holds the bus while one
of its windows is open; or a phantom. Adversaries ("phantoms") own exactly
the slots the mapping left free; reserved tiles and exclusively allocated
cores have none, and a reserved tile's unused bus slots belong to owners
whose queue stays empty. While a shared arbiter has no real work pending,
its rotation is not simulated; on wake the pointer position is
adversary-chosen. Both are behaviours a real background owner could
produce, so observed times stay genuine.

Every slot grant, a phantom's included, is one event: one call of the
arbiter's tick, which tests the next slots inline and pushes its own next
tick. Runs of phantom slots are not batched into one event. Events at the
same time run in push order, and a real owner can become busy between two
phantom slots (a word, flit or packet pushed by another arbiter's event at
that time), so a batched run would grant differently and change trials.

An event is a heap entry (time, sequence number, handler, argument), and
the engine runs it as `handler(argument, time)`. A tick is the class
function `_SlotArbiter._tick_wc` or `_tick_tdm` applied to its arbiter;
every other event is a bound method applied to the job, packet or flit
it moves on. No event is ever cancelled or goes stale.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from operator import itemgetter
from random import Random
from typing import Callable

from .errors import BoundViolation, DomainError, SimHorizonExceeded
from .mapping import MappingResult, effective_mem_demand
from .model import ProblemSpec
from .scheduling import InstanceKey

PATTERNS = ("front", "spread", "back", "random")
PHANTOM_LOADS = ("max", "random", "none")


@dataclass(frozen=True)
class TrialConfig:
    """One adversarial scenario: everything the adversary may choose."""

    seed: int
    phantom_load: str = "max"        # background owners: always busy / coin / idle
    jitter: bool = False             # task release offsets within one period
    pattern: str = "spread"          # where jobs place their memory accesses
    jobs: int = 2                    # measured jobs per task
    max_events: int = 2_000_000

    def __post_init__(self):
        if self.phantom_load not in PHANTOM_LOADS:
            raise DomainError(f"unknown phantom load {self.phantom_load!r}")
        if self.pattern not in PATTERNS and self.pattern != "mix":
            raise DomainError(f"unknown access pattern {self.pattern!r}")
        if self.jobs < 1:
            raise DomainError("jobs must be >= 1")

    def replay_doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "max_events"}


@dataclass
class TrialResult:
    responses: dict[str, list[int]]              # task id -> per-job times
    traversals: dict[InstanceKey, list[int]]     # transfer -> per-packet times
    events: int = 0
    makespan: int = 0                            # last recorded completion


@dataclass
class SweepResult:
    trials: int
    samples: dict       # id -> observations
    worst: dict         # id -> max observed
    bounds: dict        # id -> checked bound

    def rows(self) -> list[dict]:
        out = []
        for key in self.bounds:
            kind = "task" if isinstance(key, str) else "transfer"
            name = key if isinstance(key, str) else f"{key[0]}->{key[1]}"
            out.append(
                {
                    "kind": kind,
                    "id": name,
                    "bound_ns": self.bounds[key],
                    "worst_ns": self.worst[key],
                    "margin_ns": self.bounds[key] - self.worst[key],
                    "samples": self.samples[key],
                }
            )
        return out


# ------------------------------------------------------------------- engine


class _Engine:
    __slots__ = ("heap", "count", "cap", "seq")

    def __init__(self, cap: int):
        self.heap: list = []
        self.count = 0
        self.cap = cap
        self.seq = itertools.count()     # ties at one time pop in push order

    def push(self, t: int, handler: Callable[[object, int], None], arg) -> None:
        heappush(self.heap, (t, next(self.seq), handler, arg))

    def run(self) -> None:
        heap, pop, count, cap = self.heap, heappop, self.count, self.cap
        while heap:
            t, _, handler, arg = pop(heap)
            count += 1
            if count > cap:
                raise SimHorizonExceeded(f"simulation needs more than {cap} events")
            handler(arg, t)
        self.count = count


# What a tick reads for a phantom's slot under each phantom load: always
# busy, never busy, or None for one `rng.random() < 0.7` per test.
_PHANTOM_PROBE = {"max": True, "none": False, "random": None}


class _SlotArbiter:
    """Rotating slot owner table, one grant per slot.

    Work-conserving: an idle owner's slot is skipped in zero time and the
    switch delay is charged only when ownership changes hands. Otherwise
    the table is a fixed wall-clock timetable whose idle slots burn time.
    Rotation is simulated only while real work is pending. Each owner
    other than a phantom learns this arbiter as its `arbiter`.

    Each slot is compiled once into the probe a tick tests inline: the
    owner's queue (busy while not empty), an adapter `_Unit`, or the
    phantom load's probe. `grant(owner, start, end)` is called for each
    granted slot; for a phantom only if `grant_phantoms`, since only an
    adapter's windows care who holds them.
    """

    def __init__(
        self,
        eng: _Engine,
        rng: Random,
        slots: list,
        slot_len: int,
        delay: int,
        work_conserving: bool,
        grant: Callable[[object, int, int], None],
        load: str,
        grant_phantoms: bool,
    ):
        if not slots:
            raise DomainError("arbiter with an empty slot table")
        self.rng = rng
        self.random = rng.random
        self.heap = eng.heap
        self.seq = eng.seq
        self.slots = slots
        phantom = _PHANTOM_PROBE[load]
        self.probes = [phantom if o.phantom else o if o.__class__ is _Unit else o.queue
                       for o in slots]
        owners = [o for o in dict.fromkeys(slots) if not o.phantom]
        for owner in owners:
            owner.arbiter = self
        # the real-work test: some owner's queue, or an open adapter window
        # whose transfer has a packet waiting
        self.queues = [o.queue for o in owners if o.__class__ is not _Unit]
        self.units = [o for o in owners if o.__class__ is _Unit]
        self.slot_len = slot_len
        self.delay = delay
        self.work_conserving = work_conserving
        self.grant = grant
        self.grant_phantoms = grant_phantoms
        self.tick = _SlotArbiter._tick_wc if work_conserving else _SlotArbiter._tick_tdm
        self.idx = 0
        self.last = None
        self.sleeping = True

    def close(self) -> None:
        """Drop the tables, which point back at this arbiter through their
        owners, so that a finished trial is freed by reference counting."""
        self.slots = self.probes = self.queues = self.units = ()
        self.grant = self.tick = self.last = None

    def kick(self, t: int) -> None:
        if not self.sleeping:
            return
        self.sleeping = False
        if self.work_conserving:
            self.idx = self.rng.randrange(len(self.slots))
        else:
            span = self.slot_len + self.delay
            t = -(-t // span) * span
        heappush(self.heap, (t, next(self.seq), self.tick, self))

    def window(self, owner, t: int) -> tuple[int, int] | None:
        """The rest of `owner`'s timetable slot at `t`; None when `t` lies
        in another owner's slot or the arbiter is work-conserving."""
        span = self.slot_len + self.delay
        start = t - t % span
        if self.work_conserving or self.slots[(start // span) % len(self.slots)] is not owner:
            return None
        return max(t, start + self.delay), start + span

    def _tick_wc(self, t: int) -> None:
        if not any(self.queues):
            for unit in self.units:
                if t < unit.until and unit.flow.queue:
                    break
            else:
                self.sleeping = True
                return
        probes = self.probes
        n = len(probes)
        i = self.idx
        for _ in range(n):
            probe = probes[i]
            i = i + 1 if i + 1 < n else 0
            if probe is True or (probe is None and self.random() < 0.7):
                phantom = True
            elif not probe or probe.__class__ is _Unit and (
                    t >= probe.until or not (probe.flow.phantom or probe.flow.queue)):
                continue
            else:
                phantom = False
            self.idx = i
            owner = self.slots[i - 1]           # -1 after a wrap: the last slot
            last = self.last
            start = t if last is owner or last is None else t + self.delay
            self.last = owner
            end = start + self.slot_len
            heappush(self.heap, (end, next(self.seq), self.tick, self))
            if not phantom or self.grant_phantoms:
                self.grant(owner, start, end)
            return
        raise RuntimeError("arbiter stalled with real work pending")

    def _tick_tdm(self, t: int) -> None:
        if not any(self.queues):
            for unit in self.units:
                if t < unit.until and unit.flow.queue:
                    break
            else:
                self.sleeping = True
                return
        span = self.slot_len + self.delay
        heappush(self.heap, (t + span, next(self.seq), self.tick, self))
        i = (t // span) % len(self.probes)
        probe = self.probes[i]
        if probe is True or (probe is None and self.random() < 0.7):
            if not self.grant_phantoms:
                return
        elif not probe or probe.__class__ is _Unit and (
                t >= probe.until or not (probe.flow.phantom or probe.flow.queue)):
            return
        self.grant(self.slots[i], t + self.delay, t + span)


# ------------------------------------------------------------------ entities


class _Owner:
    """Slot owner serving one queue: a task's jobs, a core's stalled
    memory words, one transfer's packets at an adapter or one flow's flits
    on a link; busy, and real work, while the queue is not empty. A
    reserved slot nobody may use is an owner whose queue is never filled."""

    __slots__ = ("queue", "arbiter")
    phantom = False

    def __init__(self):
        self.queue: deque = deque()
        self.arbiter: _SlotArbiter | None = None     # the one whose table holds it

    def put(self, item, t: int) -> None:
        self.queue.append(item)
        self.arbiter.kick(t)


class _Phantom:
    """Background owner of a slot the mapping left free: busy as the
    trial's phantom load says, never real work, and its empty queue makes
    its grants move nothing. Each is its own object, because a switch
    delay is charged whenever the granted owner changes."""

    __slots__ = ()
    phantom = True
    queue = ()


class _Job:
    __slots__ = (
        "task_id", "release", "wcet", "offsets", "served", "exec_done",
        "seg_start", "window_end", "outstanding", "emits",
        "owner", "words",
    )

    def __init__(self, task_id, release, wcet, offsets, emits, owner, words):
        self.task_id = task_id
        self.release = release
        self.wcet = wcet
        self.offsets = offsets          # sorted exec points of the accesses
        self.served = 0
        self.exec_done = 0
        self.seg_start = -1             # -1: not executing right now
        self.window_end = -1
        self.outstanding = False
        self.emits = emits              # instance keys to packetize on completion
        self.owner = owner              # the task's jobs on its core
        self.words = words              # the core's stalled words on its bus


class _Packet:
    __slots__ = ("key", "release", "words", "moved", "flits", "links", "rx")

    def __init__(self, key, release, words, flits, links, rx):
        self.key = key
        self.release = release
        self.words = words
        self.moved = 0                  # words the current adapter has moved
        self.flits = flits
        self.links = links              # the transfer's owner on each link
        self.rx = rx                    # and at its RX adapter


class _Unit:
    """TX or RX adapter, granted windows per transfer by its own arbiter,
    and the adapter's owner on its tile bus: busy while a window is open,
    for a transfer or for background traffic, whose words contend on the
    bus too; real work while the open window's transfer has a packet
    waiting. A packet whose last word has moved goes on to `step` (inject
    or deliver)."""

    __slots__ = ("step", "flow", "until", "arbiter")
    phantom = False

    def __init__(self, step: Callable[[_Packet, int], None]):
        self.step = step
        self.flow = None                # owner of the open window
        self.until = 0                  # its end
        self.arbiter: _SlotArbiter | None = None     # the tile bus

    def grant(self, flow, start: int, end: int) -> None:
        self.flow, self.until = flow, end
        if not flow.phantom:
            self.arbiter.kick(start)


# ----------------------------------------------------------------- scenario


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise DomainError(f"unsupported platform for simulation: {what}")


def _check_platform(spec: ProblemSpec) -> None:
    tau = spec.architecture.noc.tau
    _require(spec.architecture.noc.link_policy.arb_delay == 0,
             "link arbitration delay must be 0")

    def grid(v: int, what: str) -> None:
        _require(v % tau == 0, f"{what} not a multiple of the link cycle")

    for tile in spec.architecture.tiles:
        st = tile.memory.service_time
        _require(tile.bus_policy.slot_len == st,
                 f"bus slot != memory service time on {tile.id}")
        grid(st, f"service time on {tile.id}")
        grid(tile.bus_policy.arb_delay, f"bus delay on {tile.id}")
        core = tile.cores[0].policy
        grid(core.slot_len, f"core slot on {tile.id}")
        grid(core.arb_delay, f"core delay on {tile.id}")
        grid(tile.tx_policy.arb_delay, f"tx delay on {tile.id}")
        grid(tile.rx_policy.arb_delay, f"rx delay on {tile.id}")
    for t in spec.application.tasks:
        grid(t.period, f"period of {t.id}")
        for v in t.wcet.values():
            grid(v, f"execution time of {t.id}")
    producers = {t.id: t for t in spec.application.tasks}
    for m in spec.application.messages:
        grid(m.period, f"period of {m.id}")
        _require(m.period % producers[m.src].period == 0,
                 f"{m.id} period not a multiple of its producer's")


def _draw_offsets(rng: Random, pattern: str, wcet: int, md: int, tau: int) -> tuple:
    if md == 0:
        return ()
    if pattern == "front":
        return (0,) * md
    if pattern == "back":
        return (wcet,) * md
    if pattern == "spread":
        return tuple(wcet * (i + 1) // (md + 1) // tau * tau for i in range(md))
    return tuple(sorted(rng.randrange(wcet // tau + 1) * tau for _ in range(md)))


class _Sim:
    def __init__(self, spec: ProblemSpec, mapping: MappingResult, cfg: TrialConfig):
        if not mapping.feasible:
            raise ValueError("simulation needs a feasible, fully budgeted mapping")
        _check_platform(spec)
        self.spec = spec
        self.mapping = mapping
        self.cfg = cfg
        self.rng = Random(cfg.seed)
        self.eng = _Engine(cfg.max_events)
        self.arch = spec.architecture
        self.tau = self.arch.noc.tau
        self.result = TrialResult(responses={}, traversals={})

        app, core = spec.application, self.arch.core
        self.eff_md = dict(zip(app.index, effective_mem_demand(
            app, [core(mapping.bindings[t.id]).tile_id for t in app.tasks])[0]))
        self.masters: dict[str, tuple[_Owner, _Owner]] = {}  # task -> jobs, core's words
        self.routes: dict[InstanceKey, tuple] = {}   # transfer -> tx, links, rx, words, flits
        self.arbiters: list[_SlotArbiter] = []
        self._build()
        self._release_jobs()

    # -- construction

    def _arbiter(self, slots: list, slot_len: int, delay: int, work_conserving: bool,
                 grant: Callable[[object, int, int], None],
                 grant_phantoms: bool = False) -> None:
        """Build one slot arbiter under the trial's phantom load; `run`
        closes it when the trial ends."""
        self.arbiters.append(_SlotArbiter(
            self.eng, self.rng, slots, slot_len, delay, work_conserving, grant,
            self.cfg.phantom_load, grant_phantoms))

    def _sized(self, capacity: int, what: str) -> int:
        """`capacity`, once a slot table that long fits in the event cap."""
        _require(capacity <= self.cfg.max_events,
                 f"{what} capacity {capacity} exceeds the event cap {self.cfg.max_events}")
        return capacity

    def _fill(self, slots: list, capacity: int) -> list:
        free = capacity - len(slots)
        if free < 0:
            raise DomainError("slot table exceeds its arbiter capacity")
        return slots + [_Phantom() for _ in range(free)]

    def _build(self) -> None:
        arch, mp = self.arch, self.mapping
        tuples = mp.tuples
        tasks, tasks_on_core = self.spec.application.index, mp.placement.tasks_on_core
        # each transfer's owners at the TX adapter, on each link and at the
        # RX adapter, by position
        routes = [(_Owner(), tuple(_Owner() for _ in links), _Owner(), m.mem_demand, flits)
                  for m, _, _, _, links, _, flits in mp.transfers]
        self.routes.update(zip(map(itemgetter(1), mp.transfers), routes))

        for tile, _, outbound, inbound in mp.placement.tiles:
            reserved = tile.id in mp.reserved_tiles

            # adapter units: slot spans one refined bus arbitration period.
            # Without traffic, the adapter's bus slots are inert on a
            # reserved tile and background load on a shared one.
            adapters = []
            for side, traffic, pol_u, caps, step in (
                (0, outbound, tile.tx_policy, tuples.tx_capacity, self._inject),
                (2, inbound, tile.rx_policy, tuples.rx_capacity, self._delivered),
            ):
                if not traffic:
                    adapters.append(_Owner() if reserved else _Phantom())
                    continue
                unit = _Unit(step)
                adapters.append(unit)
                cap = self._sized(caps[tile.id], f"{tile.id} {'tx' if side == 0 else 'rx'}")
                flows = [routes[i][side] for i in traffic
                         for _ in range(tuples.route[i].weight)]
                self._arbiter(self._fill(flows, cap), tuples.bus[tile.id].period,
                              pol_u.arb_delay, pol_u.work_conserving, unit.grant,
                              grant_phantoms=True)

            # tile bus: per-core masters, then TX, then RX. Idle-core slots
            # on reserved tiles either vanish (work-conserving) or stay as
            # inert owners; adversaries exist on shared tiles only. Each
            # hosting core gets its own table of its tasks' job queues.
            w = tile.bus_master_weight
            self._sized(tuples.bus_capacity[tile.id], f"{tile.id} bus")
            table = []
            for core in tile.cores:
                if core.id in tasks_on_core:
                    words = _Owner()
                    table += [words] * w
                    cap = self._sized(tuples.core_capacity[core.id], f"{core.id} core")
                    own = []
                    for t in tasks_on_core[core.id]:
                        jobs = _Owner()
                        self.masters[t] = (jobs, words)
                        own += [jobs] * tuples.core[tasks[t]].weight
                    pol = core.policy
                    self._arbiter(self._fill(own, cap), pol.slot_len, pol.arb_delay,
                                  pol.work_conserving, self._core_grant)
                elif reserved:
                    if not tile.bus_policy.work_conserving:
                        table += [_Owner()] * w
                else:
                    table += [_Phantom()] * w
            for owner in adapters:
                table += [owner] * w
            if len(table) != tuples.bus_capacity[tile.id]:
                raise DomainError("bus table does not match the refined capacity")
            pol = tile.bus_policy
            self._arbiter(table, pol.slot_len, pol.arb_delay, pol.work_conserving,
                          self._bus_grant)

        # mesh links: one flit per cycle to the granted flow
        lp = arch.noc.link_policy
        if any(links for *_, links, _, _ in mp.transfers):
            self._sized(lp.capacity, "link")
        flows_on_link: dict[str, list[_Owner]] = {}
        for (*_, links, _, _), (_, owners, *_), r in zip(mp.transfers, routes, tuples.route):
            for link, owner in zip(links, owners):
                flows_on_link.setdefault(link, []).extend([owner] * r.weight)
        for flows in flows_on_link.values():
            self._arbiter(self._fill(flows, lp.capacity), self.tau, 0,
                          lp.work_conserving, self._link_grant)
    # -- job lifecycle

    def _release_jobs(self) -> None:
        app = self.spec.application
        producers: dict[str, list] = {t.id: [] for t in app.tasks}
        for transfer in self.mapping.transfers:
            producers[transfer[0].src].append(transfer)
        jobs = self.cfg.jobs
        n_jobs: dict[str, int] = {}
        # Events the trial cannot do without: a release per job, a bus grant
        # per word a job or an adapter moves, a link grant per flit and link.
        least = 0
        for t in app.tasks:
            ratios = [m.period // t.period for m, *_ in producers[t.id]]
            n = n_jobs[t.id] = max([jobs, *(jobs * r for r in ratios)])
            least += n * (1 + self.eff_md[t.id])
            for (m, _, _, _, links, _, flits), r in zip(producers[t.id], ratios):
                least += -(-n // r) * (2 * m.mem_demand + flits * len(links))  # n / r packets
        if least > self.cfg.max_events:
            raise SimHorizonExceeded(
                f"simulation needs more than {self.cfg.max_events} events")
        for t in app.tasks:
            core = self.arch.core(self.mapping.bindings[t.id])
            wcet = t.wcet[core.core_type]
            md = self.eff_md[t.id]
            offset = (
                self.rng.randrange(t.period // self.tau) * self.tau
                if self.cfg.jitter else 0
            )
            pattern = (
                self.rng.choice(PATTERNS) if self.cfg.pattern == "mix"
                else self.cfg.pattern
            )
            self.result.responses[t.id] = []
            for k in range(n_jobs[t.id]):
                emits = tuple(
                    key for m, key, *_ in producers[t.id] if (k * t.period) % m.period == 0
                )
                job = _Job(
                    t.id, offset + k * t.period, wcet,
                    _draw_offsets(self.rng, pattern, wcet, md, self.tau), emits,
                    *self.masters[t.id],
                )
                self.eng.push(job.release, self._release, job)
        for _, key, *_ in self.mapping.transfers:
            self.result.traversals[key] = []

    def _release(self, job: _Job, t: int) -> None:
        owner = job.owner
        owner.put(job, t)
        # A TDM timetable grants at slot starts only; a job released inside
        # its task's slot runs for the rest of that slot, as the analysis
        # assumes.
        window = owner.arbiter.window(owner, t) if len(owner.queue) == 1 else None
        if window:
            self._core_grant(owner, *window)

    def _core_grant(self, owner, start: int, end: int) -> None:
        job = owner.queue[0]
        job.window_end = end
        # An in-flight segment event (seg_start >= 0) will pick the new
        # window up itself; restarting here would lose its progress.
        if not job.outstanding and job.seg_start < 0:
            self._run_segment(job, start)

    def _run_segment(self, job: _Job, t: int) -> None:
        if job.served < len(job.offsets) and job.offsets[job.served] <= job.exec_done:
            job.outstanding = True
            job.words.put(job, t)
            return
        if job.exec_done >= job.wcet:
            self._finish(job, t)
            return
        nxt = job.offsets[job.served] if job.served < len(job.offsets) else job.wcet
        stop = min(t + (nxt - job.exec_done), job.window_end)
        job.seg_start = t
        self.eng.push(stop, self._segment_end, job)

    def _segment_end(self, job: _Job, t: int) -> None:
        # Never stale: only `_run_segment` pushes it, and never with one pending.
        job.exec_done += t - job.seg_start
        job.seg_start = -1
        if t < job.window_end:
            self._run_segment(job, t)

    def _word_done(self, job: _Job, t: int) -> None:
        job.served += 1
        job.outstanding = False
        if job.exec_done >= job.wcet and job.served == len(job.offsets):
            self._finish(job, t)
            return
        if t < job.window_end:
            self._run_segment(job, t)

    def _finish(self, job: _Job, t: int) -> None:
        self.result.responses[job.task_id].append(t - job.release)
        self.result.makespan = max(self.result.makespan, t)
        q = job.owner.queue
        q.popleft()
        for key in job.emits:
            self._emit_packet(key, t)
        if q and t < job.window_end:
            nxt = q[0]
            nxt.window_end = job.window_end
            if not nxt.outstanding:
                self._run_segment(nxt, t)

    # -- bus

    def _bus_grant(self, owner, start: int, end: int) -> None:
        # A bus slot is one memory service time, so the word moved in it
        # lands at the slot's end.
        if owner.__class__ is _Unit:
            flow = owner.flow
            if start >= owner.until or not flow.queue:
                return          # background window, or the window just lapsed
            packet = flow.queue[0]
            packet.moved += 1
            if packet.moved == packet.words:
                flow.queue.popleft()
                self.eng.push(end, owner.step, packet)
        else:
            self.eng.push(end, self._word_done, owner.queue.popleft())

    # -- transfers

    def _emit_packet(self, key: InstanceKey, t: int) -> None:
        tx, links, rx, words, flits = self.routes[key]
        tx.put(_Packet(key, t, words, flits, links, rx), t)

    def _inject(self, packet: _Packet, t: int) -> None:
        for i in range(packet.flits):
            packet.links[0].put((packet, i), t)

    def _link_grant(self, owner, start: int, end: int) -> None:
        flit = owner.queue.popleft()
        packet, idx = flit
        pos = packet.links.index(owner)
        arrive = start + self.arch.noc.router_delay * self.tau
        if pos + 1 < len(packet.links):
            self.eng.push(arrive, packet.links[pos + 1].put, flit)
        elif idx == packet.flits - 1:
            self.eng.push(arrive, self._arrived, packet)

    def _arrived(self, packet: _Packet, t: int) -> None:
        packet.moved = 0
        packet.rx.put(packet, t)

    def _delivered(self, packet: _Packet, t: int) -> None:
        self.result.traversals[packet.key].append(t - packet.release)
        self.result.makespan = max(self.result.makespan, t)

    def run(self) -> TrialResult:
        self.eng.run()
        for arbiter in self.arbiters:
            arbiter.close()
        self.result.events = self.eng.count
        return self.result


def simulate(spec: ProblemSpec, mapping: MappingResult, config: TrialConfig) -> TrialResult:
    """Execute one adversarial trial of a feasible mapping."""
    return _Sim(spec, mapping, config).run()


# -------------------------------------------------------------------- sweep


def adversarial_sweep(
    spec: ProblemSpec,
    mapping: MappingResult,
    trials: int,
    seed: int = 0,
    bound_overrides: dict | None = None,
    phantom_load: str | None = None,
    jobs: int = 2,
) -> SweepResult:
    """Run randomized adversarial trials and compare against the bounds.

    Raises BoundViolation (carrying a replayable scenario) the moment any
    observed response or traversal exceeds its bound.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    bounds = {**mapping.task_wcrt, **mapping.transfer_wctt, **(bound_overrides or {})}
    sweep = SweepResult(trials, dict.fromkeys(bounds, 0), dict.fromkeys(bounds, 0), bounds)

    rng = Random(seed)
    for i in range(trials):
        cfg = TrialConfig(
            seed=rng.getrandbits(48),
            phantom_load=phantom_load or ("max" if i % 2 == 0 else rng.choice(PHANTOM_LOADS)),
            jitter=bool(rng.getrandbits(1)),
            pattern="mix" if i % 4 == 3 else rng.choice(PATTERNS),
            jobs=jobs,
        )
        result = simulate(spec, mapping, cfg)
        observations: list[tuple] = [
            (key, obs) for key, vals in result.responses.items() for obs in vals
        ] + [
            (key, obs) for key, vals in result.traversals.items() for obs in vals
        ]
        for key, obs in observations:
            sweep.samples[key] += 1
            if obs > sweep.worst[key]:
                sweep.worst[key] = obs
            if obs > sweep.bounds[key]:
                name = key if isinstance(key, str) else f"{key[0]}->{key[1]}"
                raise BoundViolation(
                    f"{name}: observed {obs} ns exceeds bound {sweep.bounds[key]} ns "
                    f"in trial {i}",
                    replay={"trial": i, "id": name, "observed": obs,
                            "bound": sweep.bounds[key], **cfg.replay_doc()},
                )
    return sweep
