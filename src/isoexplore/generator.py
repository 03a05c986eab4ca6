"""Synthetic problem generator: mesh platforms and embedded-style task sets.

Task and message counts follow the familiar embedded benchmark domains
(networking, consumer, telecom, automotive). The platform is a homogeneous
mesh of slotted-arbitration tiles; every duration is kept on the link
cycle grid so generated problems are directly simulatable.
"""

from __future__ import annotations

from math import isqrt
from random import Random

from .arbitration import ArbitrationPolicy
from .errors import DomainError
from .model import (
    ApplicationGraph,
    ArchitectureGraph,
    Core,
    Memory,
    Message,
    NocConfig,
    ProblemSpec,
    Task,
    Tile,
)

PROFILES = {
    "networking": (7, 9),
    "consumer": (11, 12),
    "telecom": (14, 20),
    "automotive": (18, 21),
}

TILE_TYPES = ("compute", "signal", "control")
CORE_TYPES = ("gp", "dsp", "io")
CORES_PER_TILE = 4
TAU = 10                       # link cycle, ns
SERVICE_TIME = 70              # one memory word, ns; bus slots match it

ENERGY = {
    "dynamic_per_core_type": {"gp": 0.9, "dsp": 0.7, "io": 0.5},
    "static_per_core": 3.0,
    "e_link": 0.02,
    "e_router": 0.03,
    "e_bus_src": 0.01,
    "e_bus_dst": 0.01,
}


def make_architecture(mesh: tuple[int, int] = (4, 4)) -> ArchitectureGraph:
    """Mesh of identical-size tiles, three types striped diagonally."""
    if mesh[0] < 1 or mesh[1] < 1:
        raise DomainError("mesh must be at least 1x1")
    core_policy = ArbitrationPolicy(50_000, 10_000, 10, True)
    bus_policy = ArbitrationPolicy(SERVICE_TIME, 0, CORES_PER_TILE + 2, True)
    na_policy = ArbitrationPolicy(None, 0, 10, True)
    noc = NocConfig(
        tau=TAU,
        router_delay=2,
        link_policy=ArbitrationPolicy(TAU, 0, 10, True),
        flit_payload_bytes=16,
        header_flits=1,
        route_hop_offset=1,
    )
    tiles = []
    for y in range(mesh[1]):
        for x in range(mesh[0]):
            kind = (x + y) % len(TILE_TYPES)
            tid = f"t{x}_{y}"
            tiles.append(
                Tile(
                    id=tid,
                    type_name=TILE_TYPES[kind],
                    pos=(x, y),
                    cores=tuple(
                        Core(f"{tid}.c{j}", tid, CORE_TYPES[kind], core_policy)
                        for j in range(CORES_PER_TILE)
                    ),
                    memories=(Memory(f"{tid}.mem0", SERVICE_TIME),),
                    bus_policy=bus_policy,
                    bus_master_weight=1,
                    tx_policy=na_policy,
                    rx_policy=na_policy,
                )
            )
    return ArchitectureGraph(mesh=mesh, tiles=tuple(tiles), noc=noc, energy=ENERGY)


def _grid(v: int) -> int:
    return v // TAU * TAU


def _forward_pair(n: int, rank: int) -> tuple[int, int]:
    """The pair (i, j), i < j < n, at `rank` in lexicographic order."""
    # Counted from the end, row i = n - 2 - k holds k + 1 pairs.
    k = (isqrt(8 * (n * (n - 1) // 2 - 1 - rank) + 1) - 1) // 2
    i = n - 2 - k
    return i, rank - i * (2 * n - i - 1) // 2 + i + 1


def generate_spec(
    profile: str = "consumer",
    mesh: tuple[int, int] = (4, 4),
    seed: int = 0,
    tasks: int | None = None,
    messages: int | None = None,
) -> ProblemSpec:
    """Deterministic random problem: a forward-wired task graph on a mesh."""
    if profile not in PROFILES:
        raise DomainError(
            f"unknown profile {profile!r}; pick one of {', '.join(PROFILES)}"
        )
    n_tasks, n_msgs = PROFILES[profile]
    if tasks is not None:
        n_tasks = tasks
    if messages is not None:
        n_msgs = messages
    if n_tasks < 1:
        raise DomainError("need at least one task")
    if n_msgs < 0:
        raise DomainError("message count must be >= 0")
    cap = n_tasks * (n_tasks - 1)
    if n_msgs > cap:
        raise DomainError(
            f"{n_msgs} messages exceed the {cap} ordered pairs of {n_tasks} tasks"
        )

    rng = Random(seed)
    arch = make_architecture(mesh)
    periods = (2_000_000, 4_000_000, 8_000_000)

    task_objs = []
    for i in range(n_tasks):
        base = rng.randrange(1_000, 4_000) * TAU          # 10 .. 40 us
        task_objs.append(
            Task(
                id=f"t{i:02d}",
                period=rng.choice(periods),
                wcet={
                    "gp": base,
                    "dsp": _grid(base * 4 // 5),
                    "io": _grid(base * 3 // 2),
                },
                mem_demand=rng.randrange(4, 25),
            )
        )

    # Ranks of the forward pairs: a range draws as the list of pairs would,
    # without holding all n(n-1)/2 of them.
    ranks = range(n_tasks * (n_tasks - 1) // 2)
    chosen = rng.sample(ranks, min(n_msgs, len(ranks)))
    while len(chosen) < n_msgs:
        chosen.append(rng.choice(ranks))
    msgs = []
    for k, rank in enumerate(chosen):
        i, j = _forward_pair(n_tasks, rank)
        msgs.append(
            Message(
                id=f"m{k:02d}",
                src=task_objs[i].id,
                dst=task_objs[j].id,
                period=task_objs[i].period * rng.choice((1, 2)),
                payload_bytes=rng.choice((64, 128, 256)),
                mem_demand=rng.randrange(4, 17),
            )
        )

    edges = tuple((t.id, c.id) for t in task_objs for c in arch.cores)
    return ProblemSpec(
        application=ApplicationGraph(tuple(task_objs), tuple(msgs)),
        architecture=arch,
        mapping_edges=edges,
    )
