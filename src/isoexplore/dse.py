"""Multi-objective design-space exploration over mapping genotypes.

An elitist evolutionary search (non-dominated sorting plus crowding
distance) minimizes (latency, allocated cores, energy). The archive keeps
every feasible non-dominated mapping seen, not just the final population.
Runs are deterministic for a given seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from operator import truediv
from random import Random
from typing import Iterable, Sequence

from .errors import DomainError, NoFeasibleMapping
from .mapping import (
    ExplorationMode,
    Genotype,
    MappingResult,
    decode,
    random_genotype,
)
from .model import ProblemSpec

Vector = tuple[float, ...]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if a is at least as good everywhere and better somewhere (min)."""
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def nondominated(vectors: Iterable[Vector]) -> list[Vector]:
    """Unique mutually non-dominated subset, in first-seen order."""
    out: list[Vector] = []
    for v in vectors:
        if any(dominates(o, v) or o == v for o in out):
            continue
        out = [o for o in out if not dominates(v, o)]
        out.append(v)
    return out


def _check_positive(vectors: Iterable[Vector]) -> None:
    for v in vectors:
        if any(x <= 0 for x in v):
            raise DomainError(f"objective vector {v} has a non-positive value")


def epsilon_dominance(front: Sequence[Vector], reference: Sequence[Vector]) -> float:
    """Smallest eps in [0, 1) such that scaling the front by (1 - eps)
    covers every reference point in every objective."""
    if not front or not reference:
        raise DomainError("epsilon_dominance needs non-empty fronts")
    return _trace_epsilons([front], reference)[0]


def _trace_epsilons(
    snapshots: Sequence[Sequence[Vector]], final: Sequence[Vector]
) -> list[float]:
    """`epsilon_dominance(snapshot, final)` of each snapshot, 1.0 for an
    empty one.

    Each distinct vector's ratio row against the final archive,
    `min(s/f)` for every final vector s, is computed once and reused by
    every snapshot that holds it; an unchanged snapshot keeps its score.
    """
    if not final:
        raise DomainError("epsilon_dominance needs non-empty fronts")
    _check_positive(final)
    rows: dict[Vector, list[float]] = {}
    out: list[float] = []
    previous, eps = None, 1.0
    for vecs in snapshots:
        if vecs != previous:
            previous = vecs
            for f in vecs:
                if f not in rows:
                    _check_positive((f,))
                    rows[f] = [min(map(truediv, s, f)) for s in final]
            # 1 - x rounds monotonically, so max_o(1 - s_o/f_o) equals
            # 1 - min_o(s_o/f_o) as floats, and the outer min/max swap the
            # same way.
            eps = max(0.0, 1.0 - min(map(max, zip(*(rows[f] for f in vecs))))) if vecs else 1.0
        out.append(eps)
    return out


class ParetoArchive:
    """Feasible, mutually non-dominated mappings with unique objectives."""

    def __init__(self):
        self.entries: list[MappingResult] = []

    def add(self, mapping: MappingResult) -> bool:
        if mapping.objectives is None:          # infeasible
            return False
        v = mapping.objectives
        for e in self.entries:
            if e.objectives == v or dominates(e.objectives, v):
                return False
        self.entries = [e for e in self.entries if not dominates(v, e.objectives)]
        self.entries.append(mapping)
        return True

    def vectors(self) -> list[Vector]:
        return [e.objectives for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def derive_seed(*parts) -> int:
    """Stable sub-seed from arbitrary labels (independent of hash order)."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------- selection


def _fast_nondominated_sort(vectors: list[Vector]) -> list[list[int]]:
    """Fronts of (latency, cores, energy) vectors, as index lists.

    In lexicographic order only an earlier vector can dominate a later one,
    and its first objective is already no larger, so each pair takes one
    test of the other two (Kung, Luccio & Preparata 1975)."""
    n = len(vectors)
    order = sorted(range(n), key=vectors.__getitem__)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    counts = [0] * n
    fronts: list[list[int]] = [[]]
    for x, i in enumerate(order):
        a = vectors[i]
        _, a1, a2 = a
        below = dominated_by[i]
        for j in order[x + 1:]:
            b = vectors[j]
            if a1 <= b[1] and a2 <= b[2] and a != b:
                below.append(j)
                counts[j] += 1
    for below in dominated_by:
        below.sort()
    for i in range(n):
        if counts[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        nxt: list[int] = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                counts[j] -= 1
                if counts[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
        k += 1
    return fronts[:-1]


def _crowding(vectors: list[Vector], front: list[int]) -> dict[int, float]:
    dist = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: float("inf") for i in front}
    m = len(vectors[front[0]])
    for o in range(m):
        ordered = sorted(front, key=lambda i: vectors[i][o])
        lo, hi = vectors[ordered[0]][o], vectors[ordered[-1]][o]
        dist[ordered[0]] = dist[ordered[-1]] = float("inf")
        if hi == lo:
            continue
        for a, b, c in zip(ordered, ordered[1:], ordered[2:]):
            dist[b] += (vectors[c][o] - vectors[a][o]) / (hi - lo)
    return dist


@dataclass
class _Individual:
    genotype: Genotype
    mapping: MappingResult
    sort_key: tuple = ()        # (rank, -crowding, digest), set by `_rank_population`


def _rank_population(pop: list[_Individual]) -> None:
    feasible = [i for i, ind in enumerate(pop) if ind.mapping.feasible]
    infeasible = [i for i, ind in enumerate(pop) if not ind.mapping.feasible]
    vectors = [pop[i].mapping.objectives for i in feasible]
    fronts = _fast_nondominated_sort(vectors) if vectors else []
    for rank, front in enumerate(fronts):
        crowd = _crowding(vectors, front)
        for local in front:
            ind = pop[feasible[local]]
            ind.sort_key = (rank, -crowd[local], ind.mapping.digest)
    tail_rank = len(fronts)
    for i in infeasible:
        pop[i].sort_key = (tail_rank, 0.0, pop[i].mapping.digest)


def _select(pop: list[_Individual], size: int) -> list[_Individual]:
    return sorted(pop, key=lambda ind: ind.sort_key)[:size]


def _tournament(pop: list[_Individual], rng: Random) -> _Individual:
    a, b = rng.randrange(len(pop)), rng.randrange(len(pop))
    return min(pop[a], pop[b], key=lambda ind: ind.sort_key)


def _cross_and_mutate(
    spec: ProblemSpec, a: Genotype, b: Genotype, rng: Random
) -> Genotype:
    """Uniform crossover, then one flip or redraw per gene at rate 1/length.

    Every `random()` and `randrange()` call keeps its order, so that a seed
    gives the same archive."""
    r = rng.random
    bindings = [x if r() < 0.5 else y for x, y in zip(a.bindings, b.bindings)]
    core_flags = [x if r() < 0.5 else y for x, y in zip(a.core_flags, b.core_flags)]
    tile_flags = [x if r() < 0.5 else y for x, y in zip(a.tile_flags, b.tile_flags)]
    p = 1.0 / (len(bindings) + len(core_flags) + len(tile_flags))
    tasks, edges_of = spec.application.tasks, spec.edges_of
    for i in range(len(bindings)):
        if r() < p:
            bindings[i] = rng.randrange(len(edges_of[tasks[i].id]))
    return Genotype(
        tuple(bindings),
        tuple([1 - g if r() < p else g for g in core_flags]),
        tuple([1 - g if r() < p else g for g in tile_flags]),
    )


# ------------------------------------------------------------------- explore


@dataclass
class ExploreResult:
    mode: ExplorationMode
    seed: int
    archive: ParetoArchive
    trace: list[dict] = field(default_factory=list)
    evaluations: int = 0
    wallclock_s: float = 0.0


def explore(
    spec: ProblemSpec,
    mode: ExplorationMode = ExplorationMode.ISOLATION_AWARE,
    seed: int = 0,
    iterations: int = 200,
    population: int = 100,
    offspring: int = 25,
    threads: int | None = None,
) -> ExploreResult:
    """Evolve mappings under one mode; returns the archive plus a trace of
    archive quality (eps against the final archive) per iteration.

    `threads` is ignored: decoding runs serially in the calling thread."""
    if population < 1:
        raise DomainError(f"population must be >= 1, got {population}")
    if iterations < 0:
        raise DomainError(f"iterations must be >= 0, got {iterations}")
    if offspring < 1:
        raise DomainError(f"offspring must be >= 1, got {offspring}")
    rng = Random(derive_seed(seed, mode.value, "explore"))
    started = time.perf_counter()

    def evaluate(genotypes: list[Genotype]) -> list[MappingResult]:
        return [decode(spec, g, mode) for g in genotypes]

    archive = ParetoArchive()
    snapshots: list[tuple[int, float, list[Vector]]] = []
    genotypes = [random_genotype(spec, rng) for _ in range(population)]
    pop = [_Individual(g, m) for g, m in zip(genotypes, evaluate(genotypes))]
    for ind in pop:
        archive.add(ind.mapping)
    _rank_population(pop)
    evaluations = population
    snapshots.append((0, time.perf_counter() - started, archive.vectors()))

    for it in range(1, iterations + 1):
        children = [
            _cross_and_mutate(
                spec, _tournament(pop, rng).genotype, _tournament(pop, rng).genotype, rng
            )
            for _ in range(offspring)
        ]
        results = evaluate(children)
        evaluations += len(children)
        for g, m in zip(children, results):
            pop.append(_Individual(g, m))
            archive.add(m)
        _rank_population(pop)
        pop = _select(pop, population)
        snapshots.append((it, time.perf_counter() - started, archive.vectors()))

    if not len(archive):
        raise NoFeasibleMapping(
            f"{mode.value}: no feasible mapping in {evaluations} evaluations"
        )

    epsilons = _trace_epsilons([vecs for _, _, vecs in snapshots], archive.vectors())
    trace = [
        {"iteration": it, "elapsed_s": elapsed, "epsilon": eps, "archive_size": len(vecs)}
        for (it, elapsed, vecs), eps in zip(snapshots, epsilons)
    ]
    return ExploreResult(
        mode=mode,
        seed=seed,
        archive=archive,
        trace=trace,
        evaluations=evaluations,
        wallclock_s=time.perf_counter() - started,
    )


# ------------------------------------------------------------------- compare


@dataclass
class ComparisonResult:
    modes: tuple[ExplorationMode, ...]
    repetitions: int
    epsilon: dict[str, list[float]]          # mode value -> eps per repetition
    fronts: dict[tuple[str, int], list[Vector]]
    references: dict[int, list[Vector]]

    @property
    def mean_epsilon(self) -> dict[str, float]:
        return {m: sum(v) / len(v) for m, v in self.epsilon.items()}


def compare_approaches(
    spec: ProblemSpec,
    seed: int = 0,
    repetitions: int = 5,
    iterations: int = 200,
    population: int = 100,
    offspring: int = 25,
) -> ComparisonResult:
    """Run all modes per repetition; score each archive against the
    repetition's union reference front with the eps indicator."""
    if repetitions < 1:
        raise DomainError(f"repetitions must be >= 1, got {repetitions}")
    modes = tuple(ExplorationMode)
    epsilon: dict[str, list[float]] = {m.value: [] for m in modes}
    fronts: dict[tuple[str, int], list[Vector]] = {}
    references: dict[int, list[Vector]] = {}
    for rep in range(repetitions):
        rep_fronts: dict[str, list[Vector]] = {}
        for mode in modes:
            res = explore(
                spec, mode,
                seed=derive_seed(seed, mode.value, rep),
                iterations=iterations,
                population=population,
                offspring=offspring,
            )
            rep_fronts[mode.value] = res.archive.vectors()
            fronts[(mode.value, rep)] = rep_fronts[mode.value]
        union = [v for vecs in rep_fronts.values() for v in vecs]
        reference = nondominated(union)
        references[rep] = reference
        for mode in modes:
            epsilon[mode.value].append(
                epsilon_dominance(rep_fronts[mode.value], reference)
            )
    return ComparisonResult(
        modes=modes,
        repetitions=repetitions,
        epsilon=epsilon,
        fronts=fronts,
        references=references,
    )
