"""Correctness oracles: each checks one program output the benchmark received.

Every check raises OracleError on a wrong output and otherwise returns a
fingerprint of the output. The run compares the fingerprints of repeated
calls on one input, so a run also fails when repeats disagree.
"""

from __future__ import annotations


class OracleError(Exception):
    """A program output failed a correctness check."""


def _dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _front(vectors) -> list:
    """Unique mutually non-dominated subset; the benchmark's own version."""
    unique = set(vectors)
    return [v for v in unique if not any(_dominates(o, v) for o in unique)]


def check_front(vectors, what: str) -> None:
    """The vectors must be unique and mutually non-dominated."""
    if len(set(vectors)) != len(vectors):
        raise OracleError(f"{what}: repeated objective vector")
    for a in vectors:
        for b in vectors:
            if _dominates(a, b):
                raise OracleError(f"{what}: {a} dominates {b}")


def longest_path(app, task_wcrt, transfer_wctt) -> int:
    """Longest source-to-sink chain, one step per task in topological order.

    finish(t) = wcrt(t) + max over inputs m of finish(m.src) + wctt(m, t);
    a transfer without a bound is local and costs 0.
    """
    waiting = {t.id: len(app.inputs_of[t.id]) for t in app.tasks}
    ready = [t for t, n in waiting.items() if n == 0]
    finish: dict[str, int] = {}
    while ready:
        task = ready.pop()
        finish[task] = task_wcrt[task] + max(
            (finish[m.src] + transfer_wctt.get((m.id, task), 0)
             for m in app.inputs_of[task]),
            default=0,
        )
        for m in app.outputs_of[task]:
            for consumer in m.consumers:
                waiting[consumer] -= 1
                if waiting[consumer] == 0:
                    ready.append(consumer)
    if len(finish) != len(waiting):
        raise OracleError("application graph is not acyclic")
    return max(finish.values())


def check_makespan(app, task_wcrt, transfer_wctt, makespan: int) -> None:
    expected = longest_path(app, task_wcrt, transfer_wctt)
    if makespan != expected:
        raise OracleError(f"makespan {makespan} != longest path {expected}")


def check_analysis(app, result, doc) -> tuple:
    """An analyzed mapping: feasible, and its makespan is the longest path."""
    if not result.feasible:
        raise OracleError(f"mapping is infeasible: {result.reason}")
    check_makespan(app, result.task_wcrt, result.transfer_wctt, result.makespan)
    if doc["timing"]["makespan"] != result.makespan:
        raise OracleError("document makespan differs from the result")
    if doc["objectives"]["latency"] != result.makespan:
        raise OracleError("latency objective differs from the makespan")
    return result.makespan, result.objectives, result.digest


def check_archive(spec, entries, reload) -> tuple:
    """An explore archive: non-dominated, and every entry's document reloads
    (through `reload(spec, doc)`) to the same objectives."""
    check_front([e.objectives for e in entries], "archive")
    for e in entries:
        again = reload(spec, e.to_doc()).objectives
        if again != e.objectives:
            raise OracleError(
                f"entry {e.digest}: reloaded objectives {again} != {e.objectives}"
            )
    return tuple(sorted((e.objectives, e.digest) for e in entries))


def check_comparison(result) -> tuple:
    """A mode comparison: each front non-dominated, each reference the front
    of its repetition's union, each epsilon in [0, 1)."""
    for (mode, rep), front in result.fronts.items():
        check_front(front, f"{mode} front {rep}")
    for rep, reference in result.references.items():
        union = [v for (_, r), front in result.fronts.items() if r == rep for v in front]
        if sorted(reference) != sorted(_front(union)):
            raise OracleError(f"reference front {rep} is not the union's front")
    for mode, values in result.epsilon.items():
        if not all(0.0 <= v < 1.0 for v in values):
            raise OracleError(f"{mode}: epsilon {values} outside [0, 1)")
    return (
        tuple(sorted((k, tuple(sorted(v))) for k, v in result.fronts.items())),
        tuple(sorted((k, tuple(v)) for k, v in result.epsilon.items())),
    )


def tightness(sweep) -> float:
    """Worst observed time over its bound, the largest over all elements."""
    return max(sweep.worst[k] / sweep.bounds[k] for k in sweep.bounds)


def check_sweep(sweep) -> tuple:
    """An adversarial sweep: every element sampled, none above its bound."""
    for key, bound in sweep.bounds.items():
        if sweep.samples[key] == 0:
            raise OracleError(f"{key}: never observed")
        if sweep.worst[key] > bound:
            raise OracleError(f"{key}: worst {sweep.worst[key]} above bound {bound}")
    return tuple(sorted((str(k), sweep.worst[k], sweep.samples[k]) for k in sweep.bounds))


def check_repeat(first: dict, key: str, fingerprint) -> None:
    """Repeated calls on one input must return identical outputs."""
    if first.setdefault(key, fingerprint) != fingerprint:
        raise OracleError(f"{key}: output differs from the first repeat")
