"""The benchmark's own checks.

    python3 isobench/selfcheck.py

Run it from the root of a checkout. It checks four things. Every oracle
rejects a deliberately wrong output. The traced run's wrappers are all
removed again. A smoke-size run of every workload, traced and untraced,
emits exactly the metrics and units of BENCHMARK.json. In a directory
without the program, the benchmark fails without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True
import run  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def rejects(fn, *args) -> bool:
    from oracles import OracleError

    try:
        fn(*args)
    except OracleError:
        return True
    return False


def smoke_call(name: str):
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    inp = wl.inputs(0, smoke=True)[0]
    state = wl.setup(inp)
    return state, wl.call(inp, state)[1]


def check_oracles() -> None:
    from isoexplore import mapping
    from oracles import (check_analysis, check_archive, check_comparison,
                         check_makespan, check_repeat, check_sweep)

    spec, (result, doc) = smoke_call("analyze-dense")
    app = spec.application
    check(not rejects(check_analysis, app, result, doc), "analysis oracle accepts a correct analysis")
    check(rejects(check_makespan, app, result.task_wcrt, result.transfer_wctt, result.makespan + 1),
          "makespan oracle rejects a makespan off by one")
    check(rejects(check_analysis, app, dataclasses.replace(result, makespan=result.makespan - 1), doc),
          "analysis oracle rejects a result whose makespan is off by one")

    spec, explored = smoke_call("explore-consumer")
    entries = explored.archive.entries
    reload = mapping.load_mapping_doc
    check(not rejects(check_archive, spec, entries, reload), "archive oracle accepts the archive")
    e = entries[0]
    wrong = dataclasses.replace(e, objectives=(e.objectives[0] + 1, *e.objectives[1:]))
    check(rejects(check_archive, spec, [wrong, *entries[1:]], reload),
          "archive oracle rejects an entry whose objectives do not reload")
    worse = dataclasses.replace(e, objectives=tuple(x * 2 for x in e.objectives))
    check(rejects(check_archive, spec, [*entries, worse], reload),
          "archive oracle rejects a dominated entry")

    _, compared = smoke_call("compare-networking")
    check(not rejects(check_comparison, compared), "comparison oracle accepts the comparison")
    key = next(iter(compared.fronts))
    front = compared.fronts[key]
    padded = {**compared.fronts, key: [*front, tuple(x * 2 for x in front[0])]}
    check(rejects(check_comparison, dataclasses.replace(compared, fronts=padded)),
          "comparison oracle rejects a front with a dominated vector")
    shifted = {r: [tuple(x * 2 for x in v) for v in ref] for r, ref in compared.references.items()}
    check(rejects(check_comparison, dataclasses.replace(compared, references=shifted)),
          "comparison oracle rejects a wrong reference front")

    _, sweep = smoke_call("validate-networking")
    check(not rejects(check_sweep, sweep), "sweep oracle accepts the sweep")
    over = {k: b + 1 for k, b in sweep.bounds.items()}
    check(rejects(check_sweep, dataclasses.replace(sweep, worst=over)),
          "sweep oracle rejects an observation above its bound")

    first: dict = {}
    check_repeat(first, "input", (1, 2))
    check(rejects(check_repeat, first, "input", (1, 3)), "repeat oracle rejects a changed output")


def check_tracer() -> None:
    from tracing import Tracer

    tracer = Tracer()
    before = [(o, a, o.__dict__.get(a)) for o, a, *_ in tracer.targets()]
    with tracer.installed(0):
        swapped = all(o.__dict__.get(a) is not v for o, a, v in before)
        smoke_call("validate-networking")
    check(swapped and all(v is not None for _, _, v in before), "tracer wraps every target")
    check(all(o.__dict__.get(a) is v for o, a, v in before), "tracer restores every target")
    check(tracer.counts["simoracle.events"] > 0 and len(tracer.start) > 0,
          "tracer records spans and counts")

    reasons = {"weight": "no core weight within capacity 10 meets deadline 5",
               "core": "core t0_0.c0 overloaded: 12 > 10", "tx": "tx t0_0 overloaded: 11 > 10",
               "rx": "rx t1_0 overloaded: 11 > 10", "link": "link 0,0->1,0 overloaded: 11 > 10"}
    tracer = Tracer()
    for reason in reasons.values():
        tracer._decoded(SimpleNamespace(mode=None, bindings={}, reserved_cores=frozenset(),
                                        reserved_tiles=frozenset(), feasible=False,
                                        reason=reason))
    check(all(tracer.counts[f"mapping.infeasible.{k}"] == 1 for k in reasons),
          "tracer classes each infeasible reason by resource")


def check_smoke() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        for w in bench["workloads"]:
            proc = subprocess.run(
                [*bench["command"], "--workload", w["name"], "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            what = f"smoke {w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                check(False, f"{what}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{what}: correct, {result['attempted']} attempted, none failed")
            check(got == want, f"{what}: every {section} metric with its unit")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  f"{what}: every value is a number")


def check_without_program() -> None:
    with tempfile.TemporaryDirectory(prefix=".isobench-selfcheck-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            [*bench["command"], "--workload", bench["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"without the program: exit {proc.returncode} and no result")


def main() -> int:
    if not run.load_program():
        print("selfcheck: run it from a checkout with src/isoexplore", file=sys.stderr)
        return 2
    check_oracles()
    check_tracer()
    check_smoke()
    check_without_program()
    print(f"\n{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
