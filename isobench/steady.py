"""Steadiness report: run each workload with several seeds and print, per
metric, the median, the quartiles and the spread (q3 - q1) / median.

    python3 isobench/steady.py --runs 10 [--workloads analyze-dense,...]

Run it from the root of a checkout. Settings come from BENCHMARK.json. A
metric whose spread exceeds its bound is flagged UNRESOLVED, one above a
third of its bound "wide". Runs go one at a time, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [*bench["command"], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="first seed; one more per run")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    unresolved = 0
    for workload in args.workloads.split(","):
        if workload not in names:
            ap.error(f"unknown workload {workload!r}")
        results = []
        for i in range(args.runs):
            r = run_once(bench, workload, args.seed0 + i, args.seconds)
            results.append(r)
            print(f"{workload} seed={args.seed0 + i} wall={r['wall_s']:.1f}s "
                  f"correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in r["metrics"].items()
                             if k in bounds), flush=True)
        print(f"\n{workload}: {args.runs} runs, "
              f"{sum(r['failed'] for r in results)} failed operations, "
              f"{sum(r['wall_s'] for r in results):.0f} s")
        print(f"  {'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med, q1, q3, s = spread(values)
            bound = bounds[name]
            flag = ""
            if s > bound:
                flag, unresolved = "UNRESOLVED", unresolved + 1
            elif s > bound / 3:
                flag = "wide"
            print(f"  {name:<30} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.2%} {bound:>6} {flag}")
        print(flush=True)
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
