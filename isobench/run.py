"""isoexplore benchmark: one workload, one seed, one result line.

    python3 isobench/run.py --workload explore-consumer --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
src/ with the pure-Python kernels, in this one process and thread. The
report ends with one JSON line {"correct", "attempted", "failed",
"metrics"} carrying the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1). README.md in this directory describes the workloads.

An untraced run is a closed loop: it repeats cycles, each calling the
workload once per input, for --seconds, and at least twice so that every
input has a repeat to compare with. A traced run alternates an untraced
and a traced cycle over the same inputs, at least twice so that the counts
of the traced cycles can be compared; the difference of their times is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}


def load_program() -> bool:
    """Put the checkout's src/ on the path with the reference backend."""
    if not (SRC / "isoexplore" / "__init__.py").is_file():
        return False
    os.environ["ISOEXPLORE_PURE_PYTHON"] = "1"
    os.environ["ISOEXPLORE_THREADS"] = "1"
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between samples (never beyond them)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def repeat(step, seconds: float, minimum: int) -> int:
    """Call `step` at least `minimum` times, then while one more call, as
    long as the last one, still ends within `seconds`."""
    started, last, count = time.perf_counter(), 0.0, 0
    while count < minimum or time.perf_counter() - started + last <= seconds:
        before = time.perf_counter()
        step()
        last = time.perf_counter() - before
        count += 1
    return count


class Run:
    """The samples and outcomes of one benchmark run."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.setup_s: dict[str, list[float]] = {i.name: [] for i in inputs}
        self.op_s: dict[str, list[float]] = {i.name: [] for i in inputs}
        self.units: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict = {}

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED {why}", file=sys.stderr)

    def cycle(self, tracer=None) -> float:
        """Call the workload once per input; return the set-up and call time.

        An untraced cycle repeats each set-up for a twentieth of the input's
        previous call time, at least once, and calls the workload on the last
        set-up. A set-up much shorter than its call thus gets samples spread
        over the whole run, as the call times do.
        """
        from oracles import check_repeat

        wl, clock, busy = self.workload, time.perf_counter, 0.0
        for k, inp in enumerate(self.inputs):
            self.attempted += 1
            calls = self.op_s[inp.name]
            budget = calls[-1] / 20 if calls and tracer is None else 0.0
            setups: list[float] = []
            gc.collect()    # each call starts without the previous call's garbage
            try:
                with tracer.installed(k) if tracer else nullcontext():
                    while not setups or sum(setups) < budget:
                        t0 = clock()
                        state = wl.setup(inp)
                        setups.append(clock() - t0)
                    t1 = clock()
                    units, out = wl.call(inp, state)
                    t2 = clock()
                check_repeat(self.fingerprints, inp.name, wl.check(inp, state, out))
            except Exception:   # any failure of one operation is counted, not fatal
                self.fail(f"{inp.name}:\n{traceback.format_exc()}")
                continue
            busy += setups[-1] + t2 - t1     # as in a traced cycle, one set-up
            if tracer is None:
                self.setup_s[inp.name] += setups
                calls.append(t2 - t1)
                self.units[inp.name] = units
        return busy

    def end_to_end(self) -> dict[str, float]:
        times = [t for ts in self.op_s.values() for t in ts]
        if len(times) < 2:
            return {}
        # One pass over the inputs, each set-up and call at its own
        # 90th-percentile time. On a shared host the slow phases set a steady
        # upper quantile, while the median moves with the share of samples
        # that land in a fast phase.
        slow = [(self.units[n], p90(ts)) for n, ts in self.op_s.items() if ts]
        return {
            "setup_s": statistics.fmean(p90(ts) for ts in self.setup_s.values() if ts),
            "throughput_per_s": sum(u for u, _ in slow) / sum(t for _, t in slow),
            "op_ms_p50": 1000 * statistics.median(times),
            "op_ms_p90": 1000 * p90(times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, seconds: float) -> dict[str, float]:
        from tracing import EXACT, LAYER_METRICS, Tracer

        plain, traced, layers = [], [], []

        def pair():
            plain.append(self.cycle())
            tracer = Tracer()
            traced.append(self.cycle(tracer))
            layers.append(tracer.metrics())

        repeat(pair, seconds, 2)
        for m in layers[1:]:
            for key in EXACT:
                if m[key] != layers[0][key]:
                    self.fail(f"{key}: {m[key]} in a traced repeat, {layers[0][key]} first")
        out = {k: statistics.median(m[k] for m in layers)
               for k in LAYER_METRICS if not k.startswith("trace.overhead")}
        base = statistics.median(plain)
        out["trace.overhead_s"] = statistics.median(traced) - base
        out["trace.overhead_pct"] = 100 * out["trace.overhead_s"] / base
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, to check that every metric is emitted")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not load_program():
        print(f"isobench: no isoexplore source under {SRC}", file=sys.stderr)
        return 2

    import isoexplore
    from isoexplore import kernels
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    backend = kernels.backend_name()
    if args.trace and backend != "python":
        print(f"isobench: traced runs need the python backend, not {backend}",
              file=sys.stderr)
        return 3

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.smoke)
    print(f"# isobench {wl.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}{' smoke' if args.smoke else ''}")
    print("provenance " + json.dumps({
        "workload": wl.name, "seed": args.seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "backend": backend,
        "version": isoexplore.__version__, "commit": git_commit(),
        "inputs": {f"{i.name}/{d}": hashlib.sha256(t.encode()).hexdigest()
                   for i in inputs for d, t in i.docs.items()},
    }, sort_keys=True))

    run = Run(wl, inputs)
    if args.trace:
        values, units = run.per_layer(args.seconds), LAYER_METRICS
    else:
        cycles = repeat(run.cycle, args.seconds, 2)
        values, units = run.end_to_end(), END_TO_END
        print(f"# {cycles} cycles of {len(inputs)} inputs ({wl.unit} per call: "
              + ", ".join(f"{n}={u}" for n, u in run.units.items()) + ")")

    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>16.6f} {m['unit']}")
    for name, (alias, unit) in wl.aliases.items():
        if name in values:
            print(f"{alias:<32} {values[name]:>16.6f} {unit}")
    print(f"{'error_rate':<32} {run.failed / run.attempted:>16.6f} failed/attempted "
          f"({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0 and len(metrics) == len(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
