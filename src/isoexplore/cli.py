"""Command-line front end.

Exit codes:
    0  success
    2  usage, parse, or validation problems
    3  the given mapping is infeasible under the analysis
    4  exploration finished without a single feasible mapping
    5  a simulated trial exceeded an analytical bound
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .dse import compare_approaches, explore
from .errors import (
    BoundViolation,
    CapacityError,
    DomainError,
    Infeasible,
    MissingCoefficient,
    NoFeasibleMapping,
    SimHorizonExceeded,
    SpecError,
)
from .generator import PROFILES, generate_spec
from .mapping import ExplorationMode, MappingResult, load_mapping_doc
from .model import emit_spec, load_spec, parse_json, read_document
from .simoracle import PHANTOM_LOADS, adversarial_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NO_FEASIBLE = 4
EXIT_BOUND = 5

MODS = tuple(m.value for m in ExplorationMode)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _path(text: str) -> str:
    if not text:        # "" would name the working directory, or stdout for --out
        raise argparse.ArgumentTypeError("must name a path, not be empty")
    return text


def _out_dir(args) -> Path | None:
    if args.out_dir is None:
        return None
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out: Path, args, **extra) -> None:
    arguments = {k: v for k, v in vars(args).items() if not callable(v)}
    doc = {"tool": "isoexplore", "command": args.command, "arguments": arguments}
    _write_json(out / "manifest.json", {**doc, **extra})


def _load_mapping(args, spec) -> MappingResult:
    return load_mapping_doc(spec, parse_json(read_document(args.mapping)))


# ---------------------------------------------------------------- subcommands


def _cmd_analyze(args) -> int:
    spec = load_spec(args.spec)
    result = _load_mapping(args, spec)
    report = result.to_doc()
    out = _out_dir(args)
    if out:
        _write_json(out / "analysis.json", report)
        if result.feasible and args.format == "csv":
            rows = [["task", t, b] for t, b in sorted(result.task_wcrt.items())]
            rows += [
                ["transfer", f"{k[0]}->{k[1]}", b]
                for k, b in sorted(result.transfer_wctt.items())
            ]
            _write_csv(out / "timing.csv", ["kind", "id", "bound_ns"], rows)
        _write_manifest(out, args)
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    if not result.feasible:
        print(f"infeasible: {result.reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_explore(args) -> int:
    spec = load_spec(args.spec)
    mode = ExplorationMode(args.mode)
    result = explore(
        spec,
        mode,
        seed=args.seed,
        iterations=args.iterations,
        population=args.population,
        offspring=args.offspring,
    )
    entries = sorted(result.archive, key=lambda m: (m.objectives, m.digest))
    print(
        f"{mode.value}: {len(entries)} non-dominated mappings from "
        f"{result.evaluations} evaluations in {result.wallclock_s:.1f}s"
    )
    for m in entries:
        print(
            f"  latency={m.objectives[0]}ns cores={m.objectives[1]} "
            f"energy={m.objectives[2]:.3f} {m.digest}"
        )
    out = _out_dir(args)
    if out:
        if args.format == "json":
            _write_json(out / "archive.json", [m.to_doc() for m in entries])
        else:
            _write_csv(
                out / "archive.csv",
                ["latency_ns", "cores", "energy", "digest"],
                [[*m.objectives, m.digest] for m in entries],
            )
        columns = ["iteration", "elapsed_s", "epsilon", "archive_size"]
        _write_csv(out / "trace.csv", columns, [[r[c] for c in columns] for r in result.trace])
        _write_manifest(out, args, evaluations=result.evaluations,
                        archive_size=len(entries), wallclock_s=result.wallclock_s)
    return EXIT_OK


def _cmd_compare(args) -> int:
    spec = load_spec(args.spec)
    result = compare_approaches(
        spec,
        seed=args.seed,
        repetitions=args.reps,
        iterations=args.iterations,
        population=args.population,
        offspring=args.offspring,
    )
    for mode in result.modes:
        per_rep = " ".join(f"{e:.4f}" for e in result.epsilon[mode.value])
        print(
            f"{mode.value:>15}: mean eps {result.mean_epsilon[mode.value]:.4f}"
            f"  [{per_rep}]"
        )
    out = _out_dir(args)
    if out:
        header = ["mode"] + [f"rep{r}" for r in range(result.repetitions)] + ["mean"]
        rows = [
            [m.value]
            + result.epsilon[m.value]
            + [result.mean_epsilon[m.value]]
            for m in result.modes
        ]
        _write_csv(out / "epsilon_table.csv", header, rows)
        _write_json(
            out / "fronts.json",
            {
                "fronts": {
                    f"{mode}/rep{rep}": [list(v) for v in vecs]
                    for (mode, rep), vecs in result.fronts.items()
                },
                "references": {
                    str(rep): [list(v) for v in vecs]
                    for rep, vecs in result.references.items()
                },
            },
        )
        _write_manifest(out, args)
    return EXIT_OK


def _cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    mapping = _load_mapping(args, spec)
    if not mapping.feasible:
        print(f"infeasible: {mapping.reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    overrides = None
    if args.selftest_corrupt_bounds:
        # Deliberately unreachable bounds; proves the violation path works.
        overrides = {t: 1 for t in mapping.task_wcrt}
    sweep = adversarial_sweep(
        spec,
        mapping,
        trials=args.trials,
        seed=args.seed,
        bound_overrides=overrides,
        phantom_load=args.phantom_load,
        jobs=args.jobs,
    )
    rows = sweep.rows()
    total = sum(r["samples"] for r in rows)
    print(f"{args.trials} trials, {total} observations, every bound holds")
    for r in rows:
        print(
            f"  {r['kind']:>8} {r['id']:<24} bound={r['bound_ns']} "
            f"worst={r['worst_ns']} margin={r['margin_ns']}"
        )
    out = _out_dir(args)
    if out:
        columns = ["kind", "id", "bound_ns", "worst_ns", "margin_ns", "samples"]
        _write_csv(out / "validation.csv", columns, [[r[c] for c in columns] for r in rows])
        _write_manifest(out, args)
    return EXIT_OK


def _parse_mesh(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise DomainError(f"mesh must look like 4x4, got {text!r}") from None


def _cmd_generate(args) -> int:
    spec = generate_spec(
        profile=args.profile,
        mesh=_parse_mesh(args.mesh),
        seed=args.seed,
        tasks=args.tasks,
        messages=args.messages,
    )
    text = emit_spec(spec)
    if args.out:
        Path(args.out).write_text(text)
        print(
            f"wrote {args.out}: {len(spec.application.tasks)} tasks, "
            f"{len(spec.application.messages)} messages on "
            f"{args.mesh} mesh"
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoexplore",
        description="Timing analysis and design-space exploration for "
        "mappings onto tiled many-core platforms with slotted arbitration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options that several commands take, each declared once.
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", required=True, help="problem JSON")
    mapping = argparse.ArgumentParser(add_help=False)
    mapping.add_argument("--mapping", required=True, help="mapping JSON")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--iterations", type=int, default=200)
    budget.add_argument("--population", type=int, default=100)
    budget.add_argument("--offspring", type=int, default=25)
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", type=_path, default=None)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")

    analyze = sub.add_parser("analyze", parents=[spec, mapping, out_dir, fmt],
                             help="evaluate one explicit mapping against the timing model")
    analyze.set_defaults(func=_cmd_analyze)

    exp = sub.add_parser("explore", parents=[spec, seed, budget, out_dir, fmt],
                         help="evolve mappings under one mode")
    exp.add_argument("--mode", choices=MODS, default=ExplorationMode.ISOLATION_AWARE.value)
    exp.set_defaults(func=_cmd_explore)

    cmp_ = sub.add_parser("compare", parents=[spec, seed, budget, out_dir],
                          help="score every mode against a shared reference front")
    cmp_.add_argument("--reps", type=int, default=5)
    cmp_.set_defaults(func=_cmd_compare)

    val = sub.add_parser("validate", parents=[spec, mapping, seed, out_dir],
                         help="stress a mapping's bounds with adversarial simulation")
    val.add_argument("--trials", type=int, default=100)
    val.add_argument("--phantom-load", choices=PHANTOM_LOADS, default=None)
    val.add_argument("--jobs", type=int, default=2)
    val.add_argument(
        "--selftest-corrupt-bounds",
        action="store_true",
        help="replace bounds with impossible ones to exercise the failure path",
    )
    val.set_defaults(func=_cmd_validate)

    gen = sub.add_parser("generate", parents=[seed], help="emit a synthetic problem spec")
    gen.add_argument("--profile", choices=tuple(PROFILES), default="consumer")
    gen.add_argument("--mesh", default="4x4")
    gen.add_argument("--tasks", type=int, default=None)
    gen.add_argument("--messages", type=int, default=None)
    gen.add_argument("--out", type=_path, default=None, help="output file (default stdout)")
    gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundViolation as exc:
        print(f"bound violated: {exc}", file=sys.stderr)
        print(json.dumps(exc.replay, sort_keys=True), file=sys.stderr)
        return EXIT_BOUND
    except NoFeasibleMapping as exc:
        print(f"no feasible mapping: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except (SpecError, DomainError, CapacityError, Infeasible, MissingCoefficient,
            SimHorizonExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
