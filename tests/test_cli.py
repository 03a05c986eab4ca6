"""End-to-end command-line behavior: files, stdout, exit codes."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isoexplore import simoracle
from isoexplore.cli import build_parser, main
from isoexplore.generator import generate_spec
from isoexplore.model import emit_spec, parse_spec

from conftest import bundled_text
from test_model import SYNTAX_CASES, VALIDATION_CASES, mutated

SHARED = {"t0": "t0_0.c0", "t1": "t1_0.c0", "t2": "t0_0.c1"}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(bundled_text("specs", "join_two_tile.json"))
    return path


@pytest.fixture()
def mapping_path(tmp_path):
    path = tmp_path / "mapping.json"
    path.write_text(bundled_text("mappings", "join_two_tile_shared.json"))
    return path


@pytest.fixture()
def bad_mapping_path(tmp_path):
    path = tmp_path / "overloaded.json"
    path.write_text(json.dumps({"bindings": {t: "t0_0.c0" for t in SHARED}}))
    return path


@pytest.fixture()
def hopeless_spec_path(tmp_path):
    doc = json.loads(bundled_text("specs", "join_two_tile.json"))
    doc["mapping_edges"] = [
        {"task": t, "core": "t0_0.c0"} for t in ("t0", "t1", "t2")
    ]
    path = tmp_path / "hopeless.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


# -------------------------------------------------------------------- analyze


def test_analyze_stdout(spec_path, mapping_path, capsys):
    code = main(["analyze", "--spec", str(spec_path),
                 "--mapping", str(mapping_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["timing"]["makespan"] == 212_240


def test_analyze_writes_report(spec_path, mapping_path, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["analyze", "--spec", str(spec_path),
                 "--mapping", str(mapping_path), "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "analysis.json").read_text())
    assert doc["objectives"]["latency"] == 212_240
    rows = read_csv(out / "timing.csv")
    assert rows[0] == ["kind", "id", "bound_ns"]
    assert ["task", "t0", "38000"] in rows
    assert ["transfer", "m1->t2", "128240"] in rows
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["arguments"]["spec"] == str(spec_path)


def test_analyze_infeasible_exits_3(spec_path, bad_mapping_path, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["analyze", "--spec", str(spec_path),
                 "--mapping", str(bad_mapping_path), "--out-dir", str(out)])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err
    assert json.loads((out / "analysis.json").read_text())["feasible"] is False


# -------------------------------------------------------------------- explore


EXPLORE_BUDGET = ["--iterations", "3", "--population", "10", "--offspring", "5"]


def test_explore_writes_archive(spec_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["explore", "--spec", str(spec_path), "--seed", "1",
                 *EXPLORE_BUDGET, "--out-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "non-dominated mappings from 25 evaluations" in stdout
    rows = read_csv(out / "archive.csv")
    assert rows[0] == ["latency_ns", "cores", "energy", "digest"]
    assert len(rows) > 1
    trace = read_csv(out / "trace.csv")
    assert trace[0] == ["iteration", "elapsed_s", "epsilon", "archive_size"]
    assert len(trace) == 1 + 3 + 1                   # header + iter 0..3
    assert float(trace[-1][2]) == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["evaluations"] == 25
    assert manifest["archive_size"] == len(rows) - 1


def test_explore_archives_are_reproducible(spec_path, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["explore", "--spec", str(spec_path), "--seed", "7",
                     *EXPLORE_BUDGET, "--out-dir", str(out)]) == 0
        outs.append((out / "archive.csv").read_bytes())
    assert outs[0] == outs[1]


def test_explore_json_format(spec_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["explore", "--spec", str(spec_path), "--seed", "1",
                 *EXPLORE_BUDGET, "--out-dir", str(out), "--format", "json"])
    assert code == 0
    docs = json.loads((out / "archive.json").read_text())
    assert docs and all(d["feasible"] for d in docs)
    latencies = [d["objectives"]["latency"] for d in docs]
    assert latencies == sorted(latencies)            # sorted by objectives
    assert not (out / "archive.csv").exists()


def test_explore_fixed_mode(spec_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["explore", "--spec", str(spec_path), "--seed", "1",
                 "--mode", "FixedTR", *EXPLORE_BUDGET,
                 "--out-dir", str(out), "--format", "json"])
    assert code == 0
    docs = json.loads((out / "archive.json").read_text())
    assert all(d["mode"] == "FixedTR" for d in docs)
    assert "FixedTR" in capsys.readouterr().out


def test_explore_without_feasible_mapping_exits_4(hopeless_spec_path, capsys):
    code = main(["explore", "--spec", str(hopeless_spec_path),
                 "--seed", "0", *EXPLORE_BUDGET])
    assert code == 4
    assert "no feasible mapping" in capsys.readouterr().err


def test_explore_rejects_zero_population(spec_path, capsys):
    code = main(["explore", "--spec", str(spec_path), "--population", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_explore_rejects_negative_iterations(spec_path, capsys):
    code = main(["explore", "--spec", str(spec_path), "--iterations", "-1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("offspring", ["0", "-3"])
def test_explore_rejects_zero_offspring(spec_path, tmp_path, capsys, offspring):
    code = main(["explore", "--spec", str(spec_path), "--offspring", offspring,
                 "--out-dir", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "offspring" in err and "Traceback" not in err


def test_explore_long_chain_exits_cleanly(tmp_path, capsys):
    # 1,500 tasks wired into one chain: deeper than Python's recursion limit.
    doc = json.loads(emit_spec(generate_spec("consumer", (2, 2), 0,
                                             tasks=1_500, messages=0)))
    ids = [t["id"] for t in doc["application"]["tasks"]]
    doc["application"]["messages"] = [
        {"id": f"m{i}", "src": a, "dst": b, "period_us": 8_000,
         "payload_bytes": 64, "mem_demand": 4}
        for i, (a, b) in enumerate(zip(ids, ids[1:]))
    ]
    spec_file = tmp_path / "chain.json"
    spec_file.write_text(json.dumps(doc))
    code = main(["explore", "--spec", str(spec_file), "--population", "1",
                 "--iterations", "0", "--out-dir", str(tmp_path / "run")])
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err


# -------------------------------------------------------------------- compare


def test_compare_writes_tables(spec_path, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--spec", str(spec_path), "--seed", "2",
                 "--reps", "2", "--iterations", "2",
                 "--population", "8", "--offspring", "4",
                 "--out-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    for mode in ("IsolationAware", "FixedCS", "FixedCR", "FixedTR"):
        assert f"{mode}: mean eps" in stdout
    rows = read_csv(out / "epsilon_table.csv")
    assert rows[0] == ["mode", "rep0", "rep1", "mean"]
    assert len(rows) == 5
    for row in rows[1:]:
        scores = [float(x) for x in row[1:]]
        assert scores[2] == pytest.approx(sum(scores[:2]) / 2)
    fronts = json.loads((out / "fronts.json").read_text())
    assert "IsolationAware/rep0" in fronts["fronts"]
    assert set(fronts["references"]) == {"0", "1"}


def test_compare_rejects_zero_reps(spec_path, capsys):
    code = main(["compare", "--spec", str(spec_path), "--reps", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------------- validate


def test_validate_reports_margins(spec_path, mapping_path, tmp_path, capsys):
    out = tmp_path / "val"
    code = main(["validate", "--spec", str(spec_path),
                 "--mapping", str(mapping_path),
                 "--trials", "3", "--seed", "1", "--out-dir", str(out)])
    assert code == 0
    assert "every bound holds" in capsys.readouterr().out
    rows = read_csv(out / "validation.csv")
    assert rows[0] == ["kind", "id", "bound_ns", "worst_ns", "margin_ns", "samples"]
    assert len(rows) == 1 + 4                        # three tasks, one transfer
    assert all(int(r[4]) >= 0 for r in rows[1:])


def test_validate_selftest_exits_5_with_replay(spec_path, mapping_path, capsys):
    code = main(["validate", "--spec", str(spec_path),
                 "--mapping", str(mapping_path),
                 "--trials", "2", "--selftest-corrupt-bounds"])
    assert code == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert "bound violated" in err[0]
    replay = json.loads(err[-1])
    assert {"trial", "id", "observed", "bound", "seed",
            "phantom_load", "jitter", "pattern", "jobs"} <= set(replay)
    assert replay["observed"] > replay["bound"]


def test_validate_infeasible_exits_3(spec_path, bad_mapping_path, capsys):
    code = main(["validate", "--spec", str(spec_path),
                 "--mapping", str(bad_mapping_path), "--trials", "2"])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_validate_rejects_zero_trials(spec_path, mapping_path, capsys):
    code = main(["validate", "--spec", str(spec_path),
                 "--mapping", str(mapping_path), "--trials", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_validate_sim_horizon_exceeded_exits_2(spec_path, mapping_path, monkeypatch,
                                               capsys):
    # A small event cap stands in for a long run (many jobs per task).
    engine = simoracle._Engine
    monkeypatch.setattr(simoracle, "_Engine", lambda cap: engine(100))
    code = main(["validate", "--spec", str(spec_path),
                 "--mapping", str(mapping_path), "--trials", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: simulation needs more than 100 events" in err
    assert "Traceback" not in err


def test_validate_too_many_jobs_exits_2_at_once(spec_path, mapping_path, capsys):
    # Job releases alone exceed the default event cap, so the trial is
    # refused before its jobs are made.
    start = time.perf_counter()
    code = main(["validate", "--spec", str(spec_path),
                 "--mapping", str(mapping_path), "--trials", "1", "--jobs", "100000000"])
    assert code == 2 and time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "error: simulation needs more than 2000000 events" in err
    assert "Traceback" not in err


# ------------------------------------------------------------------- generate


def test_generate_stdout_parses(capsys):
    code = main(["generate", "--profile", "networking", "--mesh", "2x2",
                 "--seed", "3"])
    assert code == 0
    spec = parse_spec(capsys.readouterr().out)
    assert len(spec.application.tasks) == 7


def test_generate_to_file(tmp_path, capsys):
    path = tmp_path / "gen.json"
    code = main(["generate", "--profile", "consumer", "--mesh", "2x2",
                 "--seed", "1", "--tasks", "3", "--messages", "2",
                 "--out", str(path)])
    assert code == 0
    assert "3 tasks, 2 messages" in capsys.readouterr().out
    assert len(parse_spec(path.read_text()).application.tasks) == 3


def test_generate_rejects_bad_mesh(capsys):
    assert main(["generate", "--mesh", "huge"]) == 2
    assert "mesh" in capsys.readouterr().err


def test_generate_rejects_impossible_counts(capsys):
    assert main(["generate", "--tasks", "2", "--messages", "5"]) == 2


# ----------------------------------------------------------------- error paths


def test_missing_spec_file_exits_2(tmp_path, capsys):
    assert main(["analyze", "--spec", str(tmp_path / "absent.json"),
                 "--mapping", str(tmp_path / "absent2.json")]) == 2


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"bindings": ["t0", "t1", "t2"]}',
        '{"bindings": {}, "core_flags": []}',
        '{"bindings": {}, "tile_flags": []}',
        '{"bindings": {"t0": "t9_9.c0", "t1": "t1_0.c0", "t2": "t0_0.c1"}}',
    ],
    ids=["not-json", "bindings-array", "core-flags-array", "tile-flags-array",
         "core-outside-edges"],
)
def test_malformed_mapping_exits_2(spec_path, tmp_path, capsys, command, text):
    bad = tmp_path / "broken.json"
    bad.write_text(text)
    assert main([command, "--spec", str(spec_path), "--mapping", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize(
    "flags",
    [
        {"core_flags": {"zz": "bogus"}},
        {"core_flags": {"zz": "shared"}},
        {"core_flags": {"t0_0.c0": ["reserved"]}},
        {"core_flags": {"t0_0.c0": True}},
        {"tile_flags": {"t0_0": "Reserved"}},
        {"tile_flags": {"t9_9": "shared"}},
    ],
    ids=["unknown-core-bad-value", "unknown-core", "list-value", "bool-value",
         "capitalized-value", "unknown-tile"],
)
def test_bad_flag_map_exits_2(spec_path, tmp_path, capsys, command, flags):
    bad = tmp_path / "flags.json"
    bad.write_text(json.dumps({"bindings": SHARED, **flags}))
    assert main([command, "--spec", str(spec_path), "--mapping", str(bad)]) == 2
    err = capsys.readouterr().err
    assert next(iter(flags)) in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("field", ["period_us", "wcet_us"])
def test_non_finite_time_exits_2(spec_path, mapping_path, tmp_path, capsys,
                                 field, value):
    doc = json.loads(spec_path.read_text())
    task = doc["application"]["tasks"][0]
    if field == "period_us":
        task["period_us"] = float(value)
    else:
        task["wcet_us"][next(iter(task["wcet_us"]))] = float(value)
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(doc))                  # writes NaN / Infinity
    assert value in bad.read_text()
    assert main(["analyze", "--spec", str(bad), "--mapping", str(mapping_path)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "explore"])
def test_bus_slot_shorter_than_service_time_exits_2(spec_path, mapping_path, tmp_path,
                                                    capsys, command):
    doc = json.loads(spec_path.read_text())
    doc["architecture"]["tile_types"][0]["bus_policy"]["slot_len_ns"] = 50
    bad = tmp_path / "short_slot.json"
    bad.write_text(json.dumps(doc))
    args = {"analyze": ["--mapping", str(mapping_path)],
            "explore": ["--iterations", "1", "--population", "4", "--offspring", "2"]}
    assert main([command, "--spec", str(bad), *args[command]]) == 2
    err = capsys.readouterr().err
    assert "shorter than the memory service time" in err and "Traceback" not in err


@pytest.mark.parametrize("role", ["spec", "mapping"])
def test_deeply_nested_document_exits_2(spec_path, mapping_path, tmp_path, capsys, role):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    paths = {"spec": spec_path, "mapping": mapping_path, role: deep}
    assert main(["validate", "--spec", str(paths["spec"]),
                 "--mapping", str(paths["mapping"])]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("wcet_us", 12.3456789), ("period_us", 0.0004)])
def test_fractional_nanoseconds_exit_2(spec_path, mapping_path, tmp_path, capsys,
                                       field, value):
    doc = json.loads(spec_path.read_text())
    task = doc["application"]["tasks"][0]
    if field == "period_us":
        task["period_us"] = value
    else:
        task["wcet_us"][next(iter(task["wcet_us"]))] = value
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", "--spec", str(bad), "--mapping", str(mapping_path)]) == 2
    err = capsys.readouterr().err
    assert "whole number of nanoseconds" in err and "Traceback" not in err


BAD_ENERGY = {
    "static-string": ("static_per_core", "a"),
    "list": ("e_bus_src", [1]),
    "nan": ("e_link", float("nan")),
    "infinity": ("e_router", float("inf")),
    "bool": ("e_bus_dst", True),
    "negative": ("static_per_core", -1000.0),
    "dynamic-string": ("dynamic_per_core_type", "x"),
    "dynamic-null": ("dynamic_per_core_type", {"gp": None, "dsp": 0.7, "io": 0.5}),
}


@pytest.mark.parametrize("case", sorted(BAD_ENERGY))
def test_bad_energy_coefficient_exits_2(tmp_path, capsys, case):
    field, value = BAD_ENERGY[case]
    doc = json.loads(emit_spec(generate_spec("consumer", (2, 2), 0)))
    doc["architecture"]["energy"][field] = value
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(doc))
    assert main(["explore", "--spec", str(bad), "--iterations", "3",
                 "--population", "10", "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"architecture.energy.{field}" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("static_per_core", 1e308),
                                          ("e_link", 10 ** 308)], ids=["float", "int"])
def test_energy_overflow_exits_2(tmp_path, capsys, field, value):
    doc = json.loads(emit_spec(generate_spec("consumer", (2, 2), 0)))
    doc["architecture"]["energy"].update({field: value, "e_router": value})
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(doc))
    assert main(["explore", "--spec", str(bad), "--iterations", "3",
                 "--population", "10", "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "energy overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("edit, hint", VALIDATION_CASES + SYNTAX_CASES)
def test_invalid_spec_exits_2(tmp_path, capsys, edit, hint):
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(mutated(edit)))
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"bindings": {"a": "t0.c0", "b": "t1.c1"}}))
    assert main(["analyze", "--spec", str(bad), "--mapping", str(mapping)]) == 2
    err = capsys.readouterr().err
    assert re.search(hint, err) and "Traceback" not in err


@pytest.mark.parametrize("role", ["spec", "mapping"])
def test_huge_integer_literal_exits_2(spec_path, mapping_path, tmp_path, capsys, role):
    # 5,000 digits: past the interpreter's limit on integer string conversion
    huge = tmp_path / "huge.json"
    if role == "spec":
        doc = json.loads(emit_spec(generate_spec("networking", (2, 2), 3)))
        doc["application"]["tasks"][0]["mem_demand"] = "HUGE"
        huge.write_text(json.dumps(doc).replace('"HUGE"', "9" * 5000))
    else:
        huge.write_text('{"bindings": {"t0": %s}}' % ("9" * 5000))
    paths = {"spec": spec_path, "mapping": mapping_path, role: huge}
    assert main(["analyze", "--spec", str(paths["spec"]),
                 "--mapping", str(paths["mapping"])]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "Traceback" not in err
@pytest.mark.parametrize("role", ["spec", "mapping"])
def test_non_utf8_document_exits_2(spec_path, mapping_path, tmp_path, capsys, role):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00garbage")
    paths = {"spec": spec_path, "mapping": mapping_path, role: bad}
    assert main(["analyze", "--spec", str(paths["spec"]),
                 "--mapping", str(paths["mapping"])]) == 2
    err = capsys.readouterr().err
    assert "bad.bin: not valid UTF-8" in err and "Traceback" not in err


def test_malformed_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"application": 5}')
    assert main(["analyze", "--spec", str(bad),
                 "--mapping", str(bad)]) == 2


# ------------------------------------------------------------------- pipeline


def test_generate_explore_analyze_pipeline(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    assert main(["generate", "--profile", "networking", "--mesh", "2x1",
                 "--seed", "3", "--tasks", "4", "--messages", "3",
                 "--out", str(spec_file)]) == 0
    run = tmp_path / "run"
    assert main(["explore", "--spec", str(spec_file), "--seed", "5",
                 "--iterations", "3", "--population", "12", "--offspring", "6",
                 "--out-dir", str(run), "--format", "json"]) == 0
    docs = json.loads((run / "archive.json").read_text())
    best = tmp_path / "best.json"
    best.write_text(json.dumps(docs[0]))
    report = tmp_path / "report"
    assert main(["analyze", "--spec", str(spec_file),
                 "--mapping", str(best), "--out-dir", str(report)]) == 0
    analysis = json.loads((report / "analysis.json").read_text())
    assert analysis["objectives"] == docs[0]["objectives"]
    assert analysis["digest"] == docs[0]["digest"]


# ------------------------------------------------------------ typed errors


# One small, valid argument list per command. A budget flag whose default
# is large is never dropped, and a mutated value is never larger than the
# one it replaces, so no example asks for much work.
FUZZ_ARGS = {
    "analyze": ["--spec", "spec.json", "--mapping", "mapping.json", "--out-dir", "out",
                "--format", "json"],
    "explore": ["--spec", "spec.json", "--mode", "FixedCR", "--seed", "1",
                "--iterations", "2", "--population", "4", "--offspring", "2",
                "--out-dir", "out", "--format", "csv"],
    "compare": ["--spec", "spec.json", "--seed", "1", "--reps", "1", "--iterations", "1",
                "--population", "4", "--offspring", "2", "--out-dir", "out"],
    "validate": ["--spec", "spec.json", "--mapping", "mapping.json", "--trials", "2",
                 "--seed", "0", "--phantom-load", "max", "--jobs", "2", "--out-dir", "out"],
    "generate": ["--profile", "networking", "--mesh", "2x1", "--seed", "3", "--tasks", "4",
                 "--messages", "3", "--out", "gen.json"],
}
KEPT = {"--iterations", "--population", "--reps", "--trials"}
BAD_VALUES = ("-1", "-7", "", "0", "x", "1.5", "2x", "nan")


@st.composite
def mutated_args(draw):
    """A command's argument list after 1-3 edits, each dropping a flag (and
    its value) or replacing a value with a negative, empty or ill-typed
    one."""
    command = draw(st.sampled_from(sorted(FUZZ_ARGS)))
    pairs = [list(p) for p in zip(FUZZ_ARGS[command][::2], FUZZ_ARGS[command][1::2])]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(pairs) - 1))
        if pairs[i][0] not in KEPT and draw(st.booleans()):
            del pairs[i]
        else:
            pairs[i][1] = draw(st.sampled_from(BAD_VALUES))
    return [command, *(a for p in pairs for a in p)]


def test_mutated_arguments_exit_with_a_typed_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(bundled_text("specs", "join_two_tile.json"))
    (tmp_path / "mapping.json").write_text(
        bundled_text("mappings", "join_two_tile_shared.json"))

    @settings(max_examples=150, deadline=None)
    @given(mutated_args())
    def check(argv):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse rejects the list
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4, 5), (argv, code, err)
        assert "Traceback" not in err, argv

    check()


OUT_FLAGS = [("analyze", "--out-dir"), ("explore", "--out-dir"), ("compare", "--out-dir"),
             ("validate", "--out-dir"), ("generate", "--out")]


@pytest.mark.parametrize("command, flag", OUT_FLAGS, ids=[c for c, _ in OUT_FLAGS])
def test_empty_out_dir_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                  command, flag):
    # An empty path would name the working directory, or stdout for --out.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(bundled_text("specs", "join_two_tile.json"))
    (tmp_path / "mapping.json").write_text(
        bundled_text("mappings", "join_two_tile_shared.json"))
    argv = [command, *FUZZ_ARGS[command]]
    argv[argv.index(flag) + 1] = ""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert flag in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mapping.json", "spec.json"]


# ------------------------------------------------------------------- parser


MINIMAL_ARGS = {
    "analyze": (["--spec", "spec.json", "--mapping", "mapping.json"],
                {"spec": "spec.json", "mapping": "mapping.json", "out_dir": None,
                 "format": "csv"}),
    "explore": (["--spec", "spec.json"],
                {"spec": "spec.json", "mode": "IsolationAware", "seed": 0,
                 "iterations": 200, "population": 100, "offspring": 25,
                 "out_dir": None, "format": "csv"}),
    "compare": (["--spec", "spec.json"],
                {"spec": "spec.json", "seed": 0, "reps": 5, "iterations": 200,
                 "population": 100, "offspring": 25, "out_dir": None}),
    "validate": (["--spec", "spec.json", "--mapping", "mapping.json"],
                 {"spec": "spec.json", "mapping": "mapping.json", "trials": 100,
                  "seed": 0, "phantom_load": None, "jobs": 2, "out_dir": None,
                  "selftest_corrupt_bounds": False}),
    "generate": ([], {"profile": "consumer", "mesh": "4x4", "seed": 0, "tasks": None,
                      "messages": None, "out": None}),
}
OPTIONS = {
    "analyze": ["--format", "--mapping", "--out-dir", "--spec"],
    "explore": ["--format", "--iterations", "--mode", "--offspring", "--out-dir",
                "--population", "--seed", "--spec"],
    "compare": ["--iterations", "--offspring", "--out-dir", "--population", "--reps",
                "--seed", "--spec"],
    "validate": ["--jobs", "--mapping", "--out-dir", "--phantom-load", "--seed",
                 "--selftest-corrupt-bounds", "--spec", "--trials"],
    "generate": ["--mesh", "--messages", "--out", "--profile", "--seed", "--tasks"],
}


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGS))
def test_parsed_arguments_and_options_are_pinned(command):
    parser = build_parser()
    argv, expected = MINIMAL_ARGS[command]
    parsed = vars(parser.parse_args([command, *argv]))
    del parsed["func"]
    assert parsed == {"command": command, **expected}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert sorted(accepted - {"-h", "--help"}) == OPTIONS[command]


# ------------------------------------------------------------------ process


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("argv, code", [
    (["generate", "--profile", "networking", "--mesh", "2x2", "--seed", "3"], 0),
    (["analyze", "--spec", "spec.json", "--mapping", "mapping.json", "--bogus"], 2),
    (["analyze", "--spec", "spec.json", "--mapping", "overloaded.json"], 3),
    (["validate", "--spec", "spec.json", "--mapping", "mapping.json", "--trials", "2",
      "--selftest-corrupt-bounds"], 5),
], ids=["generate", "unknown-flag", "infeasible", "bound-violated"])
def test_process_exit_status(spec_path, mapping_path, bad_mapping_path, tmp_path,
                             argv, code):
    # The path fixtures write spec.json, mapping.json and overloaded.json.
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "isoexplore.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert len(parse_spec(proc.stdout).application.tasks) == 7
    elif code == 2:
        assert proc.stderr.startswith("usage:")
        assert "unrecognized arguments: --bogus" in proc.stderr
