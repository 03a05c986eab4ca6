"""The benchmark tracer still finds every call it wraps in the program.

`isobench/tracing.py` wraps functions by name; a name the program no longer
has fails the traced benchmark run, and a name it no longer calls reads as
a layer that takes no time. These checks catch both in the test suite.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

from isoexplore import mapping, parse_spec

from conftest import bundled_text

TRACING = Path(__file__).resolve().parents[1] / "isobench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("isobench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_the_originals():
    tracer = load_tracing().Tracer()
    targets = tracer.targets()
    before = [owner.__dict__[attr] for owner, attr, *_ in targets]
    with tracer.installed(0):
        during = [owner.__dict__[attr] for owner, attr, *_ in targets]
    after = [owner.__dict__[attr] for owner, attr, *_ in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_analysis_calls_every_traced_timing_function():
    # A spec of its own: bound terms are kept in the spec's tables, so on a
    # spec that earlier tests decoded the timing functions may not run.
    spec = parse_spec(bundled_text("specs", "join_two_tile.json"))
    tracer = load_tracing().Tracer()
    doc = json.loads(bundled_text("mappings", "join_two_tile_shared.json"))
    with tracer.installed(0):
        res = mapping.load_mapping_doc(spec, doc)
    assert res.feasible and res.transfer_wctt
    ids = tracer.names
    calls = Counter(tracer.name_of)
    timing_names = [n for n in ids if n.startswith("timing.")]
    assert len(timing_names) == 8
    assert all(calls[ids[n]] > 0 for n in timing_names), calls
    assert calls[ids["timing.wcrt"]] == len(spec.application.tasks)
