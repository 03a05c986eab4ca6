"""Shared fixtures: the bundled two-tile example and small generated specs,
a guard on kernel call counts, and a bytecode counter."""

from __future__ import annotations

import json
import sys
from importlib import resources

import pytest

from isoexplore import generate_spec, kernels, load_mapping_doc, parse_spec
from isoexplore.model import emit_spec


def call_budget(monkeypatch, name: str, calls: int = 10_000) -> None:
    """Fail a search that evaluates `kernels.name` more than `calls` times
    instead of letting it run through a huge capacity."""
    inner = getattr(kernels, name)
    count = [0]

    def counted(*args):
        count[0] += 1
        assert count[0] <= calls, f"{name} called more than {calls} times"
        return inner(*args)

    monkeypatch.setattr(kernels, name, counted)


def count_opcodes(fn, *args):
    """(bytecodes executed by `fn(*args)` and every frame it calls, its
    result). The count repeats exactly from run to run, but differs between
    Python versions, so compare counts only within one interpreter. The
    trace function set before, if any, is put back afterwards."""
    count = [0]

    def on_opcode(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return count[0], result


def tight_spec_text() -> str:
    """Networking 2x2 with deadlines cut so that the least-weight searches of
    many tasks and of two messages find no weight within capacity."""
    doc = json.loads(emit_spec(generate_spec("networking", (2, 2), 3)))
    for t in doc["application"]["tasks"]:
        t["period_us"] //= 13
    for m in doc["application"]["messages"][::8]:
        m["period_us"] //= 500
    return json.dumps(doc)


def bundled_text(kind: str, name: str) -> str:
    return (
        resources.files("isoexplore").joinpath(f"data/{kind}/{name}").read_text()
    )


@pytest.fixture(scope="session")
def two_tile_spec():
    return parse_spec(bundled_text("specs", "join_two_tile.json"))


@pytest.fixture(scope="session")
def two_tile_shared(two_tile_spec):
    doc = json.loads(bundled_text("mappings", "join_two_tile_shared.json"))
    return load_mapping_doc(two_tile_spec, doc)


@pytest.fixture(scope="session")
def small_mesh_spec():
    """Simulatable 2x2 problem at the networking profile size."""
    return generate_spec("networking", mesh=(2, 2), seed=3)
