"""Document parsing, validation, serialization, and graph queries."""

import copy
import functools
import json
import operator
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from isoexplore import model
from isoexplore.errors import (
    CycleError,
    EmptyGraph,
    SpecError,
    SpecSyntaxError,
    ValidationError,
)
from isoexplore.generator import generate_spec
from isoexplore.model import (
    NS_PER_US,
    ApplicationGraph,
    Message,
    Task,
    emit_spec,
    end_to_end_paths,
    load_spec,
    parse_json,
    parse_spec,
)

from conftest import bundled_text


def minimal_doc() -> dict:
    """Two tiles, two cores each, two tasks joined by one message."""
    return {
        "application": {
            "tasks": [
                {"id": "a", "period_us": 50, "wcet_us": {"gp": 3}, "mem_demand": 8},
                {"id": "b", "period_us": 50, "wcet_us": {"gp": 2}, "mem_demand": 4},
            ],
            "messages": [
                {"id": "m", "src": "a", "dst": "b", "period_us": 100,
                 "payload_bytes": 32, "mem_demand": 6},
            ],
        },
        "architecture": {
            "mesh": [2, 1],
            "tile_types": [
                {
                    "name": "basic",
                    "cores": 2,
                    "core_type": "gp",
                    "core_policy": {"slot_len_us": 1000, "arb_delay_us": 200,
                                    "capacity": 5, "work_conserving": True},
                    "bus_policy": {"slot_len_ns": 100, "arb_delay_ns": 0,
                                   "capacity": 4, "work_conserving": True},
                    "na": {
                        "tx": {"arb_delay_ns": 0, "capacity": 4,
                               "work_conserving": True},
                        "rx": {"arb_delay_ns": 0, "capacity": 4,
                               "work_conserving": True},
                    },
                    "memories": [{"service_time_ns": 5}],
                },
            ],
            "tiles": [
                {"id": "t0", "type": "basic", "pos": [0, 0]},
                {"id": "t1", "type": "basic", "pos": [1, 0]},
            ],
            "noc": {
                "tau_ns": 10,
                "router_delay_cycles": 1,
                "flit_payload_bytes": 16,
                "header_flits": 1,
                "link_policy": {"slot_len": 10, "arb_delay": 0,
                                "capacity": 4, "work_conserving": True},
            },
        },
        "mapping_edges": [
            {"task": "a", "core": "t0.c0"},
            {"task": "a", "core": "t1.c0"},
            {"task": "b", "core": "t1.c1"},
        ],
    }


def parse(doc: dict):
    return parse_spec(json.dumps(doc))


def mutated(edit) -> dict:
    doc = copy.deepcopy(minimal_doc())
    edit(doc)
    return doc


# ------------------------------------------------------------------ parsing


def test_parse_units_and_defaults():
    spec = parse(minimal_doc())
    a = spec.application.task("a")
    assert a.period == 50 * NS_PER_US
    assert a.wcet == {"gp": 3 * NS_PER_US}
    core = spec.architecture.core("t0.c0")
    assert core.policy.slot_len == 1_000 * NS_PER_US
    assert core.policy.arb_delay == 200 * NS_PER_US
    tile = spec.architecture.tile("t0")
    assert tile.bus_policy.slot_len == 100          # ns fields stay ns
    assert tile.bus_master_weight == 1              # default
    assert tile.memory.service_time == 5
    assert spec.architecture.noc.route_hop_offset == 1  # default
    assert spec.architecture.noc.tau == 10


def test_parse_fractional_microseconds():
    doc = mutated(lambda d: d["application"]["tasks"][0].update({"wcet_us": {"gp": 1.5}}))
    spec = parse(doc)
    assert spec.application.task("a").wcet["gp"] == 1_500


def test_na_policies_have_no_slot():
    spec = parse(minimal_doc())
    tile = spec.architecture.tile("t0")
    assert tile.tx_policy.slot_len is None
    assert tile.rx_policy.capacity == 4


def test_flits_for_payload():
    noc = parse(minimal_doc()).architecture.noc
    assert noc.flits_for(32) == 3                   # 1 header + ceil(32/16)
    assert noc.flits_for(1) == 2
    assert noc.flits_for(64) == 5


def test_architecture_lookups():
    arch = parse(minimal_doc()).architecture
    assert [c.id for c in arch.cores] == ["t0.c0", "t0.c1", "t1.c0", "t1.c1"]
    assert {c.id: arch.core(c.id).tile_id for c in arch.cores} == {
        "t0.c0": "t0", "t0.c1": "t0", "t1.c0": "t1", "t1.c1": "t1"}


def test_edges_of_preserves_declaration_order():
    spec = parse(minimal_doc())
    assert spec.mapping_edges == (("a", "t0.c0"), ("a", "t1.c0"), ("b", "t1.c1"))
    assert spec.edges_of == {"a": ("t0.c0", "t1.c0"), "b": ("t1.c1",)}


def test_each_tile_type_is_parsed_once(monkeypatch):
    """Consumer 4x4: 16 tiles of 3 types, each type with a core, bus, TX and
    RX policy, plus the link policy. Every tile still has its own ids."""
    text = emit_spec(generate_spec("consumer", (4, 4), 0))
    calls = []
    inner = model._policy
    monkeypatch.setattr(model, "_policy", lambda obj, path, **kw: (
        calls.append(path), inner(obj, path, **kw))[1])
    arch = parse_spec(text).architecture
    assert len(arch.tiles) == 16 and len({t.type_name for t in arch.tiles}) == 3
    assert len(calls) == 3 * 4 + 1
    assert len({m.id for t in arch.tiles for m in t.memories}) == 16
    assert len({c.id for c in arch.cores}) == 64


def test_a_tile_type_no_tile_uses_is_checked_only_for_its_name():
    spare = {"name": "spare", "cores": "many", "core_policy": 5}
    doc = mutated(lambda d: d["architecture"]["tile_types"].append(spare))
    assert {t.type_name for t in parse(doc).architecture.tiles} == {"basic"}
    del spare["name"]
    with pytest.raises(SpecSyntaxError,
                       match=r"missing field 'name' at architecture.tile_types\[1\]$"):
        parse(mutated(lambda d: d["architecture"]["tile_types"].append(spare)))


# ------------------------------------------------------------------ emitting


def test_emit_parse_round_trip():
    spec = parse(minimal_doc())
    text = emit_spec(spec)
    again = parse_spec(text)
    assert again.application == spec.application
    assert again.architecture.tiles == spec.architecture.tiles
    assert again.architecture.noc == spec.architecture.noc
    assert again.mapping_edges == spec.mapping_edges
    assert emit_spec(again) == text                 # emit is a fixed point


def test_bundled_spec_round_trips(two_tile_spec):
    text = emit_spec(two_tile_spec)
    assert emit_spec(parse_spec(text)) == text


# ------------------------------------------------------------- syntax errors


def test_rejects_invalid_json():
    with pytest.raises(SpecSyntaxError):
        parse_spec("{nope")
    with pytest.raises(SpecSyntaxError):
        parse_spec("[1, 2]")
    with pytest.raises(SpecSyntaxError, match="not valid JSON"):
        parse_spec("[" * 200_000)                    # nested past the recursion limit


def test_rejects_integer_literal_past_the_conversion_limit():
    doc = json.loads(emit_spec(generate_spec("networking", (2, 2), 3)))
    doc["application"]["tasks"][0]["mem_demand"] = "HUGE"
    text = json.dumps(doc).replace('"HUGE"', "9" * 5000)
    with pytest.raises(SpecSyntaxError, match="not valid JSON"):
        parse_spec(text)
    with pytest.raises(SpecSyntaxError, match="not valid JSON"):
        parse_json('{"bindings": {"t0": %s}}' % ("9" * 5000))


def test_rejects_missing_fields():
    with pytest.raises(SpecSyntaxError, match="application"):
        parse({"architecture": {}})
    doc = mutated(lambda d: d["application"]["tasks"][0].pop("period_us"))
    with pytest.raises(SpecSyntaxError, match="period_us"):
        parse(doc)
    doc = mutated(lambda d: d["architecture"].pop("noc"))
    with pytest.raises(SpecSyntaxError, match="noc"):
        parse(doc)


def test_rejects_wrong_types():
    doc = mutated(lambda d: d["application"]["tasks"][0].update({"wcet_us": 3}))
    with pytest.raises(SpecSyntaxError, match="wcet_us"):
        parse(doc)
    doc = mutated(lambda d: d["application"]["tasks"][0].update({"mem_demand": 1.5}))
    with pytest.raises(SpecSyntaxError, match="mem_demand"):
        parse(doc)
    doc = mutated(
        lambda d: d["architecture"]["tile_types"][0]["bus_policy"].update(
            {"work_conserving": "yes"})
    )
    with pytest.raises(SpecSyntaxError, match="work_conserving"):
        parse(doc)
    doc = mutated(lambda d: d["architecture"].update({"mesh": [2]}))
    with pytest.raises(SpecSyntaxError, match="mesh"):
        parse(doc)
    doc = mutated(
        lambda d: d["architecture"]["noc"]["link_policy"].update({"slot_len": 1.5})
    )
    with pytest.raises(SpecSyntaxError, match="link_policy.slot_len"):
        parse(doc)


@pytest.mark.parametrize("edit, field", [
    (lambda t: t.update({"wcet_us": {"gp": 12.3456789}}), r"wcet_us\[gp\]"),
    (lambda t: t.update({"period_us": 0.0004}), "period_us"),
], ids=["wcet_us", "period_us"])
def test_rejects_fractional_nanoseconds(edit, field):
    doc = mutated(lambda d: edit(d["application"]["tasks"][0]))
    with pytest.raises(SpecSyntaxError, match=f"{field} must be a whole number of nanoseconds"):
        parse(doc)


# --------------------------------------------------------- validation errors


# Each edit of `minimal_doc` and a pattern its ValidationError matches.
VALIDATION_CASES = [
    (lambda d: d["application"]["tasks"][0].update({"period_us": 0}), "period"),
    (lambda d: d["application"]["tasks"][0].update({"wcet_us": {}}), "wcet"),
    (lambda d: d["application"]["tasks"][0].update({"mem_demand": -1}), "mem_demand"),
    (lambda d: d["application"]["tasks"][1].update({"id": "a"}), "duplicate"),
    (lambda d: d["application"]["messages"][0].update({"src": "zz"}), "not a task"),
    (lambda d: d["application"]["messages"][0].update({"dst": "a"}), "consumer"),
    (lambda d: d["application"]["messages"][0].update({"payload_bytes": 0}), "payload"),
    (lambda d: d["architecture"]["tiles"][1].update({"pos": [0, 0]}), "already taken"),
    (lambda d: d["architecture"]["tiles"][1].update({"pos": [5, 0]}), "outside mesh"),
    (lambda d: d["architecture"]["tiles"][1].update({"id": "t0"}), "duplicate tile"),
    (lambda d: d["architecture"]["tiles"][1].update({"type": "huge"}), "unknown tile type"),
    (lambda d: d["architecture"]["noc"]["link_policy"].update({"capacity": 0}), "link_policy"),
    (lambda d: d["mapping_edges"].append({"task": "zz", "core": "t0.c0"}), "unknown task"),
    (lambda d: d["mapping_edges"].append({"task": "a", "core": "t9.c0"}), "unknown core"),
    (lambda d: d["mapping_edges"].append({"task": "a", "core": "t0.c0"}), "duplicate mapping"),
    (lambda d: d["mapping_edges"].pop(), "no mapping edges"),
    (lambda d: d["application"]["tasks"][0].update({"wcet_us": {"gp": 0}}),
     "wcet for core type 'gp' must be positive"),
    (lambda d: d["architecture"]["tile_types"][0]["memories"][0].update(
        {"service_time_ns": 0}), "service time must be positive"),
    (lambda d: d["architecture"]["tile_types"][0]["bus_policy"].update(
        {"slot_len_ns": 4}), "shorter than the memory service time"),
    (lambda d: d["application"]["messages"][0].update({"mem_demand": 0}),
     "mem_demand must be positive"),
    (lambda d: d["architecture"]["noc"]["link_policy"].update({"slot_len": 20}),
     "must equal tau"),
    (lambda d: d["application"]["messages"][0].update({"period_us": 0}),
     "message m: period must be positive"),
    (lambda d: d["application"]["messages"][0].update({"dst": "zz"}),
     "consumer 'zz' is not a task"),
    (lambda d: d["application"].update(edges=[{"src": "a", "dst": "b"}]),
     "must link a task and a message"),
    (lambda d: d["architecture"]["tile_types"][0].update({"cores": 0}),
     "needs at least one core"),
    (lambda d: d["architecture"]["tile_types"][0].update({"cores": -1}),
     "tile t0: needs at least one core"),
    (lambda d: d["architecture"]["tile_types"][0].update({"memories": []}),
     "needs at least one memory"),
    (lambda d: d["architecture"]["tile_types"][0].update({"bus_master_weight": 0}),
     "bus_master_weight must be >= 1"),
    (lambda d: d["architecture"]["tile_types"][0]["bus_policy"].update({"capacity": 3}),
     "does not cover its masters"),
    (lambda d: d["architecture"]["tile_types"].append(
        copy.deepcopy(d["architecture"]["tile_types"][0])), "duplicate tile type"),
    (lambda d: d["architecture"].update({"mesh": [0, 1]}), "must be at least 1x1"),
    (lambda d: d["architecture"].update({"tiles": []}), "declares no tiles"),
    (lambda d: d["architecture"]["noc"].update({"tau_ns": 0}), "tau_ns must be positive"),
    (lambda d: d["architecture"]["noc"].update({"router_delay_cycles": -1}),
     "router_delay_cycles must be >= 0"),
    (lambda d: d["architecture"]["noc"].update({"flit_payload_bytes": 0}),
     "flit_payload_bytes must be positive"),
    (lambda d: d["architecture"]["noc"].update({"header_flits": -1}),
     "header_flits must be >= 0"),
    (lambda d: d["architecture"]["noc"].update({"route_hop_offset": -1}),
     "route_hop_offset must be >= 0"),
]


@pytest.mark.parametrize("edit, hint", VALIDATION_CASES)
def test_validation_errors(edit, hint):
    with pytest.raises(ValidationError, match=hint):
        parse(mutated(edit))


# Each edit of `minimal_doc` and a pattern its SpecSyntaxError matches.
SYNTAX_CASES = [
    (lambda d: d["application"].update({"tasks": {}}), "'tasks' must be an array"),
    (lambda d: d["application"]["tasks"][0].update({"period_us": "50"}),
     "period_us must be a number"),
    (lambda d: d["architecture"]["tile_types"][0].update({"core_policy": 5}),
     "expected a policy object"),
    (lambda d: d["architecture"]["tiles"][0].update({"pos": [0]}), "pos must be .x, y."),
    (lambda d: d["architecture"].update({"energy": []}), "energy must be an object"),
]


@pytest.mark.parametrize("edit, hint", SYNTAX_CASES)
def test_syntax_errors(edit, hint):
    with pytest.raises(SpecSyntaxError, match=hint):
        parse(mutated(edit))


@pytest.mark.parametrize("edge, hint", [
    (5, "expected an object"),
    ("a", "expected an object"),
    ([], "expected an object"),
    (None, "expected an object"),
    ({"core": "t0.c1"}, "missing field 'task'"),
    ({"task": "b"}, "missing field 'core'"),
])
def test_a_faulty_mapping_edge_is_named_by_its_index(edge, hint):
    doc = mutated(lambda d: d["mapping_edges"].insert(2, edge))
    with pytest.raises(SpecSyntaxError, match=rf"^{hint} at mapping_edges\[2\]$"):
        parse(doc)


def test_edge_syntax_faults_come_before_edge_semantic_faults():
    def edit(doc):
        doc["mapping_edges"][0]["task"] = "zz"         # unknown task
        doc["mapping_edges"].append([])
    with pytest.raises(SpecSyntaxError, match=r"expected an object at mapping_edges\[3\]"):
        parse(mutated(edit))


# A value of each JSON type, by the Python type that `json.loads` gives it.
JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-10**6, 10**6),
    float: st.floats(),
    str: st.text(max_size=4),
    list: st.lists(st.integers(), max_size=2),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def paths_in(doc, path=()):
    """Every key path below `doc`, parents before their children."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield path + (key,)
        yield from paths_in(val, path + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_document_parses_or_raises_a_spec_error(data):
    """1-3 edits of the bundled spec, each dropping a key or replacing a
    value with one of another JSON type."""
    doc = json.loads(bundled_text("specs", "join_two_tile.json"))
    for _ in range(data.draw(st.integers(1, 3))):
        *head, key = data.draw(st.sampled_from(list(paths_in(doc))))
        parent = functools.reduce(operator.getitem, head, doc)
        kinds = [kind for kind in JSON_VALUES if kind is not type(parent[key])]
        kind = data.draw(st.sampled_from([None, *kinds]))
        if kind is None:
            del parent[key]
        else:
            parent[key] = data.draw(JSON_VALUES[kind])
    try:
        parse_spec(json.dumps(doc))
    except SpecError:
        pass


def test_non_utf8_spec_file_raises_syntax_error(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(SpecSyntaxError, match="bad.bin: not valid UTF-8"):
        load_spec(str(bad))


def test_core_count_is_checked_before_the_cores_are_built():
    # About 170 bytes a core: building 200,000 before the check peaked at 33 MiB.
    doc = json.loads(emit_spec(generate_spec("networking", (2, 2), 0)))
    tile_type = doc["architecture"]["tile_types"][0]
    tile_type["cores"] = 200_000
    tile_type["bus_policy"]["capacity"] = 6
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="bus capacity 6 does not cover its masters"):
            parse_spec(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


ENERGY = {"dynamic_per_core_type": {"gp": 0.9}, "static_per_core": 3, "e_link": 0.02,
          "e_router": 0.03, "e_bus_src": 0.01, "e_bus_dst": 0.01}


def with_energy(**changes) -> dict:
    return mutated(lambda d: d["architecture"].update(energy={**ENERGY, **changes}))


def test_energy_coefficients_parse():
    assert parse(with_energy()).architecture.energy == ENERGY
    assert parse(with_energy(static_per_core=0)).architecture.energy["static_per_core"] == 0
    assert parse(mutated(lambda d: None)).architecture.energy == {}


@pytest.mark.parametrize("changes, error, field", [
    ({"static_per_core": "a"}, SpecSyntaxError, "static_per_core"),
    ({"e_bus_src": [1]}, SpecSyntaxError, "e_bus_src"),
    ({"e_bus_dst": True}, SpecSyntaxError, "e_bus_dst"),
    ({"e_link": None}, SpecSyntaxError, "e_link"),
    ({"e_link": float("nan")}, ValidationError, "e_link"),
    ({"e_router": float("inf")}, ValidationError, "e_router"),
    ({"e_router": 10 ** 400}, ValidationError, "e_router"),
    ({"static_per_core": -1000.0}, ValidationError, "static_per_core"),
    ({"dynamic_per_core_type": "x"}, SpecSyntaxError, "dynamic_per_core_type"),
    ({"dynamic_per_core_type": {"gp": None}}, SpecSyntaxError, r"dynamic_per_core_type\[gp\]"),
    ({"dynamic_per_core_type": {"gp": -0.5}}, ValidationError, r"dynamic_per_core_type\[gp\]"),
], ids=["string", "list", "bool", "null", "nan", "infinity", "huge-int", "negative",
        "dynamic-string", "dynamic-null", "dynamic-negative"])
def test_rejects_bad_energy_coefficients(changes, error, field):
    with pytest.raises(error, match=f"architecture.energy.{field}"):
        parse(with_energy(**changes))


def test_edge_list_contradicting_src_is_rejected():
    def edit(doc):
        doc["application"]["edges"] = [{"src": "b", "dst": "m"}]
    with pytest.raises(ValidationError, match="contradicts"):
        parse(mutated(edit))


def test_edge_list_adds_consumers():
    def edit(doc):
        doc["application"]["tasks"].append(
            {"id": "c", "period_us": 50, "wcet_us": {"gp": 1}, "mem_demand": 1})
        doc["application"]["edges"] = [
            {"src": "a", "dst": "m"},
            {"src": "m", "dst": "b"},
            {"src": "m", "dst": "c"},
        ]
        doc["mapping_edges"].append({"task": "c", "core": "t0.c1"})
    spec = parse(mutated(edit))
    msg = spec.application.messages[0]
    assert msg.extra_consumers == ("c",)
    assert set(msg.consumers) == {"b", "c"}
    # Built once, and not a field: equality, hashing and the emitted
    # document ignore it.
    assert msg.consumers is msg.consumers
    fresh = parse(mutated(edit)).application.messages[0]
    assert fresh == msg and hash(fresh) == hash(msg)
    assert emit_spec(spec) == emit_spec(parse(mutated(edit)))


def test_empty_task_list_raises():
    def edit(doc):
        doc["application"]["tasks"] = []
        doc["application"]["messages"] = []
        doc["mapping_edges"] = []
    with pytest.raises(EmptyGraph):
        parse(mutated(edit))


def test_wcet_must_cover_mapped_core_type():
    def edit(doc):
        doc["application"]["tasks"][0]["wcet_us"] = {"dsp": 3}
    with pytest.raises(ValidationError, match="no wcet"):
        parse(mutated(edit))


# ----------------------------------------------------------------- the graph


def task(tid: str) -> Task:
    return Task(id=tid, period=1_000, wcet={"gp": 10}, mem_demand=1)


def msg(mid: str, src: str, dst: str, extras=()) -> Message:
    return Message(id=mid, src=src, dst=dst, period=1_000, payload_bytes=16,
                   mem_demand=1, extra_consumers=tuple(extras))


def test_paths_of_chain():
    app = ApplicationGraph(
        tasks=(task("a"), task("b"), task("c")),
        messages=(msg("m1", "a", "b"), msg("m2", "b", "c")),
    )
    assert end_to_end_paths(app) == (("a", "m1", "b", "m2", "c"),)


def test_paths_of_join():
    app = ApplicationGraph(
        tasks=(task("a"), task("b"), task("c")),
        messages=(msg("m1", "a", "c"), msg("m2", "b", "c")),
    )
    assert set(end_to_end_paths(app)) == {("a", "m1", "c"), ("b", "m2", "c")}


def test_paths_of_fork_with_extra_consumer():
    app = ApplicationGraph(
        tasks=(task("a"), task("b"), task("c")),
        messages=(msg("m1", "a", "b", extras=("c",)),),
    )
    assert set(end_to_end_paths(app)) == {("a", "m1", "b"), ("a", "m1", "c")}


def test_isolated_task_is_its_own_path():
    app = ApplicationGraph(tasks=(task("a"),), messages=())
    assert end_to_end_paths(app) == (("a",),)


def test_cycle_is_rejected():
    with pytest.raises(CycleError):
        app = ApplicationGraph(
            tasks=(task("a"), task("b")),
            messages=(msg("m1", "a", "b"), msg("m2", "b", "a")),
        )
        end_to_end_paths(app)


def test_topo_order_takes_earliest_declared_ready_task():
    app = ApplicationGraph(
        tasks=(task("d"), task("a"), task("b"), task("c")),
        messages=(msg("m1", "a", "d"), msg("m2", "b", "c")),
    )
    assert app.topo_order == ("a", "d", "b", "c")


@pytest.mark.parametrize(
    "wires",
    [
        [("m1", "s", "b"), ("m2", "b", "c"), ("m3", "c", "b"), ("m4", "c", "e")],
        [("m2", "b", "c"), ("m3", "c", "b", "e")],       # s cannot reach it
    ],
    ids=["behind-a-source", "unreachable"],
)
def test_cycle_error_names_a_task_on_the_cycle(wires):
    with pytest.raises(CycleError, match="cycle through '[bc]'"):
        ApplicationGraph(
            tasks=(task("s"), task("b"), task("c"), task("e")),
            messages=tuple(msg(mid, src, dst, extras) for mid, src, dst, *extras in wires),
        )


def test_self_loop_is_rejected_at_message_level():
    with pytest.raises(ValidationError):
        msg("m", "a", "a")


def test_duplicate_consumer_is_rejected():
    # Not reachable from a document: parsing drops repeated consumer edges.
    with pytest.raises(ValidationError, match="duplicate consumer"):
        ApplicationGraph(tasks=(task("a"), task("b")),
                         messages=(msg("m", "a", "b", extras=("b",)),))
