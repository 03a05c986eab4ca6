"""Synthetic problem generation: sizes, determinism, simulatability."""

import hashlib
import tracemalloc

import pytest

from isoexplore.errors import DomainError
from isoexplore.generator import PROFILES, _forward_pair, make_architecture, generate_spec
from isoexplore.model import emit_spec, end_to_end_paths, parse_spec
from isoexplore.simoracle import _check_platform

from conftest import bundled_text


# -------------------------------------------------------------------- profiles


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_profile_sizes(profile):
    n_tasks, n_msgs = PROFILES[profile]
    spec = generate_spec(profile, mesh=(2, 2), seed=1)
    assert len(spec.application.tasks) == n_tasks
    assert len(spec.application.messages) == n_msgs


def test_profile_table():
    assert PROFILES == {
        "networking": (7, 9),
        "consumer": (11, 12),
        "telecom": (14, 20),
        "automotive": (18, 21),
    }


def test_size_overrides():
    spec = generate_spec("consumer", mesh=(2, 1), seed=0, tasks=3, messages=2)
    assert len(spec.application.tasks) == 3
    assert len(spec.application.messages) == 2
    lone = generate_spec("consumer", mesh=(1, 1), seed=0, tasks=1, messages=0)
    assert end_to_end_paths(lone.application) == (("t00",),)


# ------------------------------------------------------------------ validation


def test_rejects_bad_arguments():
    with pytest.raises(DomainError, match="profile"):
        generate_spec("aerospace")
    with pytest.raises(DomainError, match="mesh"):
        generate_spec("consumer", mesh=(0, 2))
    with pytest.raises(DomainError, match="at least one task"):
        generate_spec("consumer", tasks=0)
    with pytest.raises(DomainError, match=">= 0"):
        generate_spec("consumer", messages=-1)


def test_rejects_more_messages_than_task_pairs():
    with pytest.raises(DomainError, match="ordered pairs"):
        generate_spec("consumer", tasks=2, messages=3)
    with pytest.raises(DomainError, match="ordered pairs"):
        generate_spec("consumer", tasks=1, messages=1)
    generate_spec("consumer", mesh=(2, 2), tasks=2, messages=2)  # at the cap


def test_forward_pair_ranks_follow_the_pair_list():
    for n in range(2, 40):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert [_forward_pair(n, r) for r in range(len(pairs))] == pairs


def test_memory_stays_linear_in_tasks():
    # Listing the 1,999,000 forward pairs of 2,000 tasks would take about
    # 190 MiB; the spec itself takes about 3.
    tracemalloc.start()
    try:
        generate_spec("consumer", mesh=(1, 1), seed=0, tasks=2_000, messages=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# ---------------------------------------------------------------- architecture


def test_architecture_shape():
    arch = make_architecture((3, 2))
    assert len(arch.tiles) == 6
    assert {t.id for t in arch.tiles} == {
        f"t{x}_{y}" for x in range(3) for y in range(2)
    }
    for tile in arch.tiles:
        x, y = tile.pos
        assert tile.type_name == ("compute", "signal", "control")[(x + y) % 3]
        assert len(tile.cores) == 4
        assert tile.bus_policy.capacity == 6        # cores plus TX plus RX
        assert tile.bus_policy.slot_len == tile.memory.service_time == 70
        assert tile.tx_policy.slot_len is None
    assert arch.noc.tau == 10
    assert arch.noc.route_hop_offset == 1
    assert set(arch.energy) >= {
        "dynamic_per_core_type", "static_per_core",
        "e_link", "e_router", "e_bus_src", "e_bus_dst",
    }


def test_architecture_rejects_degenerate_mesh():
    with pytest.raises(DomainError):
        make_architecture((1, 0))


# ----------------------------------------------------------------- application


def test_task_parameters_stay_in_domain():
    spec = generate_spec("telecom", mesh=(2, 2), seed=9)
    tau = spec.architecture.noc.tau
    for t in spec.application.tasks:
        assert t.period in (2_000_000, 4_000_000, 8_000_000)
        assert 4 <= t.mem_demand < 25
        assert set(t.wcet) == {"gp", "dsp", "io"}
        assert t.wcet["dsp"] <= t.wcet["gp"] <= t.wcet["io"]
        for v in t.wcet.values():
            assert v % tau == 0 and v > 0
    producers = {t.id: t for t in spec.application.tasks}
    for m in spec.application.messages:
        assert m.period in (producers[m.src].period, 2 * producers[m.src].period)
        assert m.payload_bytes in (64, 128, 256)
        assert 4 <= m.mem_demand < 17


def test_graph_is_forward_wired():
    spec = generate_spec("automotive", mesh=(2, 2), seed=3)
    order = {t.id: i for i, t in enumerate(spec.application.tasks)}
    for m in spec.application.messages:
        assert order[m.src] < order[m.dst]
    assert end_to_end_paths(spec.application)       # acyclic by construction


def test_every_task_may_land_on_every_core():
    spec = generate_spec("networking", mesh=(2, 2), seed=0)
    cores = tuple(c.id for c in spec.architecture.cores)
    assert spec.edges_of == {t.id: cores for t in spec.application.tasks}


# ---------------------------------------------------------------- determinism


def test_generation_is_deterministic():
    a = emit_spec(generate_spec("consumer", mesh=(3, 3), seed=17))
    b = emit_spec(generate_spec("consumer", mesh=(3, 3), seed=17))
    assert a == b
    c = emit_spec(generate_spec("consumer", mesh=(3, 3), seed=18))
    assert c != a


def test_generated_spec_round_trips():
    spec = generate_spec("networking", mesh=(2, 2), seed=5)
    text = emit_spec(spec)
    assert emit_spec(parse_spec(text)) == text


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_generated_specs_are_simulatable(profile):
    _check_platform(generate_spec(profile, mesh=(2, 2), seed=2))


EMIT_SHA1 = "0c1946b60790f9587d859ed92dd532206cd07043"


def test_emit_spec_golden():
    # Emitted specs feed every benchmark workload: their bytes must not
    # drift, including the bundled example's microsecond floats.
    bundled = parse_spec(bundled_text("specs", "join_two_tile.json"))
    digest = hashlib.sha1(emit_spec(bundled).encode())
    for profile in sorted(PROFILES):
        for mesh in ((2, 2), (4, 4)):
            for seed in range(3):
                digest.update(emit_spec(generate_spec(profile, mesh, seed)).encode())
    assert digest.hexdigest() == EMIT_SHA1
