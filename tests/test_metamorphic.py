"""Metamorphic relations of the decode: properties that tie two decodes
together, so that a fault shared by every decode path still shows.

- Scale: multiplying every time field of a spec by k keeps each decode's
  feasibility and cores objective, and multiplies every task bound,
  transfer bound and makespan by exactly k, since every bound is a sum of
  terms that are homogeneous in time.
- Reservation: isolation only removes interference, so reserving one more
  bound core or tile never raises a bound or the makespan, and never makes
  a feasible mapping infeasible.

The transformations edit the emitted spec document and the mappings'
reserved sets; they share no code with the decode.
"""

import json
from functools import lru_cache
from random import Random

from hypothesis import given, settings, strategies as st

from isoexplore import generate_spec
from isoexplore.generator import PROFILES
from isoexplore.mapping import ExplorationMode, decode, from_bindings, random_genotype
from isoexplore.model import emit_spec, parse_spec


def scaled_doc(doc: dict, k: int) -> dict:
    """`doc` with every time field multiplied by `k`."""
    doc = json.loads(json.dumps(doc))
    for task in doc["application"]["tasks"]:
        task["period_us"] *= k
        task["wcet_us"] = {c: v * k for c, v in task["wcet_us"].items()}
    for message in doc["application"]["messages"]:
        message["period_us"] *= k
    for tile_type in doc["architecture"]["tile_types"]:
        policies = [tile_type["core_policy"], tile_type["bus_policy"],
                    tile_type["na"]["tx"], tile_type["na"]["rx"]]
        for policy in policies:
            for field in ("slot_len_us", "arb_delay_us", "slot_len_ns", "arb_delay_ns"):
                if field in policy:
                    policy[field] *= k
        for memory in tile_type["memories"]:
            memory["service_time_ns"] *= k
    noc = doc["architecture"]["noc"]
    noc["tau_ns"] *= k
    noc["link_policy"]["slot_len"] *= k
    noc["link_policy"]["arb_delay"] *= k
    return doc


@lru_cache(maxsize=None)
def spec_pair(profile: str, seed: int, k: int):
    """A 3x3 spec of `profile` and its copy scaled by `k`, each parsed from
    its own document."""
    doc = json.loads(emit_spec(generate_spec(profile, (3, 3), seed)))
    return parse_spec(json.dumps(doc)), parse_spec(json.dumps(scaled_doc(doc, k)))


@settings(max_examples=100, deadline=None)
@given(profile=st.sampled_from(sorted(PROFILES)), seed=st.integers(0, 1),
       k=st.sampled_from((2, 3, 7)), genes=st.integers(0, 2**32))
def test_scaling_every_time_scales_every_bound(profile, seed, k, genes):
    spec, big = spec_pair(profile, seed, k)
    genotype = random_genotype(spec, Random(genes))
    for mode in ExplorationMode:
        res, res_k = decode(spec, genotype, mode), decode(big, genotype, mode)
        assert res_k.feasible == res.feasible
        if not res.feasible:
            continue
        assert res_k.objectives[1] == res.objectives[1]
        assert res_k.task_wcrt == {t: k * v for t, v in res.task_wcrt.items()}
        assert res_k.transfer_wctt == {m: k * v for m, v in res.transfer_wctt.items()}
        assert res_k.makespan == k * res.makespan


@lru_cache(maxsize=None)
def small_spec(profile: str, seed: int):
    return generate_spec(profile, (2, 2), seed)


def assert_no_worse(more, base):
    assert more.feasible
    assert more.task_wcrt.keys() == base.task_wcrt.keys()
    assert all(more.task_wcrt[t] <= v for t, v in base.task_wcrt.items())
    assert more.transfer_wctt.keys() == base.transfer_wctt.keys()
    assert all(more.transfer_wctt[m] <= v for m, v in base.transfer_wctt.items())
    assert more.makespan <= base.makespan


@settings(max_examples=100, deadline=None)
@given(profile=st.sampled_from(sorted(PROFILES)), seed=st.integers(0, 1),
       genes=st.integers(0, 2**32))
def test_reserving_more_never_raises_a_bound(profile, seed, genes):
    spec = small_spec(profile, seed)
    base = decode(spec, random_genotype(spec, Random(genes)))
    if not base.feasible:
        return
    cores, tiles = base.reserved_cores, base.reserved_tiles
    tile_of = {e.core_id: e.tile_id for e in base.edges}
    for core in tile_of.keys() - cores:
        if tile_of[core] not in tiles:
            assert_no_worse(from_bindings(spec, base.bindings, cores | {core}, tiles), base)
    for tile in set(tile_of.values()) - tiles:
        assert_no_worse(from_bindings(spec, base.bindings, cores, tiles | {tile}), base)
