"""The four workloads: seeded inputs, and one closed-loop operation each.

An operation has two timed parts. `setup` turns the input documents into
program objects, as a command does before it works: parse_spec, plus
load_mapping_doc for validate. It runs again before every call, so no state
that one call builds on a spec can serve the next call. `call` is the user
action whose latency and throughput the benchmark reports. `check` runs
outside both timed parts and returns a fingerprint of the output (see
oracles.py).

Each input is built from the run's seed with `generator` alone, before any
timing starts; the program receives only the emitted documents. Several
inputs per run average out how much the cost varies from one generated
problem to the next.

The program's functions are looked up on their modules at call time, so
that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from random import Random

from isoexplore import dse, generator, mapping, model, simoracle

from oracles import (
    check_analysis,
    check_archive,
    check_comparison,
    check_sweep,
)


def sub_seed(*labels) -> int:
    """Stable 32-bit seed from labels, independent of hash randomisation."""
    digest = hashlib.sha256(":".join(map(str, labels)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Input:
    name: str
    docs: dict[str, str]     # document name -> text handed to the program
    args: dict               # call arguments: seeds and budgets


class ExploreConsumer:
    """The default user action: explore, IsolationAware, consumer 4x4, at the
    default budget (200 iterations, population 100, offspring 25) and with
    threads=1 pinned."""

    name = "explore-consumer"
    unit = "evaluations"
    aliases = {"throughput_per_s": ("evals_per_s", "evaluations/s")}

    def inputs(self, seed: int, smoke: bool) -> list[Input]:
        count, budget = (1, {"iterations": 2, "population": 20, "offspring": 5}) \
            if smoke else (2, {})
        out = []
        for i in range(count):
            spec = generator.generate_spec(
                "consumer", (4, 4), sub_seed(seed, self.name, i, "spec"))
            out.append(Input(
                f"consumer-{i}", {"spec": model.emit_spec(spec)},
                dict(budget, seed=sub_seed(seed, self.name, i, "explore"), threads=1),
            ))
        return out

    def setup(self, inp: Input):
        return model.parse_spec(inp.docs["spec"])

    def call(self, inp: Input, spec):
        result = dse.explore(spec, mapping.ExplorationMode.ISOLATION_AWARE, **inp.args)
        return result.evaluations, result

    def check(self, inp: Input, spec, result) -> tuple:
        return check_archive(spec, result.archive.entries, mapping.load_mapping_doc)


class CompareNetworking:
    """compare_approaches, one repetition of all four modes, networking 4x4.

    The fixed modes set every flag, so capacity reductions always run. A
    population of 30 converges within 40 iterations, so that about 45% of
    all decodes repeat an earlier phenotype, as in a default-size run of
    200 iterations.
    """

    name = "compare-networking"
    unit = "evaluations"
    aliases = {"throughput_per_s": ("evals_per_s", "evaluations/s")}

    def inputs(self, seed: int, smoke: bool) -> list[Input]:
        count, budget = (1, {"iterations": 1, "population": 10, "offspring": 4}) \
            if smoke else (3, {"iterations": 40, "population": 30, "offspring": 15})
        out = []
        for i in range(count):
            spec = generator.generate_spec(
                "networking", (4, 4), sub_seed(seed, self.name, i, "spec"))
            out.append(Input(
                f"networking-{i}", {"spec": model.emit_spec(spec)},
                dict(budget, seed=sub_seed(seed, self.name, i, "compare")),
            ))
        return out

    def setup(self, inp: Input):
        return model.parse_spec(inp.docs["spec"])

    def call(self, inp: Input, spec):
        result = dse.compare_approaches(spec, repetitions=1, **inp.args)
        a = inp.args
        evaluations = len(result.modes) * result.repetitions * (
            a["population"] + a["iterations"] * a["offspring"])
        return evaluations, result

    def check(self, inp: Input, spec, result) -> tuple:
        return check_comparison(result)


class ValidateNetworking:
    """adversarial_sweep on networking 2x2, the simulator's platform family.

    The mapping is decoded once, in set-up; the call is all simulation.
    """

    name = "validate-networking"
    unit = "trials"
    aliases = {"throughput_per_s": ("trials_per_s", "trials/s")}

    def inputs(self, seed: int, smoke: bool) -> list[Input]:
        count, trials = (1, 2) if smoke else (32, 4)
        out = []
        for i in range(count):
            spec = generator.generate_spec(
                "networking", (2, 2), sub_seed(seed, self.name, i, "spec"))
            rng = Random(sub_seed(seed, self.name, i, "genotype"))
            for _ in range(1000):
                result = mapping.decode(spec, mapping.random_genotype(spec, rng))
                if result.feasible:
                    break
            else:
                raise RuntimeError(f"{self.name}: no feasible genotype for input {i}")
            full = result.to_doc()
            doc = {k: full[k] for k in ("bindings", "core_flags", "tile_flags")}
            out.append(Input(
                f"networking2x2-{i}",
                {"spec": model.emit_spec(spec), "mapping": json.dumps(doc, sort_keys=True)},
                {"trials": trials, "seed": sub_seed(seed, self.name, i, "sweep")},
            ))
        return out

    def setup(self, inp: Input):
        spec = model.parse_spec(inp.docs["spec"])
        return spec, mapping.load_mapping_doc(spec, json.loads(inp.docs["mapping"]))

    def call(self, inp: Input, state):
        spec, mapped = state
        return inp.args["trials"], simoracle.adversarial_sweep(spec, mapped, **inp.args)

    def check(self, inp: Input, state, sweep) -> tuple:
        return check_sweep(sweep)


class AnalyzeDense:
    """load_mapping_doc + to_doc on dense telecom graphs, 4x4 mesh.

    The graphs are complete DAGs: 17 tasks and all 136 forward messages,
    so every seed gives 2**15 = 32,768 end-to-end paths and the same path
    work. Random graphs of this density range from 11,000 to 65,000 paths.
    Each mapping packs all tasks onto one seeded tile, round-robin over its
    cores, which keeps every transfer local; the oracle checks that the
    packing is feasible.
    """

    name = "analyze-dense"
    unit = "analyses"
    aliases = {
        "op_ms_p50": ("analyze_ms_p50", "ms/analysis"),
        "op_ms_p90": ("analyze_ms_p90", "ms/analysis"),
    }

    def inputs(self, seed: int, smoke: bool) -> list[Input]:
        tasks, specs, tiles = (5, 1, 1) if smoke else (17, 2, 3)
        out = []
        for j in range(specs):
            spec = generator.generate_spec(
                "telecom", (4, 4), sub_seed(seed, self.name, j, "spec"),
                tasks=tasks, messages=tasks * (tasks - 1) // 2)
            text = model.emit_spec(spec)
            rng = Random(sub_seed(seed, self.name, j, "tiles"))
            for tile in rng.sample(spec.architecture.tiles, tiles):
                doc = {"bindings": {
                    t.id: tile.cores[k % len(tile.cores)].id
                    for k, t in enumerate(spec.application.tasks)
                }}
                out.append(Input(
                    f"telecom-{j}-{tile.id}",
                    {"spec": text, "mapping": json.dumps(doc, sort_keys=True)}, {},
                ))
        return out

    def setup(self, inp: Input):
        return model.parse_spec(inp.docs["spec"])

    def call(self, inp: Input, spec):
        result = mapping.load_mapping_doc(spec, json.loads(inp.docs["mapping"]))
        return 1, (result, result.to_doc())

    def check(self, inp: Input, spec, outcome) -> tuple:
        result, doc = outcome
        return check_analysis(spec.application, result, doc)


WORKLOADS = {w.name: w for w in (
    ExploreConsumer(), CompareNetworking(), ValidateNetworking(), AnalyzeDense(),
)}
