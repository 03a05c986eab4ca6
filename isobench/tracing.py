"""Traced runs: spans and counts recorded around the calls into each module.

A wrapper goes on the attribute that the caller looks up at call time: the
module attribute for `module.function` calls, the importing module's name
for names imported with `from ... import`, and the class attribute for
methods and properties. Wrappers are installed only around the traced
operations and the originals are put back afterwards. A target that the
program no longer has fails the traced operation, so a renamed or inlined
function cannot read as a layer that takes no time.

Spans (name, start, end, parent) stay in flat arrays until the cycle ends.
A span's self time is its duration minus its direct children's durations;
a module's self time sums the self time of the spans named after it.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

from isoexplore import dse, kernels, mapping, model, scheduling, simoracle, timing
from isoexplore.errors import BoundViolation

MODULES = ("model", "arbitration", "kernels", "scheduling", "timing",
           "mapping", "dse", "simoracle")
KERNELS = ("ceil_div", "task_bus_slots", "bus_stall", "core_stall", "task_response",
           "min_task_weight", "msg_bus_slots", "adapter_latency", "route_latency",
           "msg_traversal", "min_msg_weight")
REASONS = {"no": "weight", "core": "core", "tx": "tx", "rx": "rx", "link": "link"}

# name -> unit, in report order; every traced run reports all of them.
LAYER_METRICS = {
    "model.parse_s": "s", "model.paths": "count", "model.paths_s": "s",
    "arbitration.make_tuple_calls": "count", "arbitration.make_tuple_s": "s",
    "kernels.calls": "count", "kernels.s": "s",
    "scheduling.task_weight_calls": "count", "scheduling.task_weight_s": "s",
    "scheduling.msg_weight_calls": "count", "scheduling.msg_weight_s": "s",
    "scheduling.feasibility_s": "s", "scheduling.refine_s": "s",
    "scheduling.policy_rebuilds": "count",
    "timing.wcrt_calls": "count", "timing.wcrt_s": "s", "timing.wctt_s": "s",
    "timing.makespan_calls": "count", "timing.makespan_s": "s",
    "mapping.decodes": "count", "mapping.decode_self_s": "s",
    "mapping.route_s": "s", "mapping.objectives_s": "s",
    "mapping.digest_calls": "count", "mapping.digest_s": "s",
    "mapping.feasible_ratio": "ratio", "mapping.unique_ratio": "ratio",
    **{f"mapping.infeasible.{r}": "count" for r in (*REASONS.values(), "other")},
    "dse.generations": "count", "dse.archive_add_s": "s", "dse.epsilon_s": "s",
    "dse.nondominated_s": "s", "dse.archive_size": "count",
    "simoracle.trials": "count", "simoracle.simulate_s": "s",
    "simoracle.events": "count", "simoracle.events_per_s": "1/s",
    "simoracle.tightness_max": "ratio", "simoracle.violations": "count",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_pct": "%",
}
# Counts that depend on the inputs alone; they must repeat exactly.
EXACT = tuple(k for k, u in LAYER_METRICS.items() if u in ("count", "ratio"))
# Counts taken from the results of wrapped calls.
RESULT_COUNTS = ("model.paths", "mapping.decodes", "dse.generations", "dse.archive_size",
                 "simoracle.events", "simoracle.tightness_max", "simoracle.violations",
                 *(k for k in LAYER_METRICS if k.startswith("mapping.infeasible.")))


class Tracer:
    """Spans and counts of one traced cycle."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = dict.fromkeys(RESULT_COUNTS, 0)
        self.feasible = 0
        self.decoded: set = set()
        self.scope = 0              # index of the operation being traced

    def wrap(self, name: str, fn, done=None, failed=None):
        """`fn` recording one span per call; `done(result)` sees each result
        and `failed(exception)` each exception."""
        nid = self.names.setdefault(name, len(self.names))
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if done is not None:
                done(out)
            return out

        return traced

    # -- counts taken from results

    def _paths(self, paths) -> None:
        self.counts["model.paths"] += len(paths)

    def _decoded(self, result) -> None:
        c = self.counts
        c["mapping.decodes"] += 1
        self.decoded.add((self.scope, result.mode, tuple(sorted(result.bindings.items())),
                          result.reserved_cores, result.reserved_tiles))
        if result.feasible:
            self.feasible += 1
        else:
            kind = REASONS.get(str(result.reason).split(" ", 1)[0], "other")
            c[f"mapping.infeasible.{kind}"] += 1

    def _explored(self, result) -> None:
        self.counts["dse.generations"] += len(result.trace) - 1
        self.counts["dse.archive_size"] += len(result.archive)

    def _simulated(self, trial) -> None:
        self.counts["simoracle.events"] += trial.events

    def _swept(self, sweep) -> None:
        c = self.counts
        c["simoracle.tightness_max"] = max(
            c["simoracle.tightness_max"],
            max(sweep.worst[k] / sweep.bounds[k] for k in sweep.bounds))

    def _sweep_failed(self, exc) -> None:
        if isinstance(exc, BoundViolation):
            self.counts["simoracle.violations"] += 1

    # -- installation

    def targets(self):
        """(owner, attribute, span name, result hook, exception hook) of every
        wrapped call."""
        out = [
            (model, "parse_spec", "model.parse_spec", None, None),
            (model, "end_to_end_paths", "model.end_to_end_paths", self._paths, None),
            (scheduling, "make_tuple", "arbitration.make_tuple", None, None),
            (scheduling, "reduce_capacity", "arbitration.reduce_capacity", None, None),
            *((kernels, f, f"kernels.{f}", None, None) for f in KERNELS),
        ]
        out += [(scheduling, f, f"scheduling.{f}", None, None) for f in (
            "min_task_weight", "min_message_weight", "check_feasibility",
            "refine_tuples", "extended_bus_policy", "extended_core_policy",
            "bus_master_tuple")]
        out += [(timing, f, f"timing.{f}", None, None) for f in (
            "wcrt", "bus_interference", "core_preemption", "tx_latency",
            "noc_latency", "rx_latency", "makespan", "throughput")]
        out += [
            (dse, "decode", "mapping.decode", self._decoded, None),
            (mapping, "load_mapping_doc", "mapping.load_mapping_doc", self._decoded, None),
            (mapping, "route_instances", "mapping.route_instances", None, None),
            (mapping, "resource_usage", "mapping.resource_usage", None, None),
            (mapping, "energy", "mapping.energy", None, None),
            (mapping, "effective_mem_demand", "mapping.effective_mem_demand", None, None),
            (simoracle, "effective_mem_demand", "mapping.effective_mem_demand", None, None),
            (mapping.MappingResult, "digest", "mapping.digest", None, None),
            (dse, "explore", "dse.explore", self._explored, None),
            (dse, "compare_approaches", "dse.compare_approaches", None, None),
            (dse.ParetoArchive, "add", "dse.ParetoArchive.add", None, None),
            (dse, "epsilon_dominance", "dse.epsilon_dominance", None, None),
            (dse, "nondominated", "dse.nondominated", None, None),
            (simoracle, "simulate", "simoracle.simulate", self._simulated, None),
            (simoracle, "adversarial_sweep", "simoracle.adversarial_sweep",
             self._swept, self._sweep_failed),
        ]
        return out

    @contextmanager
    def installed(self, scope: int):
        """Wrap every target for the duration of one operation."""
        self.scope = scope
        saved = []
        try:
            for owner, attr, name, done, failed in self.targets():
                original = owner.__dict__.get(attr)
                if original is None:
                    raise AttributeError(f"{owner.__name__} has no {attr} to trace")
                saved.append((owner, attr, original))
                if isinstance(original, property):
                    wrapped = property(self.wrap(name, original.fget, done, failed))
                else:
                    wrapped = self.wrap(name, original, done, failed)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (times in s)."""
        k = len(self.names)
        calls, incl, own = [0] * k, [0.0] * k, [0.0] * k
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = array("d", bytes(8 * len(start)))
        # Children follow their parent, so a backward pass sees each span's
        # children before the span itself.
        for i in range(len(start) - 1, -1, -1):
            d = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
            n = name_of[i]
            calls[n] += 1
            incl[n] += d
            own[n] += d - child[i]
        ids = self.names

        def n_calls(*names):
            return sum(calls[ids[x]] for x in names if x in ids)

        def incl_s(*names):
            return sum(incl[ids[x]] for x in names if x in ids)

        def self_s(*names):
            return sum(own[ids[x]] for x in names if x in ids)

        m = dict(self.counts)
        decodes = m["mapping.decodes"]
        m["mapping.feasible_ratio"] = self.feasible / decodes if decodes else 0.0
        m["mapping.unique_ratio"] = len(self.decoded) / decodes if decodes else 0.0
        simulate_s = incl_s("simoracle.simulate")
        m.update({
            "model.parse_s": incl_s("model.parse_spec"),
            "model.paths_s": incl_s("model.end_to_end_paths"),
            "arbitration.make_tuple_calls": n_calls("arbitration.make_tuple"),
            "arbitration.make_tuple_s": incl_s("arbitration.make_tuple"),
            "kernels.calls": n_calls(*(f"kernels.{f}" for f in KERNELS)),
            "kernels.s": incl_s(*(f"kernels.{f}" for f in KERNELS)),
            "scheduling.task_weight_calls": n_calls("scheduling.min_task_weight"),
            "scheduling.task_weight_s": incl_s("scheduling.min_task_weight"),
            "scheduling.msg_weight_calls": n_calls("scheduling.min_message_weight"),
            "scheduling.msg_weight_s": incl_s("scheduling.min_message_weight"),
            "scheduling.feasibility_s": incl_s("scheduling.check_feasibility"),
            "scheduling.refine_s": incl_s("scheduling.refine_tuples"),
            "scheduling.policy_rebuilds": n_calls(
                "scheduling.extended_bus_policy", "scheduling.extended_core_policy"),
            "timing.wcrt_calls": n_calls("timing.wcrt"),
            "timing.wcrt_s": incl_s("timing.wcrt"),
            "timing.wctt_s": incl_s("timing.tx_latency", "timing.noc_latency",
                                    "timing.rx_latency"),
            "timing.makespan_calls": n_calls("timing.makespan"),
            "timing.makespan_s": incl_s("timing.makespan"),
            "mapping.decode_self_s": self_s("mapping.decode", "mapping.load_mapping_doc"),
            "mapping.route_s": incl_s("mapping.route_instances"),
            "mapping.objectives_s": incl_s("mapping.resource_usage", "mapping.energy"),
            "mapping.digest_calls": n_calls("mapping.digest"),
            "mapping.digest_s": incl_s("mapping.digest"),
            "dse.archive_add_s": incl_s("dse.ParetoArchive.add"),
            "dse.epsilon_s": incl_s("dse.epsilon_dominance"),
            "dse.nondominated_s": incl_s("dse.nondominated"),
            "simoracle.trials": n_calls("simoracle.simulate"),
            "simoracle.simulate_s": simulate_s,
            "simoracle.events_per_s": m["simoracle.events"] / simulate_s if simulate_s else 0.0,
            "trace.spans": len(self.start),
        })
        for module in MODULES:
            m[f"{module}.self_s"] = self_s(*(x for x in ids if x.split(".")[0] == module))
        # Ranking, selection and variation: explore and compare minus every
        # traced child (decodes, archive adds, the epsilon trace).
        m["dse.self_s"] = self_s("dse.explore", "dse.compare_approaches")
        return m
