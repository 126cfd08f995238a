"""Spans around calls into the library's public functions, from outside.

``Patches`` replaces module and class attributes and puts them back; a
function imported by name into other ``mccssp`` modules is replaced under
every alias, so calls between modules are seen too.  ``Tracer`` records one
span per wrapped call (name, start, end, parent, request id) and counts
read at the same boundary; everything stays in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("pft", "intersection", "model", "ilp", "risk", "oracles", "grid", "selftest")

# Spans whose entry starts a new request: a job (``simulate``), a planning
# step, a grid cell, a selftest instance.  These calls return before the
# work they begin (the step's solve, the cell's build and solve), so the id
# holds in the caller's scope until the next root there or the end of the
# caller's span; outside every span the id is 0.
REQUEST_ROOTS = (
    "intersection.simulate",
    "intersection.build_instance",
    "grid.generate",
    "selftest.random_instance",
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def replace_function(self, original, make_wrapper):
        """Replace ``original`` wherever an ``mccssp`` module binds it."""
        wrapper = make_wrapper(original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("mccssp"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)
        return wrapper

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Spans kept in flat arrays, which the garbage collector never scans,
    so a long trace does not slow the code that runs after it."""

    def __init__(self):
        self.names = []  # span names; spans refer to them by index
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.counts = defaultdict(float)
        self._stack = []
        self._requests = [0]  # the request of each open scope, outermost first
        self._next_request = 1

    def __len__(self):
        return len(self.start)

    def span(self, name, fn, count=None):
        """Wrap ``fn``; ``count(result, args, kwargs)`` returns counts to add,
        computed in a ``bench.count`` span so layer self times exclude it."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        root = name in REQUEST_ROOTS

        def wrapper(*args, **kwargs):
            if root:
                self._requests[-1] = self._next_request
                self._next_request += 1
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self._requests[-1])
            self.end.append(0)
            self._stack.append(index)
            self._requests.append(self._requests[-1])
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter_ns()
                self._stack.pop()
                self._requests.pop()
                if not self._stack:
                    self._requests[0] = 0
            if count is not None:
                self.run_as("bench.count", lambda: self._add(count(result, args, kwargs)))
            return result

        return wrapper

    def run_as(self, name, thunk):
        return self.span(name, thunk)()

    def _add(self, counts):
        for key, value in counts.items():
            self.counts[key] += value

    def span_names(self):
        return [self.names[i] for i in self.name_id]

    def self_times(self):
        """Per-span self time in seconds: duration minus direct children."""
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        self_ns = duration.astype(np.float64)
        np.subtract.at(self_ns, parent[has_parent], duration[has_parent])
        return self_ns / 1e9

    def covered_seconds(self, start_ns, end_ns):
        """Seconds of [start_ns, end_ns] inside some top-level span."""
        top = np.frombuffer(self.parent, dtype=np.int32) < 0
        starts = np.maximum(np.frombuffer(self.start, dtype=np.int64)[top], start_ns)
        ends = np.minimum(np.frombuffer(self.end, dtype=np.int64)[top], end_ns)
        return float(np.clip(ends - starts, 0, None).sum()) / 1e9

    def dump(self, path):
        with open(path, "w") as handle:
            for i in range(len(self.start)):
                handle.write(
                    json.dumps(
                        {"name": self.names[self.name_id[i]], "start_ns": self.start[i],
                         "end_ns": self.end[i], "parent": self.parent[i],
                         "request": self.request[i]}
                    )
                    + "\n"
                )


def install(tracer, patches):
    """Wrap the public functions each layer metric is read from."""
    import scipy.optimize

    from mccssp import grid, ilp, intersection, model, oracles, pft, risk, selftest

    def fn(original, name, count=None):
        patches.replace_function(original, lambda f: tracer.span(name, f, count))

    def model_size(result, args, kwargs):
        matrix = result.matrix
        return {
            "ilp.models": 1,
            "ilp.cols": matrix.n_cols,
            "ilp.binaries": int(sum(matrix.integrality)),
            "ilp.rows": matrix.n_rows,
            "ilp.nnz": sum(len(row[3]) for row in matrix.rows),
        }

    def layer_size(result, args, kwargs):
        return {
            "model.layer_calls": 1,
            "model.layer_states": sum(
                len(layer) for layers_i in result for layer in layers_i.layers
            ),
        }

    def milp_nodes(result, args, kwargs):
        return {"ilp.highs_nodes": getattr(result, "mip_node_count", None) or 0}

    fn(pft.pft_from_path, "pft.tube")
    fn(pft.step_probability_matrix, "pft.step_matrix")
    fn(pft.window_risk, "pft.window_risk")
    patches.set(
        intersection.Scenario, "pair_risk",
        tracer.span("intersection.pair_risk", intersection.Scenario.pair_risk),
    )
    fn(intersection.build_intersection_instance, "intersection.build_instance",
       lambda r, a, k: {"intersection.instances": 1,
                        "intersection.points": len(r[0].interactions)})
    fn(intersection.simulate, "intersection.simulate",
       lambda r, a, k: {"intersection.mccssp_jobs": 1,
                        "intersection.throughput_vpm": r.throughput_vpm}
       if r.planner == "mccssp" else {})
    fn(model.reachable_layers, "model.layers", layer_size)
    fn(model.validate_instance, "model.validate")
    fn(ilp.build_ilp, "ilp.build", model_size)
    fn(ilp.solve, "ilp.solve")
    fn(ilp.solve_instance, "ilp.solve_instance")
    fn(ilp.extract_policy, "ilp.extract")
    patches.set(
        ilp.ScipyHighsBackend, "solve",
        tracer.span("ilp.backend", ilp.ScipyHighsBackend.solve),
    )
    patches.set(scipy.optimize, "milp", tracer.span("ilp.milp", scipy.optimize.milp, milp_nodes))
    fn(risk.execution_risk, "risk.execution_risk")
    fn(risk.interaction_execution_risk, "risk.interaction_risk")
    fn(risk.linear_risk_from_flows, "risk.linear_form")
    fn(oracles.brute_force_optimal, "oracles.brute_force",
       lambda r, a, k: {"oracles.policies_evaluated": r.policies_evaluated})
    fn(oracles.fcfs_plan, "oracles.fcfs")
    fn(selftest.run_oracle_equivalence, "selftest.run")
    fn(selftest.random_instance, "selftest.random_instance")
    fn(selftest.check_instance, "selftest.check_instance")
    fn(grid.benchmark_rows, "grid.benchmark_rows")
    fn(grid.generate_grid_instance, "grid.generate")


def span_cost_seconds(calls=20_000):
    """Extra seconds one traced call costs over a plain call, measured on a
    no-op function (median of five batches)."""
    probe = Tracer()

    def noop():
        return None

    traced = probe.span("probe", noop)

    def per_call(fn):
        batches = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            batches.append((time.perf_counter() - start) / calls)
        return sorted(batches)[2]

    return per_call(traced) - per_call(noop)


def layer_metrics(tracer, window_start_ns, window_end_ns):
    """Per-layer metrics of one traced run, with their units."""
    self_s = tracer.self_times()
    by_name = defaultdict(lambda: [0.0, 0])
    for name, seconds in zip(tracer.span_names(), self_s):
        entry = by_name[name]
        entry[0] += seconds
        entry[1] += 1

    def total(name):
        return by_name[name][0] if name in by_name else 0.0

    def calls(name):
        return by_name[name][1] if name in by_name else 0

    def mean_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    def per(count, base):
        n = tracer.counts.get(base, 0.0)
        return tracer.counts.get(count, 0.0) / n if n else 0.0

    backend_ms = 0.0
    backend_calls = calls("ilp.backend")
    if backend_calls:
        inclusive = sum(
            tracer.end[i] - tracer.start[i]
            for i, name in enumerate(tracer.span_names())
            if name == "ilp.backend"
        )
        backend_ms = inclusive / 1e6 / backend_calls

    window_s = (window_end_ns - window_start_ns) / 1e9
    metrics = {
        "pft.step_matrix_s": (total("pft.step_matrix"), "s"),
        "pft.step_matrix_calls": (calls("pft.step_matrix"), "count"),
        "pft.window_risk_s": (total("pft.window_risk"), "s"),
        "pft.tube_s": (total("pft.tube"), "s"),
        "intersection.pair_risk_s": (total("intersection.pair_risk"), "s"),
        "intersection.build_instance_ms": (mean_ms("intersection.build_instance"), "ms"),
        "intersection.points": (per("intersection.points", "intersection.instances"), "count"),
        "intersection.throughput_vpm": (
            per("intersection.throughput_vpm", "intersection.mccssp_jobs"), "1/min"
        ),
        "model.layers_ms": (mean_ms("model.layers"), "ms"),
        "model.layer_states": (per("model.layer_states", "model.layer_calls"), "count"),
        "ilp.build_ms": (mean_ms("ilp.build"), "ms"),
        "ilp.cols": (per("ilp.cols", "ilp.models"), "count"),
        "ilp.binaries": (per("ilp.binaries", "ilp.models"), "count"),
        "ilp.rows": (per("ilp.rows", "ilp.models"), "count"),
        "ilp.nnz": (per("ilp.nnz", "ilp.models"), "count"),
        "ilp.highs_ms": (backend_ms, "ms"),
        "ilp.highs_calls": (backend_calls, "count"),
        "ilp.highs_nodes": (tracer.counts.get("ilp.highs_nodes", 0.0), "count"),
        "ilp.milp_calls": (calls("ilp.milp"), "count"),
        "ilp.solve_self_ms": (mean_ms("ilp.solve"), "ms"),
        "ilp.extract_ms": (mean_ms("ilp.extract"), "ms"),
        "risk.execution_risk_ms": (mean_ms("risk.execution_risk"), "ms"),
        "oracles.brute_force_s": (total("oracles.brute_force"), "s"),
        "oracles.policies_evaluated": (
            tracer.counts.get("oracles.policies_evaluated", 0.0), "count"
        ),
        "oracles.fcfs_ms": (mean_ms("oracles.fcfs"), "ms"),
        "selftest.random_instance_s": (total("selftest.random_instance"), "s"),
        "grid.generate_s": (total("grid.generate"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v[0] for k, v in by_name.items() if k.split(".")[0] == layer), "s"
        )
    metrics["trace.spans"] = (len(tracer), "count")
    metrics["trace.uncovered_share"] = (
        1.0 - tracer.covered_seconds(window_start_ns, window_end_ns) / window_s, "share"
    )
    # spans cost time inside the window; the share is relative to the
    # window without them
    overhead_s = len(tracer) * span_cost_seconds()
    metrics["trace.overhead_share"] = (overhead_s / (window_s - overhead_s), "share")
    return metrics


def dominant_layer(tracer, start_ns):
    """Layer with the most self time among spans that start at or after
    ``start_ns``, with its share of all layer self time there."""
    self_s = tracer.self_times()
    per_layer = defaultdict(float)
    for name, start, seconds in zip(tracer.span_names(), tracer.start, self_s):
        layer = name.split(".")[0]
        if start >= start_ns and layer in LAYERS:
            per_layer[layer] += seconds
    if not per_layer:
        return None, 0.0
    layer = max(per_layer, key=per_layer.get)
    return layer, per_layer[layer] / sum(per_layer.values())
