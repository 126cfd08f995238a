"""The benchmark under ``perfbench/`` patches library names as attributes:
the tracing spans and each workload's hooks.  Installing and undoing them
here makes a renamed or removed name fail in the test suite, not only when
the benchmark runs."""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


class RecordedPatches(tracing.Patches):
    """Patches that remember each attribute they replace and its value."""

    def __init__(self):
        super().__init__()
        self.replaced = []

    def set(self, owner, name, value):
        self.replaced.append((owner, name, getattr(owner, name)))
        super().set(owner, name, value)


def _install_and_undo(install):
    patches = RecordedPatches()
    try:
        install(patches)
        assert patches.replaced
        for owner, name, original in patches.replaced:
            assert getattr(owner, name) is not original, f"{owner!r}.{name} not replaced"
    finally:
        patches.undo()
    for owner, name, original in patches.replaced:
        assert getattr(owner, name) is original, f"{owner!r}.{name} not restored"


def test_tracing_spans_install_and_undo():
    _install_and_undo(lambda patches: tracing.install(tracing.Tracer(), patches))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_hooks_install_and_undo(name):
    workload = workloads.WORKLOADS[name]()
    _install_and_undo(
        lambda patches: workload.install(workloads.Run(1, patches, scaled=False))
    )


def test_traced_intersection_step_reports_layers_and_highs_calls(small_scenario):
    """The traced benchmark reads layer sizes off ``reachable_layers``'s
    result and counts backend calls; one traced planning step must show
    both."""
    from mccssp import ilp, intersection

    vehicles = [
        intersection.VehicleState(id=f"v{n}", kind="av", lane=lane, slot=0, arrival_s=float(n))
        for n, lane in enumerate(("N0", "W1"))
    ]
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    start = time.perf_counter_ns()
    try:
        tracing.install(tracer, patches)
        instance, _ = intersection.build_intersection_instance(
            small_scenario, vehicles, green_side="N", horizon=1, delta=0.05
        )
        result = ilp.solve_instance(instance)
    finally:
        patches.undo()
    metrics = tracing.layer_metrics(tracer, start, time.perf_counter_ns())
    assert result.decided_by == "paths"
    assert metrics["model.layer_states"][0] > 0
    assert metrics["ilp.highs_calls"][0] >= 1


def test_grid_scale_round_samples_its_latency_from_grid_solve():
    """GridScale's hooks wrap ``grid.solve`` and take a round's one latency
    sample there, so a sweep that stops calling it would fail every
    grid-scale run; one round must give one sample and pass its checks."""
    workload = workloads.WORKLOADS["grid-scale"]()
    patches = tracing.Patches()
    run = workloads.Run(1, patches, scaled=False)
    try:
        workload.install(run)
        workload.round(run)
    finally:
        patches.undo()
    assert len(run.op_ms) == 1
    assert (run.failed, run.problems) == (0, [])
