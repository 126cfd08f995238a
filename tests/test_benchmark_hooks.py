"""The benchmark under ``perfbench/`` patches library names as attributes:
the tracing spans and each workload's hooks.  Installing and undoing them
here makes a renamed or removed name fail in the test suite, not only when
the benchmark runs."""

import os
import sys

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
