"""Every step after layout takes the laid-out instance alone: a
``LayeredSpace`` carries the instance it was laid out from
(``layers.instance``), so a function that also takes an ``instance``
could read its facts from two copies that disagree."""

import ast
from pathlib import Path

import mccssp

# These ignore their ``instance`` argument; perfbench/tests/test_checks.py
# still passes one, and the benchmark's files change only with the
# benchmark.
KEPT_FOR_THE_BENCHMARK = {"execution_risk", "expected_utility", "dp_optimal_utility"}


def _functions():
    modules = sorted(Path(mccssp.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                yield f"{path.name}:{node.lineno}:{node.name}", node.name, names


def test_no_function_takes_both_an_instance_and_its_layers():
    both = [
        where for where, name, params in _functions()
        if {"instance", "layers"} <= params and name not in KEPT_FOR_THE_BENCHMARK
    ]
    assert both == []


def test_kept_wrappers_still_exist():
    kept = {name for _, name, params in _functions() if {"instance", "layers"} <= params}
    assert kept == KEPT_FOR_THE_BENCHMARK


def test_solve_instance_always_lays_out():
    (params,) = [params for _, name, params in _functions() if name == "solve_instance"]
    assert "layers" not in params
