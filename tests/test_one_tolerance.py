"""The verdict modules share one tolerance, ``model.TOL``, through
``model.within`` and ``model.agree``: no second named tolerance and no
inline one.

``pft`` and ``intersection`` are outside this check.  Their small numbers
(the covariance floor and ring margin, the symmetry check and jitter, the
division guard) shape the geometry of flow tubes and of the traffic
model; none of them judges a budget, an objective or a tie.
"""

import ast
import re
from pathlib import Path

import mccssp

MODULES = ("model", "risk", "ilp", "oracles", "selftest", "cli", "grid", "io")
NAMED = re.compile(r".+_(TOL|SLACK|GAP)$")
# ``pft fit``'s covariance floor for a single-trajectory cluster: a fitting
# value, not a verdict tolerance
ALLOWED = {("cli", 1e-4)}


def _tree(module):
    path = Path(mccssp.__file__).parent / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _module_names(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [
            getattr(node, "target", None)
        ]
        for target in targets:
            if isinstance(target, ast.Name):
                yield node, target.id


def test_one_named_tolerance():
    named = [
        f"{module}.{name}"
        for module in MODULES
        for _, name in _module_names(_tree(module))
        if NAMED.match(name)
    ]
    assert named == []
    tol = [node for node, name in _module_names(_tree("model")) if name == "TOL"]
    assert len(tol) == 1 and mccssp.model.TOL == 1e-9


def test_no_inline_tolerance():
    found = []
    for module in MODULES:
        tree = _tree(module)
        # the one literal allowed is TOL's own value
        own = {
            id(node)
            for assign, name in _module_names(tree)
            if module == "model" and name == "TOL"
            for node in ast.walk(assign)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < node.value < 1e-3
                and (module, node.value) not in ALLOWED
                and id(node) not in own
            ):
                found.append(f"{module}.py:{node.lineno}: {node.value!r}")
    assert found == []
