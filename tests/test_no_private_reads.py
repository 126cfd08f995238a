"""Library modules reach other objects only through public names, and they
import no private name from another package but one: scipy's HiGHS
binding, which ``ilp.ScipyHighsBackend`` calls directly (ROADMAP item 2
accepts its private path as the cost of skipping ``scipy.optimize.milp``'s
wrapper)."""

import ast
from pathlib import Path

import mccssp

ALLOWED_PRIVATE_MODULE = "scipy.optimize._highspy._core"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _allowed(dotted: str) -> bool:
    return dotted == ALLOWED_PRIVATE_MODULE or dotted.startswith(ALLOWED_PRIVATE_MODULE + ".")


def private_imports(tree) -> list:
    """Absolute imports that name a private module or member, except the
    allowed module and its members."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            f"{node.lineno}: {name}"
            for name in names
            if any(_private(part) for part in name.split(".")) and not _allowed(name)
        ]
    return found


def private_reads(tree) -> list:
    """Private attributes read off anything but self, cls or a name bound to
    the allowed module by an ``import ... as`` or ``from ... import``."""
    allowed_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            allowed_names |= {
                a.asname for a in node.names if a.asname and a.name == ALLOWED_PRIVATE_MODULE
            }
        elif isinstance(node, ast.ImportFrom):
            allowed_names |= {
                a.asname or a.name
                for a in node.names
                if f"{node.module}.{a.name}" == ALLOWED_PRIVATE_MODULE
            }
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and _private(node.attr)
        and not (
            isinstance(node.value, ast.Name)
            and node.value.id in {"self", "cls"} | allowed_names
        )
    ]


def _library_trees():
    modules = sorted(Path(mccssp.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def test_library_modules_read_no_private_attribute_of_another_object():
    reads = [f"{name}:{read}" for name, tree in _library_trees() for read in private_reads(tree)]
    assert reads == []


def test_library_modules_import_no_private_name_of_another_package():
    imports = [f"{name}:{i}" for name, tree in _library_trees() for i in private_imports(tree)]
    assert imports == []


def test_private_name_checks_flag_every_import_form_but_the_allowed_module():
    source = "\n".join([
        "import numpy._core",
        "import scipy.optimize._highspy._core",
        "from scipy.optimize import _milp",
        "from scipy.optimize._linprog_highs import HighsModelStatus",
        "from scipy.optimize._highspy._core import _Highs",
        "from scipy.optimize._highspy import _core as highs",
        "from scipy.optimize import _highspy as hp",
        "from . import _local",
        "highs._Highs()",
        "hp._core",
        "scipy.optimize._highspy",
    ])
    tree = ast.parse(source)
    assert private_imports(tree) == [
        "1: numpy._core",
        "3: scipy.optimize._milp",
        "4: scipy.optimize._linprog_highs.HighsModelStatus",
        "7: scipy.optimize._highspy",
    ]
    assert private_reads(tree) == ["10: hp._core", "11: scipy.optimize._highspy"]
