"""The library reports through logging; only the command line prints."""

import ast
from pathlib import Path

import mccssp


def test_library_modules_do_not_print():
    modules = [
        path for path in sorted(Path(mccssp.__file__).parent.rglob("*.py"))
        if path.name != "cli.py"
    ]
    assert len(modules) >= 10
    calls = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert calls == []
