"""Library modules reach other objects only through public names."""

import ast
from pathlib import Path

import mccssp


def test_library_modules_read_no_private_attribute_of_another_object():
    modules = sorted(Path(mccssp.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    reads = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert reads == []
