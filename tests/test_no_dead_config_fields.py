"""Every settable config field is read by the library outside its own class."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import mccssp
from mccssp.grid import GridSpec
from mccssp.intersection import ScenarioConfig


@pytest.mark.parametrize("config", [ScenarioConfig, GridSpec])
def test_every_config_field_is_read_outside_its_class(config):
    reads = set()
    for path in sorted(Path(mccssp.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == config.__name__
            for node in ast.walk(cls)
        }
        reads.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in own
        )
    assert [f.name for f in fields(config) if f.name not in reads] == []
