"""The package stays pure standard library: every absolute import in its
modules names a module of the standard library (relative imports stay inside
the package)."""

import ast
import sys
from pathlib import Path

import pytest

import hypercover

MODULES = sorted(Path(hypercover.__file__).resolve().parent.glob("*.py"))


def absolute_imports(path):
    """The top-level name of each absolute import in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"__init__", "core", "cli", "gf2", "oracles"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    outside = sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
    assert outside == [], f"{path.name} imports {outside}"
