"""Every name imported into a library module is used there.

No lint tool ships with the project, so this walks each module's syntax tree
with the standard library. Package ``__init__`` re-exports are exempt.
"""

import ast
from pathlib import Path

import pytest

import hotplug

MODULES = sorted(p for p in Path(hotplug.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nfrom math import pi, tau as t\n"
              "print(os.path.sep, t)\n")
    assert unused_imports(source) == [(2, "json"), (4, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
