"""Every name imported into a library module is used there, and every
module-level private function or class is referenced there.

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


def dead_helpers(source: str) -> list:
    """Module-level ``_private`` functions and classes that nothing in the
    module names outside their own definitions."""
    tree = ast.parse(source)
    dead = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            own = set(map(id, ast.walk(node)))
            if not any(isinstance(n, ast.Name) and n.id == node.name and id(n) not in own
                       for n in ast.walk(tree)):
                dead.append((node.lineno, node.name))
    return dead


def test_guard_flags_a_dead_helper():
    source = ("def _used():\n    pass\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Orphan:\n    pass\n"
              "def public():\n    def _nested():\n        pass\n    return _used\n")
    assert dead_helpers(source) == [(3, "_recursive"), (5, "_Orphan")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_helpers(path):
    assert dead_helpers(path.read_text()) == []
