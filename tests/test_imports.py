"""Every name imported into a library module is used there, every
module-level private function or class is referenced there, every public
function or method is named by the library, its re-exports or the benchmark,
and the benchmark's tracer finds and restores every library name it patches.

No lint tool ships with the project, so this walks each module's syntax tree
with the standard library. Package ``__init__`` re-exports are exempt from the
unused-import check.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import hotplug
from hotplug import autodiff as ad, encoders, losses, peft, training

SRC = Path(hotplug.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def called_only_by_tests(sources: dict, users: list) -> list:
    """Public module-level functions and methods of ``sources`` (module name to
    source) that nothing names outside their own definitions: no module of
    ``sources``, a package ``__init__`` re-export included, and no source in
    ``users``. A name counts wherever it appears: called, read as an attribute
    or imported."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = {}
    for tree in [*trees.values(), *map(ast.parse, users)]:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            named.setdefault(name, set()).add(id(node))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node, node.name)]
            elif isinstance(node, ast.ClassDef):
                defs = [(item, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for fn, qualname in defs:
                own = set(map(id, ast.walk(fn)))
                if not fn.name.startswith("_") and not named.get(fn.name, set()) - own:
                    found.append((module, fn.lineno, qualname))
    return sorted(found)


def test_guard_flags_public_code_that_only_tests_call():
    sources = {
        "encoders.py": ("def encode_image():\n    pass\n"
                        "def encode_image_forked():\n    return encode_image()\n"
                        "def image_site_output(n):\n    return image_site_output(n - 1)\n"
                        "def reexported():\n    pass\n"),
        "peft.py": ("from .encoders import encode_image\n"
                    "class Adapted:\n"
                    "    def encode(self):\n        return encode_image()\n"
                    "    def encode_with_backbone(self):\n        return self.encode()\n"
                    "    def hook_output(self):\n        return self.hook_output()\n"
                    "    def bench_only(self):\n        pass\n"
                    "    def _private(self):\n        pass\n"),
        "__init__.py": "from .encoders import reexported\n",
    }
    users = ["from hotplug.peft import Adapted\nAdapted().bench_only()\n"]
    assert called_only_by_tests(sources, users) == [
        ("encoders.py", 3, "encode_image_forked"),
        ("encoders.py", 5, "image_site_output"),
        ("peft.py", 5, "Adapted.encode_with_backbone"),
        ("peft.py", 7, "Adapted.hook_output"),
    ]


def test_no_public_code_that_only_tests_call():
    sources = {path.name: path.read_text() for path in [*MODULES, SRC / "__init__.py"]}
    users = [path.read_text() for path in PERFBENCH.glob("*.py")]
    assert users, f"no perfbench sources under {PERFBENCH}"
    assert called_only_by_tests(sources, users) == []


def test_the_benchmark_tracer_binds_and_restores_the_library(monkeypatch):
    """perfbench's tracer patches library names from outside; a rename there
    would break its traced rounds only, so one tiny adapter step and one tiny
    LoRA step run under it here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks  # noqa: F401  (the benchmark's checks import the tracer too)
    import tracer

    owners = [mod for name, mod in sys.modules.items()
              if name == "hotplug" or name.startswith("hotplug.")]
    owners += [peft.AdaptedVisualEncoder, peft.LoRAModule, training.AdamW]
    before = [(owner, dict(vars(owner))) for owner in owners]
    cfg = encoders.VisualEncoderConfig(encoders.ImageSpec(8, 8, 1, 4), layers=2,
                                       width=16, heads=2, embed_dim=8)
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(4, 8, 8, 1))
    old = rng.normal(size=(4, 6))
    old = ad.Tensor(old / np.linalg.norm(old, axis=1, keepdims=True))  # old text and image
    unpatched = encoders.encode_image
    tr = tracer.Tracer()
    tr.install()
    try:
        assert peft.encode_image is not unpatched  # bound where peft calls it
        for taca in (peft.TacaConfig(bottleneck=4), peft.TacaConfig(variant="lora", rank=2)):
            attachment, adapted = peft.attach_taca(encoders.init_encoder(cfg, seed=1), taca,
                                                   6, seed=2)
            opt = training.AdamW(attachment.trainable_tensors(), lr=1e-3)
            with ad.new_tape():
                batch = images if taca.variant == "lora" else adapted.fork(images)
                loss, _ = losses.compat_total(adapted.encode(batch), old, old,
                                              losses.CompatLossConfig())
                ad.backward(loss)
                opt.step()
    finally:
        tr.uninstall()
    names = {span[0] for span in tr.spans}
    assert {"autodiff.step", "autodiff.matmul", "autodiff.relu", "autodiff.gelu",
            "autodiff.backward", "encoders.encode_image", "peft.adapted_encode",
            "peft.adapter_forward", "peft.projector_forward",
            "peft.lora_effective_weight", "losses.compat_total",
            "training.AdamW.step"} <= names
    assert tracer.layer_metrics(tr)["autodiff.backward_calls"] == 2
    for owner, bound in before:  # every patched binding is back
        now = vars(owner)
        assert [key for key, value in bound.items() if now.get(key) is not value] == [], owner
