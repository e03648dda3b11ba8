"""The package's sources stay within the declared Python floor (requires-python >= 3.10)."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import snoscope

SOURCES = sorted(Path(snoscope.__file__).parent.glob("*.py"))


def test_every_module_is_found():
    assert {"cli.py", "ingest.py", "util.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


ROOT = Path(__file__).resolve().parents[1]


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def _referenced(node: ast.AST) -> list[str]:
    """Every name a subtree uses: bare names, attribute names, and imported names."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name)
    return out


def test_every_public_definition_is_reachable():
    """A public top-level function or class is used by package code, or named in README or perfbench.

    Library code that only its own tests reach is deleted, not kept.
    """
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses = Counter(name for tree in trees.values() for name in _referenced(tree))
    named = (ROOT / "README.md").read_text(encoding="utf-8")
    named += "".join(path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").rglob("*.py")))
    unreached = []
    for module, tree in trees.items():
        for node in _public_definitions(tree):
            outside = uses[node.name] - _referenced(node).count(node.name)
            if outside == 0 and not re.search(rf"\b{re.escape(node.name)}\b", named):
                unreached.append(f"{module}:{node.name}")
    assert unreached == []
