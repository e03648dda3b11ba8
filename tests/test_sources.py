"""The package's sources: within the declared Python floor (requires-python >= 3.10), each public definition
reached, and each name the benchmark harness reads present."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import snoscope
from helpers import make_session, session_to_json
from snoscope.filtering import run_pipeline
from snoscope.ingest import RecordError, parse_speedtest_stream

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


def test_the_benchmark_finds_what_it_reads(monkeypatch, bundled_catalog):
    """Every layer function perfbench/tracing.py wraps, and the run_pipeline call of perfbench/run.py.

    A traced benchmark run without one of them lacks metrics it declares.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    modules = {site.module: importlib.import_module(f"snoscope.{site.module}") for site in tracing.SITES}
    missing = [site.name for site in tracing.SITES if not hasattr(modules[site.module], site.function)]
    assert missing == []
    assert "workers" in inspect.signature(run_pipeline).parameters
    lines = [session_to_json(make_session(f"s-{i}", client_asn=asn)) for i, asn in enumerate([14593, 13955, 64500])]
    items = list(parse_speedtest_stream([lines[0], "{", *lines[1:]]))
    rows = [item for item in items if not isinstance(item, RecordError)]
    assert run_pipeline(rows, bundled_catalog, workers=2).input_count == len(rows) == 3
