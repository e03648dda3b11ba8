"""The package's sources stay within the declared Python floor (requires-python >= 3.10)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import snoscope

SOURCES = sorted(Path(snoscope.__file__).parent.glob("*.py"))


def test_every_module_is_found():
    assert {"cli.py", "ingest.py", "util.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
