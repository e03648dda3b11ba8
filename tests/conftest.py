"""Shared fixtures: packaged tables and a session-scoped synthetic corpus."""

from __future__ import annotations

import json
import multiprocessing
from importlib import resources
from pathlib import Path

import pytest

from snoscope.ingest import parse_catalog
from snoscope.synth import GeneratorSpec, gen_corpus


@pytest.fixture(autouse=True)
def no_process_left():
    """Every test, and each classify run in it, leaves no worker process running."""
    yield
    assert multiprocessing.active_children() == []


def packaged(name: str) -> Path:
    return Path(str(resources.files("snoscope").joinpath("data", name)))


@pytest.fixture(scope="session")
def bundled_catalog():
    return parse_catalog(packaged("catalog.json"))


@pytest.fixture(scope="session")
def bundled_pop_table() -> Path:
    return packaged("pop_locations.csv")


@pytest.fixture(scope="session")
def default_spec() -> GeneratorSpec:
    return GeneratorSpec.from_file(packaged("default_synth_spec.json"))


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory, default_spec) -> dict[str, Path]:
    """Generate the full default corpus once for the whole test run."""
    out_dir = tmp_path_factory.mktemp("default-corpus")
    return gen_corpus(default_spec, out_dir)


@pytest.fixture(scope="session")
def default_labels(default_corpus) -> dict[str, dict]:
    labels = {}
    with open(default_corpus["labels.ndjson"], encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            labels[row["session_id"]] = row
    return labels
