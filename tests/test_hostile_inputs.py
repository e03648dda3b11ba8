"""Hostile inputs: byte-mutated files exit 0 or 2, never 1, and an input error leaves --out as it was.

Each case mutates one of a small classify run's dispositions.ndjson, its
session table or the catalog, with flips, deletions, splices and inserted tokens;
the classify manifest's digests are recomputed, so the mutated files reach
the loaders rather than the digest check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snoscope.cli import SESSION_TABLE_NAME, default_catalog_path, main
from snoscope.util import sha256_file
from test_synth import small_spec_dict

DISPOSITIONS = "dispositions.ndjson"
CATALOG = "catalog.json"
TOKENS = [b"\xff", b"null", b"1e999", b'"', b"[]", b"\n"]


@pytest.fixture(scope="module")
def classify_run(tmp_path_factory):
    """A 300-session corpus, its classify run and a copy of the bundled catalog."""
    base = tmp_path_factory.mktemp("hostile")
    spec = small_spec_dict()
    spec["profiles"][0]["n_sessions"] = 120
    spec["profiles"][1]["n_sessions"] = 180
    (base / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(base / "spec.json"), "--out", str(base / "corpus")]) == 0
    speedtests = base / "corpus" / "speedtests.ndjson"
    assert main(["classify", "--input", str(speedtests), "--out", str(base / "classified")]) == 0
    shutil.copy(default_catalog_path(), base / CATALOG)
    return speedtests, base


def mutate(draw, data: bytes) -> bytes:
    """One or two flips, deletions, splices, token inserts or same-length token overwrites.

    Half fall within the first 160 bytes, where the table's header and the first lines are.
    """
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["flip", "flip", "overwrite", "delete", "splice", "insert"]))
        at = draw(st.integers(0, min(len(data), 160)) | st.integers(0, len(data)))
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1 :]
        elif kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 64)) :]
        elif kind == "splice":
            start = draw(st.integers(0, len(data)))
            data = data[:at] + data[start : start + draw(st.integers(1, 64))] + data[at:]
        elif kind in ("insert", "overwrite"):
            token = draw(st.sampled_from(TOKENS))
            data = data[:at] + token + data[at + (len(token) if kind == "overwrite" else 0) :]
    return data


def snapshot(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_report_metrics_on_mutated_classify_files(classify_run, data):
    speedtests, base = classify_run
    target = data.draw(st.sampled_from([DISPOSITIONS, SESSION_TABLE_NAME, CATALOG]))
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        work = Path(tmp)
        classified = work / "classified"
        shutil.copytree(base / "classified", classified)
        shutil.copy(base / CATALOG, work / CATALOG)
        path = work / CATALOG if target == CATALOG else classified / target
        path.write_bytes(mutate(data.draw, path.read_bytes()))
        manifest = json.loads((classified / "manifest.json").read_text())
        for name in (DISPOSITIONS, SESSION_TABLE_NAME):
            manifest["files"][name]["sha256"] = sha256_file(classified / name)
        (classified / "manifest.json").write_text(json.dumps(manifest))
        out = work / "out"
        out.mkdir()
        (out / "boxstats.csv").write_bytes(b"an earlier run's table\n")
        before = snapshot(out)

        argv = ["report", "metrics", "--input", str(speedtests), "--dispositions", str(classified / DISPOSITIONS),
                "--catalog", str(work / CATALOG), "--out", str(out)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2), stderr.getvalue()
        if code == 2:
            assert snapshot(out) == before
            assert stderr.getvalue().splitlines()[-1].startswith("error:"), stderr.getvalue()
