"""Tests of the benchmark itself: metric math, tracer wiring, oracles and a smoke run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from stats import Span, median, self_times, tail_percentile
from tracing import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# metric math


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile([float(x) for x in range(10)]) is None
    assert tail_percentile([float(x) for x in range(1, 12)]) == (9.0, 1.0)
    assert tail_percentile([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    q, value = tail_percentile([float(x) for x in range(1, 1001)])
    assert (q, value) == (99.0, 990.0)
    assert sum(1 for x in range(1, 1001) if x > value) == 10


def test_self_time_subtracts_the_union_of_children_and_hot_time():
    spans = [
        Span("root", 0.0, 10.0, None, hot_s=1.0),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: together they cover 1..5
        Span("a.child", 1.5, 2.5, 1),
        Span("c", 12.0, 13.0, 0),  # outside its parent: covers nothing of it
    ]
    assert self_times(spans) == [5.0, 1.0, 3.0, 1.0, 1.0]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float):
        def work(*_args, **_kwargs):
            self.now += seconds
            return seconds
        return work


def test_tracer_charges_nested_hot_calls_to_the_span_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def outer_hot():
        clock.now += 1.0
        tracer.hot("inner", clock.advance(0.5))

    def body():
        clock.now += 2.0
        tracer.hot("outer", outer_hot)
        tracer.span("child", clock.advance(3.0))

    tracer.span("parent", body)
    metrics = tracer.layer_metrics()
    assert metrics["parent.s"] == 6.5
    assert metrics["parent.self_s"] == 2.0  # 6.5 - 1.5 hot - 3.0 child
    assert metrics["outer.s"] == 1.5 and metrics["outer.calls"] == 1
    assert metrics["inner.s"] == 0.5
    assert metrics["child.self_s"] == 3.0


# ---------------------------------------------------------------------------
# tracer wiring


def test_install_wraps_every_module_that_looks_a_function_up():
    from snoscope import cli, filtering, ingest, metrics, profiling

    originals = (ingest.parse_speedtest_stream, profiling.access_latency, profiling.percentile)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.parse_speedtest_stream is not originals[0]
        assert cli.parse_speedtest_stream is ingest.parse_speedtest_stream
        assert filtering.access_latency is not originals[1]
        assert metrics.percentile is not originals[2]
        assert profiling.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    finally:
        tracer.uninstall()
    assert (ingest.parse_speedtest_stream, filtering.access_latency, metrics.percentile) == originals
    assert tracer.layer_metrics()["profiling.percentile.calls"] == 1
    assert tracer.notes == []


def test_missing_function_is_noted_not_fatal(monkeypatch):
    from snoscope import starlink

    monkeypatch.delattr(starlink, "detect_changes")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.notes == ["starlink.detect_changes not found; its metrics are absent"]
    assert tracer.absent == ["starlink.detect_changes.", "starlink.events"]
    assert tracer.counts["starlink.assignments"] == 0  # present sites report zero counts


def test_stream_wrapper_counts_records_errors_and_bytes(tmp_path):
    from snoscope import ingest

    paths = tmp_path / "paths.txt"
    paths.write_text("2023-01-01T00:00:00Z 1 2\nnot a path\n2023-01-01T00:00:00Z 3 4\n", encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        items = list(ingest.parse_aspath_stream(paths))
    finally:
        tracer.uninstall()
    assert len(items) == 3
    metrics = tracer.layer_metrics()
    assert metrics["ingest.parse_aspath_stream.records"] == 2
    assert metrics["ingest.parse_aspath_stream.errors"] == 1
    assert metrics["ingest.parse_aspath_stream.bytes"] == paths.stat().st_size


# ---------------------------------------------------------------------------
# oracles


def _write_ndjson(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def _classify_fixture(tmp_path: Path, n: int) -> tuple[Path, Path, Path, list[dict]]:
    """n viasat sessions labeled accept and accepted, with a 550 ms relaxed threshold."""
    ids = [f"viasat-13955-{i:06d}" for i in range(n)]
    labels = _write_ndjson(tmp_path / "labels.ndjson", [{"session_id": sid, "expect": "accept"} for sid in ids])
    speedtests = _write_ndjson(tmp_path / "speedtests.ndjson", [
        {"session_id": sid, "snapshots": [{"rtt_ms": 520.0 + k} for k in range(12)]} for sid in ids
    ])
    out = tmp_path / "classify"
    out.mkdir()
    (out / "summary.csv").write_text("sno,orbit,accepted,rejected,threshold_ms\nviasat,GEO,0,0,550.000\n",
                                     encoding="utf-8")
    (out / "anomalies.ndjson").write_text("", encoding="utf-8")
    dispositions = [{"session_id": sid, "sno": "viasat", "stage": "accepted_strict", "reason": None} for sid in ids]
    _write_ndjson(out / "dispositions.ndjson", dispositions)
    return out, labels, speedtests, dispositions


def test_classify_oracle_catches_wrong_missing_and_duplicate_dispositions(tmp_path):
    out, labels, speedtests, good = _classify_fixture(tmp_path, 3)
    assert oracle.check_classify(out, labels, speedtests) == []

    wrong = dict(good[1], stage="rejected", reason="unknown_asn")
    _write_ndjson(out / "dispositions.ndjson", [good[0], wrong, good[0]])
    failures = oracle.check_classify(out, labels, speedtests)
    assert any("more than one disposition" in f for f in failures)
    assert any("1 input sessions have no disposition" in f for f in failures)
    assert any(f"session {wrong['session_id']}: rejected disagrees" in f for f in failures)
    assert any("1 of 3 decisions disagree" in f for f in failures)


def test_classify_oracle_allows_only_confirmed_relaxed_rejections(tmp_path):
    out, labels, speedtests, good = _classify_fixture(tmp_path, 200)
    # Access latency (p5 of 520..531 ms) is 520.55 ms: below the 550 ms threshold.
    below = dict(good[7], stage="rejected", reason="below_threshold")
    _write_ndjson(out / "dispositions.ndjson", good[:7] + [below] + good[8:])
    assert oracle.check_classify(out, labels, speedtests) == []

    (out / "summary.csv").write_text("sno,orbit,accepted,rejected,threshold_ms\nviasat,GEO,0,0,510.000\n",
                                     encoding="utf-8")
    assert oracle.check_classify(out, labels, speedtests) == [
        f"session {below['session_id']}: rejected disagrees with its label"
    ]


def test_bgp_oracle_requires_the_exact_churn(tmp_path):
    out = tmp_path / "report_bgp"
    out.mkdir()
    for name in oracle.PINNED["report_bgp"]:
        (out / name).write_text("", encoding="utf-8")
    expected = {"added_peer": [7], "removed_peer": [5], "added_country": ["PL"], "removed_country": []}
    rows = [{"kind": "added_peer", "value": 7}, {"kind": "removed_peer", "value": 5},
            {"kind": "added_country", "value": "PL"}]
    _write_ndjson(out / "diff.ndjson", rows)
    assert oracle.check_report_bgp(out, expected) == []
    _write_ndjson(out / "diff.ndjson", rows[:2])
    assert oracle.check_report_bgp(out, expected) != []


def test_pinned_digests_cover_every_workload_and_report():
    with open(oracle.DIGESTS_FILE, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert set(pinned) == {"corpus-default", "geo-screen", "pop-peering"}
    for digests in pinned.values():
        assert {k: sorted(v) for k, v in digests.items()} == {k: sorted(v) for k, v in oracle.PINNED.items()}


# ---------------------------------------------------------------------------
# end to end


def test_smoke_runs_all_workloads_with_their_oracles():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"smoke": "pass"}
    assert len(lines) == 7 and all(line["correct"] and line["failed"] == 0 for line in lines[:-1])


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus-default", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
