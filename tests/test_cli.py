"""End-to-end CLI behavior: subcommands, exit codes, atomicity, determinism."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import random
import re
import shutil
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import HOSTILE_LINES, make_session, reference_sessions, session_to_json
from snoscope.cli import Options, build_parser, default_catalog_path, main
from snoscope.ingest import CHUNK_LINES
from snoscope.metrics import SESSION_TABLE_DTYPE, session_metrics
from snoscope.util import sha256_file
from test_synth import small_spec_dict


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def read_ndjson(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def with_bad_line(corpus_dir, tmp_path, bad='{"session_id": "broken"}'):
    """A copy of the corpus with one malformed record as line 2."""
    corrupted = tmp_path / "corrupted.ndjson"
    lines = (corpus_dir / "speedtests.ndjson").read_bytes().splitlines()
    lines.insert(1, bad if isinstance(bad, bytes) else bad.encode("utf-8"))
    corrupted.write_bytes(b"\n".join(lines) + b"\n")
    return corrupted


def with_replaced_file(classify_dir, tmp_path, name, data):
    """A copy of a classify run with one file's bytes replaced, and the manifest's digest of it to match."""
    copy = tmp_path / "classified"
    shutil.copytree(classify_dir, copy)
    (copy / name).write_bytes(data)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["files"][name]["sha256"] = sha256_file(copy / name)
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return copy / "dispositions.ndjson"


def with_row_value(name, value, row=1):
    """A session-table edit: row's value of one column replaced, written as np.save writes it."""

    def edit(data, table):
        table = table.copy()
        table[name][row] = value
        return npy_bytes(table)

    return edit


def report_metrics(speedtests, dispositions, out, *extra):
    argv = ["report", "metrics", "--input", str(speedtests), "--dispositions", str(dispositions), "--out", str(out)]
    return main(argv + list(extra))


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(small_spec_dict()))
    return path


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("corpus")
    code = main(["synth", "--spec", str(spec_file), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def classify_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("classified")
    code = main(["classify", "--input", str(corpus_dir / "speedtests.ndjson"), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def multi_chunk_corpus(tmp_path_factory):
    """A corpus of 1,200 sessions with unique ids, over two parse chunks, and its classify directory."""
    spec = small_spec_dict()
    spec["profiles"][0]["n_sessions"] = 500
    spec["profiles"][1]["n_sessions"] = 700
    work = tmp_path_factory.mktemp("multi-chunk")
    (work / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(work / "spec.json"), "--out", str(work / "corpus")]) == 0
    speedtests = work / "corpus" / "speedtests.ndjson"
    ids = [json.loads(line)["session_id"] for line in speedtests.read_text().splitlines()]
    assert len(ids) == len(set(ids)) == 1200 > 2 * CHUNK_LINES
    assert main(["classify", "--input", str(speedtests), "--out", str(work / "classified")]) == 0
    return speedtests, work / "classified"


class TestSynthCommand:
    def test_writes_manifest_and_corpus(self, corpus_dir, capsys):
        names = {p.name for p in corpus_dir.iterdir()}
        assert names == {
            "speedtests.ndjson",
            "labels.ndjson",
            "traceroutes.ndjson",
            "rdns.csv",
            "as_paths.txt",
            "manifest.json",
        }
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_seed_flag_overrides_spec(self, tmp_path, spec_file, corpus_dir):
        out = tmp_path / "reseeded"
        assert main(["synth", "--spec", str(spec_file), "--out", str(out), "--seed", "99"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 99
        assert sha256_file(out / "speedtests.ndjson") != sha256_file(corpus_dir / "speedtests.ndjson")

    def test_missing_spec_file_is_an_input_error(self, tmp_path, capsys):
        code = main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("profile", "field", "value"),
        [(1, "backup_median_ms", -5), (0, "jitter_ratio", float("inf")), (0, "n_prefixes", 70_000)],
    )
    def test_bad_spec_is_an_input_error(self, tmp_path, capsys, profile, field, value):
        spec = small_spec_dict()
        spec["profiles"][profile][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))  # an infinite value is written as the token Infinity
        code = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "edit",
        [
            lambda spec: spec["profiles"][0].update(sno=5),
            lambda spec: spec["profiles"][0].update(asn=None),
            lambda spec: spec.update(profiles={"starlink": spec["profiles"][0]}),
            lambda spec: spec["profiles"][0].update(components=["LEO"]),
            lambda spec: spec.update(as_paths=[5]),
            lambda spec: spec.update(days=10**7),
            lambda spec: spec["traceroute_plans"][0].update(cadence_hours=1e20),
            # one step after the first measurement falls past year 9999
            lambda spec: spec["traceroute_plans"][0].update(
                start="9999-12-31T00:00:00Z", end="9999-12-31T12:00:00Z", cadence_hours=24.0,
                periods=[{"pop": "a", "rtt_ms": 1.0}],
            ),
        ],
        ids=["int sno", "null asn", "object profiles", "string component", "int as_path", "days past 9999", "1e20 cadence",
             "cadence past 9999"],
    )
    def test_spec_of_wrong_type_or_range_is_an_input_error(self, tmp_path, capsys, edit):
        spec = small_spec_dict()
        edit(spec)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestClassifyCommand:
    def test_outputs_and_manifest(self, corpus_dir, classify_dir):
        names = {p.name for p in classify_dir.iterdir()}
        assert names == {"dispositions.ndjson", "summary.csv", "anomalies.ndjson", "session_metrics.npy", "manifest.json"}
        dispositions = read_ndjson(classify_dir / "dispositions.ndjson")
        n_sessions = len((corpus_dir / "speedtests.ndjson").read_text().splitlines())
        assert len(dispositions) == n_sessions
        for row in dispositions[:5]:
            assert set(row) == {"session_id", "sno", "stage", "reason"}

        manifest = json.loads((classify_dir / "manifest.json").read_text())
        assert manifest["input_sessions"] == n_sessions
        assert manifest["parse_errors"] == 0
        accepted_stages = {"accepted_asn_stage", "accepted_strict", "accepted_relaxed"}
        accepted = sum(1 for d in dispositions if d["stage"] in accepted_stages)
        assert manifest["accepted"] == accepted
        for entry in manifest["files"].values():
            assert set(entry) == {"sha256", "bytes"}

    def test_manifest_records_input_and_settings(self, corpus_dir, classify_dir):
        manifest = json.loads((classify_dir / "manifest.json").read_text())
        speedtests = corpus_dir / "speedtests.ndjson"
        assert manifest["input"] == {"sha256": sha256_file(speedtests), "bytes": speedtests.stat().st_size}
        assert manifest["strictness"] == "lenient"
        assert manifest["parse_error_sample"] == []
        assert manifest["files"]["session_metrics.npy"]["sha256"] == sha256_file(classify_dir / "session_metrics.npy")

    def test_session_table_row_i_describes_disposition_line_i(self, corpus_dir, classify_dir):
        table = np.load(classify_dir / "session_metrics.npy", allow_pickle=False)
        assert table.dtype == SESSION_TABLE_DTYPE
        sessions = {s.session_id: s for s in reference_sessions(corpus_dir / "speedtests.ndjson")}
        dispositions = read_ndjson(classify_dir / "dispositions.ndjson")
        assert len(table) == len(dispositions) == len(sessions)
        for row, disposition in zip(table.tolist(), dispositions):
            m = session_metrics(sessions[disposition["session_id"]])
            retrans = float("nan") if m.retrans_fraction is None else m.retrans_fraction
            np.testing.assert_array_equal(row, (m.day.toordinal(), m.latency_p5_ms, m.jitter_p95_ms, retrans))

    def test_session_table_follows_repeated_session_ids(self, tmp_path):
        # Input order: the GEO "dup" first. Its disposition is decided after the
        # unknown-ASN "dup"'s, so the id sort keeps the unknown-ASN line first.
        sessions = [
            make_session("dup", rtts=[610.0, 600.0, 620.0], client_asn=13955),
            make_session("dup", rtts=[31.0, 30.0, 32.0], client_asn=64512),
            make_session("a-leo", rtts=[51.0, 50.0, 52.0], client_asn=14593),
        ]
        speedtests = tmp_path / "speedtests.ndjson"
        speedtests.write_text("".join(session_to_json(s) + "\n" for s in sessions))
        out = tmp_path / "classified"
        assert main(["classify", "--input", str(speedtests), "--out", str(out)]) == 0
        dispositions = read_ndjson(out / "dispositions.ndjson")
        assert [(d["session_id"], d["reason"]) for d in dispositions] == [
            ("a-leo", None),
            ("dup", "unknown_asn"),
            ("dup", None),
        ]
        table = np.load(out / "session_metrics.npy", allow_pickle=False)
        assert table["latency_p5_ms"].tolist() == [session_metrics(sessions[i]).latency_p5_ms for i in (2, 1, 0)]
        # Each row is attributed by its own line: the unknown-ASN "dup" is not viasat's.
        assert report_metrics(speedtests, out / "dispositions.ndjson", tmp_path / "report") == 0
        boxstats = {row[0]: row for row in read_csv(tmp_path / "report" / "boxstats.csv")}
        assert boxstats["latency:viasat"][6] == "1"

    def test_repeated_ids_are_screened_in_their_own_prefix(self, tmp_path):
        # Ten hughes (GEO) sessions at 600-609 ms make 10.1.2.0/24 pass the strict
        # stage. A 30 ms twin of s0 in another /24, and one of s1 from IPv6, fall
        # below the 600 ms threshold it sets.
        sessions = [
            make_session(f"s{i}", rtts=[600.0 + i] * 2, client_ip=f"10.1.2.{i + 1}", client_asn=28613) for i in range(10)
        ]
        sessions.append(make_session("s0", rtts=[30.0] * 2, client_ip="10.9.9.1", client_asn=28613))
        sessions.append(make_session("s1", rtts=[30.0] * 2, client_ip="2001:db8::1", client_asn=28613))
        speedtests = tmp_path / "speedtests.ndjson"
        speedtests.write_text("".join(session_to_json(s) + "\n" for s in sessions))
        out = tmp_path / "classified"
        assert main(["classify", "--input", str(speedtests), "--out", str(out)]) == 0
        dispositions = [(d["session_id"], d["stage"], d["reason"]) for d in read_ndjson(out / "dispositions.ndjson")]
        assert dispositions[:4] == [
            ("s0", "accepted_strict", None),
            ("s0", "rejected", "below_threshold"),
            ("s1", "accepted_strict", None),
            ("s1", "rejected", "below_threshold"),
        ]
        assert dispositions[4:] == [(f"s{i}", "accepted_strict", None) for i in range(2, 10)]
        assert read_csv(out / "summary.csv")[1:] == [["hughes", "GEO", "10", "2", "600.000"]]
        assert report_metrics(speedtests, out / "dispositions.ndjson", tmp_path / "report") == 0
        boxstats = {row[0]: row[1:] for row in read_csv(tmp_path / "report" / "boxstats.csv")}
        assert boxstats["latency:GEO"] == ["600.45", "602.25", "604.5", "606.75", "608.55", "10"]

    def test_summary_lists_both_operators(self, classify_dir):
        rows = read_csv(classify_dir / "summary.csv")
        assert rows[0] == ["sno", "orbit", "accepted", "rejected", "threshold_ms"]
        by_sno = {row[0]: row for row in rows[1:]}
        assert set(by_sno) == {"starlink", "viasat"}
        assert by_sno["starlink"][1] == "LEO"
        assert by_sno["starlink"][4] == ""  # pure-LEO operators skip the latency stages
        assert by_sno["viasat"][1] == "GEO"

    def test_parallelism_does_not_change_output(self, corpus_dir, classify_dir, tmp_path):
        out = tmp_path / "par8"
        code = main(
            [
                "classify",
                "--input",
                str(corpus_dir / "speedtests.ndjson"),
                "--out",
                str(out),
                "--parallelism",
                "8",
            ]
        )
        assert code == 0
        for name in ("dispositions.ndjson", "summary.csv", "anomalies.ndjson"):
            assert sha256_file(out / name) == sha256_file(classify_dir / name), name

    @pytest.mark.parametrize("seed", range(5))
    def test_line_order_does_not_change_output(self, multi_chunk_corpus, tmp_path, seed):
        speedtests, classified = multi_chunk_corpus
        lines = speedtests.read_bytes().splitlines(keepends=True)
        random.Random(seed).shuffle(lines)
        shuffled = tmp_path / "speedtests.ndjson"
        shuffled.write_bytes(b"".join(lines))
        assert main(["classify", "--input", str(shuffled), "--out", str(tmp_path / "out")]) == 0
        for name in ("dispositions.ndjson", "summary.csv", "anomalies.ndjson", "session_metrics.npy"):
            assert sha256_file(tmp_path / "out" / name) == sha256_file(classified / name), name

    def test_lenient_parsing_skips_bad_lines(self, corpus_dir, tmp_path, capsys):
        corrupted = tmp_path / "corrupted.ndjson"
        lines = (corpus_dir / "speedtests.ndjson").read_text().splitlines()
        lines.insert(1, '{"session_id": "broken"}')
        corrupted.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["classify", "--input", str(corrupted), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parse_errors"] == 1
        assert manifest["input_sessions"] == len(lines) - 1

    def test_strict_parsing_aborts_without_partial_outputs(self, corpus_dir, tmp_path, capsys):
        corrupted = tmp_path / "corrupted.ndjson"
        lines = (corpus_dir / "speedtests.ndjson").read_text().splitlines()
        lines.insert(1, '{"session_id": "broken"}')
        corrupted.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(
            ["classify", "--input", str(corrupted), "--out", str(out), "--strict-parsing"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(HOSTILE_LINES))
    def test_hostile_record_is_a_parse_error(self, corpus_dir, tmp_path, name, capsys):
        corrupted = with_bad_line(corpus_dir, tmp_path, HOSTILE_LINES[name])
        out = tmp_path / "out"
        assert main(["classify", "--input", str(corrupted), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parse_errors"] == 1
        assert [line for line, _ in manifest["parse_error_sample"]] == [2]
        strict_out = tmp_path / "strict"
        assert main(["classify", "--input", str(corrupted), "--out", str(strict_out), "--strict-parsing"]) == 2
        assert "error: line 2: " in capsys.readouterr().err
        assert not strict_out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["classify", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--parallelism", "0"],
            ["--min-tests", "0"],
            ["--global-floor", "-1"],
            ["--meo-min", "600"],  # would invert the band cut points
        ],
    )
    def test_bad_flag_values(self, corpus_dir, tmp_path, extra, capsys):
        argv = [
            "classify",
            "--input",
            str(corpus_dir / "speedtests.ndjson"),
            "--out",
            str(tmp_path / "o"),
        ] + extra
        assert main(argv) == 2

    def test_out_may_not_be_an_input(self, corpus_dir, capsys):
        speedtests = corpus_dir / "speedtests.ndjson"
        assert main(["classify", "--input", str(speedtests), "--out", str(speedtests)]) == 2

    def test_config_file_supplies_defaults_and_flags_win(self, corpus_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_tests": 3, "global_floor_ms": 400.0}))
        out = tmp_path / "out"
        argv = [
            "classify",
            "--config",
            str(config),
            "--input",
            str(corpus_dir / "speedtests.ndjson"),
            "--out",
            str(out),
            "--min-tests",
            "5",
        ]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["min_tests"] == 5  # flag beats config
        assert manifest["global_floor_ms"] == 400.0  # config beats default

    def test_invalid_config_json(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        argv = [
            "classify",
            "--config",
            str(config),
            "--input",
            str(corpus_dir / "speedtests.ndjson"),
            "--out",
            str(tmp_path / "o"),
        ]
        assert main(argv) == 2
        assert "invalid JSON" in capsys.readouterr().err


@pytest.fixture(scope="module")
def metrics_report_dir(tmp_path_factory, corpus_dir, classify_dir):
    out = tmp_path_factory.mktemp("metrics-report")
    code = main(
        [
            "report",
            "metrics",
            "--input",
            str(corpus_dir / "speedtests.ndjson"),
            "--dispositions",
            str(classify_dir / "dispositions.ndjson"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestReportMetrics:
    @pytest.fixture()
    def report_dir(self, metrics_report_dir):
        return metrics_report_dir

    def test_boxstats_groups(self, report_dir):
        rows = read_csv(report_dir / "boxstats.csv")
        assert rows[0] == ["group", "p5", "p25", "p50", "p75", "p95", "n"]
        groups = {row[0] for row in rows[1:]}
        assert "latency:LEO" in groups
        assert "latency:starlink" in groups
        assert "jitter_variability:LEO" in groups
        for row in rows[1:]:
            p5, p25, p50, p75, p95 = map(float, row[1:6])
            assert p5 <= p25 <= p50 <= p75 <= p95

    def test_cdf_excludes_operator_grouping_and_ends_at_one(self, report_dir):
        rows = read_csv(report_dir / "cdf.csv")
        assert rows[0] == ["group", "value", "fraction"]
        groups = {row[0] for row in rows[1:]}
        assert not any(g.startswith("latency:starlink") for g in groups)
        assert "latency:LEO" in groups
        by_group: dict[str, list[float]] = {}
        for group, _, fraction in rows[1:]:
            by_group.setdefault(group, []).append(float(fraction))
        for fractions in by_group.values():
            assert fractions == sorted(fractions)
            assert fractions[-1] == 1.0

    def test_daily_series_per_operator(self, report_dir):
        rows = read_csv(report_dir / "daily.csv")
        assert rows[0] == ["group", "date", "median"]
        groups = {row[0] for row in rows[1:]}
        assert groups <= {"latency:starlink", "latency:viasat"}
        assert "latency:starlink" in groups

    def test_input_from_another_corpus_rejected(self, spec_file, classify_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["synth", "--spec", str(spec_file), "--out", str(other), "--seed", "99"]) == 0
        out = tmp_path / "o"
        assert report_metrics(other / "speedtests.ndjson", classify_dir / "dispositions.ndjson", out) == 2
        assert "is not the corpus that classify read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["dispositions.ndjson", "session_metrics.npy"])
    def test_tampered_classify_output_rejected(self, corpus_dir, classify_dir, tmp_path, name, capsys):
        copy = tmp_path / "classified"
        shutil.copytree(classify_dir, copy)
        data = bytearray((copy / name).read_bytes())
        data[-2] ^= 1
        (copy / name).write_bytes(bytes(data))
        out = tmp_path / "o"
        assert report_metrics(corpus_dir / "speedtests.ndjson", copy / "dispositions.ndjson", out) == 2
        assert f"{name} does not match its digest" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kept", [("dispositions.ndjson",), ("dispositions.ndjson", "manifest.json")])
    def test_dispositions_without_table_rejected(self, corpus_dir, classify_dir, tmp_path, kept, capsys):
        alone = tmp_path / "alone"
        alone.mkdir()
        for name in kept:
            shutil.copy(classify_dir / name, alone / name)
        out = tmp_path / "o"
        assert report_metrics(corpus_dir / "speedtests.ndjson", alone / "dispositions.ndjson", out) == 2
        assert "not found" in capsys.readouterr().err
        assert not out.exists()

    def test_strict_refuses_a_classify_run_that_skipped_records(self, corpus_dir, tmp_path, capsys):
        corrupted = with_bad_line(corpus_dir, tmp_path)
        classified = tmp_path / "classified"
        assert main(["classify", "--input", str(corrupted), "--out", str(classified), "--strict-parsing"]) == 2
        strict_error = capsys.readouterr().err
        assert main(["classify", "--input", str(corrupted), "--out", str(classified)]) == 0
        capsys.readouterr()
        line_no, reason = json.loads((classified / "manifest.json").read_text())["parse_error_sample"][0]
        assert strict_error == f"error: line {line_no}: {reason}\n"
        dispositions = classified / "dispositions.ndjson"
        out = tmp_path / "o"
        assert report_metrics(corrupted, dispositions, out, "--strict-parsing") == 2
        assert capsys.readouterr().err == strict_error
        assert not out.exists()
        assert report_metrics(corrupted, dispositions, out) == 0

    @pytest.mark.parametrize("sample", [[], None, "line 2", [[]], [["2", "bad"]], [[2]]])
    def test_strict_refuses_a_manifest_with_a_malformed_error_sample(self, corpus_dir, tmp_path, sample, capsys):
        corrupted = with_bad_line(corpus_dir, tmp_path)
        classified = tmp_path / "classified"
        assert main(["classify", "--input", str(corrupted), "--out", str(classified)]) == 0
        manifest_path = classified / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["parse_error_sample"] = sample
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "o"
        assert report_metrics(corrupted, classified / "dispositions.ndjson", out, "--strict-parsing") == 2
        assert "lists no [line, reason] sample" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: 5,
            lambda obj: [1],
            lambda obj: {**obj, "sno": ["a"]},
            lambda obj: {**obj, "session_id": 5},
            lambda obj: {**obj, "stage": "accepted"},
        ],
        ids=["number", "array", "array sno", "int session_id", "unknown stage"],
    )
    def test_malformed_disposition_line_is_an_input_error(self, corpus_dir, classify_dir, tmp_path, edit, capsys):
        lines = (classify_dir / "dispositions.ndjson").read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        data = "".join(line + "\n" for line in lines).encode()
        out = tmp_path / "o"
        dispositions = with_replaced_file(classify_dir, tmp_path, "dispositions.ndjson", data)
        assert report_metrics(corpus_dir / "speedtests.ndjson", dispositions, out) == 2
        assert "dispositions.ndjson line 2: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data, table: re.sub(rb"\((\d+),\)", rb"(\1, ", data, count=1), "is not a session table"),
            (lambda data, table: data[:-1], "is not a session table"),
            (
                lambda data, table: npy_bytes(table.astype([(name, "<f8") for name in SESSION_TABLE_DTYPE.names])),
                "is not a session table",
            ),
            (with_row_value("latency_p5_ms", 0.0), "row 1: latency_p5_ms 0.0 is out of range"),
            (with_row_value("latency_p5_ms", float("nan")), "row 1: latency_p5_ms nan is out of range"),
            (with_row_value("latency_p5_ms", -5.0), "row 1: latency_p5_ms -5.0 is out of range"),
            (with_row_value("latency_p5_ms", float("inf")), "row 1: latency_p5_ms inf is out of range"),
            (with_row_value("jitter_p95_ms", -1.0), "row 1: jitter_p95_ms -1.0 is out of range"),
            (with_row_value("jitter_p95_ms", float("nan")), "row 1: jitter_p95_ms nan is out of range"),
            (with_row_value("retrans_fraction", 7.0), "row 1: retrans_fraction 7.0 is out of range"),
            (with_row_value("retrans_fraction", -0.5), "row 1: retrans_fraction -0.5 is out of range"),
            (with_row_value("retrans_fraction", float("-inf")), "row 1: retrans_fraction -inf is out of range"),
            (with_row_value("day", 0), "row 1: day 0 is out of range"),
            (with_row_value("day", date.max.toordinal() + 1), f"row 1: day {date.max.toordinal() + 1} is out of range"),
        ],
        ids=["unclosed shape in header", "truncated body", "wrong dtype", "zero latency", "NaN latency",
             "negative latency", "infinite latency", "negative jitter", "NaN jitter", "retrans above 1",
             "negative retrans", "infinite retrans", "day 0", "day after date.max"],
    )
    def test_malformed_session_table_is_an_input_error(self, corpus_dir, classify_dir, tmp_path, edit, message, capsys):
        data = (classify_dir / "session_metrics.npy").read_bytes()
        table = np.load(classify_dir / "session_metrics.npy", allow_pickle=False)
        out = tmp_path / "o"
        dispositions = with_replaced_file(classify_dir, tmp_path, "session_metrics.npy", edit(data, table))
        assert report_metrics(corpus_dir / "speedtests.ndjson", dispositions, out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_session_table_of_another_length_is_an_input_error(self, corpus_dir, classify_dir, tmp_path, capsys):
        table = np.load(classify_dir / "session_metrics.npy", allow_pickle=False)
        out = tmp_path / "o"
        dispositions = with_replaced_file(classify_dir, tmp_path, "session_metrics.npy", npy_bytes(table[:-1]))
        assert report_metrics(corpus_dir / "speedtests.ndjson", dispositions, out) == 2
        assert f"has {len(table) - 1} rows for the {len(table)} dispositions" in capsys.readouterr().err
        assert not out.exists()

    def test_accepted_operator_missing_from_the_catalog_is_an_input_error(
        self, corpus_dir, classify_dir, tmp_path, capsys
    ):
        entries = json.loads(default_catalog_path().read_text())
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([entry for entry in entries if entry["name"] != "viasat"]))
        lines = read_ndjson(classify_dir / "dispositions.ndjson")
        first = next(i for i, d in enumerate(lines, start=1) if d["sno"] == "viasat" and d["stage"] != "rejected")
        out = tmp_path / "o"
        code = report_metrics(corpus_dir / "speedtests.ndjson", classify_dir / "dispositions.ndjson", out,
                              "--catalog", str(catalog))
        assert code == 2
        assert f"dispositions.ndjson line {first}: operator 'viasat' is not in the catalog" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_dispositions(self, corpus_dir, tmp_path, capsys):
        code = main(
            [
                "report",
                "metrics",
                "--input",
                str(corpus_dir / "speedtests.ndjson"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "--dispositions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["files"].update({"dispositions.ndjson": 5}),
            lambda m: m["files"].update({"session_metrics.npy": None}),
            lambda m: m["files"]["dispositions.ndjson"].update(sha256=5),
            lambda m: m["files"]["session_metrics.npy"].pop("sha256"),
            lambda m: m.update(input=[]),
            lambda m: m["input"].update(sha256=None),
            lambda m: m["input"].update(sha256=["0" * 64]),
        ],
        ids=["int file entry", "null file entry", "int file sha256", "no file sha256", "array input",
             "null input sha256", "array input sha256"],
    )
    def test_manifest_digest_of_wrong_type_is_an_input_error(self, corpus_dir, classify_dir, tmp_path, edit, capsys):
        copy = tmp_path / "classified"
        shutil.copytree(classify_dir, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        edit(manifest)
        (copy / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "o"
        assert report_metrics(corpus_dir / "speedtests.ndjson", copy / "dispositions.ndjson", out) == 2
        assert "records no sha256 string" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def trace_report_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("trace-report")
    code = main(
        [
            "report",
            "traceroute",
            "--input",
            str(corpus_dir / "traceroutes.ndjson"),
            "--rdns",
            str(corpus_dir / "rdns.csv"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestReportTraceroute:
    @pytest.fixture()
    def report_dir(self, trace_report_dir):
        return trace_report_dir

    def test_timeline_has_both_assignments(self, report_dir):
        timeline = read_ndjson(report_dir / "timeline.ndjson")
        assert [(row["probe_id"], row["pop"]) for row in timeline] == [
            (1001, "sydnaus1"),
            (1001, "akldnzl1"),
        ]
        assert timeline[0]["n"] == 10
        assert timeline[1]["n"] == 10
        assert abs(timeline[0]["median_rtt_ms"] - 53.0) < 5.0
        assert abs(timeline[1]["median_rtt_ms"] - 33.0) < 5.0

    def test_single_pop_change_event(self, report_dir):
        events = read_ndjson(report_dir / "events.ndjson")
        changes = [e for e in events if e["kind"] == "pop_change"]
        assert len(changes) == 1
        event = changes[0]
        assert event["before_pop"] == "sydnaus1"
        assert event["after_pop"] == "akldnzl1"
        assert event["at"] == "2022-05-06T00:00:00Z"

    def test_country_rtt_uses_pop_locations(self, report_dir):
        rows = read_csv(report_dir / "country_rtt.csv")
        assert rows[0][0] == "country"
        by_country = {row[0]: row for row in rows[1:]}
        assert set(by_country) == {"AU", "NZ"}
        assert int(by_country["AU"][6]) == 10

    def test_probe_pops_inventory(self, report_dir):
        rows = read_csv(report_dir / "probe_pops.csv")
        assert rows[0] == ["probe_id", "pop", "city", "country_code", "lat", "lon"]
        cities = {row[2] for row in rows[1:]}
        assert cities == {"Sydney", "Auckland"}

    def test_probe_without_gateway_crossings_counts_with_an_empty_timeline(self, corpus_dir, tmp_path, capsys):
        lines = (corpus_dir / "traceroutes.ndjson").read_text().splitlines()
        for line in lines[:3]:  # the same paths from a probe whose gateway hop is gone
            obj = json.loads(line)
            obj["probe_id"] = 1002
            obj["hops"] = [h for h in obj["hops"] if h["replies"][0]["ip"] != "100.64.0.1"]
            lines.append(json.dumps(obj))
        corpus = tmp_path / "traceroutes.ndjson"
        corpus.write_text("\n".join(lines) + "\n")
        argv = ["report", "traceroute", "--input", str(corpus), "--rdns", str(corpus_dir / "rdns.csv")]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert "report traceroute: 2 probes, 2 assignments, 1 events" in capsys.readouterr().out
        assert {row["probe_id"] for row in read_ndjson(tmp_path / "o" / "timeline.ndjson")} == {1001}

    def test_requires_rdns(self, corpus_dir, tmp_path, capsys):
        code = main(
            [
                "report",
                "traceroute",
                "--input",
                str(corpus_dir / "traceroutes.ndjson"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "--rdns" in capsys.readouterr().err


# report traceroute's outputs on the default corpus (bundled spec, seed 20230501).
DEFAULT_TRACEROUTE_DIGESTS = {
    "country_rtt.csv": "a346dc19a9b9f82b7814c2adf0e12bbd79a9eee6231b9a72c27b5ac0258b28ce",
    "events.ndjson": "9edd9f4ece3a632c6b9eafcc223ffe373bf1db5b495eee04e36939b6da30966b",
    "probe_pops.csv": "98bf32cc44ff4f54d9d5eb117048b0cf5c5336a6813581390c652dda04048d88",
    "timeline.ndjson": "f4118960e883939396cdf891bbd1e8eee3595de27394f9a4b13157f4eff35779",
}


def test_report_traceroute_digests_on_the_default_corpus(default_corpus, tmp_path):
    argv = ["report", "traceroute", "--input", str(default_corpus["traceroutes.ndjson"])]
    assert main(argv + ["--rdns", str(default_corpus["rdns.csv"]), "--out", str(tmp_path)]) == 0
    assert {name: sha256_file(tmp_path / name) for name in DEFAULT_TRACEROUTE_DIGESTS} == DEFAULT_TRACEROUTE_DIGESTS


# classify's and report metrics' outputs on the default corpus (bundled spec, seed 20230501).
DEFAULT_CLASSIFY_DIGESTS = {
    "anomalies.ndjson": "34542569ad4a2997c04ca2008f275bc4cf071f3747720167e5caf3e51f52cff7",
    "dispositions.ndjson": "e92564929b6fd1b2a67e1624d0a544567a008a69ffb39d2b4160d099d140b993",
    "manifest.json": "fab492dd00b0aaced023226a1430f8e2e278446d9899349c463aad76bbfd8fd4",
    "session_metrics.npy": "94ec79fee7823113d7dacce39d3d153a7359211ba0821147fd30b9eaefc659f3",
    "summary.csv": "3c8667efbeb2f4e17f179ff9f72112d22cf338a0368237beec855f0f4831c02c",
}
DEFAULT_METRICS_DIGESTS = {
    "boxstats.csv": "ee803b693ec5abd649911c103ccac7a5b59c821f356c507f46ca3c3bd79653cf",
    "cdf.csv": "7a9833f1bf03e8dc6c76f0aa81a3dd44c7ff49abf6a1fb5485cffa6b72ae3fd0",
    "daily.csv": "07a19d2e7c02b1284fd55ea96b715d853ac6c3fc5ed75883739b27af3b3acc42",
}


def test_classify_and_report_metrics_digests_on_the_default_corpus(default_corpus, tmp_path):
    speedtests = default_corpus["speedtests.ndjson"]
    classified, report = tmp_path / "classified", tmp_path / "report"
    assert main(["classify", "--input", str(speedtests), "--out", str(classified)]) == 0
    assert {name: sha256_file(classified / name) for name in DEFAULT_CLASSIFY_DIGESTS} == DEFAULT_CLASSIFY_DIGESTS
    assert report_metrics(speedtests, classified / "dispositions.ndjson", report) == 0
    assert {name: sha256_file(report / name) for name in DEFAULT_METRICS_DIGESTS} == DEFAULT_METRICS_DIGESTS


@pytest.fixture(scope="module")
def registry_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bgp-in") / "registry.csv"
    path.write_text("asn,country_code\n3356,US\n1299,SE\n174,US\n")
    return path


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    base = tmp_path_factory.mktemp("bgp-snaps")
    before = base / "before.txt"
    before.write_text("2023-01-01T00:00:00Z 3356 14593\n2023-01-01T00:00:00Z 174 3356 14593\n")
    after = base / "after.txt"
    after.write_text("2023-06-01T00:00:00Z 1299 14593\n2023-06-01T00:00:00Z 174 1299 14593\n")
    return before, after


class TestReportBgp:
    def test_single_snapshot_report(self, tmp_path, registry_file, snapshots):
        before, _ = snapshots
        out = tmp_path / "out"
        code = main(
            [
                "report",
                "bgp",
                "--input",
                str(before),
                "--sno",
                "starlink",
                "--registry",
                str(registry_file),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"graph.dot", "countries.csv"}
        dot = (out / "graph.dot").read_text()
        assert '"14593" [role="focus"' in dot
        assert '"3356" [country="US"' in dot
        assert '"14593" -- "3356";' in dot
        countries = read_csv(out / "countries.csv")
        assert countries == [["snapshot", "country"], ["current", "US"]]

    def test_two_snapshot_diff(self, tmp_path, registry_file, snapshots):
        before, after = snapshots
        out = tmp_path / "out"
        code = main(
            [
                "report",
                "bgp",
                "--input",
                str(before),
                str(after),
                "--sno",
                "starlink",
                "--registry",
                str(registry_file),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"graph_before.dot", "graph_after.dot", "countries.csv", "diff.ndjson"}
        diff = read_ndjson(out / "diff.ndjson")
        assert {(d["kind"], d["value"]) for d in diff} == {
            ("added_peer", 1299),
            ("removed_peer", 3356),
            ("added_country", "SE"),
            ("removed_country", "US"),
        }
        countries = read_csv(out / "countries.csv")
        assert countries == [["snapshot", "country"], ["before", "US"], ["after", "SE"]]

    def test_coverage_written_when_pops_given(self, tmp_path, registry_file, snapshots):
        before, _ = snapshots
        pops = tmp_path / "pops.csv"
        pops.write_text(
            "code,city,country_code,lat,lon\n"
            "sttlwax1,Seattle,US,47.6062,-122.3321\n"
            "sthmswe1,Stockholm,SE,59.3293,18.0686\n"
        )
        out = tmp_path / "out"
        code = main(
            [
                "report",
                "bgp",
                "--input",
                str(before),
                "--sno",
                "starlink",
                "--registry",
                str(registry_file),
                "--pops",
                str(pops),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "coverage.csv")
        assert rows[0] == ["snapshot", "country_fraction", "city_fraction", "truth_countries", "truth_cities"]
        assert rows[1] == ["current", "0.5", "0.5", "2", "2"]

    def test_malformed_pops_leaves_out_as_it_was(self, tmp_path, registry_file, snapshots, capsys):
        pops = tmp_path / "pops.csv"
        pops.write_text("code,city,country_code,lat,lon\nsttlwax1,Seattle,USA,47.6062,-122.3321\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "graph_before.dot").write_text("from an earlier run\n")
        argv = ["report", "bgp", "--input", *map(str, snapshots), "--sno", "starlink", "--registry", str(registry_file),
                "--pops", str(pops), "--out", str(out)]
        assert main(argv) == 2
        assert "bad country code" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == {"graph_before.dot": b"from an earlier run\n"}

    def test_unknown_operator(self, tmp_path, registry_file, snapshots, capsys):
        before, _ = snapshots
        code = main(
            [
                "report",
                "bgp",
                "--input",
                str(before),
                "--sno",
                "nonesuch",
                "--registry",
                str(registry_file),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2

    def test_requires_sno_and_registry(self, tmp_path, registry_file, snapshots, capsys):
        before, _ = snapshots
        base = ["report", "bgp", "--input", str(before), "--out", str(tmp_path / "o")]
        assert main(base + ["--registry", str(registry_file)]) == 2
        assert main(base + ["--sno", "starlink"]) == 2

    def test_duplicate_inputs_rejected(self, tmp_path, registry_file, snapshots, capsys):
        before, _ = snapshots
        code = main(
            [
                "report",
                "bgp",
                "--input",
                str(before),
                str(before),
                "--sno",
                "starlink",
                "--registry",
                str(registry_file),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "twice" in capsys.readouterr().err


class TestArgumentSurface:
    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_out_is_required(self, corpus_dir, capsys):
        code = main(["classify", "--input", str(corpus_dir / "speedtests.ndjson")])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_log_level_env_var_is_honored(self, corpus_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SNO_SCOPE_LOG", "DEBUG")
        out = tmp_path / "out"
        code = main(["classify", "--input", str(corpus_dir / "speedtests.ndjson"), "--out", str(out)])
        assert code == 0


# The flags each subcommand registers: exactly the options it reads, plus --config.
FLAGS = {
    ("synth",): {"--config", "--out", "--seed", "--spec"},
    ("classify",): {"--config", "--input", "--out", "--catalog", "--parallelism", "--strict-parsing",
                    "--global-floor", "--min-tests", "--meo-min", "--geo-min"},
    ("report", "metrics"): {"--config", "--input", "--out", "--dispositions", "--catalog", "--strict-parsing"},
    ("report", "traceroute"): {"--config", "--input", "--out", "--rdns", "--pop-table", "--strict-parsing"},
    ("report", "bgp"): {"--config", "--input", "--out", "--sno", "--registry", "--pops", "--catalog",
                        "--strict-parsing"},
}


def registered_flags(parser, path):
    for name in path:
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = subparsers.choices[name]
    return {a.option_strings[-1] for a in parser._actions if a.option_strings and a.dest != "help"}


def classify_with_config(corpus_dir, tmp_path, config, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["classify", "--config", str(path), "--input", str(corpus_dir / "speedtests.ndjson"), "--out", str(out)]
    return main(argv + list(extra)), out


class TestOptionTable:
    def test_each_subcommand_registers_only_the_flags_it_reads(self):
        parser = build_parser()
        assert {path: registered_flags(parser, path) for path in FLAGS} == FLAGS
        assert sum(len(flags) for flags in FLAGS.values()) == 34

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "traceroute", "--min-tests", "3"],
            ["synth", "--strict-parsing"],
            ["report", "bgp", "--parallelism", "8"],
            ["report", "metrics", "--seed", "1"],
            ["classify", "--pop-table", "pops.csv"],
        ],
    )
    def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(tmp_path / "o")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"strict_parsing": "false"}, "strict_parsing"),
            ({"strict_parsing": 0}, "strict_parsing"),
            ({"min_tests": 2.7}, "min_tests"),
            ({"min_tests": True}, "min_tests"),
            ({"min_tests": [1]}, "min_tests"),
            ({"min_test": 3}, "min_test"),
            ({"parallelism": None}, "parallelism"),
            ({"parallelism": 0}, "parallelism"),
            ({"catalog": [1]}, "catalog"),
            ({"out": 5}, "out"),
            ({"input": "corpus/speedtests.ndjson"}, "input"),
            ({"input": [3]}, "input"),
            ({"global_floor_ms": "527"}, "global_floor_ms"),
            ({"geo_min_ms": 1e400}, "geo_min_ms"),
            ({"seed": -1}, "seed"),
            ({"rdns": 5}, "rdns"),  # read by another subcommand, and still checked
            ({"sno": ""}, "sno"),
        ],
    )
    def test_bad_config_value_is_an_input_error(self, corpus_dir, tmp_path, config, key, capsys):
        code, out = classify_with_config(corpus_dir, tmp_path, config)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and key in err
        assert not out.exists()

    def test_config_checked_even_where_a_flag_overrides_it(self, corpus_dir, tmp_path, capsys):
        code, out = classify_with_config(corpus_dir, tmp_path, {"min_tests": 2.7}, "--min-tests", "3")
        assert code == 2
        assert "min_tests must be an integer" in capsys.readouterr().err

    def test_config_keys_of_other_subcommands_are_allowed(self, corpus_dir, tmp_path):
        config = {"min_tests": 3, "strict_parsing": False, "seed": 5, "rdns": "rdns.csv", "sno": "starlink"}
        code, out = classify_with_config(corpus_dir, tmp_path, config)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["min_tests"], manifest["strictness"]) == (3, "lenient")

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--global-floor", "nan"], "--global-floor must be finite"),
            (["--global-floor", "inf"], "--global-floor must be finite"),
            (["--geo-min", "inf"], "--geo-min must be finite"),
            (["--meo-min=-inf"], "--meo-min must be finite"),
            (["--min-tests", "0"], "--min-tests must be >= 1"),
        ],
    )
    def test_non_finite_or_out_of_bound_flag_is_an_input_error(self, corpus_dir, tmp_path, extra, message, capsys):
        out = tmp_path / "o"
        assert main(["classify", "--input", str(corpus_dir / "speedtests.ndjson"), "--out", str(out)] + extra) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_argv(tmp_path_factory, spec_file, corpus_dir, classify_dir, registry_file, snapshots, bundled_pop_table):
    """Per subcommand: an argv that passes every path option as a flag, and its config file."""
    work = tmp_path_factory.mktemp("fuzz")
    config = work / "config.json"
    catalog = ["--catalog", str(default_catalog_path())]
    speedtests = ["--input", str(corpus_dir / "speedtests.ndjson")]
    argvs = {
        "synth": ["synth", "--spec", str(spec_file)],
        "classify": ["classify", *speedtests, *catalog],
        "report metrics": ["report", "metrics", *speedtests, *catalog,
                           "--dispositions", str(classify_dir / "dispositions.ndjson")],
        "report traceroute": ["report", "traceroute", "--input", str(corpus_dir / "traceroutes.ndjson"),
                              "--rdns", str(corpus_dir / "rdns.csv"), "--pop-table", str(bundled_pop_table)],
        "report bgp": ["report", "bgp", "--input", *map(str, snapshots), "--sno", "starlink",
                       "--registry", str(registry_file), "--pops", str(bundled_pop_table), *catalog],
    }
    return config, {name: argv + ["--config", str(config), "--out", str(work / "out")] for name, argv in argvs.items()}


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
# Small values of each option type, drawn often enough that many configs pass their checks and run.
TYPED_JSON = {
    "int": st.integers(0, 30),
    "float": st.floats(0.0, 1000.0),
    "bool": st.booleans(),
    "str": st.text(min_size=1, max_size=8),
    "Path": st.text(min_size=1, max_size=8),
    "tuple[Path, ...]": st.lists(st.text(min_size=1, max_size=8), max_size=2),
}
OPTION_FIELDS = {f.name: f for f in dataclasses.fields(Options)}


def mostly(common, rare):
    """Draws from common three times in four, else from rare."""
    return st.sampled_from([common, common, common, rare]).flatmap(lambda strategy: strategy)


def config_value(key):
    """Any JSON value; for an option key, mostly one of its own type."""
    if key not in OPTION_FIELDS:
        return ANY_JSON
    return mostly(TYPED_JSON[OPTION_FIELDS[key].type.removesuffix(" | None")], ANY_JSON)


def bounded_parallelism(config):
    """A valid parallelism drawn above 4 is folded into 1..4; invalid values stay."""
    value = config.get("parallelism")
    if type(value) is int and value >= 1:
        config["parallelism"] = 1 + (value - 1) % 4
    return config


# Any JSON object whose keys are option keys or random strings.
CONFIGS = (
    st.lists(mostly(st.sampled_from(sorted(OPTION_FIELDS)), st.text(max_size=10)), max_size=4, unique=True)
    .flatmap(lambda keys: st.fixed_dictionaries({key: config_value(key) for key in keys}))
    .map(bounded_parallelism)
)


@pytest.mark.parametrize("subcommand", [" ".join(path) for path in FLAGS])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=CONFIGS)
def test_any_config_exits_0_or_2(fuzz_argv, subcommand, config, capsys):
    path, argvs = fuzz_argv
    path.write_text(json.dumps(config))
    try:
        code = main(argvs[subcommand])
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2), config
