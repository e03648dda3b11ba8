"""The speed-test row parse over byte ranges and worker processes, against the single-record parse."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import shutil
import signal
import time
from ipaddress import ip_address
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_session, reference_rows, session_to_json
from snoscope import bgp, cli, ingest
from snoscope.cli import main
from snoscope.ingest import (
    RecordError,
    _as_ip,
    _merge_shards,
    parse_speedtest_range,
    parse_speedtest_rows,
    parse_speedtest_stream,
)
from snoscope.util import sha256_file
from test_ingest import mutated_session_lines, mutated_snapshot_lines
from test_synth import small_spec_dict

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def valid_lines():
    """Session lines that pass every check; ids repeat, and some clients are IPv6 or sent no bytes."""
    return st.builds(
        lambda sid, ip, rtts, sent: session_to_json(
            make_session(session_id=sid, client_ip=ip, rtts=rtts, bytes_sent_final=sent, bytes_retrans_final=sent // 3)
        ),
        st.sampled_from(["a", "b", "c-é"]),
        st.sampled_from(["100.1.2.3", "100.1.3.250", "2001:db8::1", "::ffff:1.2.3.4"]),
        st.lists(st.floats(1.0, 900.0), min_size=1, max_size=5),
        st.sampled_from([0, 10, 10_000_000]),
    )


LINES = st.one_of(
    valid_lines().map(str.encode),
    st.sampled_from([b"", b"   ", b"\t", b'{"session_id": "broken"', b"not json", b"\xff\xfe", b"[" * 50_000]),
    mutated_snapshot_lines().map(str.encode),
    mutated_session_lines().map(str.encode),
)


@st.composite
def corpora(draw) -> bytes:
    """A corpus file's bytes: LF or CRLF line ends, and maybe no newline after the last line."""
    lines = draw(st.lists(LINES, max_size=12))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines), max_size=len(lines)))
    data = b"".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        data = data[: -len(ends[-1])]
    return data


def line_starts(data: bytes) -> list[int]:
    return sorted({0, len(data), *(i + 1 for i, byte in enumerate(data) if byte == 0x0A)})


def split(items) -> tuple[str, list[tuple[int, str]]]:
    """The rows (as their repr, which tells NaN apart) and the errors among parse items."""
    items = list(items)
    rows = [item for item in items if not isinstance(item, RecordError)]
    return repr(rows), [(item.line_no, item.reason) for item in items if isinstance(item, RecordError)]


class Hung(BaseException):
    """Raised by deadline; a BaseException, so that main's handlers cannot turn it into an exit code."""


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the block if it runs longer than seconds (forked workers do not inherit the alarm)."""

    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory) -> Path:
    """One path that each example overwrites."""
    return tmp_path_factory.mktemp("sharded") / "speedtests.ndjson"


class TestRangesAgreeWithTheSingleRecordParse:
    @SETTINGS
    @given(data=corpora(), cuts=st.lists(st.integers(0, 10**6), max_size=3), chunk=st.integers(1, 4))
    def test_any_cut_points_and_chunk_size(self, corpus_file, data, cuts, chunk):
        corpus_file.write_bytes(data)
        starts = line_starts(data)
        bounds = [0, *sorted(starts[cut % len(starts)] for cut in cuts), len(data)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_LINES", chunk)
            rows, errors = split(reference_rows(corpus_file))
            assert split(parse_speedtest_stream(corpus_file)) == (rows, errors)
            shards = [parse_speedtest_range(corpus_file, a, b) for a, b in zip(bounds, bounds[1:])]
            assert split(_merge_shards(shards, "lenient")) == (rows, errors)
            strict = [parse_speedtest_range(corpus_file, a, b, "strict") for a, b in zip(bounds, bounds[1:])]
            if errors:
                with pytest.raises(RecordError) as raised:
                    list(_merge_shards(strict, "strict"))
                assert (raised.value.line_no, raised.value.reason) == errors[0]
            else:
                assert split(_merge_shards(strict, "strict")) == (rows, [])

    @settings(SETTINGS, max_examples=25)
    @given(data=corpora(), parallelism=st.integers(1, 4), strict=st.booleans())
    def test_worker_processes(self, corpus_file, data, parallelism, strict):
        corpus_file.write_bytes(data)
        rows, errors = split(reference_rows(corpus_file))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "MIN_SHARD_BYTES", 1)
            patch.setattr(ingest, "usable_cpus", lambda: 4)
            digest = hashlib.sha256()
            stream = parse_speedtest_rows(corpus_file, "strict" if strict else "lenient", digest, parallelism)
            with deadline(60):
                if strict and errors:
                    with pytest.raises(RecordError) as raised:
                        list(stream)
                    assert (raised.value.line_no, raised.value.reason) == errors[0]
                else:
                    assert split(stream) == (rows, [] if strict else errors)
                    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
        assert multiprocessing.active_children() == []

    def test_shard_count_is_capped_by_cpus_and_file_size(self, corpus_file, monkeypatch):
        corpus_file.write_bytes(b"".join(session_to_json(make_session(f"s{i}")).encode() + b"\n" for i in range(40)))
        size = corpus_file.stat().st_size
        monkeypatch.setattr(ingest, "usable_cpus", lambda: 3)
        monkeypatch.setattr(ingest, "MIN_SHARD_BYTES", size // 2)
        assert len(ingest._shard_ranges(corpus_file, 8)) == 2
        assert len(ingest._shard_ranges(corpus_file, 1)) == 1
        monkeypatch.setattr(ingest, "MIN_SHARD_BYTES", 1)
        assert len(ingest._shard_ranges(corpus_file, 8)) == 3
        assert len(ingest._shard_ranges(corpus_file, None)) == 3
        ranges = ingest._shard_ranges(corpus_file, None)
        assert ranges[0][0] == 0 and ranges[-1][1] == size
        assert all(end == start for (_, end), (start, _) in zip(ranges, ranges[1:]))

    def test_an_empty_file_is_one_empty_range(self, corpus_file):
        corpus_file.write_bytes(b"")
        assert ingest._shard_ranges(corpus_file, None) == [(0, 0)]
        assert list(parse_speedtest_rows(corpus_file)) == []


def near_ipv4_text():
    """Dotted text around the canonical IPv4 form."""
    octet = st.one_of(
        st.integers(0, 255).map(str),
        st.integers(0, 255).map(lambda n: f"0{n}"),
        st.sampled_from(["00", "01", "256", "999", "", "-1", "+1", " 1", "١", "1٢", "１", "0x1", "1e2"]),
    )
    quads = st.lists(octet, min_size=3, max_size=5).map(".".join)
    return st.one_of(
        quads,
        quads.map(lambda text: text + "\n"),
        st.sampled_from(["::1", "2001:db8::1", "::ffff:1.2.3.4", "::ffff:01.2.3.4", "1.2.3.4/32", "1.2.3.4%eth0"]),
        st.text(alphabet="0123456789.:", max_size=16),
    )


@SETTINGS
@given(text=near_ipv4_text())
@example("01.2.3.4")
@example("1.2.3.256")
@example("1.2.3.4\n")
@example("١.2.3.4")
@example("1.2.3")
@example("1.2.3.4.5")
@example("1..3.4")
@example("::ffff:1.2.3.4")
def test_as_ip_agrees_with_ip_address(text):
    """The dotted-quad fast path accepts, converts and rejects as ip_address does, with the same error."""
    try:
        reference = ip_address(text) if text else ValueError("client_ip must be a non-empty string")
    except ValueError:
        reference = ValueError(f"client_ip is not an IP address: {text!r}")
    try:
        ip = _as_ip(text, "client_ip")
    except ValueError as exc:
        ip = exc
    assert (type(ip), str(ip)) == (type(reference), str(reference))


def test_record_error_survives_pickling():
    err = pickle.loads(pickle.dumps(RecordError(3, "bad")))
    assert (type(err), err.line_no, err.reason, str(err)) == (RecordError, 3, "bad", "line 3: bad")


# ---------------------------------------------------------------------------
# classify with worker processes


@pytest.fixture(scope="module")
def speedtests(tmp_path_factory) -> Path:
    """A small synth corpus with a malformed record as line 3."""
    work = tmp_path_factory.mktemp("workers")
    (work / "spec.json").write_text(json.dumps(small_spec_dict()))
    assert main(["synth", "--spec", str(work / "spec.json"), "--out", str(work / "corpus")]) == 0
    lines = (work / "corpus" / "speedtests.ndjson").read_bytes().splitlines(keepends=True)
    lines.insert(2, b'{"session_id": "broken"}\n')
    path = work / "speedtests.ndjson"
    path.write_bytes(b"".join(lines))
    return path


@pytest.fixture
def many_shards(monkeypatch):
    monkeypatch.setattr(ingest, "MIN_SHARD_BYTES", 1)
    monkeypatch.setattr(ingest, "usable_cpus", lambda: 4)


OUTPUTS = ("dispositions.ndjson", "summary.csv", "anomalies.ndjson", "session_metrics.npy", "manifest.json")


def test_classify_output_is_the_same_at_any_parallelism(speedtests, tmp_path, many_shards, capsys):
    digests = set()
    for i, parallelism in enumerate([[], ["--parallelism", "1"], ["--parallelism", "2"], ["--parallelism", "4"]]):
        out = tmp_path / f"out{i}"
        with deadline(60):
            assert main(["classify", "--input", str(speedtests), "--out", str(out), *parallelism]) == 0
        digests.add(tuple(sha256_file(out / name) for name in OUTPUTS))
        assert json.loads((out / "manifest.json").read_text())["parse_error_sample"][0][0] == 3
        assert multiprocessing.active_children() == []
    assert len(digests) == 1
    for parallelism in ("1", "4"):
        out = tmp_path / f"strict{parallelism}"
        argv = ["classify", "--input", str(speedtests), "--out", str(out), "--strict-parsing", "--parallelism", parallelism]
        with deadline(60):
            assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: line 3: ")
        assert not out.exists()


def failing_in_workers(exc: BaseException | None):
    """A _parse_chunk that fails in a worker process: raises exc, or with None exits at once."""
    parent, parse_chunk = os.getpid(), ingest._parse_chunk

    def parse(*args, **kwargs):
        if os.getpid() != parent:
            if exc is None:
                os._exit(3)
            raise exc
        return parse_chunk(*args, **kwargs)

    return parse


@pytest.mark.parametrize(
    "exc, code",
    [(RuntimeError("worker bug"), 1), (OSError("worker read failed"), 2), (None, 1)],
    ids=["internal error", "input error", "worker exits"],
)
def test_a_failing_worker_fails_classify_without_outputs(speedtests, tmp_path, many_shards, monkeypatch, exc, code):
    monkeypatch.setattr(ingest, "_parse_chunk", failing_in_workers(exc))
    out = tmp_path / "out"
    with deadline(60):
        assert main(["classify", "--input", str(speedtests), "--out", str(out), "--parallelism", "2"]) == code
    assert not out.exists()
    assert multiprocessing.active_children() == []


def slow_down(monkeypatch, name, seconds):
    """Make each call of ingest.<name> sleep first, in this process and in forked workers.

    A range or snapshot that is not stopped then takes its line count times
    seconds, so a run that waits for it cannot meet a short deadline.
    """
    function = getattr(ingest, name)

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return function(*args, **kwargs)

    monkeypatch.setattr(ingest, name, slow)
    monkeypatch.setattr(ingest, "CHUNK_LINES", 1)


def strict_runs(argv: list[str]) -> list[tuple[int, float, str]]:
    """Exit code, seconds and last stderr line of a strict run at --parallelism 1, then 2."""
    runs = []
    for parallelism in ("1", "2"):
        stderr = io.StringIO()
        start = time.perf_counter()
        with deadline(60), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--strict-parsing", "--parallelism", parallelism])
        runs.append((code, time.perf_counter() - start, stderr.getvalue().splitlines()[-1]))
    return runs


def test_strict_classify_stops_the_later_ranges(speedtests, tmp_path, many_shards, monkeypatch):
    """A bad line 2 ends a 2-range strict parse without waiting for range 2, which would take 2 s."""
    lines = speedtests.read_bytes().splitlines(keepends=True)
    corpus = tmp_path / "speedtests.ndjson"
    corpus.write_bytes(b"".join([lines[0], b"not json\n", *(lines[3:] * 4)]))
    assert len(ingest._shard_ranges(corpus, 2)) == 2
    slow_down(monkeypatch, "_parse_chunk", 0.01)
    out = tmp_path / "out"
    for code, seconds, last in strict_runs(["classify", "--input", str(corpus), "--out", str(out)]):
        assert (code, last) == (2, "error: line 2: invalid JSON: Expecting value")
        assert seconds < 1.0
    assert not out.exists()


def test_strict_report_bgp_stops_the_later_snapshot(tmp_path, many_shards, monkeypatch):
    """A bad first line in the first snapshot ends the run without waiting for the second, which would take 4 s."""
    before, after, registry = tmp_path / "before.txt", tmp_path / "after.txt", tmp_path / "registry.csv"
    path = "2023-01-01T00:00:00Z 3356 14593\n"
    before.write_text("2023-01-01T00:00:00Z AS3356\n" + path * 399)
    after.write_text(path * 400)
    registry.write_text("asn,country_code\n3356,US\n")
    slow_down(monkeypatch, "aspath_from_line", 0.01)
    out = tmp_path / "out"
    argv = ["report", "bgp", "--input", str(before), str(after), "--sno", "starlink", "--registry", str(registry),
            "--out", str(out)]
    for code, seconds, last in strict_runs(argv):
        assert (code, last) == (2, "error: line 1: non-numeric ASN token 'AS3356'")
        assert seconds < 1.0
    assert not out.exists()


# ---------------------------------------------------------------------------
# report bgp with one worker per snapshot

STAMPS = ["2023-01-01T00:00:00Z", "2023-02-01T00:00:00+01:00"]

ASPATH_LINES = st.one_of(
    st.builds(
        lambda stamp, asns: f"{stamp} {' '.join(map(str, asns))}".encode(),
        st.sampled_from(STAMPS),
        st.lists(st.sampled_from([14593, 14593, 3356, 174, 1299, 64500]), min_size=1, max_size=5),
    ),
    st.sampled_from([
        b"", b"   ", b"# a comment", b"  # indented comment", STAMPS[0].encode(), b"2023-01-01T00:00:00Z 3356 x",
        b"not-a-time 3356 14593", b"2023-01-01T00:00:00Z 0 14593", b"2023-01-01T00:00:00Z 4294967296 14593",
        b"2023-01-01 3356 14593", "2023-01-01T00:00:00Z ١ 14593".encode(), b"2023-01-01T00:00:00Z \xff 14593",
    ]),
)


@pytest.fixture(scope="module")
def bgp_dir(tmp_path_factory) -> Path:
    """A directory that each example overwrites: two snapshots, a registry and the runs' outputs."""
    base = tmp_path_factory.mktemp("bgp-workers")
    (base / "registry.csv").write_text("asn,country_code\n3356,US\n174,US\n1299,SE\n")
    return base


def bgp_run(base: Path, out: Path, strict: bool, *extra: str) -> tuple[int, str, str, dict[str, bytes], list]:
    """Exit code, stdout, last stderr line, output files and the parent's merged error count and sample."""
    argv = ["report", "bgp", "--input", str(base / "before.txt"), str(base / "after.txt"), "--sno", "starlink",
            "--registry", str(base / "registry.csv"), "--out", str(out), *extra]
    merged: list = []
    merge = cli.ParseErrors.merge

    def recording_merge(self, other):
        merge(self, other)
        merged[:] = [self.count, [(error.line_no, error.reason) for error in self.sample]]

    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, deadline(60):
        patch.setattr(cli.ParseErrors, "merge", recording_merge)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + (["--strict-parsing"] if strict else []))
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.exists() else {}
    last = (stderr.getvalue().splitlines() or [""])[-1]
    return code, stdout.getvalue().replace(str(out), "OUT"), last, files, merged


@settings(SETTINGS, max_examples=40)
@given(
    snapshots=st.lists(st.lists(ASPATH_LINES, max_size=15), min_size=2, max_size=2),
    parallelism=st.integers(1, 4),
    strict=st.booleans(),
)
def test_report_bgp_is_the_same_at_any_parallelism(bgp_dir, snapshots, parallelism, strict):
    for name, lines in zip(("before.txt", "after.txt"), snapshots):
        (bgp_dir / name).write_bytes(b"".join(line + b"\n" for line in lines))
    for out in ("reference", "workers"):
        shutil.rmtree(bgp_dir / out, ignore_errors=True)
    reference = bgp_run(bgp_dir, bgp_dir / "reference", strict, "--parallelism", "1")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "MIN_SHARD_BYTES", 1)
        patch.setattr(ingest, "usable_cpus", lambda: 4)
        assert bgp_run(bgp_dir, bgp_dir / "workers", strict, "--parallelism", str(parallelism)) == reference
    assert multiprocessing.active_children() == []
    assert reference[0] == 0 or (strict and reference[2].startswith("error: line "))
    if not strict:
        # The in-process run against the parse alone: each graph, and the errors in input order.
        catalog = ingest.parse_catalog(cli.default_catalog_path())
        registry = ingest.parse_registry(bgp_dir / "registry.csv")
        items = [list(ingest.parse_aspath_stream(bgp_dir / name)) for name in ("before.txt", "after.txt")]
        for name, parsed in zip(("graph_before.dot", "graph_after.dot"), items):
            records = [item for item in parsed if not isinstance(item, RecordError)]
            graph = bgp.build_graph(records, catalog.get("starlink"), registry)
            assert reference[3][name] == bgp.graph_to_dot(graph).encode()
        errors = [(item.line_no, item.reason) for parsed in items for item in parsed if isinstance(item, RecordError)]
        assert reference[4] == [len(errors), errors[: cli.PARSE_ERROR_SAMPLE]]
