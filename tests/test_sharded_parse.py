"""The speed-test row parse over byte ranges and worker processes, against the single-record parse."""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import pickle
import signal
from ipaddress import ip_address
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_session, reference_rows, session_to_json
from snoscope import ingest
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
