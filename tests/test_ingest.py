"""Record parsing: NDJSON streams, invariants, serializers, and side tables."""

from __future__ import annotations

import hashlib
import json
import math
from ipaddress import ip_address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    HOSTILE_LINES,
    make_session,
    make_traceroute,
    mapped_asns,
    session_to_dict,
    session_to_json,
    traceroute_to_dict,
    traceroute_to_json,
)
from snoscope import ingest
from snoscope.ingest import (
    CHUNK_LINES,
    MEMO_CAP,
    RecordError,
    SpeedTestSession,
    TableError,
    aspath_from_line,
    aspath_to_line,
    parse_aspath_stream,
    parse_catalog,
    parse_pop_table,
    parse_rdns,
    parse_registry,
    parse_speedtest_stream,
    parse_traceroute_stream,
    session_from_dict,
    traceroute_from_dict,
)


def valid_session_dict(**overrides) -> dict:
    obj = session_to_dict(make_session())
    obj.update(overrides)
    return obj


def csv_src(*lines: str):
    """A readable source holding the given CSV lines."""
    import io

    return io.StringIO("\n".join(lines) + "\n")


class TestSessionRoundTrip:
    def test_round_trip_preserves_everything(self):
        original = make_session(
            session_id="rt-1",
            rtts=[600.125, 610.0, 605.5],
            rtt_vars=[12.25, 10.0, 11.5],
            client_ip="2001:db8::1",
            client_asn=13955,
            timestamp="2021-06-01T08:30:00.250Z",
            bytes_sent_final=5_000_000,
            bytes_retrans_final=40_000,
        )
        parsed = session_from_dict(json.loads(session_to_json(original)))
        assert parsed == original

    def test_ipv4_and_missing_delivery_rate(self):
        original = make_session()
        assert original.delivery_rate_bps[0] is None
        parsed = session_from_dict(session_to_dict(original))
        assert parsed == original
        assert parsed.client_ip == ip_address("100.1.2.3")


class TestSessionValidation:
    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda o: o.pop("session_id"), "session_id"),
            (lambda o: o.update(direction="upload"), "direction"),
            (lambda o: o.update(snapshots=[]), "snapshots"),
            (lambda o: o.update(client_ip="not-an-ip"), "client_ip"),
            (lambda o: o.update(client_asn=0), "client_asn"),
            (lambda o: o.update(client_asn=True), "client_asn"),
            (lambda o: o.update(timestamp="2021-06-01 08:30"), "timestamp"),
            (lambda o: o.update(client_asn=2**40), "client_asn"),
        ],
    )
    def test_top_level_rejections(self, mutate, fragment):
        obj = valid_session_dict()
        mutate(obj)
        with pytest.raises(ValueError, match=fragment):
            session_from_dict(obj)

    def test_rtt_must_be_positive(self):
        obj = valid_session_dict()
        obj["snapshots"][0]["rtt_ms"] = 0.0
        with pytest.raises(ValueError, match="rtt_ms"):
            session_from_dict(obj)

    def test_retrans_cannot_exceed_sent(self):
        obj = valid_session_dict()
        obj["snapshots"][0]["bytes_retrans"] = obj["snapshots"][0]["bytes_sent"] + 1
        with pytest.raises(ValueError, match="bytes_retrans"):
            session_from_dict(obj)

    def test_offsets_strictly_increasing(self):
        obj = valid_session_dict()
        obj["snapshots"][1]["t_offset_ms"] = obj["snapshots"][0]["t_offset_ms"]
        with pytest.raises(ValueError, match="strictly increasing"):
            session_from_dict(obj)

    def test_bytes_sent_non_decreasing(self):
        obj = valid_session_dict()
        obj["snapshots"][1]["bytes_sent"] = obj["snapshots"][0]["bytes_sent"] - 1
        obj["snapshots"][1]["bytes_retrans"] = 0
        with pytest.raises(ValueError, match="bytes_sent"):
            session_from_dict(obj)

    def test_byte_counters_must_be_integers(self):
        obj = valid_session_dict()
        obj["snapshots"][0]["bytes_sent"] = 1000.5
        with pytest.raises(ValueError, match="bytes_sent"):
            session_from_dict(obj)

    def test_non_finite_numbers_rejected(self):
        obj = valid_session_dict()
        obj["snapshots"][0]["rtt_ms"] = float("inf")
        with pytest.raises(ValueError, match="finite"):
            session_from_dict(obj)


class TestSpeedtestStream:
    def _mixed_stream(self) -> str:
        good = session_to_json(make_session(session_id="ok-1"))
        bad = '{"session_id": "broken"'
        good2 = session_to_json(make_session(session_id="ok-2"))
        return f"{good}\n{bad}\n\n{good2}\n"

    def test_lenient_yields_errors_with_line_numbers(self, tmp_path):
        path = tmp_path / "sessions.ndjson"
        path.write_text(self._mixed_stream())
        items = list(parse_speedtest_stream(path))
        assert [type(i).__name__ for i in items] == ["SpeedTestSession", "RecordError", "SpeedTestSession"]
        assert items[1].line_no == 2
        assert items[0].session_id == "ok-1" and items[2].session_id == "ok-2"

    def test_strict_raises_at_first_bad_record(self, tmp_path):
        path = tmp_path / "sessions.ndjson"
        path.write_text(self._mixed_stream())
        stream = parse_speedtest_stream(path, strictness="strict")
        first = next(stream)
        assert first.session_id == "ok-1"
        with pytest.raises(RecordError) as exc_info:
            next(stream)
        assert exc_info.value.line_no == 2

    def test_accepts_file_object_and_string_iterable(self):
        line = session_to_json(make_session())
        from_iter = list(parse_speedtest_stream([line]))
        import io

        from_file = list(parse_speedtest_stream(io.StringIO(line + "\n")))
        assert from_iter == from_file
        assert len(from_iter) == 1

    def test_unknown_strictness_rejected(self):
        with pytest.raises(ValueError):
            list(parse_speedtest_stream([], strictness="forgiving"))

    def test_digest_covers_the_file_as_streamed(self, tmp_path):
        path = tmp_path / "sessions.ndjson"
        lines = [session_to_json(make_session(session_id=f"s-{i}-\u00e9")) for i in range(300)]
        path.write_bytes(("\r\n".join(lines) + "\r\n\n").encode("utf-8"))
        digest = hashlib.sha256()
        items = list(parse_speedtest_stream(path, digest=digest))
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert items == list(parse_speedtest_stream(path))
        assert len(items) == 300

    def test_digest_needs_a_path(self):
        with pytest.raises(ValueError, match="path"):
            list(parse_speedtest_stream([session_to_json(make_session())], digest=hashlib.sha256()))


class TestHostileLines:
    """Each line is one malformed record: lenient parsing skips it, strict parsing stops at it."""

    @pytest.mark.parametrize("name", sorted(HOSTILE_LINES))
    def test_lenient_yields_a_record_error(self, name):
        good = session_to_json(make_session())
        items = list(parse_speedtest_stream([good, HOSTILE_LINES[name], good]))
        assert [type(i).__name__ for i in items] == ["SpeedTestSession", "RecordError", "SpeedTestSession"]
        assert items[1].line_no == 2

    @pytest.mark.parametrize("name", sorted(HOSTILE_LINES))
    def test_strict_raises_a_record_error(self, name):
        with pytest.raises(RecordError):
            list(parse_speedtest_stream([HOSTILE_LINES[name]], strictness="strict"))

    def test_largest_asn_accepted(self):
        assert session_from_dict(valid_session_dict(client_asn=2**32 - 1)).client_asn == 2**32 - 1


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 2**32, 2**63 - 1, 2**63, -(2**63) - 1, 10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=20)
    | st.sampled_from(["100.1.2.3", "2001:db8::1", "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    | st.datetimes().map(lambda d: d.isoformat() + "+23:59")
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=12,
)
SNAPSHOT_KEYS = ["t_offset_ms", "rtt_ms", "rtt_var_ms", "bytes_sent", "bytes_retrans", "delivery_rate_bps"]


@st.composite
def mutated_session_lines(draw, truncate: bool = True) -> str:
    """A valid session line with some fields, top-level or in a snapshot, replaced by arbitrary JSON.

    With truncate, the line may also be cut short.
    """
    obj = valid_session_dict()
    for key in draw(st.lists(st.sampled_from(sorted(obj)), unique=True, max_size=3)):
        obj[key] = draw(JSON_VALUES)
    snapshots = obj["snapshots"]
    if isinstance(snapshots, list) and snapshots:
        snapshot = snapshots[draw(st.integers(min_value=0, max_value=len(snapshots) - 1))]
        if isinstance(snapshot, dict):
            for key in draw(st.lists(st.sampled_from(SNAPSHOT_KEYS), unique=True, max_size=3)):
                snapshot[key] = draw(JSON_VALUES)
    line = json.dumps(obj)
    if truncate and draw(st.booleans()):
        return line[: draw(st.integers(min_value=0, max_value=len(line)))]
    return line


def near(value: int | float):
    """Numbers at the edges of the snapshot checks, seen from one valid value."""
    edges = [value, float(value), int(value), value + 1, value - 1, -value, 0, 0.0, -0.0, math.inf, math.nan]
    return st.sampled_from(edges)


@st.composite
def mutated_snapshot_lines(draw) -> str:
    """A valid session line with a few snapshot fields set near a valid value, or to a JSON scalar.

    A field's new value is near its own value, the same field's value in a
    neighbouring snapshot, or any snapshot value of the session: equal, one
    past, negated or of the other numeric type, which are the edges of the
    type, minimum and ordering checks. Every snapshot starts with
    bytes_retrans equal to bytes_sent, the edge of that check.
    """
    session = make_session(bytes_retrans_final=10_000_000)
    obj, valid = session_to_dict(session), session_to_dict(session)["snapshots"]
    numbers = [v for snap in valid for v in snap.values()]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(valid) - 1))
        key = draw(st.sampled_from(SNAPSHOT_KEYS))
        source = draw(st.sampled_from(["own", "neighbour", "any", "scalar"]))
        if source == "own":
            value = draw(near(valid[i].get(key, 0)))
        elif source == "neighbour":
            value = draw(near(valid[i - 1 if i else 1].get(key, 0)))
        elif source == "any":
            value = draw(near(draw(st.sampled_from(numbers))))
        else:
            value = draw(JSON_SCALARS)
        obj["snapshots"][i][key] = value
    return json.dumps(obj)


PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestAnyLineIsARecordOrARecordError:
    @PROPERTY_SETTINGS
    @given(line=mutated_session_lines() | st.text() | st.binary())
    def test_speedtest_lines(self, line):
        (item,) = list(parse_speedtest_stream([line])) or [None]
        assert item is None or type(item).__name__ in ("SpeedTestSession", "RecordError")
        try:
            list(parse_speedtest_stream([line], strictness="strict"))
        except RecordError:
            pass

    @PROPERTY_SETTINGS
    @given(line=st.text() | st.binary())
    def test_traceroute_and_aspath_lines(self, line):
        for parse in (parse_traceroute_stream, parse_aspath_stream):
            for item in parse([line]):
                assert type(item).__name__ in ("TracerouteMeasurement", "AsPathRecord", "RecordError")


# Valid one-snapshot sessions filling a corpus of more than two chunks.
FILLER_LINES = [
    session_to_json(make_session(session_id=f"fill-{i}", rtts=[50.0 + i % 7], client_asn=1 + i))
    for i in range(2 * CHUNK_LINES + 100)
]


def scalar_chain(line: str, line_no: int) -> SpeedTestSession | RecordError:
    """What a corpus line parses to, checked one field at a time."""
    try:
        return session_from_dict(json.loads(line))
    except ValueError as exc:
        return RecordError(line_no, str(exc))


# repr tells an int from a float, and 0.0 from -0.0.
FILLER_REPRS = [repr(scalar_chain(line, 0)) for line in FILLER_LINES]


class TestChunksAgreeWithTheScalarChain:
    """A chunk's column checks accept, reject and convert exactly as session_from_dict does."""

    @settings(PROPERTY_SETTINGS, max_examples=1000)
    @given(line=mutated_snapshot_lines())
    def test_mutated_line_alone_and_among_valid_lines(self, line):
        assert list(map(repr, parse_speedtest_stream([line]))) == [repr(scalar_chain(line, 1))]
        corpus = [FILLER_LINES[0], line, FILLER_LINES[1]]
        expected = [FILLER_REPRS[0], repr(scalar_chain(line, 2)), FILLER_REPRS[1]]
        assert list(map(repr, parse_speedtest_stream(corpus))) == expected

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(line=mutated_snapshot_lines() | mutated_session_lines(truncate=False))
    def test_mutated_line_first_middle_and_last_in_a_corpus(self, line):
        corpus, expected = list(FILLER_LINES), list(FILLER_REPRS)
        for index in (len(corpus), CHUNK_LINES + CHUNK_LINES // 2, 0):  # last, mid-chunk, first
            corpus.insert(index, line)
            expected.insert(index, None)
        expected = [repr(scalar_chain(line, i + 1)) if e is None else e for i, e in enumerate(expected)]
        assert list(map(repr, parse_speedtest_stream(corpus))) == expected

    def test_strict_yields_earlier_sessions_then_raises_mid_chunk(self):
        bad_at = CHUNK_LINES + CHUNK_LINES // 2
        corpus = FILLER_LINES[:bad_at] + ['{"session_id": "broken"'] + FILLER_LINES[bad_at:]
        stream = parse_speedtest_stream(corpus, strictness="strict")
        sessions = [next(stream) for _ in range(bad_at)]
        assert [s.session_id for s in sessions] == [f"fill-{i}" for i in range(bad_at)]
        with pytest.raises(RecordError) as exc_info:
            next(stream)
        assert exc_info.value.line_no == bad_at + 1


class TestTracerouteRecords:
    def test_round_trip_with_unresponsive_hop(self):
        original = make_traceroute(reach_target=False)
        parsed = traceroute_from_dict(json.loads(traceroute_to_json(original)))
        assert parsed == original
        assert parsed.hops[-1].replies[0].ip is None

    def test_unresponsive_reply_serializes_as_star_only(self):
        obj = traceroute_to_dict(make_traceroute(reach_target=False))
        assert obj["hops"][-1]["replies"][0] == {"ip": "*"}

    def test_hop_numbers_strictly_increasing(self):
        obj = traceroute_to_dict(make_traceroute())
        obj["hops"][1]["hop_no"] = obj["hops"][0]["hop_no"]
        with pytest.raises(ValueError, match="hop_no"):
            traceroute_from_dict(obj)

    def test_unresponsive_reply_cannot_carry_rtt(self):
        obj = traceroute_to_dict(make_traceroute())
        obj["hops"][0]["replies"][0] = {"ip": "*", "rtt_ms": 4.0}
        with pytest.raises(ValueError, match="unresponsive"):
            traceroute_from_dict(obj)

    @pytest.mark.parametrize(
        ("hop", "reply", "message"),
        [
            (1, {"ip": "10.0.0.256", "rtt_ms": 4.0}, "hop 1 ip is not an IP address: '10.0.0.256'"),
            (2, {"ip": 17, "rtt_ms": 4.0}, "hop 2 ip must be a non-empty string"),
            (0, {"ip": "10.0.0.1", "rtt_ms": "4"}, "hop 0 rtt_ms must be a number"),
            (1, {"ip": "10.0.0.1", "rtt_ms": -0.5}, "hop 1 rtt_ms must be >= 0.0, got -0.5"),
            (1, {"ip": "10.0.0.1"}, "missing field 'rtt_ms'"),
            (0, {"ip": "*", "rtt_ms": 4.0}, "hop 0 unresponsive reply cannot carry rtt_ms"),
            (2, "10.0.0.1", "hop 2 reply must be an object"),
        ],
    )
    def test_reply_error_messages(self, hop, reply, message):
        obj = traceroute_to_dict(make_traceroute())
        obj["hops"][hop]["replies"][0] = reply
        with pytest.raises(ValueError) as exc_info:
            traceroute_from_dict(obj)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        ("hop_no", "message"), [(0, "hop 0 hop_no must be >= 1, got 0"), (1.5, "hop 0 hop_no must be an integer")]
    )
    def test_hop_number_error_messages(self, hop_no, message):
        obj = traceroute_to_dict(make_traceroute())
        obj["hops"][0]["hop_no"] = hop_no
        with pytest.raises(ValueError) as exc_info:
            traceroute_from_dict(obj)
        assert str(exc_info.value) == message

    def test_stream_parses_lenient(self, tmp_path):
        path = tmp_path / "traces.ndjson"
        path.write_text(traceroute_to_json(make_traceroute()) + "\nnot json\n")
        items = list(parse_traceroute_stream(path))
        assert len(items) == 2
        assert isinstance(items[1], RecordError) and items[1].line_no == 2


class TestAsPathRecords:
    def test_prepending_collapses_to_adjacency(self):
        rec = aspath_from_line("2023-01-01T00:00:00Z 3356 3356 3356 14593")
        assert rec.as_path == [3356, 14593]

    def test_round_trip_of_collapsed_path(self):
        line = "2023-01-01T00:00:00Z 174 3356 800"
        assert aspath_to_line(aspath_from_line(line)) == line

    def test_non_numeric_asn_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            aspath_from_line("2023-01-01T00:00:00Z 3356 AS174")

    def test_asn_above_32_bits_rejected(self):
        assert aspath_from_line(f"2023-01-01T00:00:00Z {2**32 - 1} 14593").as_path == [2**32 - 1, 14593]
        with pytest.raises(ValueError, match="ASN must be in"):
            aspath_from_line(f"2023-01-01T00:00:00Z {2**32} 14593")

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            aspath_from_line("2023-01-01T00:00:00Z")

    def test_non_ascii_digits_rejected(self):
        # Arabic-Indic digits for 14593: str.isdigit() is true for them, and int() reads them.
        line = "2021-03-01T00:00:00Z 3356 \u0661\u0664\u0665\u0669\u0663"
        with pytest.raises(ValueError, match="ASCII"):
            aspath_from_line(line)
        assert [type(r) for r in parse_aspath_stream([line])] == [RecordError]

    def test_stream_skips_comments_and_blanks(self):
        lines = [
            "# collector dump",
            "",
            "2023-01-01T00:00:00Z 3356 14593",
            "   ",
            "2023-01-01T00:00:00Z 174 800",
        ]
        records = list(parse_aspath_stream(lines))
        assert [r.as_path for r in records] == [[3356, 14593], [174, 800]]

    def test_stream_reports_bad_lines(self):
        items = list(parse_aspath_stream(["2023-01-01T00:00:00Z 3356 x"]))
        assert isinstance(items[0], RecordError)

    def test_undecodable_line_in_a_file_is_one_bad_record(self, tmp_path):
        path = tmp_path / "paths.txt"
        path.write_bytes(b"2023-01-01T00:00:00Z 3356 14593\n\xff 174\n2023-01-01T00:00:00Z 174 800\n")
        items = list(parse_aspath_stream(path))
        assert [type(i).__name__ for i in items] == ["AsPathRecord", "RecordError", "AsPathRecord"]
        assert items[1] == RecordError(2, "invalid UTF-8 at byte 0")
        with pytest.raises(RecordError, match="line 2: invalid UTF-8"):
            list(parse_aspath_stream(path, strictness="strict"))


def traceroute_chain(line: str, line_no: int) -> str:
    """repr of what a traceroute line parses to on its own, with no memo."""
    try:
        return repr(traceroute_from_dict(json.loads(line)))
    except ValueError as exc:
        return repr(RecordError(line_no, str(exc)))


def aspath_chain(line: str, line_no: int) -> str:
    try:
        return repr(aspath_from_line(line))
    except ValueError as exc:
        return repr(RecordError(line_no, str(exc)))


# Few distinct values, so that a stream repeats them; some are malformed.
ADDRESSES = ["100.64.0.1", "192.168.1.1", "2001:db8::1", "100.64.0.256", "1.2.3", " 100.64.0.1", ""]
STAMPS = ["2022-05-03T00:00:00Z", "2022-05-03T01:00:00+01:00", "2022-05-03T00:00:00", "2022-13-03T00:00:00Z"]


MISSING = object()
# rtt_ms values around the edges of "a finite float >= 0", and none at all.
RTT_VALUES = [
    1, 0, True, False, -1.5, -0.5, -0.0, 0.0, 2.5, math.nan, math.inf, -math.inf, 2**63, 2**64, 1e19, "1.5", None, MISSING,
]
# hop_no values other than the next number; REPEAT is the previous hop's (the last
# hop's, for the first).
REPEAT = object()
HOP_NUMBERS = [True, False, 0, -1, 1.0, "2", None, 10**6, REPEAT, MISSING]
REPLIES = [{"ip": "*"}, {"ip": "*", "rtt_ms": None}, {"ip": "*", "rtt_ms": 3.0}, {"ip": "*", "rtt_ms": 0}, [], "*", None, 7]
BAD_REPLIES = [[], {}, None, "*", {"ip": "100.64.0.1", "rtt_ms": 1.0}, MISSING]
DEFECTS = ["none", "address", "stamp", "rtt_ms", "reply", "hop_no", "replies", "hop"]


@st.composite
def traceroute_lines(draw) -> str:
    """A traceroute line whose addresses and timestamp come from small pools, with at most one defect.

    Values recur within a stream, so most replies meet addresses the memo
    holds. The one defect, if any, is a malformed address or timestamp
    (pooled or any JSON value), an rtt_ms or hop_no outside its domain, an
    unresponsive or non-object reply, bad replies, or a non-object hop.
    """
    obj = traceroute_to_dict(make_traceroute(reach_target=draw(st.booleans())))
    hops = obj["hops"]
    replies = [r for hop in hops for r in hop["replies"] if r["ip"] != "*"]
    for reply in replies:
        reply["ip"] = draw(st.sampled_from(ADDRESSES[:3]))
    obj["src_addr"], obj["dst_addr"] = draw(st.sampled_from(ADDRESSES[:3])), draw(st.sampled_from(ADDRESSES[:3]))
    obj["timestamp"] = draw(st.sampled_from(STAMPS[:2]))
    defect = draw(st.sampled_from(DEFECTS))
    hop = draw(st.sampled_from(hops))
    reply = draw(st.sampled_from(replies))
    if defect == "address":
        value = draw(st.sampled_from(ADDRESSES[3:] + [[ADDRESSES[0]]]) | JSON_VALUES)
        reply_or_top, key = draw(st.sampled_from([(reply, "ip"), (obj, "src_addr"), (obj, "dst_addr")]))
        reply_or_top[key] = value
    elif defect == "stamp":
        obj["timestamp"] = draw(st.sampled_from(STAMPS[2:]) | JSON_SCALARS)
    elif defect in ("rtt_ms", "hop_no", "replies"):
        target, values = {"rtt_ms": (reply, RTT_VALUES), "hop_no": (hop, HOP_NUMBERS), "replies": (hop, BAD_REPLIES)}[defect]
        value = draw(st.sampled_from(values))
        if value is REPEAT:
            value = hops[hops.index(hop) - 1]["hop_no"]
        if value is MISSING:
            del target[defect]
        else:
            target[defect] = value
    elif defect == "reply":
        hop["replies"][draw(st.integers(0, len(hop["replies"]) - 1))] = draw(st.sampled_from(REPLIES) | JSON_SCALARS)
    elif defect == "hop":
        hops[hops.index(hop)] = draw(JSON_SCALARS | st.just([]))
    return json.dumps(obj)


class TestStreamMemo:
    """A stream's memo of parsed addresses and timestamps changes no record and no error."""

    @settings(PROPERTY_SETTINGS, max_examples=400)
    @given(lines=st.lists(traceroute_lines(), min_size=1, max_size=8))
    def test_traceroute_stream_equals_records_parsed_alone(self, lines):
        expected = [traceroute_chain(line, i) for i, line in enumerate(lines, start=1)]
        assert list(map(repr, parse_traceroute_stream(lines))) == expected

    def test_bad_reply_address_after_a_good_one_keeps_its_error(self):
        def line(ip):
            obj = traceroute_to_dict(make_traceroute())
            obj["hops"][1]["replies"][0]["ip"] = ip
            return json.dumps(obj)

        lines = [line("100.64.0.1"), line("100.64.0.256"), line(["100.64.0.1"]), line("100.64.0.1"), line("100.64.0.256")]
        items = list(parse_traceroute_stream(lines))
        assert items[1] == RecordError(2, "hop 1 ip is not an IP address: '100.64.0.256'")
        assert items[2] == RecordError(3, "hop 1 ip must be a non-empty string")
        assert items[4] == RecordError(5, "hop 1 ip is not an IP address: '100.64.0.256'")
        assert list(map(repr, items)) == [traceroute_chain(x, i) for i, x in enumerate(lines, start=1)]
        with pytest.raises(RecordError, match="line 2: hop 1 ip is not an IP address"):
            list(parse_traceroute_stream(lines, strictness="strict"))

    @settings(PROPERTY_SETTINGS, max_examples=200)
    @given(
        lines=st.lists(
            st.builds(
                lambda stamp, path: " ".join([stamp, *map(str, path)]),
                st.sampled_from(STAMPS + ["2023-01-01T00:00:00Z"] * 4),
                st.lists(st.sampled_from([174, 3356, 3356, 14593, 0, 2**32]), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_aspath_stream_equals_lines_parsed_alone(self, lines):
        expected = [aspath_chain(line, i) for i, line in enumerate(lines, start=1)]
        assert list(map(repr, parse_aspath_stream(lines))) == expected

    def test_memo_stops_at_its_cap(self, monkeypatch):
        made = []

        class Recorded(ingest.ScalarMemo):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(ingest, "ScalarMemo", Recorded)
        lines = []
        for i in range(MEMO_CAP + 10):  # distinct src and dst addresses and timestamps on every line
            obj = traceroute_to_dict(make_traceroute())
            obj["src_addr"], obj["dst_addr"] = f"10.{i >> 8}.{i & 255}.1", f"11.{i >> 8}.{i & 255}.1"
            obj["timestamp"] = f"2022-05-03T00:00:00.{i:06d}Z"
            lines.append(json.dumps(obj))
        items = list(parse_traceroute_stream(lines))
        (memo,) = made
        assert len(memo.ips) == MEMO_CAP and len(memo.stamps) == MEMO_CAP
        assert [item.src_addr for item in items[-3:]] == [ip_address(f"10.16.{i}.1") for i in (7, 8, 9)]
        assert all(repr(item) == traceroute_chain(line, 0) for item, line in zip(items, lines))


class TestCatalogTable:
    def test_bundled_catalog_loads(self, bundled_catalog):
        assert len(bundled_catalog) == 41
        assert mapped_asns(bundled_catalog) == 67

    def test_minimal_catalog(self):
        text = json.dumps(
            [{"name": "op", "asns": [99], "orbits": ["GEO"], "pep": True, "excluded_asns": [5]}]
        )
        catalog = parse_catalog([text])
        entry = catalog.get("op")
        assert entry.pep is True and entry.excluded_asns == frozenset({5})

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "op", "asns": [], "orbits": ["GEO"]},
            {"name": "op", "asns": [1], "orbits": []},
            {"name": "op", "asns": [1], "orbits": ["HEO"]},
            {"name": "op", "asns": [1], "orbits": ["GEO"], "pep": "yes"},
            {"name": "", "asns": [1], "orbits": ["GEO"]},
            {"name": "op", "asns": [2**32], "orbits": ["GEO"]},
            {"name": "op", "asns": [1], "orbits": ["GEO"], "excluded_asns": [2**32]},
        ],
    )
    def test_malformed_entries_raise_table_error(self, entry):
        with pytest.raises(TableError):
            parse_catalog([json.dumps([entry])])

    def test_duplicate_asn_claim_raises(self):
        text = json.dumps(
            [
                {"name": "a", "asns": [7], "orbits": ["GEO"]},
                {"name": "b", "asns": [7], "orbits": ["GEO"]},
            ]
        )
        with pytest.raises(Exception):
            parse_catalog([text])

    def test_invalid_json_raises_table_error(self):
        with pytest.raises(TableError):
            parse_catalog(["{not json"])

    def test_deeply_nested_json_raises_table_error(self):
        with pytest.raises(TableError, match="nested too deeply"):
            parse_catalog(["[" * 100_000])

    def test_asns_up_to_32_bits_accepted(self):
        text = json.dumps([{"name": "op", "asns": [2**32 - 1], "orbits": ["GEO"], "excluded_asns": [2**32 - 2]}])
        assert parse_catalog([text]).get("op").asns == frozenset({2**32 - 1})


class TestRegistryTable:
    def test_header_optional_and_case_normalized(self):
        with_header = parse_registry(csv_src("asn,country_code", "3356,us", "1299,SE"))
        without = parse_registry(csv_src("3356,US", "1299,se"))
        assert with_header == without == {3356: "US", 1299: "SE"}

    def test_duplicate_consistent_rows_ok_conflict_raises(self):
        assert parse_registry(csv_src("1,US", "1,US")) == {1: "US"}
        with pytest.raises(TableError):
            parse_registry(csv_src("1,US", "1,DE"))

    @pytest.mark.parametrize("row", ["x,US", "0,US", "1,USA", "1,U1", "1,US,extra"])
    def test_bad_rows_raise(self, row):
        with pytest.raises(TableError):
            parse_registry(csv_src(row))

    @pytest.mark.parametrize("raw_asn", [str(2**32), "99999999999999999999", "\u0661\u0664\u0665\u0669\u0663", "\u00b9"])
    def test_asn_must_be_ascii_digits_within_32_bits(self, raw_asn):
        assert parse_registry(csv_src(f"{2**32 - 1},US")) == {2**32 - 1: "US"}
        with pytest.raises(TableError, match="bad ASN"):
            parse_registry(csv_src(f"{raw_asn},US"))


class TestPopTable:
    def test_bundled_pop_table(self, bundled_pop_table):
        table = parse_pop_table(bundled_pop_table)
        assert len(table) == 15
        seattle = table["sttlwax1"]
        assert seattle.country_code == "US" and seattle.city == "Seattle"

    def test_codes_lowercased(self):
        table = parse_pop_table(csv_src("code,city,country_code,lat,lon", "TKYOJPN1,Tokyo,jp,35.68,139.77"))
        assert table["tkyojpn1"].country_code == "JP"

    def test_out_of_range_coordinates_raise(self):
        with pytest.raises(TableError):
            parse_pop_table(csv_src("x1,Nowhere,US,95.0,10.0"))


class TestRdnsTable:
    def test_normalization(self):
        table = parse_rdns(csv_src("ip,hostname", "2001:DB8:0000::1,HOST.Example.NET."))
        # both the IP and the hostname are normalized on load
        assert table == {"2001:db8::1": "host.example.net"}

    def test_conflicting_hostnames_raise(self):
        with pytest.raises(TableError):
            parse_rdns(csv_src("1.2.3.4,a.example", "1.2.3.4,b.example"))

    def test_bad_ip_raises(self):
        with pytest.raises(TableError):
            parse_rdns(csv_src("999.2.3.4,a.example"))


class TestRecordErrorShape:
    def test_carries_line_and_reason(self):
        err = RecordError(7, "missing field 'x'")
        assert err.line_no == 7
        assert "missing field" in str(err)
        assert err == RecordError(7, "missing field 'x'")
