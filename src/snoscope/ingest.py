"""Measurement corpus ingestion: schemas, streaming parsers, the AS-path serializer.

Three record streams (NDJSON speed-test sessions, NDJSON traceroutes, and
whitespace-separated AS-path lines) plus four side tables (operator catalog,
ASN registry, PoP locations, reverse DNS). Parsers are streaming and
line-oriented: under the default lenient policy a malformed line is reported
as a RecordError value and parsing continues; under the strict policy the
first malformed line raises. A speed-test corpus file can also be parsed into
one SessionRow per session, over byte ranges in worker processes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import operator
import os
import re
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from ipaddress import IPv4Address, IPv6Address, ip_address
from itertools import accumulate, islice, repeat
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO, Union

import numpy as np

from .catalog import ORBITS, SnoCatalog, SnoEntry
from .profiling import ACCESS_LATENCY_QUANTILE, JITTER_QUANTILE, percentile
from .util import format_rfc3339, parse_rfc3339

STRICTNESS_LENIENT = "lenient"
STRICTNESS_STRICT = "strict"

DIRECTION_DOWNLOAD = "download"

# Marker for an unresponsive traceroute hop reply.
UNRESPONSIVE = "*"

IPAddress = Union[IPv4Address, IPv6Address]

# ASNs are unsigned 32-bit numbers (RFC 6793).
MAX_ASN = 2**32 - 1

# Byte counters are bounded by int64, so that a parse chunk's counter
# columns hold every accepted value exactly.
MAX_BYTE_COUNT = 2**63 - 1

# A speed-test session's snapshot fields, in SpeedTestSession's column order.
SNAPSHOT_FIELDS = ("t_offset_ms", "rtt_ms", "rtt_var_ms", "bytes_sent", "bytes_retrans", "delivery_rate_bps")

# Speed-test lines parsed together: their snapshot fields are checked once
# per chunk, and a chunk bounds the memory a parse holds (about 1.6 MB for
# lines of 12 snapshots). 512 lines parse no faster, and hold twice that.
CHUNK_LINES = 256

# The smallest byte range parse_speedtest_rows gives a worker process. Forked
# workers take 15-25 ms to start and stop, and one core parses about 25 MB of
# speed-test NDJSON a second (2-core host). A range of 10 x 25 ms x 25 MB/s
# keeps that cost under a tenth of its parse time; a smaller file is parsed
# in-process.
MIN_SHARD_BYTES = 10 * 25 * 25_000  # 10 x 25 ms x 25,000 bytes/ms

# Distinct strings a ScalarMemo keeps per kind. The traceroute and AS-path
# corpora repeat a few hundred addresses and timestamps; a stream of more
# distinct ones parses the rest as if there were no memo.
MEMO_CAP = 4096

Source = Union[str, Path, TextIO, Iterable[Union[str, bytes]]]


class RecordError(Exception):
    """A malformed input line: where it was and why it was rejected."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RecordError)
            and (self.line_no, self.reason) == (other.line_no, other.reason)
        )

    def __hash__(self) -> int:
        return hash((self.line_no, self.reason))

    def __reduce__(self) -> tuple[Any, ...]:
        # Exception pickles its message alone, which __init__ does not take.
        return (RecordError, (self.line_no, self.reason))


class TableError(ValueError):
    """A malformed side table (catalog, registry, PoP table, or rDNS map)."""


@dataclass(slots=True)
class SpeedTestSession:
    """One download measurement: client identity plus its snapshot series.

    The series is held as one list per snapshot field (SNAPSHOT_FIELDS), all
    of one length: snapshot i is t_offset_ms[i], rtt_ms[i], and so on. Byte
    counters are cumulative; a snapshot without a delivery rate has None.
    """

    session_id: str
    timestamp: datetime
    client_ip: IPAddress
    client_asn: int
    direction: str
    t_offset_ms: list[float]
    rtt_ms: list[float]
    rtt_var_ms: list[float]
    bytes_sent: list[int]
    bytes_retrans: list[int]
    delivery_rate_bps: list[float | None]


class SessionRow(NamedTuple):
    """What classify keeps of a session: its id, ASN and address, the p5 of its RTTs, and so on (see _row).

    ipv4 is -1 for an IPv6 client, retrans_fraction NaN when no bytes were sent, and day the UTC date's ordinal.
    """

    session_id: str
    client_asn: int
    ipv4: int
    latency_p5_ms: float
    jitter_p95_ms: float
    retrans_fraction: float
    day: int


@dataclass(slots=True)
class HopReply:
    """A single reply at one hop; ip None means the probe went unanswered."""

    ip: IPAddress | None
    rtt_ms: float | None


@dataclass(slots=True)
class Hop:
    hop_no: int
    replies: list[HopReply]


@dataclass(slots=True)
class TracerouteMeasurement:
    probe_id: int
    timestamp: datetime
    src_addr: IPAddress
    dst_name: str
    dst_addr: IPAddress
    hops: list[Hop]


@dataclass(slots=True)
class AsPathRecord:
    """One observed BGP path, most distant AS first, prepends collapsed."""

    observed_at: datetime
    as_path: list[int]


@dataclass(frozen=True)
class PopLocation:
    code: str
    city: str
    country_code: str
    lat: float
    lon: float


@dataclass(slots=True)
class ScalarMemo:
    """Addresses and timestamps one stream has parsed, keyed by their exact text.

    A traceroute or AS-path stream parser makes one and passes it to each
    record's parse, so a string that recurs is parsed once per stream. Only
    values that parsed are kept, so a bad value is checked, and rejected with
    its own error, wherever it occurs. Each dict stops growing at MEMO_CAP
    entries. The values are immutable, so records may share them.
    """

    ips: dict[str, IPAddress] = field(default_factory=dict)
    stamps: dict[str, datetime] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# line iteration


def _iter_lines(
    source: Source, digest: Any = None, start: int = 0, end: float = math.inf
) -> Iterator[tuple[int, str | bytes]]:
    """Yield (1-based line number, raw line) from a path, file, or iterable.

    A path is read as bytes, and each line is decoded by its parser (see
    _decode), so one undecodable line is one malformed record. With a
    digest (a hashlib object) the source must be a path, and every line's
    bytes are hashed as they are read: once the lines are exhausted, the
    digest covers the whole file. Of a path, only the lines in bytes [start,
    end) are read, numbered from start; a bound must start a line or end the file.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            handle.seek(start)
            for line_no, line in enumerate(handle, start=1):
                if start >= end:
                    return
                start += len(line)
                if digest is not None:
                    digest.update(line)
                yield line_no, line
        return
    if digest is not None:
        raise ValueError("hashing a stream needs a file path source")
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    yield from enumerate(source, start=1)


def _decode(line: str | bytes) -> str:
    if isinstance(line, str):
        return line
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"invalid UTF-8 at byte {exc.start}") from None


def _check_strictness(strictness: str) -> None:
    if strictness not in (STRICTNESS_LENIENT, STRICTNESS_STRICT):
        raise ValueError(f"unknown strictness {strictness!r}")


# ---------------------------------------------------------------------------
# field validators


def _require(obj: Mapping[str, Any], key: str) -> Any:
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    return obj[key]


def _as_str(value: Any, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string")
    return value


def _as_int(value: Any, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def _as_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean")
    return value


def _as_number(value: Any, name: str, minimum: float | None = None, strict_min: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number")
    try:
        out = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite")
    if minimum is not None:
        if strict_min and out <= minimum:
            raise ValueError(f"{name} must be > {minimum}, got {out}")
        if not strict_min and out < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {out}")
    return out


# Canonical dotted-quad IPv4 (ASCII octets up to 255, no leading zeros), which ip_address reads alike.
_DOTTED_QUAD = re.compile(r"\.".join(["(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"] * 4))


def _as_ip(value: Any, name: str, memo: dict[str, IPAddress] | None = None) -> IPAddress:
    text = _as_str(value, name)
    if memo is not None and text in memo:
        return memo[text]
    if quad := _DOTTED_QUAD.fullmatch(text):
        a, b, c, d = map(int, quad.groups())
        ip: IPAddress = IPv4Address(a << 24 | b << 16 | c << 8 | d)
    else:
        try:
            ip = ip_address(text)
        except ValueError:
            raise ValueError(f"{name} is not an IP address: {text!r}") from None
    if memo is not None and len(memo) < MEMO_CAP:
        memo[text] = ip
    return ip


def _as_timestamp(value: Any, name: str = "timestamp", memo: dict[str, datetime] | None = None) -> datetime:
    text = _as_str(value, name)
    if memo is not None and text in memo:
        return memo[text]
    stamp = parse_rfc3339(text)
    if memo is not None and len(memo) < MEMO_CAP:
        memo[text] = stamp
    return stamp


# ---------------------------------------------------------------------------
# speed-test sessions


def _snapshot_from_obj(obj: Any, index: int) -> tuple[float, float, float, int, int, float | None]:
    if not isinstance(obj, dict):
        raise ValueError(f"snapshot {index} must be an object")
    where = f"snapshot {index}"
    t_offset_ms = _as_number(_require(obj, "t_offset_ms"), f"{where} t_offset_ms", minimum=0.0)
    rtt_ms = _as_number(_require(obj, "rtt_ms"), f"{where} rtt_ms", minimum=0.0, strict_min=True)
    rtt_var_ms = _as_number(_require(obj, "rtt_var_ms"), f"{where} rtt_var_ms", minimum=0.0)
    bytes_sent = _as_int(_require(obj, "bytes_sent"), f"{where} bytes_sent", minimum=0, maximum=MAX_BYTE_COUNT)
    bytes_retrans = _as_int(_require(obj, "bytes_retrans"), f"{where} bytes_retrans", minimum=0, maximum=MAX_BYTE_COUNT)
    delivery_rate_bps = (
        _as_number(obj["delivery_rate_bps"], f"{where} delivery_rate_bps", minimum=0.0)
        if obj.get("delivery_rate_bps") is not None
        else None
    )
    if bytes_retrans > bytes_sent:
        raise ValueError(f"{where} bytes_retrans exceeds bytes_sent")
    return t_offset_ms, rtt_ms, rtt_var_ms, bytes_sent, bytes_retrans, delivery_rate_bps


def _direction(obj: dict[str, Any]) -> str:
    direction = _as_str(_require(obj, "direction"), "direction")
    if direction != DIRECTION_DOWNLOAD:
        raise ValueError(f"unsupported direction {direction!r}")
    return direction


def _session_identity(obj: dict[str, Any]) -> tuple[str, datetime, IPAddress, int]:
    """A session's session_id, timestamp, client_ip and client_asn."""
    return (
        _as_str(_require(obj, "session_id"), "session_id"),
        _as_timestamp(_require(obj, "timestamp")),
        _as_ip(_require(obj, "client_ip"), "client_ip"),
        _as_int(_require(obj, "client_asn"), "client_asn", minimum=1, maximum=MAX_ASN),
    )


def session_from_dict(obj: Any) -> SpeedTestSession:
    """Build one session, checking its fields one at a time.

    parse_speedtest_stream checks a chunk of records at once; this is the
    reference those checks must agree with, and the source of the reason a
    rejected record is given.
    """
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    direction = _direction(obj)
    raw_snaps = _require(obj, "snapshots")
    if not isinstance(raw_snaps, list) or not raw_snaps:
        raise ValueError("snapshots must be a non-empty array")
    columns = [list(c) for c in zip(*(_snapshot_from_obj(snap, i) for i, snap in enumerate(raw_snaps)))]
    offsets, _, _, sent, retrans, _ = columns
    for i in range(1, len(offsets)):
        if offsets[i] <= offsets[i - 1]:
            raise ValueError("snapshot t_offset_ms must be strictly increasing")
        if sent[i] < sent[i - 1]:
            raise ValueError("bytes_sent must be non-decreasing")
        if retrans[i] < retrans[i - 1]:
            raise ValueError("bytes_retrans must be non-decreasing")
    return SpeedTestSession(*_session_identity(obj), direction, *columns)


def _loads(line: str) -> Any:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


_required_snapshot_fields = operator.itemgetter(*SNAPSHOT_FIELDS[:5])


class _NotColumnar(Exception):
    """A chunk column holds a value of a type its field does not take."""


def _float_column(values: list[Any]) -> tuple[np.ndarray, list[float]]:
    """A column of numbers as float64, and as the floats session_from_dict gives."""
    kinds = set(map(type, values))
    # bool, str and None are not numbers here, though NumPy would convert them.
    if not kinds <= {int, float}:
        raise _NotColumnar
    array = np.array(values, dtype=np.float64)
    return array, values if int not in kinds else array.tolist()


def _int_column(values: list[Any]) -> np.ndarray:
    if not set(map(type, values)) <= {int}:
        raise _NotColumnar
    return np.array(values, dtype=np.int64)


def _check_snapshots(columns: Sequence[list[Any]], counts: Sequence[int]) -> tuple[list[bool], list[list[Any]]]:
    """Run every snapshot check of session_from_dict over many sessions at once.

    columns hold the SNAPSHOT_FIELDS of len(counts) sessions end to end,
    counts[i] snapshots for session i. Returns whether each session passed,
    and the columns holding the values session_from_dict gives for them
    (floats for the float fields). When a column cannot be checked at once
    (a value of the wrong type, or a number too large for its dtype), every
    session fails here, and session_from_dict accepts or rejects each one.
    """
    sent, retrans, rates = columns[3:]
    try:
        (t_offset, offsets), (rtt, rtts), (rtt_var, rtt_vars) = map(_float_column, columns[:3])
        sent_a, retrans_a = _int_column(sent), _int_column(retrans)
        kinds = set(map(type, rates))
        if not kinds <= {int, float, type(None)}:
            raise _NotColumnar
        rate = np.array(rates, dtype=np.float64)  # a missing rate is NaN
    except (_NotColumnar, OverflowError):
        return [False] * len(counts), list(columns)
    missing = np.array([r is None for r in rates], dtype=bool) if type(None) in kinds else np.zeros(len(rate), dtype=bool)

    finite = np.isfinite(t_offset) & np.isfinite(rtt) & np.isfinite(rtt_var) & (missing | np.isfinite(rate))
    bad = ~finite | (t_offset < 0) | (rtt <= 0) | (rtt_var < 0) | (rate < 0)
    bad |= (sent_a < 0) | (retrans_a < 0) | (retrans_a > sent_a)
    sizes = np.asarray(counts, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    continues = np.ones(len(bad), dtype=bool)  # a snapshot after the first of its session
    continues[starts] = False
    bad[1:] |= continues[1:] & (
        (t_offset[1:] <= t_offset[:-1]) | (sent_a[1:] < sent_a[:-1]) | (retrans_a[1:] < retrans_a[:-1])
    )
    verdicts = ~np.logical_or.reduceat(bad, starts)

    if int in kinds:
        rates = [None if given is None else value for given, value in zip(rates, rate.tolist())]
    return verdicts.tolist(), [offsets, rtts, rtt_vars, sent, retrans, rates]


def _chunk_record(obj: Any, columns: Sequence[list[Any]], counts: list[int]) -> tuple[str, datetime, IPAddress, int] | None:
    """A record's checked identity, its snapshot fields appended to a chunk's columns.

    Returns None, with nothing appended, for a record whose identity fails
    its checks or whose snapshots are not a non-empty array of objects with
    every required field.
    """
    snaps = obj.get("snapshots") if isinstance(obj, dict) else None
    if not isinstance(snaps, list) or not snaps:
        return None
    try:
        _direction(obj)
        identity = _session_identity(obj)
        fields = list(zip(*map(_required_snapshot_fields, snaps)))
    except (ValueError, KeyError, TypeError):
        return None
    fields.append(map(dict.get, snaps, repeat("delivery_rate_bps")))
    for column, values in zip(columns, fields):
        column += values
    counts.append(len(snaps))
    return identity


def _row(
    identity: tuple[str, datetime, IPAddress, int], rtts: list[float], rtt_vars: list[float], sent: int, retrans: int
) -> SessionRow:
    """A session's row (see SessionRow), from its identity, snapshot series and final byte counters."""
    session_id, timestamp, client_ip, client_asn = identity
    ipv4 = int(client_ip) if isinstance(client_ip, IPv4Address) else -1
    latency, jitter = percentile(rtts, ACCESS_LATENCY_QUANTILE), percentile(rtt_vars, JITTER_QUANTILE)
    retrans_fraction = retrans / sent if sent > 0 else math.nan
    day = timestamp.astimezone(timezone.utc).toordinal()
    return SessionRow(session_id, client_asn, ipv4, latency, jitter, retrans_fraction, day)


def session_row(session: SpeedTestSession) -> SessionRow:
    """The row classify keeps of a session (see SessionRow)."""
    identity = (session.session_id, session.timestamp, session.client_ip, session.client_asn)
    return _row(identity, session.rtt_ms, session.rtt_var_ms, session.bytes_sent[-1], session.bytes_retrans[-1])


def _parse_chunk(
    lines: Sequence[tuple[int, str | bytes]], strictness: str, rows: bool = False
) -> Iterator[SpeedTestSession | SessionRow | RecordError]:
    """Parse a chunk of speed-test lines into sessions, or with rows into their SessionRows.

    Each line is decoded, and its snapshot fields are moved into the chunk's
    columns, which are checked together. Sessions or rows are then built one
    at a time, as they are consumed. A record that fails a check is parsed
    again by session_from_dict, which gives the reason it is rejected, or
    the session its row is taken from.
    """
    records: list[tuple[int, str | bytes, tuple[str, datetime, IPAddress, int] | None]] = []
    columns: list[list[Any]] = [[] for _ in SNAPSHOT_FIELDS]
    counts: list[int] = []
    for line_no, raw in lines:
        try:
            line = _decode(raw)
            if not line.strip():
                continue
            identity = _chunk_record(_loads(line), columns, counts)
        except ValueError:
            identity = None
        records.append((line_no, raw, identity))
    verdicts, columns = _check_snapshots(columns, counts)
    offsets, rtts, rtt_vars, sent, retrans, rates = columns
    checked = zip(verdicts, accumulate(counts))
    stop = 0
    for line_no, raw, identity in records:
        if identity is not None:
            passed, end = next(checked)
            start, stop = stop, end
            if passed and rows:
                yield _row(identity, rtts[start:stop], rtt_vars[start:stop], sent[stop - 1], retrans[stop - 1])
                continue
            if passed:
                yield SpeedTestSession(
                    *identity,
                    DIRECTION_DOWNLOAD,
                    offsets[start:stop],
                    rtts[start:stop],
                    rtt_vars[start:stop],
                    sent[start:stop],
                    retrans[start:stop],
                    rates[start:stop],
                )
                continue
        try:
            session = session_from_dict(_loads(_decode(raw)))
            item: SpeedTestSession | SessionRow | RecordError = session_row(session) if rows else session
        except ValueError as exc:
            item = RecordError(line_no, str(exc))
            if strictness == STRICTNESS_STRICT:
                raise item from None
        yield item


def parse_speedtest_stream(
    source: Source, strictness: str = STRICTNESS_LENIENT, digest: Any = None
) -> Iterator[SpeedTestSession | RecordError]:
    """Stream speed-test sessions from NDJSON; see module docstring for policy.

    Lines are read CHUNK_LINES at a time, so a strict parse reads up to one
    chunk past the malformed line it raises at. A digest (a hashlib object)
    receives the bytes of a path source as they are read, so the corpus is
    hashed in the same pass that parses it.
    """
    _check_strictness(strictness)
    lines = _iter_lines(source, digest)
    for chunk in iter(lambda: list(islice(lines, CHUNK_LINES)), []):
        yield from _parse_chunk(chunk, strictness)


@dataclass
class SpeedTestShard:
    """The rows of one byte range of a corpus file, as columns, its errors, and its line count.

    Row i is ids[i] and item i of each column, in SessionRow's field order.
    Error line numbers count from the range's first line.
    """

    ids: list[str] = field(default_factory=list)
    columns: list[array] = field(default_factory=lambda: [array(code) for code in "qqdddq"])
    errors: list[RecordError] = field(default_factory=list)
    lines: int = 0


def parse_speedtest_range(path: str | Path, start: int, end: int, strictness: str = STRICTNESS_LENIENT) -> SpeedTestShard:
    """Parse the speed-test lines in bytes [start, end) of a file (see _iter_lines) into a shard.

    Under strict parsing it stops at the first malformed record, and
    returns it as the shard's only error.
    """
    _check_strictness(strictness)
    shard = SpeedTestShard()
    lines = _iter_lines(path, None, start, end)
    try:
        for chunk in iter(lambda: list(islice(lines, CHUNK_LINES)), []):
            shard.lines = chunk[-1][0]
            rows = []
            for item in _parse_chunk(chunk, strictness, rows=True):
                (shard.errors if type(item) is RecordError else rows).append(item)
            if rows:
                ids, *values = zip(*rows)
                shard.ids += ids
                for column, column_values in zip(shard.columns, values):
                    column.extend(column_values)
    except RecordError as exc:
        shard.errors.append(exc)
    return shard


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _shard_ranges(path: str | Path, parallelism: int | None) -> list[tuple[int, int]]:
    """min(parallelism, usable CPUs, size // MIN_SHARD_BYTES) byte ranges, at least 1, that start on lines.

    They cover the file; a line longer than a range can leave fewer.
    """
    size = os.path.getsize(path)
    cpus = usable_cpus()
    count = max(1, min(parallelism or cpus, cpus, size // MIN_SHARD_BYTES))
    bounds = [0]
    with open(path, "rb") as handle:
        for k in range(1, count):
            handle.seek(size * k // count)
            handle.readline()
            bounds.append(handle.tell())
    bounds.append(size)
    return [(start, end) for start, end in zip(bounds, bounds[1:]) if start < end] or [(0, 0)]


def _merge_shards(shards: Iterable[SpeedTestShard], strictness: str) -> Iterator[SessionRow | RecordError]:
    """Each shard's errors, numbered from the first shard's first line, then its rows; strictly, the first error raises."""
    offset = 0
    for shard in shards:
        for error in shard.errors:
            error = RecordError(offset + error.line_no, error.reason)
            if strictness == STRICTNESS_STRICT:
                raise error
            yield error
        yield from map(SessionRow, shard.ids, *shard.columns)
        offset += shard.lines


def parse_speedtest_rows(
    path: str | Path, strictness: str = STRICTNESS_LENIENT, digest: Any = None, parallelism: int | None = None
) -> Iterator[SessionRow | RecordError]:
    """Stream a speed-test corpus file's SessionRows and RecordErrors, those of each range in turn.

    One range (see _shard_ranges) is parsed in this process, more by as many forked worker
    processes; the items are those of parse_speedtest_stream and session_row, however the file
    is split. A digest (a hashlib object) receives the file's bytes while workers parse.
    """
    starts, ends = zip(*_shard_ranges(path, parallelism))
    with contextlib.ExitStack() as stack:
        run = map
        if len(starts) > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # A forked worker starts with this process's imports, and needs only its range.
            context = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
            run = stack.enter_context(ProcessPoolExecutor(len(starts), mp_context=context)).map
        shards = run(parse_speedtest_range, repeat(path), starts, ends, repeat(strictness))
        if digest is not None:
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 16), b""):
                    digest.update(block)
        yield from _merge_shards(shards, strictness)


# ---------------------------------------------------------------------------
# traceroutes


def _reply_from_obj(obj: Any, hop: int, ips: dict[str, IPAddress] | None) -> HopReply:
    """One reply of the hop at index hop; a field's name is formatted only into an error."""
    if not isinstance(obj, dict):
        raise ValueError(f"hop {hop} reply must be an object")
    raw_ip = _require(obj, "ip")
    if raw_ip == UNRESPONSIVE:
        if obj.get("rtt_ms") is not None:
            raise ValueError(f"hop {hop} unresponsive reply cannot carry rtt_ms")
        return HopReply(ip=None, rtt_ms=None)
    try:
        ip = _as_ip(raw_ip, "ip", ips)
    except ValueError as exc:
        raise ValueError(f"hop {hop} {exc}") from None
    raw_rtt = _require(obj, "rtt_ms")
    try:
        rtt_ms = _as_number(raw_rtt, "rtt_ms", minimum=0.0)
    except ValueError as exc:
        raise ValueError(f"hop {hop} {exc}") from None
    return HopReply(ip=ip, rtt_ms=rtt_ms)


def _hop_from_obj(obj: Any, hop: int, ips: dict[str, IPAddress] | None) -> Hop:
    """The hop at index hop, checked field by field, as _reply_from_obj checks a reply."""
    if not isinstance(obj, dict):
        raise ValueError(f"hop {hop} must be an object")
    raw_no = _require(obj, "hop_no")
    try:
        hop_no = _as_int(raw_no, "hop_no", minimum=1)
    except ValueError as exc:
        raise ValueError(f"hop {hop} {exc}") from None
    raw_replies = _require(obj, "replies")
    if not isinstance(raw_replies, list) or not raw_replies:
        raise ValueError(f"hop {hop} replies must be a non-empty array")
    return Hop(hop_no=hop_no, replies=[_reply_from_obj(r, hop, ips) for r in raw_replies])


def _memo_hops(raw_hops: list[Any], ips: dict[str, IPAddress]) -> tuple[list[Hop], bool]:
    """A stream record's hops, and whether their numbers strictly increase.

    A hop or reply of the common shape is accepted by inline checks: a dict
    hop whose int hop_no exceeds the previous hop's and whose replies are a
    non-empty list, and a dict reply whose ip is a string in ips and whose
    rtt_ms is a finite float >= 0. _hop_from_obj and _reply_from_obj accept
    exactly these values too, and they check every other hop and reply, one
    at a time; so the hops and the first error are the same as theirs.
    """
    hops: list[Hop] = []
    prev_no = 0
    ordered = True
    for i, raw_hop in enumerate(raw_hops):
        if (
            type(raw_hop) is dict
            and type(hop_no := raw_hop.get("hop_no")) is int
            and hop_no > prev_no
            and type(raw_replies := raw_hop.get("replies")) is list
            and raw_replies
        ):
            replies = []
            for raw in raw_replies:
                if (
                    type(raw) is dict
                    and type(text := raw.get("ip")) is str
                    and (ip := ips.get(text)) is not None
                    and type(rtt_ms := raw.get("rtt_ms")) is float
                    and 0.0 <= rtt_ms < math.inf
                ):
                    replies.append(HopReply(ip, rtt_ms))
                else:
                    replies.append(_reply_from_obj(raw, i, ips))
            hops.append(Hop(hop_no, replies))
        else:
            hop = _hop_from_obj(raw_hop, i, ips)
            hop_no = hop.hop_no
            ordered = ordered and hop_no > prev_no
            hops.append(hop)
        prev_no = hop_no
    return hops, ordered


def traceroute_from_dict(obj: Any, memo: ScalarMemo | None = None) -> TracerouteMeasurement:
    """Build one traceroute; a stream parser passes its memo (see ScalarMemo and _memo_hops).

    Without a memo only the field-by-field validators run: they are the
    reference that the stream's inline checks are tested against.
    """
    ips, stamps = (None, None) if memo is None else (memo.ips, memo.stamps)
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    raw_hops = _require(obj, "hops")
    if not isinstance(raw_hops, list) or not raw_hops:
        raise ValueError("hops must be a non-empty array")
    if ips is None:
        hops = [_hop_from_obj(raw_hop, i, None) for i, raw_hop in enumerate(raw_hops)]
        ordered = all(prev.hop_no < cur.hop_no for prev, cur in zip(hops, hops[1:]))
    else:
        hops, ordered = _memo_hops(raw_hops, ips)
    if not ordered:
        raise ValueError("hop_no must be strictly increasing")
    return TracerouteMeasurement(
        probe_id=_as_int(_require(obj, "probe_id"), "probe_id", minimum=0),
        timestamp=_as_timestamp(_require(obj, "timestamp"), memo=stamps),
        src_addr=_as_ip(_require(obj, "src_addr"), "src_addr", ips),
        dst_name=_as_str(_require(obj, "dst_name"), "dst_name"),
        dst_addr=_as_ip(_require(obj, "dst_addr"), "dst_addr", ips),
        hops=hops,
    )


def parse_traceroute_stream(source: Source, strictness: str = STRICTNESS_LENIENT) -> Iterator[TracerouteMeasurement | RecordError]:
    _check_strictness(strictness)
    memo = ScalarMemo()
    for line_no, raw in _iter_lines(source):
        try:
            line = _decode(raw)
            if not line.strip():
                continue
            yield traceroute_from_dict(_loads(line), memo)
        except ValueError as exc:
            err = RecordError(line_no, str(exc))
            if strictness == STRICTNESS_STRICT:
                raise err from None
            yield err


# ---------------------------------------------------------------------------
# AS paths


def aspath_from_line(line: str, memo: ScalarMemo | None = None) -> AsPathRecord:
    """Parse one AS-path line; a stream parser passes its memo (see ScalarMemo)."""
    # With the line ASCII, isdigit() below accepts only the digits 0-9.
    if not line.isascii():
        raise ValueError("AS-path line must be ASCII")
    tokens = line.split()
    if len(tokens) < 2:
        raise ValueError("expected '<timestamp> <asn> [<asn> ...]'")
    observed_at = _as_timestamp(tokens[0], memo=None if memo is None else memo.stamps)
    path: list[int] = []
    for tok in tokens[1:]:
        if not tok.isdigit():
            raise ValueError(f"non-numeric ASN token {tok!r}")
        asn = int(tok)
        if not 1 <= asn <= MAX_ASN:
            raise ValueError(f"ASN must be in [1, {MAX_ASN}], got {asn}")
        # Collapse consecutive repeats: path prepending is not adjacency.
        if not path or path[-1] != asn:
            path.append(asn)
    return AsPathRecord(observed_at=observed_at, as_path=path)


def parse_aspath_stream(source: Source, strictness: str = STRICTNESS_LENIENT) -> Iterator[AsPathRecord | RecordError]:
    _check_strictness(strictness)
    memo = ScalarMemo()
    for line_no, raw in _iter_lines(source):
        try:
            stripped = _decode(raw).strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield aspath_from_line(stripped, memo)
        except ValueError as exc:
            err = RecordError(line_no, str(exc))
            if strictness == STRICTNESS_STRICT:
                raise err from None
            yield err


def aspath_to_line(rec: AsPathRecord) -> str:
    return " ".join([format_rfc3339(rec.observed_at)] + [str(a) for a in rec.as_path])


# ---------------------------------------------------------------------------
# side tables


def parse_catalog(source: Source) -> SnoCatalog:
    """Load the operator catalog from a JSON array of entry objects."""
    text = _read_all(source)
    try:
        raw = _loads(text)
    except ValueError as exc:
        raise TableError(f"catalog: {exc}") from None
    if not isinstance(raw, list):
        raise TableError("catalog must be a JSON array")
    entries = []
    for i, obj in enumerate(raw):
        if not isinstance(obj, dict):
            raise TableError(f"catalog entry {i} must be an object")
        try:
            name = _as_str(_require(obj, "name"), "name")
            raw_asns = _require(obj, "asns")
            if not isinstance(raw_asns, list) or not raw_asns:
                raise ValueError("asns must be a non-empty array")
            asns = frozenset(_as_int(a, "asn", minimum=1, maximum=MAX_ASN) for a in raw_asns)
            raw_orbits = _require(obj, "orbits")
            if not isinstance(raw_orbits, list) or not raw_orbits:
                raise ValueError("orbits must be a non-empty array")
            for orbit in raw_orbits:
                if orbit not in ORBITS:
                    raise ValueError(f"unknown orbit token {orbit!r}")
            pep = _as_bool(obj.get("pep", False), "pep")
            raw_excluded = obj.get("excluded_asns", [])
            if not isinstance(raw_excluded, list):
                raise ValueError("excluded_asns must be an array")
            excluded = frozenset(_as_int(a, "excluded asn", minimum=1, maximum=MAX_ASN) for a in raw_excluded)
            entries.append(SnoEntry(name, asns, frozenset(raw_orbits), pep, excluded))
        except ValueError as exc:
            raise TableError(f"catalog entry {i}: {exc}") from None
    return SnoCatalog(entries)


def _read_all(source: Source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    if hasattr(source, "read"):
        data = source.read()  # type: ignore[union-attr]
        return data.decode("utf-8") if isinstance(data, bytes) else data
    parts = []
    for chunk in source:
        parts.append(chunk.decode("utf-8") if isinstance(chunk, bytes) else chunk)
    return "".join(parts)


def _csv_rows(source: Source, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    text = _read_all(source)
    reader = csv.reader(io.StringIO(text))
    for line_no, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        cells = [cell.strip() for cell in row]
        if line_no == 1 and tuple(c.lower() for c in cells) == header:
            continue
        if len(cells) != len(header):
            raise TableError(f"row {line_no}: expected {len(header)} columns, got {len(cells)}")
        yield line_no, cells


def parse_registry(source: Source) -> dict[int, str]:
    """Load ASN -> ISO country code assignments from CSV (asn,country_code)."""
    out: dict[int, str] = {}
    for line_no, cells in _csv_rows(source, ("asn", "country_code")):
        raw_asn, raw_cc = cells
        if not (raw_asn.isascii() and raw_asn.isdigit()) or not 1 <= int(raw_asn) <= MAX_ASN:
            raise TableError(f"row {line_no}: bad ASN {raw_asn!r}")
        cc = raw_cc.upper()
        if len(cc) != 2 or not cc.isalpha():
            raise TableError(f"row {line_no}: bad country code {raw_cc!r}")
        asn = int(raw_asn)
        if asn in out and out[asn] != cc:
            raise TableError(f"row {line_no}: AS{asn} mapped to both {out[asn]} and {cc}")
        out[asn] = cc
    return out


def parse_pop_table(source: Source) -> dict[str, PopLocation]:
    """Load PoP code -> location rows from CSV (code,city,country_code,lat,lon)."""
    out: dict[str, PopLocation] = {}
    for line_no, cells in _csv_rows(source, ("code", "city", "country_code", "lat", "lon")):
        code, city, raw_cc, raw_lat, raw_lon = cells
        code = code.lower()
        if not code:
            raise TableError(f"row {line_no}: empty PoP code")
        cc = raw_cc.upper()
        if len(cc) != 2 or not cc.isalpha():
            raise TableError(f"row {line_no}: bad country code {raw_cc!r}")
        try:
            lat, lon = float(raw_lat), float(raw_lon)
        except ValueError:
            raise TableError(f"row {line_no}: bad coordinates {raw_lat!r},{raw_lon!r}") from None
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise TableError(f"row {line_no}: coordinates out of range")
        loc = PopLocation(code, city, cc, lat, lon)
        if code in out and out[code] != loc:
            raise TableError(f"row {line_no}: conflicting rows for PoP {code!r}")
        out[code] = loc
    return out


def parse_rdns(source: Source) -> dict[str, str]:
    """Load IP -> hostname rows from CSV (ip,hostname); keys are normalized IPs."""
    out: dict[str, str] = {}
    for line_no, cells in _csv_rows(source, ("ip", "hostname")):
        raw_ip, raw_host = cells
        try:
            ip = str(ip_address(raw_ip))
        except ValueError:
            raise TableError(f"row {line_no}: bad IP {raw_ip!r}") from None
        host = raw_host.lower().rstrip(".")
        if not host:
            raise TableError(f"row {line_no}: empty hostname")
        if ip in out and out[ip] != host:
            raise TableError(f"row {line_no}: conflicting hostnames for {ip}")
        out[ip] = host
    return out
