"""Shared builders for test fixtures."""

from __future__ import annotations

import io
import json
from datetime import date, datetime, timezone
from ipaddress import ip_address
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from snoscope.catalog import OrbitBand, SnoCatalog
from snoscope.filtering import STAGE_REJECTED, ClassifiedCorpus
from snoscope.ingest import (
    SNAPSHOT_FIELDS,
    UNRESPONSIVE,
    Hop,
    HopReply,
    RecordError,
    SessionRow,
    SpeedTestSession,
    TracerouteMeasurement,
    _decode,
    _loads,
    session_from_dict,
    session_row,
)
from snoscope.metrics import (
    GROUPING_ORBIT,
    SESSION_TABLE_DTYPE,
    DistributionSummary,
    SessionMetrics,
    group_label,
    session_metrics,
    summarize,
)
from snoscope.profiling import OrbitVerdict, _orbit_verdict, _verdict_modes, percentile
from snoscope.util import format_rfc3339


def ts(text: str) -> datetime:
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    stamp = datetime.fromisoformat(text)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


def session_to_dict(session: SpeedTestSession) -> dict:
    """A session as the JSON object of its corpus line."""
    snapshots = []
    for values in zip(*(getattr(session, name) for name in SNAPSHOT_FIELDS)):
        snap = dict(zip(SNAPSHOT_FIELDS, values))
        if snap["delivery_rate_bps"] is None:
            del snap["delivery_rate_bps"]
        snapshots.append(snap)
    return {
        "session_id": session.session_id,
        "timestamp": format_rfc3339(session.timestamp),
        "client_ip": str(session.client_ip),
        "client_asn": session.client_asn,
        "direction": session.direction,
        "snapshots": snapshots,
    }


def session_to_json(session: SpeedTestSession) -> str:
    return json.dumps(session_to_dict(session), separators=(",", ":"))


def reference_sessions(source: str | Path | Iterable[str | bytes]) -> list[SpeedTestSession | RecordError]:
    """Each record line's session, checked one field at a time by session_from_dict, or its RecordError.

    source is a path or an iterable of lines; a blank line holds no record.
    This is the reference the speed-test parse's rows and errors must agree with.
    """
    lines = io.BytesIO(Path(source).read_bytes()) if isinstance(source, (str, Path)) else source
    items: list[SpeedTestSession | RecordError] = []
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = _decode(raw)
            if line.strip():
                items.append(session_from_dict(_loads(line)))
        except ValueError as exc:
            items.append(RecordError(line_no, str(exc)))
    return items


def reference_rows(source: str | Path | Iterable[str | bytes]) -> list[SessionRow | RecordError]:
    """reference_sessions, with each session's session_row in its place."""
    return [item if isinstance(item, RecordError) else session_row(item) for item in reference_sessions(source)]


def traceroute_to_dict(m: TracerouteMeasurement) -> dict:
    """A traceroute as the JSON object of its corpus line."""
    hops = []
    for hop in m.hops:
        replies = []
        for reply in hop.replies:
            if reply.ip is None:
                replies.append({"ip": UNRESPONSIVE})
            else:
                replies.append({"ip": str(reply.ip), "rtt_ms": reply.rtt_ms})
        hops.append({"hop_no": hop.hop_no, "replies": replies})
    return {
        "probe_id": m.probe_id,
        "timestamp": format_rfc3339(m.timestamp),
        "src_addr": str(m.src_addr),
        "dst_name": m.dst_name,
        "dst_addr": str(m.dst_addr),
        "hops": hops,
    }


def traceroute_to_json(m: TracerouteMeasurement) -> str:
    return json.dumps(traceroute_to_dict(m), separators=(",", ":"))


def corpus_metrics(
    sessions: list[SpeedTestSession], corpus: ClassifiedCorpus, accepted_only: bool = True
) -> list[SessionMetrics]:
    """Metrics for sessions, attributed via the pipeline's dispositions.

    sessions are run_pipeline's input, in its order: session i is attributed
    by the disposition whose index is i, so sessions that share an id keep
    their own outcomes.
    """
    by_index = {d.index: (d.sno, d.stage) for d in corpus.dispositions}
    out = []
    for index, session in enumerate(sessions):
        sno, stage = by_index.get(index, (None, STAGE_REJECTED))
        if not (accepted_only and stage == STAGE_REJECTED):
            out.append(session_metrics(session, sno=sno))
    return out


def session_table(sessions: Iterable[SpeedTestSession]) -> np.ndarray:
    """The session table classify writes for sessions: one row each, in order."""
    rows = [session_row(session) for session in sessions]
    values = [(row.day, row.latency_p5_ms, row.jitter_p95_ms, row.retrans_fraction) for row in rows]
    return np.array(values, dtype=SESSION_TABLE_DTYPE)


def corpus_table(sessions: list[SpeedTestSession], corpus: ClassifiedCorpus) -> tuple[np.ndarray, list[str | None]]:
    """The session table of run_pipeline's input and each row's operator, None where rejected (see corpus_metrics)."""
    snos: list[str | None] = [None] * len(sessions)
    for d in corpus.dispositions:
        snos[d.index] = None if d.stage == STAGE_REJECTED else d.sno
    return session_table(sessions), snos


def reference_compare_groups(
    metrics: Iterable[SessionMetrics],
    catalog: SnoCatalog,
    grouping: str = GROUPING_ORBIT,
    metric: str = "latency_p5_ms",
) -> dict[str, DistributionSummary]:
    """metrics.compare_groups over per-session objects: one SessionMetrics field summarized per group label.

    Sessions without an operator, or whose metric is undefined (None), are skipped.
    """
    pools: dict[str, list[float]] = {}
    for m in metrics:
        value = getattr(m, metric)
        if m.sno is not None and value is not None:
            pools.setdefault(group_label(catalog.get(m.sno), grouping), []).append(value)
    return {label: summarize(values) for label, values in sorted(pools.items())}


def reference_daily_median_series(metrics: Iterable[SessionMetrics], metric: str = "latency_p5_ms") -> list[tuple[date, float]]:
    """One operator's metrics.daily_median_series over per-session objects: the median of one field per UTC day.

    Sessions whose metric is undefined (None) are left out of their day's population.
    """
    by_day: dict[date, list[float]] = {}
    for m in metrics:
        value = getattr(m, metric)
        if value is not None:
            by_day.setdefault(m.day, []).append(value)
    return [(day, percentile(values, 0.5)) for day, values in sorted(by_day.items())]


def classify_orbit(
    latencies: Sequence[float],
    bands: Mapping[str, OrbitBand] | None = None,
    dominance: float = 0.8,
    terrestrial_ms: float = 20.0,
    min_samples: int = 10,
    min_prominence: float = 0.05,
) -> OrbitVerdict:
    """One population's orbit verdict with its KDE modes, whatever the verdict.

    flag_asn_anomalies computes the modes only where its check reads them;
    this is the verdict its anomalies must carry.
    """
    verdict = _orbit_verdict(latencies, bands, dominance, terrestrial_ms, min_samples)
    verdict.modes_ms = _verdict_modes(latencies, min_prominence)
    return verdict


def mapped_asns(catalog: SnoCatalog) -> int:
    """How many ASNs a catalog maps, subscriber and excluded alike."""
    return len({asn for entry in catalog.entries for asn in entry.asns | entry.excluded_asns})


def make_session(
    session_id: str = "s-0001",
    rtts: list[float] | None = None,
    rtt_vars: list[float] | None = None,
    client_ip: str = "100.1.2.3",
    client_asn: int = 14593,
    timestamp: str = "2021-03-05T12:00:00Z",
    bytes_sent_final: int = 10_000_000,
    bytes_retrans_final: int = 0,
) -> SpeedTestSession:
    rtts = rtts if rtts is not None else [60.0, 58.0, 57.0, 56.0, 59.0]
    rtt_vars = rtt_vars if rtt_vars is not None else [5.0] * len(rtts)
    if len(rtt_vars) != len(rtts):
        raise ValueError("rtts and rtt_vars must have equal length")
    n = len(rtts)
    return SpeedTestSession(
        session_id=session_id,
        timestamp=ts(timestamp),
        client_ip=ip_address(client_ip),
        client_asn=client_asn,
        direction="download",
        t_offset_ms=[(i + 1) * 800.0 for i in range(n)],
        rtt_ms=list(rtts),
        rtt_var_ms=list(rtt_vars),
        bytes_sent=[int(bytes_sent_final * ((i + 1) / n)) for i in range(n)],
        bytes_retrans=[int(bytes_retrans_final * ((i + 1) / n)) for i in range(n)],
        delivery_rate_bps=[None] * n,
    )


def make_traceroute(
    probe_id: int = 1001,
    timestamp: str = "2022-05-03T00:00:00Z",
    src_addr: str = "98.3.233.10",
    dst_name: str = "k.root-servers.net",
    dst_addr: str = "193.0.14.129",
    gateway_rtts: list[float] | None = None,
    reach_target: bool = True,
    include_gateway: bool = True,
) -> TracerouteMeasurement:
    gateway_rtts = gateway_rtts if gateway_rtts is not None else [53.0, 52.0, 54.0]
    hops = [Hop(hop_no=1, replies=[HopReply(ip=ip_address("192.168.1.1"), rtt_ms=1.5)])]
    if include_gateway:
        hops.append(
            Hop(hop_no=2, replies=[HopReply(ip=ip_address("100.64.0.1"), rtt_ms=r) for r in gateway_rtts])
        )
    hops.append(Hop(hop_no=3, replies=[HopReply(ip=ip_address("206.224.0.1"), rtt_ms=55.0)]))
    if reach_target:
        hops.append(Hop(hop_no=4, replies=[HopReply(ip=ip_address(dst_addr), rtt_ms=60.0)]))
    else:
        hops.append(Hop(hop_no=4, replies=[HopReply(ip=None, rtt_ms=None)]))
    return TracerouteMeasurement(
        probe_id=probe_id,
        timestamp=ts(timestamp),
        src_addr=ip_address(src_addr),
        dst_name=dst_name,
        dst_addr=ip_address(dst_addr),
        hops=hops,
    )


def _edited_session_line(edit) -> bytes:
    obj = session_to_dict(make_session())
    edit(obj)
    return json.dumps(obj).encode("utf-8")


# One malformed speed-test record each, as the bytes of one corpus line.
HOSTILE_LINES = {
    "400-digit rtt_ms": _edited_session_line(lambda o: o["snapshots"][0].update(rtt_ms=10**400)),
    "100k nested arrays": b"[" * 100_000,
    "2**40 client_asn": _edited_session_line(lambda o: o.update(client_asn=2**40)),
    "timestamp before year 1 in UTC": _edited_session_line(lambda o: o.update(timestamp="0001-01-01T00:00:00+01:00")),
    "2**63 bytes_sent": _edited_session_line(lambda o: o["snapshots"][-1].update(bytes_sent=2**63)),
    "invalid UTF-8": _edited_session_line(lambda o: o.update(session_id="s-BAD")).replace(b"s-BAD", b"s-\xff"),
}
