"""Starlink forward-path analytics: gateway detection, PoP timelines, events.

A Starlink subscriber's traceroute crosses the carrier-grade-NAT gateway
100.64.0.1 right after the dish; its presence proves the path rode the
satellite network. The PoP a subscriber egresses from is named by the
reverse DNS of their public address (customer.<pop>.pop.starlinkisp.net),
so a probe's PoP assignment history and its gateway RTT series together
describe how the ground network reshapes itself over time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from ipaddress import IPv4Address
from typing import Iterable, Mapping

from .ingest import IPAddress, TracerouteMeasurement
from .profiling import percentile

GATEWAY_IP: IPAddress = IPv4Address("100.64.0.1")

POP_HOSTNAME_RE = re.compile(r"^customer\.([a-z0-9][a-z0-9-]*)\.pop\.starlinkisp\.net$")

UNKNOWN_POP = "unknown"

EVENT_POP_CHANGE = "pop_change"
EVENT_LATENCY_SHIFT = "latency_shift"

DEFAULT_SHIFT_THRESHOLD = 0.25
DEFAULT_SHIFT_WINDOW = 50


class PopHostnameError(ValueError):
    """A hostname does not follow the customer PoP naming scheme."""


def parse_pop_hostname(hostname: str) -> str:
    """Extract the PoP code from a customer reverse-DNS name.

    Matching is case-insensitive and ignores a trailing dot; anything not of
    the exact customer.<pop>.pop.starlinkisp.net shape raises.
    """
    cleaned = hostname.strip().rstrip(".").lower()
    match = POP_HOSTNAME_RE.match(cleaned)
    if match is None:
        raise PopHostnameError(f"not a customer PoP hostname: {hostname!r}")
    return match.group(1)


@dataclass(slots=True)
class PathSample:
    """One satellite-path measurement reduced to its PoP and gateway RTT."""

    probe_id: int
    timestamp: datetime
    dst_name: str
    pop_code: str
    rtt_ms: float


@dataclass
class PopAssignment:
    """A maximal run of consecutive measurements egressing from one PoP."""

    probe_id: int
    pop_code: str
    start: datetime
    end: datetime
    median_rtt_ms: float
    samples: list[tuple[datetime, float]]

    @property
    def n_measurements(self) -> int:
        return len(self.samples)


@dataclass(slots=True)
class ChangeEvent:
    """A discrete shift in a probe's path: new PoP or a latency regime change."""

    probe_id: int
    at: datetime
    kind: str
    before_pop: str | None
    before_rtt_ms: float | None
    after_pop: str
    after_rtt_ms: float


def _pop_of(m: TracerouteMeasurement, rdns: Mapping[str, str]) -> str:
    hostname = rdns.get(str(m.src_addr))
    if hostname is None:
        return UNKNOWN_POP
    try:
        return parse_pop_hostname(hostname)
    except PopHostnameError:
        return UNKNOWN_POP


def path_sample(
    m: TracerouteMeasurement,
    rdns: Mapping[str, str],
    gateway: IPAddress = GATEWAY_IP,
) -> PathSample | None:
    """What a PoP timeline needs of one measurement, or None if no gateway reply has an RTT.

    A path that did not cross the gateway did not ride the satellite
    network. The sample's RTT is the median of the gateway's replies: the
    dish -> PoP round trip. A source address with no usable reverse DNS gets
    the "unknown" PoP code, so gaps stay visible.
    """
    rtts = [
        reply.rtt_ms
        for hop in m.hops
        for reply in hop.replies
        if reply.ip == gateway and reply.rtt_ms is not None
    ]
    if not rtts:
        return None
    return PathSample(m.probe_id, m.timestamp, m.dst_name, _pop_of(m, rdns), percentile(rtts, 0.5))


def build_pop_timeline(samples: Iterable[PathSample]) -> list[PopAssignment]:
    """Coalesce one probe's path samples into consecutive PoP assignments.

    Samples are ordered by (timestamp, dst_name), ties kept in input order.
    """
    usable = sorted(samples, key=lambda s: (s.timestamp, s.dst_name))
    probe_ids = {s.probe_id for s in usable}
    if len(probe_ids) > 1:
        raise ValueError(f"timeline mixes probes {sorted(probe_ids)}")
    timeline: list[PopAssignment] = []
    for s in usable:
        if timeline and timeline[-1].pop_code == s.pop_code:
            current = timeline[-1]
            current.end = s.timestamp
            current.samples.append((s.timestamp, s.rtt_ms))
        else:
            timeline.append(
                PopAssignment(
                    probe_id=s.probe_id,
                    pop_code=s.pop_code,
                    start=s.timestamp,
                    end=s.timestamp,
                    median_rtt_ms=s.rtt_ms,
                    samples=[(s.timestamp, s.rtt_ms)],
                )
            )
    for assignment in timeline:
        assignment.median_rtt_ms = percentile([r for _, r in assignment.samples], 0.5)
    return timeline


def detect_changes(
    timeline: list[PopAssignment],
    shift_threshold: float = DEFAULT_SHIFT_THRESHOLD,
    window: int = DEFAULT_SHIFT_WINDOW,
) -> list[ChangeEvent]:
    """Events on one probe's timeline: PoP handovers and latency regime shifts.

    Every boundary between consecutive assignments is a pop_change (so a
    timeline of k assignments yields exactly k-1 of them). Within an
    assignment, a trailing rolling median that moves by at least
    shift_threshold (relative) against the current baseline is a
    latency_shift, and the baseline re-anchors there.
    """
    if shift_threshold <= 0:
        raise ValueError("shift_threshold must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    events: list[ChangeEvent] = []
    for prev, cur in zip(timeline, timeline[1:]):
        events.append(
            ChangeEvent(
                probe_id=cur.probe_id,
                at=cur.start,
                kind=EVENT_POP_CHANGE,
                before_pop=prev.pop_code,
                before_rtt_ms=prev.median_rtt_ms,
                after_pop=cur.pop_code,
                after_rtt_ms=cur.median_rtt_ms,
            )
        )
    for assignment in timeline:
        rtts = [r for _, r in assignment.samples]
        if len(rtts) < 2 * window:
            continue
        baseline = percentile(rtts[:window], 0.5)
        for i in range(window, len(rtts)):
            rolling = percentile(rtts[i - window + 1 : i + 1], 0.5)
            if abs(rolling - baseline) >= shift_threshold * baseline:
                events.append(
                    ChangeEvent(
                        probe_id=assignment.probe_id,
                        at=assignment.samples[i][0],
                        kind=EVENT_LATENCY_SHIFT,
                        before_pop=assignment.pop_code,
                        before_rtt_ms=baseline,
                        after_pop=assignment.pop_code,
                        after_rtt_ms=rolling,
                    )
                )
                baseline = rolling
    events.sort(key=lambda e: (e.at, 0 if e.kind == EVENT_POP_CHANGE else 1))
    return events
