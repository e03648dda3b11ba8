"""Subscriber traffic filtering: /24 grouping, strict and relaxed stages.

Operators serving only LEO need no latency screening: their ASNs carry
satellite subscribers almost exclusively. MEO/GEO operators mix satellite
subscribers with terrestrial customers inside the same ASNs, so their
sessions pass a two-stage screen: a strict stage accepts /24 prefixes whose
sessions all look satellite-like, and a relaxed stage rescues sessions in
mixed prefixes whose latency clears the minimum seen among strictly accepted
traffic (or a global floor when no prefix passed strictly).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from ipaddress import IPv4Network
from typing import Iterable, Mapping, Sequence

from .catalog import DEFAULT_BANDS, ORBITS, ROLE_SUBSCRIBER, OrbitBand, SnoCatalog, SnoEntry
from .ingest import SessionRow, SpeedTestSession, session_row

# Relaxed-stage fallback when no prefix passes the strict stage: the lowest
# latency observed among strictly accepted sessions of any MEO/GEO operator.
DEFAULT_GLOBAL_FLOOR_MS = 527.0

DEFAULT_MIN_TESTS = 10

STAGE_ASN = "accepted_asn_stage"
STAGE_STRICT = "accepted_strict"
STAGE_RELAXED = "accepted_relaxed"
STAGE_REJECTED = "rejected"

REASON_UNKNOWN_ASN = "unknown_asn"
REASON_EXCLUDED_ASN = "excluded_asn"
REASON_BELOW_THRESHOLD = "below_threshold"


@dataclass(slots=True)
class SessionRef:
    """The slice of a session the filter stages need.

    ipv4 is the client address as an int, -1 for IPv6. index is the
    session's position in run_pipeline's input (-1 outside a pipeline run);
    its disposition carries it on. Equality ignores this bookkeeping.
    """

    session_id: str
    sno: str
    ipv4: int
    access_latency_ms: float
    index: int = field(default=-1, compare=False)


@dataclass
class PrefixGroup:
    """All of one operator's sessions sharing an IPv4 /24."""

    sno: str
    prefix: IPv4Network
    sessions: list[SessionRef]

    @property
    def latencies(self) -> list[float]:
        return [ref.access_latency_ms for ref in self.sessions]


def group_prefix24(sessions: Iterable[SessionRef]) -> tuple[list[PrefixGroup], list[SessionRef]]:
    """Group IPv4 sessions by (operator, /24); IPv6 sessions are set aside.

    Returns (groups sorted by operator then prefix, excluded IPv6 sessions).
    """
    buckets: dict[tuple[str, int], list[SessionRef]] = {}  # keyed by operator and address >> 8
    ipv6: list[SessionRef] = []
    for ref in sessions:
        if ref.ipv4 < 0:
            ipv6.append(ref)
            continue
        buckets.setdefault((ref.sno, ref.ipv4 >> 8), []).append(ref)
    groups = [
        PrefixGroup(sno=sno, prefix=IPv4Network((prefix << 8, 24)), sessions=refs)
        for (sno, prefix), refs in sorted(buckets.items(), key=lambda kv: kv[0])
    ]
    return groups, ipv6


def _band_list(bands: OrbitBand | Sequence[OrbitBand]) -> list[OrbitBand]:
    if isinstance(bands, OrbitBand):
        return [bands]
    out = list(bands)
    if not out:
        raise ValueError("at least one orbit band is required")
    return out


def in_bands(latency_ms: float, bands: OrbitBand | Sequence[OrbitBand]) -> bool:
    return any(band.contains(latency_ms) for band in _band_list(bands))


def strict_filter(
    group: PrefixGroup,
    bands: OrbitBand | Sequence[OrbitBand],
    min_tests: int = DEFAULT_MIN_TESTS,
) -> bool:
    """Accept a /24 only when it is well-measured and uniformly in-band.

    One out-of-band session anywhere in the prefix rejects the whole prefix:
    the stage trades recall for purity.
    """
    if min_tests < 1:
        raise ValueError("min_tests must be >= 1")
    if len(group.sessions) < min_tests:
        return False
    return all(in_bands(lat, bands) for lat in group.latencies)


def relaxed_threshold(
    strict_accepted_latencies: Sequence[float],
    global_floor_ms: float = DEFAULT_GLOBAL_FLOOR_MS,
) -> float:
    """Per-operator relaxed cutoff: min strictly-accepted latency, else the floor."""
    if len(strict_accepted_latencies) == 0:
        return float(global_floor_ms)
    return float(min(strict_accepted_latencies))


def relaxed_filter(ref: SessionRef, threshold_ms: float) -> bool:
    """Accept a session whose access latency clears the relaxed cutoff."""
    return ref.access_latency_ms >= threshold_ms


@dataclass(slots=True)
class Disposition:
    """Final per-session outcome: which stage accepted it, or why rejected.

    index is the session's position in run_pipeline's input, so that data
    kept per input session can follow the dispositions' session-id order
    even when session ids repeat. Equality ignores it: the outcome of a
    session does not depend on where it sat in the input.
    """

    session_id: str
    sno: str | None
    stage: str
    reason: str | None = None
    index: int = field(default=-1, compare=False)


@dataclass
class SnoResult:
    """Per-operator pipeline outcome."""

    name: str
    orbits: frozenset[str]
    pep: bool
    threshold_ms: float | None
    accepted: list[SessionRef] = field(default_factory=list)
    rejected_count: int = 0
    strict_prefixes: int = 0
    total_prefixes: int = 0


@dataclass
class ClassifiedCorpus:
    """Pipeline output: per-operator results plus one disposition per input."""

    per_sno: dict[str, SnoResult]
    dispositions: list[Disposition]
    ipv6_excluded: int
    asn_latencies: dict[int, list[float]]
    input_count: int

    def accepted_count(self) -> int:
        return sum(len(r.accepted) for r in self.per_sno.values())


def _filter_sno(
    entry: SnoEntry,
    refs: list[SessionRef],
    bands: Mapping[str, OrbitBand],
    min_tests: int,
    global_floor_ms: float,
) -> tuple[SnoResult, list[Disposition]]:
    """Run the strict and relaxed stages for one MEO/GEO operator."""
    declared = [bands[o] for o in ORBITS if o in entry.orbits]
    # IPv6 refs are absent from the groups, so they reach the relaxed branch
    # of the loop below: the prefix screen is the only IPv4-bound stage.
    groups, _ = group_prefix24(refs)
    strict_ids: set[str] = set()
    strict_latencies: list[float] = []
    strict_prefixes = 0
    for group in groups:
        if strict_filter(group, declared, min_tests=min_tests):
            strict_prefixes += 1
            strict_ids.update(ref.session_id for ref in group.sessions)
            strict_latencies.extend(group.latencies)
    threshold = relaxed_threshold(strict_latencies, global_floor_ms=global_floor_ms)
    result = SnoResult(
        name=entry.name,
        orbits=entry.orbits,
        pep=entry.pep,
        threshold_ms=threshold,
        strict_prefixes=strict_prefixes,
        total_prefixes=len(groups),
    )
    dispositions: list[Disposition] = []
    for ref in refs:
        if ref.session_id in strict_ids:
            stage = STAGE_STRICT
        elif relaxed_filter(ref, threshold):
            stage = STAGE_RELAXED
        else:
            stage = STAGE_REJECTED
        if stage == STAGE_REJECTED:
            result.rejected_count += 1
            dispositions.append(Disposition(ref.session_id, entry.name, stage, REASON_BELOW_THRESHOLD, ref.index))
        else:
            result.accepted.append(ref)
            dispositions.append(Disposition(ref.session_id, entry.name, stage, index=ref.index))
    return result, dispositions


def run_pipeline(
    rows: Iterable[SessionRow | SpeedTestSession],
    catalog: SnoCatalog,
    min_tests: int = DEFAULT_MIN_TESTS,
    global_floor_ms: float = DEFAULT_GLOBAL_FLOOR_MS,
    bands: Mapping[str, OrbitBand] | None = None,
    workers: int = 1,
) -> ClassifiedCorpus:
    """Classify a corpus of session rows against an operator catalog.

    A SpeedTestSession is classified by its session_row. Every input
    session receives exactly one disposition. Sessions of unknown or
    excluded ASNs are rejected at the ASN stage; pure-LEO operators accept
    at the ASN stage; MEO/GEO (and hybrid) operators run
    the strict/relaxed prefix screen against the union of their declared
    bands. The result is independent of input order and of the worker
    count: per-operator work is keyed and merged in sorted order, and
    dispositions are sorted by session id.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    band_table = DEFAULT_BANDS if bands is None else bands
    dispositions: list[Disposition] = []
    per_sno: dict[str, SnoResult] = {}
    pending: dict[str, list[SessionRef]] = {}
    entries: dict[str, SnoEntry] = {}
    asn_latencies: dict[int, list[float]] = {}
    excluded_rejections: dict[str, int] = {}
    input_count = 0
    ipv6_excluded = 0

    def result_for(entry: SnoEntry) -> SnoResult:
        result = per_sno.get(entry.name)
        if result is None:
            result = per_sno[entry.name] = SnoResult(entry.name, entry.orbits, entry.pep, threshold_ms=None)
        return result

    for index, row in enumerate(rows):
        if isinstance(row, SpeedTestSession):
            row = session_row(row)
        session_id, asn, ipv4, latency = row[:4]
        input_count += 1
        hit = catalog.lookup(asn)
        if hit is None:
            dispositions.append(Disposition(session_id, None, STAGE_REJECTED, REASON_UNKNOWN_ASN, index))
            continue
        entry, role = hit
        asn_latencies.setdefault(asn, []).append(latency)
        if role != ROLE_SUBSCRIBER:
            excluded_rejections[entry.name] = excluded_rejections.get(entry.name, 0) + 1
            dispositions.append(Disposition(session_id, entry.name, STAGE_REJECTED, REASON_EXCLUDED_ASN, index))
            continue
        ref = SessionRef(session_id, entry.name, ipv4, latency, index)
        if entry.orbits == frozenset(("LEO",)):
            result_for(entry).accepted.append(ref)
            dispositions.append(Disposition(session_id, entry.name, STAGE_ASN, index=index))
        else:
            entries[entry.name] = entry
            pending.setdefault(entry.name, []).append(ref)
            if ipv4 < 0:
                ipv6_excluded += 1

    def work(name: str) -> tuple[SnoResult, list[Disposition]]:
        return _filter_sno(entries[name], pending[name], band_table, min_tests, global_floor_ms)

    names = sorted(pending)
    if workers == 1 or len(names) <= 1:
        outcomes = [work(name) for name in names]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(work, names))
    for result, sno_dispositions in outcomes:
        prior = per_sno.get(result.name)
        if prior is not None:
            result.rejected_count += prior.rejected_count
        per_sno[result.name] = result
        dispositions.extend(sno_dispositions)
    for name, count in excluded_rejections.items():
        result_for(catalog.get(name)).rejected_count += count

    for result in per_sno.values():
        result.accepted.sort(key=lambda ref: ref.session_id)
    dispositions.sort(key=lambda d: d.session_id)
    return ClassifiedCorpus(
        per_sno=per_sno,
        dispositions=dispositions,
        ipv6_excluded=ipv6_excluded,
        asn_latencies=asn_latencies,
        input_count=input_count,
    )


def summary_rows(corpus: ClassifiedCorpus) -> list[dict[str, object]]:
    """Per-operator summary rows (sorted by name) for the CSV export."""
    rows = []
    for name in sorted(corpus.per_sno):
        result = corpus.per_sno[name]
        rows.append(
            {
                "sno": name,
                "orbit": "+".join(o for o in ORBITS if o in result.orbits),
                "accepted": len(result.accepted),
                "rejected": result.rejected_count,
                "threshold_ms": "" if result.threshold_ms is None else f"{result.threshold_ms:.3f}",
            }
        )
    return rows
