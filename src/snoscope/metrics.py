"""Per-session performance metrics and group-level distribution summaries.

Each session yields a latency floor (5th percentile of RTT), a jitter
ceiling (95th percentile of RTT variance), their ratio as a dimensionless
variability score, and the final retransmitted-byte fraction. Group-level
comparisons aggregate these into quantile boxes, full CDFs, and UTC daily
median series.

Per-session metrics are saved as a session table: a NumPy .npy file of one
structured array, which lets a report aggregate them without parsing the
corpus again.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from datetime import date, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .catalog import SnoCatalog, SnoEntry
from .filtering import STAGE_REJECTED, ClassifiedCorpus
from .ingest import SpeedTestSession
from .profiling import percentile
from .util import atomic_write

JITTER_QUANTILE = 0.95

GROUPING_ORBIT = "orbit"
GROUPING_SNO = "sno"
GROUPING_PEP = "pep_class"


@dataclass(slots=True)
class SessionMetrics:
    """Stability metrics for one session.

    retrans_fraction is None when the session sent no bytes: a fraction of
    nothing is undefined, not zero.
    """

    session_id: str
    sno: str | None
    day: date
    latency_p5_ms: float
    jitter_p95_ms: float
    jitter_variability: float
    retrans_fraction: float | None


def session_metrics(session: SpeedTestSession, sno: str | None = None) -> SessionMetrics:
    latency_p5 = percentile(session.rtt_ms, 0.05)
    jitter_p95 = percentile(session.rtt_var_ms, JITTER_QUANTILE)
    sent, retrans = session.bytes_sent[-1], session.bytes_retrans[-1]
    retrans_fraction = retrans / sent if sent > 0 else None
    return SessionMetrics(
        session_id=session.session_id,
        sno=sno,
        day=session.timestamp.astimezone(timezone.utc).date(),
        latency_p5_ms=latency_p5,
        jitter_p95_ms=jitter_p95,
        jitter_variability=jitter_p95 / latency_p5,
        retrans_fraction=retrans_fraction,
    )


# One row per session. day is the UTC date as a proleptic Gregorian ordinal
# (date.toordinal); a NaN retrans_fraction stands for None. The ratio
# jitter_variability is not stored: it is recomputed from its two terms.
SESSION_TABLE_DTYPE = np.dtype(
    [("day", "<i4"), ("latency_p5_ms", "<f8"), ("jitter_p95_ms", "<f8"), ("retrans_fraction", "<f8")]
)


class SessionTableBuilder:
    """Session metrics collected in input order, in compact column buffers."""

    def __init__(self) -> None:
        # One value per table column per session, interleaved; a day ordinal
        # is exact as a double.
        self._values = array("d")

    def measure(self, sessions: Iterable[SpeedTestSession]) -> Iterator[SpeedTestSession]:
        """Pass sessions through, appending the metrics of each one."""
        for session in sessions:
            m = session_metrics(session)
            retrans = math.nan if m.retrans_fraction is None else m.retrans_fraction
            self._values.extend((m.day.toordinal(), m.latency_p5_ms, m.jitter_p95_ms, retrans))
            yield session

    def build(self, order: Sequence[int]) -> np.ndarray:
        """The session table whose row i holds the order[i]-th session measured."""
        names = SESSION_TABLE_DTYPE.names
        values = np.frombuffer(self._values, dtype=np.float64).reshape(-1, len(names))
        values = values[np.asarray(order, dtype=np.intp)]
        table = np.empty(len(values), dtype=SESSION_TABLE_DTYPE)
        for column, name in enumerate(names):
            table[name] = values[:, column]
        return table


def save_session_table(path: str | Path, table: np.ndarray) -> None:
    with atomic_write(path, binary=True) as handle:
        np.save(handle, table, allow_pickle=False)


def load_session_table(path: str | Path) -> np.ndarray:
    table = np.load(path, allow_pickle=False)
    if table.dtype != SESSION_TABLE_DTYPE or table.ndim != 1:
        raise ValueError(f"{path} is not a session table: dtype {table.dtype}, shape {table.shape}")
    return table


def table_metrics(table: np.ndarray, session_ids: Sequence[str], snos: Sequence[str | None]) -> list[SessionMetrics]:
    """SessionMetrics of a session table's rows, given each row's id and operator.

    Rows whose operator is None are left out.
    """
    if not len(table) == len(session_ids) == len(snos):
        raise ValueError(f"session table has {len(table)} rows for {len(session_ids)} sessions")
    columns = (table[name].tolist() for name in SESSION_TABLE_DTYPE.names)
    out: list[SessionMetrics] = []
    for session_id, sno, day, latency, jitter, retrans in zip(session_ids, snos, *columns):
        if sno is None:
            continue
        out.append(
            SessionMetrics(
                session_id=session_id,
                sno=sno,
                day=date.fromordinal(day),
                latency_p5_ms=latency,
                jitter_p95_ms=jitter,
                jitter_variability=jitter / latency,
                retrans_fraction=None if math.isnan(retrans) else retrans,
            )
        )
    return out


MetricSelector = Callable[[SessionMetrics], float | None]


def _selector(metric: str | MetricSelector) -> MetricSelector:
    if callable(metric):
        return metric
    return lambda m: getattr(m, metric)


def daily_median_series(
    metrics: Iterable[SessionMetrics],
    metric: str | MetricSelector = "latency_p5_ms",
) -> list[tuple[date, float]]:
    """Median of one metric per UTC day, sorted by day; empty days are absent.

    Sessions whose selected metric is undefined (None) are left out of their
    day's population.
    """
    select = _selector(metric)
    by_day: dict[date, list[float]] = {}
    for m in metrics:
        value = select(m)
        if value is None:
            continue
        by_day.setdefault(m.day, []).append(value)
    return [(day, percentile(values, 0.5)) for day, values in sorted(by_day.items())]


def daily_variation(series: Sequence[tuple[date, float]]) -> float:
    """Spread of a daily median series: p95 of |day-over-day delta| / series median.

    Consecutive means consecutive in the series (absent days do not
    contribute deltas).
    """
    if len(series) < 2:
        raise ValueError("daily variation needs at least 2 days")
    values = [v for _, v in series]
    deltas = [abs(b - a) for a, b in zip(values, values[1:])]
    center = percentile(values, 0.5)
    if center == 0:
        raise ValueError("series median is zero; variation undefined")
    return percentile(deltas, 0.95) / center


@dataclass
class DistributionSummary:
    """Quantile box plus the full empirical CDF of one population."""

    p5: float
    p25: float
    p50: float
    p75: float
    p95: float
    n: int
    cdf_points: list[tuple[float, float]]


def summarize(values: Sequence[float]) -> DistributionSummary:
    """Summarize a population: box quantiles and CDF at every distinct value."""
    if not values:
        raise ValueError("cannot summarize an empty population")
    ordered = sorted(values)
    n = len(ordered)
    cdf: list[tuple[float, float]] = []
    for i, value in enumerate(ordered):
        # The CDF point for a value is the fraction at its last occurrence.
        if i + 1 == n or ordered[i + 1] != value:
            cdf.append((value, (i + 1) / n))
    return DistributionSummary(
        p5=percentile(ordered, 0.05),
        p25=percentile(ordered, 0.25),
        p50=percentile(ordered, 0.5),
        p75=percentile(ordered, 0.75),
        p95=percentile(ordered, 0.95),
        n=n,
        cdf_points=cdf,
    )


def orbit_group(entry: SnoEntry) -> str:
    """Orbit label for grouping, hybrids joined as e.g. "MEO+GEO"."""
    return entry.orbit_label()


def pep_group(entry: SnoEntry) -> str:
    """PEP split: GEO operators by proxy deployment, others by orbit."""
    if "GEO" in entry.orbits:
        return "GEO (PEP)" if entry.pep else "GEO (others)"
    return entry.orbit_label()


def group_label(entry: SnoEntry, grouping: str) -> str:
    if grouping == GROUPING_ORBIT:
        return orbit_group(entry)
    if grouping == GROUPING_SNO:
        return entry.name
    if grouping == GROUPING_PEP:
        return pep_group(entry)
    raise ValueError(f"unknown grouping {grouping!r}")


def compare_groups(
    metrics: Iterable[SessionMetrics],
    catalog: SnoCatalog,
    grouping: str = GROUPING_ORBIT,
    metric: str | MetricSelector = "latency_p5_ms",
) -> dict[str, DistributionSummary]:
    """Summarize one metric across groups of sessions.

    Sessions without an operator attribution, or whose selected metric is
    undefined, are skipped.
    """
    select = _selector(metric)
    pools: dict[str, list[float]] = {}
    for m in metrics:
        if m.sno is None or m.sno not in catalog:
            continue
        value = select(m)
        if value is None:
            continue
        label = group_label(catalog.get(m.sno), grouping)
        pools.setdefault(label, []).append(value)
    return {label: summarize(values) for label, values in sorted(pools.items())}


def corpus_metrics(
    sessions: Iterable[SpeedTestSession],
    corpus: ClassifiedCorpus,
    accepted_only: bool = True,
) -> list[SessionMetrics]:
    """Metrics for sessions, attributed via the pipeline's dispositions.

    sessions are run_pipeline's input, in its order: session i is attributed
    by the disposition whose index is i, so sessions that share an id keep
    their own outcomes.
    """
    by_index: dict[int, tuple[str | None, str]] = {
        d.index: (d.sno, d.stage) for d in corpus.dispositions
    }
    out: list[SessionMetrics] = []
    for index, session in enumerate(sessions):
        sno, stage = by_index.get(index, (None, STAGE_REJECTED))
        if accepted_only and stage == STAGE_REJECTED:
            continue
        out.append(session_metrics(session, sno=sno))
    return out
