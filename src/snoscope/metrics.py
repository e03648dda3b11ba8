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

import io
import math
from array import array
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .catalog import SnoCatalog, SnoEntry
from .ingest import SessionRow, SpeedTestSession, session_row
from .profiling import percentile
from .util import atomic_write

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
    row = session_row(session)
    retrans_fraction = None if math.isnan(row.retrans_fraction) else row.retrans_fraction
    return SessionMetrics(row.session_id, sno, date.fromordinal(row.day), row.latency_p5_ms, row.jitter_p95_ms,
                          row.jitter_p95_ms / row.latency_p5_ms, retrans_fraction)


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

    def measure(self, rows: Iterable[SessionRow]) -> Iterator[SessionRow]:
        """Pass session rows through, appending the table values of each one."""
        for row in rows:
            self._values.extend((row.day, row.latency_p5_ms, row.jitter_p95_ms, row.retrans_fraction))
            yield row

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
    """A session table as save_session_table wrote it: the exact header np.save gives its rows, then the rows."""
    data = Path(path).read_bytes()
    body = 10 + int.from_bytes(data[8:10], "little")  # where a version 1.0 header says the rows start
    rows, extra = divmod(len(data) - body, SESSION_TABLE_DTYPE.itemsize)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": SESSION_TABLE_DTYPE.descr, "fortran_order": False, "shape": (rows,)})
    if rows < 0 or extra or data[:body] != header.getvalue():
        raise ValueError(f"{path} is not a session table")
    table = np.frombuffer(data, dtype=SESSION_TABLE_DTYPE, offset=body)
    day, latency, jitter, retrans = (table[name] for name in SESSION_TABLE_DTYPE.names)
    # The ranges of the values classify writes; a NaN retrans_fraction stands for None.
    valid = {
        "day": (day >= 1) & (day <= date.max.toordinal()),
        "latency_p5_ms": np.isfinite(latency) & (latency > 0),
        "jitter_p95_ms": np.isfinite(jitter) & (jitter >= 0),
        "retrans_fraction": np.isnan(retrans) | ((retrans >= 0) & (retrans <= 1)),
    }
    for name, ok in valid.items():
        if not ok.all():
            row = int(np.argmin(ok))
            raise ValueError(f"{path} row {row}: {name} {table[name][row].item()!r} is out of range")
    return table


def _column(table: np.ndarray, metric: str) -> np.ndarray:
    """One metric per session-table row: a column, or jitter_variability, the ratio of two."""
    if metric == "jitter_variability":
        return table["jitter_p95_ms"] / table["latency_p5_ms"]
    return table[metric]


def _pools(keys: Iterable[Hashable], values: np.ndarray) -> list[tuple[Any, list[float]]]:
    """The defined (non-NaN) values under each key but None, as Python floats in row order; sorted by key."""
    pools: dict[Hashable, list[float]] = {}
    for key, value in zip(keys, values.tolist()):
        if key is not None and value == value:  # False for NaN alone
            pools.setdefault(key, []).append(value)
    return sorted(pools.items())


def daily_median_series(
    table: np.ndarray, snos: Sequence[str | None], metric: str = "latency_p5_ms"
) -> dict[str, list[tuple[date, float]]]:
    """Each operator's median of one metric per UTC day, sorted by day; empty days are absent.

    snos[i] is the operator of table row i. Rows without one (None), or whose
    metric is undefined (NaN), are left out.
    """
    keys = [None if sno is None else (sno, day) for sno, day in zip(snos, table["day"].tolist())]
    series: dict[str, list[tuple[date, float]]] = {}
    for (sno, day), pool in _pools(keys, _column(table, metric)):
        series.setdefault(sno, []).append((date.fromordinal(day), percentile(pool, 0.5)))
    return series


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


def group_label(entry: SnoEntry, grouping: str) -> str:
    """An operator's orbit label (e.g. "MEO+GEO"), its name, or its PEP class: GEO split by proxy use, others by orbit."""
    if grouping == GROUPING_SNO:
        return entry.name
    if grouping == GROUPING_PEP and "GEO" in entry.orbits:
        return "GEO (PEP)" if entry.pep else "GEO (others)"
    if grouping in (GROUPING_ORBIT, GROUPING_PEP):
        return entry.orbit_label()
    raise ValueError(f"unknown grouping {grouping!r}")


def compare_groups(
    table: np.ndarray, snos: Sequence[str | None], catalog: SnoCatalog,
    grouping: str = GROUPING_ORBIT, metric: str = "latency_p5_ms",
) -> dict[str, DistributionSummary]:
    """Summarize one metric across groups of sessions, sorted by group label.

    snos[i] is the operator of table row i. Rows without one (None), or whose
    metric is undefined (NaN), are skipped.
    """
    labels = {sno: group_label(catalog.get(sno), grouping) for sno in set(snos) - {None}}
    return {label: summarize(pool) for label, pool in _pools([labels.get(sno) for sno in snos], _column(table, metric))}
