"""Summary statistics for benchmark samples and trace spans."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# A tail percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """Middle value, or the mean of the two middle values."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """(q, value) for the highest whole-number percentile q with >= 10 samples above it.

    The value is the nearest-rank sample at q, so exactly the samples above
    it are beyond it. None when there are too few samples for any tail,
    that is fewer than 11.
    """
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    for q in range(99, 0, -1):
        rank = math.ceil(q / 100.0 * n)  # 1-based nearest rank
        if n - rank >= TAIL_SAMPLES:
            return float(q), float(ordered[rank - 1])
    return None


@dataclass
class Span:
    """One traced call: name, start and end on one clock, and its caller's index.

    hot_s is time spent directly under this span in calls counted only in
    aggregate, which has no spans of its own.
    """

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    hot_s: float = 0.0


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that child spans or hot calls cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(max(0.0, span.end - span.start - covered - span.hot_s))
    return out
