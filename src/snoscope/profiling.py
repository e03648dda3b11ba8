"""Latency statistics: access latency, kernel densities, and orbit verdicts.

A session's access latency is the 5th percentile of its snapshot RTTs: the
low tail approaches the propagation floor of the access link, which is what
separates orbit regimes. Aggregated per ASN, the latency distribution is
summarized by a Gaussian KDE whose modes reveal mixed constellations, and an
orbit verdict is assigned by band dominance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .catalog import DEFAULT_BANDS, ORBITS, OrbitBand, SnoCatalog, band_containing

if TYPE_CHECKING:  # ingest imports this module, for the statistics of its session rows
    from .ingest import SpeedTestSession

VERDICT_MIXED = "mixed"
VERDICT_TERRESTRIAL = "terrestrial_suspect"

ACCESS_LATENCY_QUANTILE = 0.05
JITTER_QUANTILE = 0.95

KDE_GRID_POINTS = 512
KDE_GRID_PAD_BANDWIDTHS = 3.0


class DegenerateSampleError(ValueError):
    """Too few distinct samples to estimate a density."""


class InsufficientSamplesError(ValueError):
    """Too few samples to issue an orbit verdict."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Quantile by linear interpolation at rank (n-1)*q over the sorted samples.

    Kept in pure Python: downstream checks pin the exact floating-point
    result of `lo + (hi - lo) * frac`, which vectorized implementations do
    not reproduce bit for bit.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("cannot take a percentile of no samples")
    rank = (len(ordered) - 1) * q
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def access_latency(session: SpeedTestSession) -> float:
    """The session's access latency: 5th percentile of its snapshot RTTs."""
    return percentile(session.rtt_ms, ACCESS_LATENCY_QUANTILE)


@dataclass
class KdeProfile:
    """A density estimate evaluated on an even grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth_ms: float
    n_samples: int


def silverman_bandwidth(samples: Sequence[float]) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), falling back to std when IQR is 0."""
    xs = np.asarray(samples, dtype=float)
    if xs.size < 2:
        raise DegenerateSampleError("bandwidth needs at least 2 samples")
    std = float(np.std(xs, ddof=1))
    iqr = percentile(xs.tolist(), 0.75) - percentile(xs.tolist(), 0.25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    if scale <= 0:
        raise DegenerateSampleError("samples have no spread")
    return 0.9 * scale * xs.size ** (-1.0 / 5.0)


def kde(samples: Sequence[float], bandwidth_ms: float | None = None, grid_points: int = KDE_GRID_POINTS) -> KdeProfile:
    """Gaussian KDE on an even grid spanning [min - 3h, max + 3h].

    The evaluated density is renormalized to unit mass on the grid (the
    3-bandwidth pad leaves a small Gaussian tail outside it); mode locations
    are unaffected.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.size < 2 or np.unique(xs).size < 2:
        raise DegenerateSampleError("density needs at least 2 distinct samples")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if bandwidth_ms is None:
        bandwidth_ms = silverman_bandwidth(xs.tolist())
    elif bandwidth_ms <= 0:
        raise ValueError("bandwidth_ms must be positive")
    pad = KDE_GRID_PAD_BANDWIDTHS * bandwidth_ms
    grid = np.linspace(float(xs.min()) - pad, float(xs.max()) + pad, grid_points)
    density = np.zeros(grid_points, dtype=float)
    # Chunk the sample axis to bound the (grid x samples) workspace.
    chunk = max(1, (1 << 22) // grid_points)
    for start in range(0, xs.size, chunk):
        z = (grid[:, None] - xs[None, start:start + chunk]) / bandwidth_ms
        density += np.exp(-0.5 * z * z).sum(axis=1)
    density /= xs.size * bandwidth_ms * math.sqrt(2.0 * math.pi)
    density /= np.trapezoid(density, grid)
    return KdeProfile(grid=grid, density=density, bandwidth_ms=float(bandwidth_ms), n_samples=int(xs.size))


def find_peaks(y: np.ndarray, prominence: float) -> list[int]:
    """Indices of the local maxima of y whose topographic prominence is >= prominence.

    A maximum is a run of equal samples with a lower neighbour on each side;
    a flat run counts once, at its middle sample (rounded down), and runs
    touching either end of y do not count. A peak's prominence is its height
    above the higher of its two bases, where each base is the lowest sample
    between the peak and the nearest strictly higher sample on that side (or
    the end of y). These are the semantics of scipy.signal.find_peaks with
    only a prominence threshold.
    """
    n = y.size
    if n < 3:
        return []
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    ends = np.r_[starts[1:] - 1, n - 1]
    heights = y[starts]
    runs = np.flatnonzero((heights[1:-1] > heights[:-2]) & (heights[1:-1] > heights[2:])) + 1
    out = []
    for run in runs:
        peak = int((starts[run] + ends[run]) // 2)
        higher = np.flatnonzero(y > y[peak])
        left, right = higher[higher < peak], higher[higher > peak]
        lo = left[-1] + 1 if left.size else 0
        hi = right[0] if right.size else n
        if y[peak] - max(y[lo:peak + 1].min(), y[peak:hi].min()) >= prominence:
            out.append(peak)
    return out


def _check_prominence(min_prominence: float) -> None:
    if not 0.0 < min_prominence <= 1.0:
        raise ValueError("min_prominence must be in (0, 1]")


def modes(profile: KdeProfile, min_prominence: float = 0.05) -> list[float]:
    """Grid locations of density peaks with prominence >= min_prominence * peak density."""
    _check_prominence(min_prominence)
    floor = min_prominence * float(profile.density.max())
    return [float(profile.grid[i]) for i in find_peaks(profile.density, floor)]


@dataclass
class OrbitVerdict:
    """Outcome of classifying an ASN's access-latency population.

    orbit is one of LEO/MEO/GEO, "mixed", or "terrestrial_suspect".
    confidence is the fraction of samples behind the verdict: in-band
    fraction for a single orbit, sub-20ms fraction for terrestrial, and the
    best band's fraction for mixed.
    """

    orbit: str
    confidence: float
    median_ms: float
    modes_ms: list[float]
    n_samples: int


def _verdict_modes(latencies: Sequence[float], min_prominence: float) -> list[float]:
    distinct = set(latencies)
    if len(distinct) < 2:
        return [float(next(iter(distinct)))]
    return modes(kde(latencies), min_prominence=min_prominence)


def _orbit_verdict(
    latencies: Sequence[float],
    bands: Mapping[str, OrbitBand] | None,
    dominance: float,
    terrestrial_ms: float,
    min_samples: int,
) -> OrbitVerdict:
    """classify_orbit's verdict with modes_ms left empty: the KDE is computed by the caller, if read."""
    if len(latencies) < min_samples:
        raise InsufficientSamplesError(f"need >= {min_samples} samples, got {len(latencies)}")
    table = DEFAULT_BANDS if bands is None else bands
    median = percentile(latencies, 0.5)
    n = len(latencies)
    if median < terrestrial_ms:
        below = sum(1 for x in latencies if x < terrestrial_ms)
        return OrbitVerdict(VERDICT_TERRESTRIAL, below / n, median, [], n)
    fractions = {
        orbit: sum(1 for x in latencies if band.contains(x)) / n
        for orbit, band in table.items()
    }
    best_orbit = max(fractions, key=lambda o: (fractions[o], -ORBITS.index(o)))
    orbit = best_orbit if fractions[best_orbit] >= dominance else VERDICT_MIXED
    return OrbitVerdict(orbit, fractions[best_orbit], median, [], n)


def classify_orbit(
    latencies: Sequence[float],
    bands: Mapping[str, OrbitBand] | None = None,
    dominance: float = 0.8,
    terrestrial_ms: float = 20.0,
    min_samples: int = 10,
    min_prominence: float = 0.05,
) -> OrbitVerdict:
    """Assign an orbit verdict to a population of access latencies.

    A median below terrestrial_ms marks the population terrestrial before
    band dominance is considered: terrestrial latencies always sit inside the
    LEO band, so the order is what keeps ground networks detectable. Then a
    band holding >= dominance of the samples wins; with no dominant band the
    population is mixed.
    """
    verdict = _orbit_verdict(latencies, bands, dominance, terrestrial_ms, min_samples)
    verdict.modes_ms = _verdict_modes(latencies, min_prominence)
    return verdict


@dataclass
class AsnAnomaly:
    """An ASN whose measured latency population contradicts its declaration."""

    asn: int
    sno: str
    declared_orbits: frozenset[str]
    verdict: OrbitVerdict


def verdict_satisfies(
    verdict: OrbitVerdict,
    declared_orbits: frozenset[str],
    bands: Mapping[str, OrbitBand] | None = None,
) -> bool:
    """Whether a verdict is consistent with an operator's declared orbits.

    A single-orbit verdict satisfies only a single-orbit declaration of the
    same orbit: a hybrid declaration promises traffic in every declared band,
    so a unimodal population contradicts it. A mixed verdict satisfies a
    declaration exactly when its KDE modes cover the declared bands and no
    others. A terrestrial verdict satisfies nothing.
    """
    if verdict.orbit in ORBITS:
        return declared_orbits == frozenset((verdict.orbit,))
    if verdict.orbit == VERDICT_MIXED:
        mode_bands = {band_containing(m, bands).orbit for m in verdict.modes_ms if m >= 0}
        return mode_bands == set(declared_orbits)
    return False


def flag_asn_anomalies(
    catalog: SnoCatalog,
    per_asn_latencies: Mapping[int, Sequence[float]],
    bands: Mapping[str, OrbitBand] | None = None,
    dominance: float = 0.8,
    terrestrial_ms: float = 20.0,
    min_samples: int = 10,
    min_prominence: float = 0.05,
) -> list[AsnAnomaly]:
    """Flag cataloged ASNs whose latency population contradicts their orbits.

    ASNs not in the catalog or with fewer than min_samples sessions are
    skipped. Excluded ASNs are checked too: confirming that an exclusion
    still looks terrestrial is as useful as catching a new anomaly. Each
    anomaly carries classify_orbit's verdict, modes included; the KDE runs
    only where they are read, for a mixed verdict or an anomaly.
    """
    _check_prominence(min_prominence)  # before any verdict, whether or not its modes are computed
    out: list[AsnAnomaly] = []
    for asn in sorted(per_asn_latencies):
        hit = catalog.lookup(asn)
        if hit is None:
            continue
        entry, _role = hit
        latencies = per_asn_latencies[asn]
        if len(latencies) < min_samples:
            continue
        verdict = _orbit_verdict(latencies, bands, dominance, terrestrial_ms, min_samples)
        # Only a mixed verdict's check reads modes.
        if verdict.orbit != VERDICT_MIXED and verdict_satisfies(verdict, entry.orbits, bands):
            continue
        verdict.modes_ms = _verdict_modes(latencies, min_prominence)
        if not verdict_satisfies(verdict, entry.orbits, bands):
            out.append(AsnAnomaly(asn, entry.name, entry.orbits, verdict))
    return out
