"""Latency statistics checked against independent brute-force oracles.

The oracles below are deliberately written from the definitions (sorted-list
interpolation, direct Gaussian summation) rather than reusing the library,
so each test compares two separately-derived routes to the same number.
"""

from __future__ import annotations

import math
import random
import statistics

import numpy as np
import pytest

from helpers import classify_orbit, make_session
from snoscope import profiling
from snoscope.catalog import SnoCatalog, SnoEntry, make_bands
from snoscope.profiling import (
    VERDICT_MIXED,
    VERDICT_TERRESTRIAL,
    AsnAnomaly,
    DegenerateSampleError,
    InsufficientSamplesError,
    access_latency,
    find_peaks,
    flag_asn_anomalies,
    kde,
    modes,
    percentile,
    silverman_bandwidth,
    verdict_satisfies,
)

# ---------------------------------------------------------------------------
# oracles


def percentile_oracle(samples, q):
    """Rank (n-1)*q linear interpolation, written directly from the definition.

    The final arithmetic uses the same `lo + (hi - lo) * frac` shape as the
    implementation on purpose: the contract pins that exact floating-point
    result, so the oracle must state it independently but identically.
    """
    ordered = sorted(float(x) for x in samples)
    rank = (len(ordered) - 1) * q
    below = int(math.floor(rank))
    above = int(math.ceil(rank))
    if below == above:
        return ordered[below]
    weight = rank - below
    return ordered[below] + (ordered[above] - ordered[below]) * weight


def silverman_oracle(samples):
    std = statistics.stdev(samples)
    iqr = percentile_oracle(samples, 0.75) - percentile_oracle(samples, 0.25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * scale * len(samples) ** (-1.0 / 5.0)


def kde_oracle(samples, bandwidth, grid_points=512):
    """Direct O(grid * n) Gaussian summation with trapezoid renormalization."""
    h = float(bandwidth)
    lo = min(samples) - 3.0 * h
    hi = max(samples) + 3.0 * h
    grid = [lo + (hi - lo) * i / (grid_points - 1) for i in range(grid_points)]
    norm = len(samples) * h * math.sqrt(2.0 * math.pi)
    density = [
        sum(math.exp(-0.5 * ((g - x) / h) ** 2) for x in samples) / norm
        for g in grid
    ]
    area = sum(
        (density[i] + density[i + 1]) / 2.0 * (grid[i + 1] - grid[i])
        for i in range(grid_points - 1)
    )
    density = [d / area for d in density]
    return grid, density


def local_maxima_oracle(grid, density, floor_fraction=0.05):
    """Interior strict local maxima above a fraction of the peak density."""
    floor = floor_fraction * max(density)
    out = []
    for i in range(1, len(density) - 1):
        if density[i - 1] < density[i] > density[i + 1] and density[i] >= floor:
            out.append(grid[i])
    return out


def trapezoid_oracle(grid, density):
    return sum(
        (density[i] + density[i + 1]) / 2.0 * (grid[i + 1] - grid[i])
        for i in range(len(grid) - 1)
    )


# ---------------------------------------------------------------------------
# percentile


class TestPercentile:
    def test_frozen_examples(self):
        assert percentile(list(range(1, 101)), 0.05) == 5.95
        assert percentile([60.0, 58.0, 57.0, 56.0, 59.0], 0.05) == 56.2
        assert percentile([0.0, 10.0], 0.5) == 5.0

    def test_extremes_and_single_sample(self):
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0
        assert percentile([3.0, 1.0, 2.0], 1.0) == 3.0
        assert percentile([42.0], 0.73) == 42.0

    def test_matches_oracle_exactly_on_random_lists(self):
        rng = random.Random(1234)
        quantiles = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
        for _ in range(2000):
            n = rng.randint(1, 60)
            samples = [rng.uniform(0.0, 1000.0) for _ in range(n)]
            q = rng.choice(quantiles)
            assert percentile(samples, q) == percentile_oracle(samples, q)

    def test_duplicates_and_integers(self):
        samples = [5, 5, 5, 9, 9]
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert percentile(samples, q) == percentile_oracle(samples, q)

    def test_input_order_irrelevant(self):
        samples = [9.0, 1.0, 5.0, 3.0]
        assert percentile(samples, 0.4) == percentile(sorted(samples), 0.4)

    def test_rejections(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class TestAccessLatency:
    def test_is_fifth_percentile_of_snapshot_rtts(self):
        session = make_session(rtts=[60.0, 58.0, 57.0, 56.0, 59.0])
        assert access_latency(session) == 56.2

    def test_matches_oracle_on_larger_session(self):
        rng = random.Random(7)
        rtts = [rng.uniform(600.0, 700.0) for _ in range(40)]
        session = make_session(rtts=rtts, rtt_vars=[5.0] * 40)
        assert access_latency(session) == percentile_oracle(rtts, 0.05)


# ---------------------------------------------------------------------------
# bandwidth and kde


class TestSilvermanBandwidth:
    def test_std_dominated_sample(self):
        samples = [float(x) for x in range(1, 11)]
        assert silverman_bandwidth(samples) == pytest.approx(silverman_oracle(samples), rel=1e-12)

    def test_iqr_dominated_sample(self):
        samples = [1.0, 2.0, 3.0, 4.0, 100.0]  # the outlier inflates std
        oracle = silverman_oracle(samples)
        assert silverman_bandwidth(samples) == pytest.approx(oracle, rel=1e-12)
        # sanity: the robust scale must have come from the IQR side
        assert oracle < 0.9 * statistics.stdev(samples) * 5 ** (-0.2)

    def test_zero_iqr_falls_back_to_std(self):
        samples = [5.0] * 9 + [9.0]
        assert silverman_bandwidth(samples) == pytest.approx(
            0.9 * statistics.stdev(samples) * 10 ** (-0.2), rel=1e-12
        )

    def test_no_spread_rejected(self):
        with pytest.raises(DegenerateSampleError):
            silverman_bandwidth([5.0, 5.0, 5.0])

    def test_too_few_samples_rejected(self):
        with pytest.raises(DegenerateSampleError):
            silverman_bandwidth([5.0])


class TestKde:
    def test_matches_direct_summation_oracle(self):
        rng = random.Random(99)
        samples = [rng.gauss(280.0, 25.0) for _ in range(120)]
        profile = kde(samples, bandwidth_ms=12.0)
        grid, density = kde_oracle(samples, 12.0)
        assert profile.grid[0] == pytest.approx(grid[0], rel=1e-12)
        assert profile.grid[-1] == pytest.approx(grid[-1], rel=1e-12)
        for impl, oracle in zip(profile.density.tolist(), density):
            assert impl == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_density_integrates_to_one(self):
        rng = random.Random(5)
        for _ in range(20):
            samples = [rng.uniform(500.0, 900.0) for _ in range(rng.randint(10, 200))]
            profile = kde(samples)
            integral = trapezoid_oracle(profile.grid.tolist(), profile.density.tolist())
            assert abs(integral - 1.0) < 1e-9

    def test_grid_shape_and_bounds(self):
        samples = [100.0, 110.0, 120.0, 150.0]
        profile = kde(samples, bandwidth_ms=10.0)
        assert len(profile.grid) == 512
        assert profile.grid[0] == pytest.approx(100.0 - 30.0)
        assert profile.grid[-1] == pytest.approx(150.0 + 30.0)
        assert profile.bandwidth_ms == 10.0
        assert profile.n_samples == 4

    def test_default_bandwidth_is_silverman(self):
        samples = [float(x) for x in range(50, 90)]
        assert kde(samples).bandwidth_ms == pytest.approx(silverman_bandwidth(samples), rel=1e-12)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(DegenerateSampleError):
            kde([700.0] * 50)
        with pytest.raises(DegenerateSampleError):
            kde([700.0])

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            kde([1.0, 2.0], bandwidth_ms=0.0)
        with pytest.raises(ValueError):
            kde([1.0, 2.0], grid_points=1)


class TestModes:
    def _bimodal(self, seed=42, n=150):
        rng = random.Random(seed)
        return [rng.gauss(280.0, 25.0) for _ in range(n)] + [
            rng.gauss(700.0, 50.0) for _ in range(n)
        ]

    def test_bimodal_sample_yields_two_modes_near_oracle(self):
        samples = self._bimodal()
        profile = kde(samples, bandwidth_ms=30.0)
        found = modes(profile)
        oracle = local_maxima_oracle(*kde_oracle(samples, 30.0))
        assert len(found) == 2
        assert len(oracle) == 2
        for impl, expected in zip(found, oracle):
            assert abs(impl - expected) <= 10.0
        assert abs(found[0] - 280.0) < 40.0
        assert abs(found[1] - 700.0) < 40.0

    def test_unimodal_sample_yields_one_mode(self):
        rng = random.Random(8)
        samples = [rng.gauss(700.0, 40.0) for _ in range(300)]
        found = modes(kde(samples))
        assert len(found) == 1
        assert abs(found[0] - 700.0) < 20.0

    def test_min_prominence_filters_minor_bump(self):
        rng = random.Random(21)
        samples = [rng.gauss(700.0, 30.0) for _ in range(500)] + [
            rng.gauss(280.0, 15.0) for _ in range(12)
        ]
        profile = kde(samples, bandwidth_ms=25.0)
        lenient = modes(profile, min_prominence=0.01)
        strict = modes(profile, min_prominence=0.5)
        assert len(lenient) == 2
        assert len(strict) == 1

    def test_find_peaks_matches_scipy_on_kde_fixtures(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = random.Random(21)
        minor_bump = [rng.gauss(700.0, 30.0) for _ in range(500)] + [rng.gauss(280.0, 15.0) for _ in range(12)]
        rng = random.Random(8)
        unimodal = [rng.gauss(700.0, 40.0) for _ in range(300)]
        profiles = [
            kde(self._bimodal(), bandwidth_ms=30.0),
            kde(unimodal),
            kde(minor_bump, bandwidth_ms=25.0),
            kde(minor_bump, bandwidth_ms=2.0),  # undersmoothed: many small peaks
        ]
        for profile in profiles:
            for fraction in (1e-6, 0.01, 0.05, 0.5, 1.0):
                floor = fraction * float(profile.density.max())
                expected, _ = scipy_signal.find_peaks(profile.density, prominence=floor)
                assert find_peaks(profile.density, floor) == expected.tolist()

    def test_find_peaks_matches_scipy_on_plateaus(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(0, 60))
            if rng.random() < 0.5:
                density = rng.integers(0, 4, size=n).astype(float)  # many equal neighbours
            else:
                density = np.round(np.abs(np.cumsum(rng.normal(size=n))), 1)  # random walk, flat tops
            for prominence in (0.0, 0.1, 1.0, 2.5):
                expected, _ = scipy_signal.find_peaks(density, prominence=prominence)
                assert find_peaks(density, prominence) == expected.tolist(), (density.tolist(), prominence)

    def test_bad_prominence_rejected(self):
        profile = kde([1.0, 2.0, 3.0], bandwidth_ms=1.0)
        with pytest.raises(ValueError):
            modes(profile, min_prominence=0.0)
        with pytest.raises(ValueError):
            modes(profile, min_prominence=1.5)


# ---------------------------------------------------------------------------
# orbit verdicts


class TestClassifyOrbit:
    def test_dominant_leo(self):
        latencies = [56.0] * 95 + [300.0] * 5
        verdict = classify_orbit(latencies)
        assert verdict.orbit == "LEO"
        assert verdict.confidence == 0.95
        assert verdict.median_ms == 56.0
        assert verdict.n_samples == 100

    def test_dominant_geo(self):
        latencies = [673.5] * 98 + [280.0] * 2
        verdict = classify_orbit(latencies)
        assert verdict.orbit == "GEO"
        assert verdict.confidence == 0.98

    def test_exactly_at_dominance_counts(self):
        latencies = [700.0] * 80 + [280.0] * 20
        assert classify_orbit(latencies).orbit == "GEO"

    def test_tri_cluster_is_mixed(self):
        latencies = [30.0] * 40 + [120.0] * 30 + [600.0] * 30
        verdict = classify_orbit(latencies)
        assert verdict.orbit == VERDICT_MIXED
        # both sub-200ms clusters sit in the same low band: 70% there, 30% high
        assert verdict.confidence == pytest.approx(0.7)

    def test_meo_geo_split_is_mixed(self):
        rng = random.Random(11)
        latencies = [rng.gauss(280.0, 20.0) for _ in range(50)] + [
            rng.gauss(700.0, 40.0) for _ in range(50)
        ]
        verdict = classify_orbit(latencies)
        assert verdict.orbit == VERDICT_MIXED
        assert len(verdict.modes_ms) == 2

    def test_terrestrial_wins_before_band_dominance(self):
        # every sample is inside the low band, but the median is ground-level
        latencies = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]
        verdict = classify_orbit(latencies)
        assert verdict.orbit == VERDICT_TERRESTRIAL
        assert verdict.confidence == 1.0

    def test_terrestrial_threshold_is_median_based(self):
        # median 25ms: slow-ish ground network or fast LEO; band dominance applies
        latencies = [25.0] * 10
        assert classify_orbit(latencies).orbit == "LEO"

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            classify_orbit([700.0] * 9)

    def test_custom_bands_shift_the_verdict(self):
        latencies = [450.0] * 10
        assert classify_orbit(latencies).orbit == "MEO"
        custom = make_bands(meo_min_ms=200.0, geo_min_ms=400.0)
        assert classify_orbit(latencies, bands=custom).orbit == "GEO"

    def test_identical_samples_report_single_mode(self):
        verdict = classify_orbit([600.0] * 12)
        assert verdict.modes_ms == [600.0]


class TestVerdictSatisfies:
    def test_single_orbit_must_match_exactly(self):
        verdict = classify_orbit([700.0] * 20)
        assert verdict_satisfies(verdict, frozenset({"GEO"}))
        assert not verdict_satisfies(verdict, frozenset({"MEO"}))
        # a hybrid declaration promises both bands; unimodal GEO contradicts it
        assert not verdict_satisfies(verdict, frozenset({"MEO", "GEO"}))

    def test_mixed_matches_when_modes_cover_declared_bands(self):
        rng = random.Random(3)
        latencies = [rng.gauss(280.0, 20.0) for _ in range(60)] + [
            rng.gauss(700.0, 40.0) for _ in range(60)
        ]
        verdict = classify_orbit(latencies)
        assert verdict.orbit == VERDICT_MIXED
        assert verdict_satisfies(verdict, frozenset({"MEO", "GEO"}))
        assert not verdict_satisfies(verdict, frozenset({"GEO"}))
        assert not verdict_satisfies(verdict, frozenset({"LEO", "MEO", "GEO"}))

    def test_terrestrial_satisfies_nothing(self):
        verdict = classify_orbit([10.0] * 20)
        for declared in ({"LEO"}, {"MEO"}, {"GEO"}, {"MEO", "GEO"}):
            assert not verdict_satisfies(verdict, frozenset(declared))


class TestFlagAsnAnomalies:
    def _catalog(self):
        return SnoCatalog(
            [
                SnoEntry("starlink", frozenset({14593}), frozenset({"LEO"}), excluded_asns=frozenset({27277})),
                SnoEntry("ses", frozenset({12684}), frozenset({"MEO", "GEO"})),
                SnoEntry("viasat", frozenset({13955}), frozenset({"GEO"}), pep=True),
            ]
        )

    def test_hybrid_declaration_with_unimodal_population_is_flagged(self):
        rng = random.Random(17)
        anomalies = flag_asn_anomalies(
            self._catalog(),
            {12684: [rng.gauss(700.0, 30.0) for _ in range(200)]},
        )
        assert len(anomalies) == 1
        assert anomalies[0].asn == 12684
        assert anomalies[0].sno == "ses"
        assert anomalies[0].verdict.orbit == "GEO"

    def test_hybrid_declaration_with_bimodal_population_is_clean(self):
        rng = random.Random(18)
        latencies = [rng.gauss(280.0, 20.0) for _ in range(100)] + [
            rng.gauss(700.0, 40.0) for _ in range(100)
        ]
        assert flag_asn_anomalies(self._catalog(), {12684: latencies}) == []

    def test_excluded_asn_checked_and_terrestrial_flagged(self):
        rng = random.Random(19)
        anomalies = flag_asn_anomalies(
            self._catalog(),
            {27277: [abs(rng.gauss(10.0, 2.0)) + 1.0 for _ in range(50)]},
        )
        assert len(anomalies) == 1
        assert anomalies[0].verdict.orbit == VERDICT_TERRESTRIAL

    def test_matching_population_is_clean(self):
        rng = random.Random(20)
        clean = flag_asn_anomalies(
            self._catalog(),
            {
                14593: [rng.gauss(56.0, 8.0) for _ in range(100)],
                13955: [rng.gauss(620.0, 30.0) for _ in range(100)],
            },
        )
        assert clean == []

    def test_uncataloged_and_undersampled_asns_skipped(self):
        anomalies = flag_asn_anomalies(
            self._catalog(),
            {64500: [700.0] * 100, 13955: [56.0] * 5},
        )
        assert anomalies == []

    def test_results_sorted_by_asn(self):
        anomalies = flag_asn_anomalies(
            self._catalog(),
            {13955: [56.0] * 20, 12684: [700.0] * 20},
        )
        assert [a.asn for a in anomalies] == [12684, 13955]

    def test_equals_classify_orbit_on_every_asn_modes_included(self):
        """Skipping the KDE for a satisfied single-orbit verdict changes no anomaly."""
        catalog = SnoCatalog(
            [
                SnoEntry("leo", frozenset({1, 2}), frozenset({"LEO"})),
                SnoEntry("meo", frozenset({3}), frozenset({"MEO"})),
                SnoEntry("geo", frozenset({4, 5}), frozenset({"GEO"})),
                SnoEntry("hybrid", frozenset({6, 7}), frozenset({"MEO", "GEO"})),
                SnoEntry("leo-geo", frozenset({8}), frozenset({"LEO", "GEO"})),
            ]
        )
        centres = {"ground": 8.0, "LEO": 55.0, "MEO": 280.0, "GEO": 650.0}
        bands = make_bands(220.0, 480.0)
        for seed in range(20):
            rng = random.Random(seed)
            per_asn = {}
            for asn in range(1, 10):  # AS9 is not cataloged
                # one to three clusters: single-orbit, mixed and terrestrial populations
                picked = rng.sample(sorted(centres), rng.randint(1, 3))
                n = rng.choice([5, 12, 60])
                per_asn[asn] = [
                    abs(rng.gauss(centres[rng.choice(picked)], 6.0)) + 1.0 for _ in range(n)
                ]
            for kwargs in ({}, {"bands": bands, "dominance": 0.7}):
                expected = []
                for asn in sorted(per_asn):
                    hit = catalog.lookup(asn)
                    if hit is None or len(per_asn[asn]) < 10:
                        continue
                    entry = hit[0]
                    verdict = classify_orbit(per_asn[asn], **kwargs)
                    if not verdict_satisfies(verdict, entry.orbits, kwargs.get("bands")):
                        expected.append(AsnAnomaly(asn, entry.name, entry.orbits, verdict))
                assert flag_asn_anomalies(catalog, per_asn, **kwargs) == expected

    def test_clean_single_orbit_asn_runs_no_kde(self, monkeypatch):
        calls = []

        def counting_kde(*args, **kwargs):
            calls.append(args)
            return kde(*args, **kwargs)

        monkeypatch.setattr(profiling, "kde", counting_kde)
        rng = random.Random(21)
        catalog = self._catalog()
        assert flag_asn_anomalies(catalog, {14593: [rng.gauss(56.0, 8.0) for _ in range(100)]}) == []
        assert calls == []
        # A mixed verdict reads its modes, so the KDE runs for it.
        hybrid = [rng.gauss(280.0, 20.0) for _ in range(100)] + [rng.gauss(700.0, 40.0) for _ in range(100)]
        assert flag_asn_anomalies(catalog, {12684: hybrid}) == []
        assert len(calls) == 1

    def test_bad_prominence_rejected_without_any_kde(self):
        with pytest.raises(ValueError, match="min_prominence"):
            flag_asn_anomalies(self._catalog(), {14593: [56.0 + i for i in range(20)]}, min_prominence=0.0)
