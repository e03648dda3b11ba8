"""Acceptance gate: the core behavioral guarantees, one printed line each.

Run `pytest tests/test_acceptance.py -s -v` to watch the `[PASS]`/`[FAIL]`
line per guarantee as it prints. Every check compares the library against an
independently derived expectation: a brute-force oracle, the generator's own
labels, or a hand-computed fixture — never against the library itself.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from datetime import timedelta
from ipaddress import ip_network

import numpy as np
import pytest

from helpers import classify_orbit, corpus_table, make_session, reference_sessions
from snoscope.bgp import build_graph, coverage_score, snapshot_diff
from snoscope.catalog import DEFAULT_BANDS
from snoscope.cli import main as cli_main
from snoscope.filtering import (
    DEFAULT_GLOBAL_FLOOR_MS,
    STAGE_REJECTED,
    PrefixGroup,
    relaxed_filter,
    relaxed_threshold,
    run_pipeline,
    strict_filter,
)
from snoscope.ingest import (
    PopLocation,
    RecordError,
    parse_rdns,
    parse_speedtest_stream,
    parse_traceroute_stream,
)
from snoscope.metrics import GROUPING_PEP, compare_groups, session_metrics
from snoscope.profiling import (
    VERDICT_MIXED,
    kde,
    modes,
    percentile,
    verdict_satisfies,
)
from snoscope.starlink import (
    EVENT_LATENCY_SHIFT,
    EVENT_POP_CHANGE,
    build_pop_timeline,
    detect_changes,
    path_sample,
)
from snoscope.util import sha256_file
from test_bgp import HUGHES, MARLINK, REGISTRY, cc, paths, synthetic_graph
from test_filtering import ref
from test_profiling import (
    kde_oracle,
    local_maxima_oracle,
    percentile_oracle,
    trapezoid_oracle,
)


class criterion:
    """Context manager printing one `[PASS]/[FAIL] <name>` line per check."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"\n[{'PASS' if exc_type is None else 'FAIL'}] {self.name}")
        return False


@pytest.fixture(scope="module")
def pipeline_run(default_corpus, bundled_catalog):
    """Parse the full generated corpus and classify it once, single-threaded.

    The sessions, for their fields, are the field-by-field reference parse's.
    """
    path = default_corpus["speedtests.ndjson"]
    start = time.perf_counter()
    corpus = run_pipeline(parse_speedtest_stream(path, strictness="strict"), bundled_catalog, workers=1)
    elapsed = time.perf_counter() - start
    sessions = reference_sessions(path)
    assert len(sessions) == corpus.input_count and not any(isinstance(s, RecordError) for s in sessions)
    return sessions, corpus, elapsed


def test_1_percentile_matches_brute_force_oracle():
    with criterion(
        "1. access-latency percentile equals the brute-force oracle exactly "
        "on 10,000 random lists"
    ):
        rng = random.Random(20230501)
        quantiles = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
        start = time.perf_counter()
        for case in range(10_000):
            n = rng.randint(1, 100)
            if case % 3 == 0:  # heavy ties
                samples = [float(rng.randint(0, 50)) for _ in range(n)]
            else:
                samples = [rng.uniform(1.0, 1000.0) for _ in range(n)]
            for q in quantiles:
                assert percentile(samples, q) == percentile_oracle(samples, q)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"70,000 comparisons took {elapsed:.2f}s"


def test_2_density_normalizes_and_recovers_modes():
    with criterion(
        "2. KDE density integrates to 1.0 and mode finding matches direct summation"
    ):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(10, 400)
            center = rng.uniform(50.0, 800.0)
            spread = rng.uniform(2.0, 80.0)
            samples = [abs(rng.gauss(center, spread)) + 1.0 for _ in range(n)]
            profile = kde(samples)
            integral = trapezoid_oracle(profile.grid.tolist(), profile.density.tolist())
            assert abs(integral - 1.0) < 1e-3

        rng = random.Random(42)
        samples = [rng.gauss(280.0, 25.0) for _ in range(150)]
        samples += [rng.gauss(700.0, 50.0) for _ in range(150)]
        profile = kde(samples, bandwidth_ms=30.0)
        found = sorted(modes(profile))
        oracle_maxima = sorted(local_maxima_oracle(*kde_oracle(samples, 30.0)))
        assert len(found) == 2
        assert len(oracle_maxima) == 2
        for impl_mode, oracle_mode in zip(found, oracle_maxima):
            assert abs(impl_mode - oracle_mode) <= 10.0


def test_3_orbit_classification_on_separable_populations():
    with criterion(
        "3. separable orbit populations classify correctly with confidence >= 0.99"
    ):
        rng = np.random.default_rng(20230501)
        populations = {
            "LEO": np.clip(rng.normal(56.0, 8.0, 1500), 21.0, 199.0),
            "MEO": np.clip(rng.normal(280.0, 20.0, 1200), 201.0, 499.0),
            "GEO": np.clip(rng.normal(673.5, 40.0, 1000), 501.0, 1500.0),
        }
        for orbit, samples in populations.items():
            assert len(samples) >= 1000
            verdict = classify_orbit(samples.tolist())
            assert verdict.orbit == orbit
            assert verdict.confidence >= 0.99
            assert verdict.n_samples == len(samples)

        hybrid = populations["MEO"].tolist() + populations["GEO"].tolist()
        verdict = classify_orbit(hybrid)
        assert verdict.orbit == VERDICT_MIXED
        assert verdict_satisfies(verdict, frozenset({"MEO", "GEO"}))
        assert not verdict_satisfies(verdict, frozenset({"GEO"}))


def test_4_filter_stage_contracts():
    with criterion(
        "4. prefix screen: exhaustive strict behavior, threshold rule, "
        "strict-within-relaxed containment"
    ):
        geo = DEFAULT_BANDS["GEO"]
        prefix = ip_network("100.1.2.0/24")

        # Exhaustive enumeration: every in/out-of-band pattern up to size 12.
        # A group passes only when it is both well-measured and uniformly in-band.
        for n in range(1, 13):
            for pattern in range(2**n):
                bits = [(pattern >> k) & 1 for k in range(n)]
                group = PrefixGroup(
                    sno="viasat",
                    prefix=prefix,
                    sessions=[
                        ref(f"s{k}", "100.1.2.9", 600.0 if bit else 100.0)
                        for k, bit in enumerate(bits)
                    ],
                )
                expected = n >= 10 and all(bits)
                assert strict_filter(group, geo) == expected, (n, pattern)

        # The relaxed cutoff is the lowest strictly-accepted latency, with a
        # fixed fallback when the strict stage accepted nothing.
        rng = random.Random(4)
        for _ in range(200):
            latencies = [rng.uniform(500.0, 900.0) for _ in range(rng.randint(1, 50))]
            assert relaxed_threshold(latencies) == min(latencies)
        assert relaxed_threshold([]) == DEFAULT_GLOBAL_FLOOR_MS == 527.0
        assert relaxed_threshold([], global_floor_ms=480.0) == 480.0

        # Containment: across random corpora, every strictly-accepted session
        # also clears the relaxed cutoff derived from the strict stage.
        for case in range(1000):
            case_rng = random.Random(case)
            groups = []
            for g in range(case_rng.randint(1, 8)):
                size = case_rng.randint(1, 14)
                groups.append(
                    PrefixGroup(
                        sno="viasat",
                        prefix=ip_network(f"10.0.{g}.0/24"),
                        sessions=[
                            ref(f"c{case}-g{g}-s{k}", f"10.0.{g}.{k + 1}",
                                case_rng.uniform(300.0, 900.0))
                            for k in range(size)
                        ],
                    )
                )
            strict_latencies: list[float] = []
            strict_sessions = []
            for group in groups:
                if strict_filter(group, geo):
                    strict_latencies.extend(group.latencies)
                    strict_sessions.extend(group.sessions)
            threshold = relaxed_threshold(strict_latencies)
            assert all(relaxed_filter(s, threshold) for s in strict_sessions)


def test_5_end_to_end_default_corpus(pipeline_run, default_labels):
    with criterion(
        "5. generated corpus: >=99% label agreement, operator ranking preserved, "
        "single-threaded in <60s"
    ):
        _, corpus, elapsed = pipeline_run
        assert corpus.input_count == len(default_labels) == 96_400

        mismatches = 0
        for disposition in corpus.dispositions:
            expected_accept = default_labels[disposition.session_id]["expect"] == "accept"
            got_accept = disposition.stage != STAGE_REJECTED
            mismatches += expected_accept != got_accept
        accuracy = 1.0 - mismatches / corpus.input_count
        assert accuracy >= 0.99, f"disposition accuracy {accuracy:.5f}"

        expected_counts = Counter(
            label["sno"] for label in default_labels.values() if label["expect"] == "accept"
        )
        assert len(expected_counts) == 18
        ranking = [sno for sno, _ in expected_counts.most_common()]
        observed = [len(corpus.per_sno[sno].accepted) for sno in ranking]
        assert all(a > b for a, b in zip(observed, observed[1:])), observed
        assert elapsed < 60.0, f"parse+classify took {elapsed:.1f}s"


def test_6_session_metrics_and_pep_contrast(pipeline_run, bundled_catalog):
    with criterion(
        "6. session metrics exact on 20 fixtures; PEP operators retransmit "
        "less than other GEO traffic"
    ):
        frozen = make_session(
            session_id="frozen",
            rtts=[56.0, 56.0, 60.0, 60.0],
            rtt_vars=[20.0, 20.0, 28.0, 28.0],
            bytes_sent_final=10_000_000,
            bytes_retrans_final=874_000,
        )
        m = session_metrics(frozen)
        assert m.jitter_variability == 0.5
        assert m.retrans_fraction == 0.0874

        rng = random.Random(6)
        for i in range(19):
            n = rng.randint(2, 12)
            rtts = [round(rng.uniform(40.0, 800.0), 3) for _ in range(n)]
            variances = [round(rng.uniform(5.0, 200.0), 3) for _ in range(n)]
            sent = rng.randint(1_000_000, 50_000_000)
            retrans = int(sent * rng.uniform(0.0, 0.2))
            m = session_metrics(
                make_session(
                    session_id=f"fixture-{i}",
                    rtts=rtts,
                    rtt_vars=variances,
                    bytes_sent_final=sent,
                    bytes_retrans_final=retrans,
                )
            )
            assert m.latency_p5_ms == percentile_oracle(rtts, 0.05)
            assert m.jitter_variability == (
                percentile_oracle(variances, 0.95) / percentile_oracle(rtts, 0.05)
            )
            assert m.retrans_fraction == retrans / sent

        sessions, corpus, _ = pipeline_run
        table, snos = corpus_table(sessions, corpus)
        groups = compare_groups(
            table, snos, bundled_catalog, grouping=GROUPING_PEP, metric="retrans_fraction"
        )
        pep, others = groups["GEO (PEP)"], groups["GEO (others)"]
        assert pep.n >= 1000 and others.n >= 1000
        assert pep.p50 < others.p50, (pep.p50, others.p50)


def test_7_pop_handover_detection(default_corpus, default_spec):
    with criterion(
        "7. scripted PoP handovers detected at the scripted time with accurate medians"
    ):
        rdns = parse_rdns(default_corpus["rdns.csv"])
        by_probe: dict[int, list] = {}
        for m in parse_traceroute_stream(
            default_corpus["traceroutes.ndjson"], strictness="strict"
        ):
            sample = path_sample(m, rdns)
            by_probe.setdefault(m.probe_id, []).extend([sample] if sample is not None else [])
        assert set(by_probe) == {plan.probe_id for plan in default_spec.traceroute_plans}

        for plan in default_spec.traceroute_plans:
            timeline = build_pop_timeline(by_probe[plan.probe_id])
            assert [a.pop_code for a in timeline] == [p.pop_code for p in plan.periods]
            for assignment, period in zip(timeline, plan.periods):
                relative_err = abs(assignment.median_rtt_ms - period.rtt_ms) / period.rtt_ms
                assert relative_err <= 0.05, (plan.probe_id, period.pop_code, relative_err)

            events = detect_changes(timeline)
            changes = [e for e in events if e.kind == EVENT_POP_CHANGE]
            assert len(changes) == len(plan.periods) - 1
            cadence = timedelta(hours=plan.cadence_hours)
            for event, period in zip(changes, plan.periods):
                assert abs(event.at - period.until) <= cadence, (plan.probe_id, event.at)
                assert event.before_pop == period.pop_code
            assert not [e for e in events if e.kind == EVENT_LATENCY_SHIFT]


def test_8_footprint_scores_and_peering_diffs():
    with criterion(
        "8. footprint coverage fractions and peering snapshot diffs are exact"
    ):
        # Large footprint: 30 ground-truth countries, 10 inferred (plus two
        # irrelevant extras), 74 of 100 PoP cities in covered countries.
        truth = [cc(i) for i in range(30)]
        pops = [
            PopLocation(f"p{i}", f"city-{i}", truth[i % 10], 0.0, 0.0) for i in range(74)
        ] + [
            PopLocation(f"p{74 + i}", f"city-{74 + i}", truth[10 + i % 20], 0.0, 0.0)
            for i in range(26)
        ]
        score = coverage_score(synthetic_graph("big", truth[:10] + ["ZA", "ZB"]), pops)
        assert score.country_fraction == 10 / 30
        assert score.city_fraction == 0.74

        # Medium footprint: 22 truth countries, 7 inferred, 57 of 100 cities.
        truth = [cc(i) for i in range(22)]
        pops = [
            PopLocation(f"p{i}", f"city-{i}", truth[i % 7], 0.0, 0.0) for i in range(57)
        ] + [
            PopLocation(f"p{57 + i}", f"city-{57 + i}", truth[7 + i % 15], 0.0, 0.0)
            for i in range(43)
        ]
        score = coverage_score(synthetic_graph("mid", truth[:7]), pops)
        assert score.country_fraction == 7 / 22
        assert score.city_fraction == 0.57

        # Complete footprint: both truth countries inferred.
        pops = [
            PopLocation("ath1", "Athens", "GR", 37.98, 23.73),
            PopLocation("nic1", "Nicosia", "CY", 35.19, 33.38),
        ]
        score = coverage_score(synthetic_graph("tiny", ["GR", "CY", "DE"]), pops)
        assert score.country_fraction == 1.0
        assert score.city_fraction == 1.0

        # Identical snapshots diff to nothing.
        lines = (
            "2023-01-01T00:00:00Z 3356 28613",
            "2023-01-01T00:00:00Z 1299 28613",
        )
        same = snapshot_diff(
            build_graph(paths(*lines), HUGHES, REGISTRY),
            build_graph(paths(*lines), HUGHES, REGISTRY),
        )
        assert same.is_empty()

        # A transit swap shows up as exactly one removed and one added peer.
        before = build_graph(
            paths("2023-01-01T00:00:00Z 3549 5377", "2023-01-01T00:00:00Z 1299 5377"),
            MARLINK,
            REGISTRY,
        )
        after = build_graph(
            paths("2023-06-01T00:00:00Z 174 5377", "2023-06-01T00:00:00Z 1299 5377"),
            MARLINK,
            REGISTRY,
        )
        diff = snapshot_diff(before, after)
        assert diff.removed_peers == frozenset({3549})
        assert diff.added_peers == frozenset({174})
        assert diff.added_countries == frozenset()
        assert diff.removed_countries == frozenset()


def test_9_parallel_classify_is_deterministic(default_corpus, tmp_path):
    with criterion(
        "9. classify output is byte-identical across parallelism levels"
    ):
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"par{workers}"
            code = cli_main(
                [
                    "classify",
                    "--input",
                    str(default_corpus["speedtests.ndjson"]),
                    "--out",
                    str(out),
                    "--parallelism",
                    str(workers),
                ]
            )
            assert code == 0
            outs.append(out)
        for name in ("dispositions.ndjson", "summary.csv"):
            assert sha256_file(outs[0] / name) == sha256_file(outs[1] / name), name
