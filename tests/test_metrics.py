"""Per-session stability metrics, daily series, and group summaries."""

from __future__ import annotations

import random
from datetime import date

import pytest

from helpers import corpus_metrics, make_session
from snoscope.catalog import SnoCatalog, SnoEntry
from snoscope.filtering import run_pipeline
from snoscope.metrics import (
    GROUPING_ORBIT,
    GROUPING_PEP,
    GROUPING_SNO,
    compare_groups,
    daily_median_series,
    daily_variation,
    group_label,
    orbit_group,
    pep_group,
    session_metrics,
    summarize,
)
from test_profiling import percentile_oracle


def catalog_fixture() -> SnoCatalog:
    return SnoCatalog(
        [
            SnoEntry("starlink", frozenset({14593}), frozenset({"LEO"})),
            SnoEntry("o3b", frozenset({60725}), frozenset({"MEO"})),
            SnoEntry("ses", frozenset({12684}), frozenset({"MEO", "GEO"})),
            SnoEntry("viasat", frozenset({13955}), frozenset({"GEO"}), pep=True),
            SnoEntry("telalaska", frozenset({10538}), frozenset({"GEO"})),
        ]
    )


class TestSessionMetrics:
    def test_jitter_variability_exact_half(self):
        session = make_session(
            rtts=[56.0, 56.0, 60.0, 60.0],
            rtt_vars=[20.0, 20.0, 28.0, 28.0],
        )
        m = session_metrics(session, sno="starlink")
        assert m.latency_p5_ms == 56.0
        assert m.jitter_p95_ms == 28.0
        assert m.jitter_variability == 0.5

    def test_retrans_fraction_exact(self):
        session = make_session(bytes_sent_final=10_000_000, bytes_retrans_final=874_000)
        m = session_metrics(session)
        assert m.retrans_fraction == 0.0874

    def test_retrans_undefined_when_nothing_sent(self):
        session = make_session(bytes_sent_final=0, bytes_retrans_final=0)
        assert session_metrics(session).retrans_fraction is None

    def test_retrans_uses_final_cumulative_counters(self):
        # mid-session counters are cumulative; only the last snapshot matters
        session = make_session(bytes_sent_final=2_000_000, bytes_retrans_final=100_000)
        expected = 100_000 / 2_000_000
        assert session_metrics(session).retrans_fraction == expected

    def test_quantiles_match_oracle(self):
        rng = random.Random(13)
        rtts = [rng.uniform(550.0, 700.0) for _ in range(25)]
        variances = [rng.uniform(1.0, 80.0) for _ in range(25)]
        m = session_metrics(make_session(rtts=rtts, rtt_vars=variances))
        assert m.latency_p5_ms == percentile_oracle(rtts, 0.05)
        assert m.jitter_p95_ms == percentile_oracle(variances, 0.95)
        assert m.jitter_variability == m.jitter_p95_ms / m.latency_p5_ms

    def test_day_is_utc(self):
        m = session_metrics(make_session(timestamp="2021-03-02T00:30:00+02:00"))
        assert m.day == date(2021, 3, 1)

    def test_attribution_carried(self):
        m = session_metrics(make_session(session_id="x-1"), sno="viasat")
        assert m.session_id == "x-1" and m.sno == "viasat"


class TestDailyMedianSeries:
    def _metrics(self):
        plan = [
            ("2021-03-01", [600.0, 610.0, 620.0]),
            ("2021-03-02", [605.0]),
            ("2021-03-04", [590.0, 600.0]),  # note: no sessions on 03-03
        ]
        out = []
        for day, lats in plan:
            for i, lat in enumerate(lats):
                out.append(
                    session_metrics(
                        make_session(
                            session_id=f"{day}-{i}",
                            rtts=[lat, lat],
                            timestamp=f"{day}T12:00:00Z",
                        )
                    )
                )
        return out

    def test_series_medians_and_gaps(self):
        series = daily_median_series(self._metrics())
        assert series == [
            (date(2021, 3, 1), 610.0),
            (date(2021, 3, 2), 605.0),
            (date(2021, 3, 4), 595.0),
        ]

    def test_alternate_metric_and_none_skipping(self):
        metrics = [
            session_metrics(make_session(session_id="a", bytes_sent_final=0, timestamp="2021-03-01T00:00:00Z")),
            session_metrics(
                make_session(session_id="b", bytes_sent_final=1_000_000, bytes_retrans_final=10_000, timestamp="2021-03-01T05:00:00Z")
            ),
        ]
        series = daily_median_series(metrics, "retrans_fraction")
        assert series == [(date(2021, 3, 1), 0.01)]

    def test_selector_callable(self):
        series = daily_median_series(self._metrics(), lambda m: m.latency_p5_ms * 2)
        assert series[0] == (date(2021, 3, 1), 1220.0)

    def test_empty_input(self):
        assert daily_median_series([]) == []


class TestDailyVariation:
    def test_steady_series(self):
        series = [
            (date(2021, 3, 1), 100.0),
            (date(2021, 3, 2), 103.0),
            (date(2021, 3, 3), 100.0),
            (date(2021, 3, 4), 97.0),
            (date(2021, 3, 5), 100.0),
        ]
        assert daily_variation(series) == pytest.approx(0.03)

    def test_two_day_series(self):
        series = [(date(2021, 3, 1), 100.0), (date(2021, 3, 2), 141.4)]
        assert daily_variation(series) == pytest.approx(41.4 / 120.7)

    def test_needs_two_days(self):
        with pytest.raises(ValueError):
            daily_variation([(date(2021, 3, 1), 100.0)])

    def test_zero_median_undefined(self):
        series = [(date(2021, 3, 1), 0.0), (date(2021, 3, 2), 0.0)]
        with pytest.raises(ValueError):
            daily_variation(series)


class TestSummarize:
    def test_cdf_points_at_distinct_values(self):
        summary = summarize([1.0, 1.0, 2.0, 3.0])
        assert summary.cdf_points == [(1.0, 0.5), (2.0, 0.75), (3.0, 1.0)]
        assert summary.cdf_points[-1][1] == 1.0
        assert summary.n == 4

    def test_quantiles_match_oracle(self):
        rng = random.Random(6)
        values = [rng.uniform(0.0, 50.0) for _ in range(37)]
        summary = summarize(values)
        for field, q in (("p5", 0.05), ("p25", 0.25), ("p50", 0.5), ("p75", 0.75), ("p95", 0.95)):
            assert getattr(summary, field) == percentile_oracle(values, q)

    def test_cdf_always_ends_at_one(self):
        rng = random.Random(66)
        for _ in range(25):
            values = [rng.choice([1.0, 2.0, 5.0, 9.0]) for _ in range(rng.randint(1, 30))]
            assert summarize(values).cdf_points[-1][1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestGroupLabels:
    def test_orbit_grouping(self, bundled_catalog):
        assert orbit_group(bundled_catalog.get("starlink")) == "LEO"
        assert orbit_group(bundled_catalog.get("o3b")) == "MEO"
        assert orbit_group(bundled_catalog.get("ses")) == "MEO+GEO"
        assert orbit_group(bundled_catalog.get("viasat")) == "GEO"

    def test_pep_grouping_splits_geo(self, bundled_catalog):
        assert pep_group(bundled_catalog.get("viasat")) == "GEO (PEP)"
        assert pep_group(bundled_catalog.get("telalaska")) == "GEO (others)"
        assert pep_group(bundled_catalog.get("ses")) == "GEO (others)"  # hybrid, no proxy
        assert pep_group(bundled_catalog.get("starlink")) == "LEO"
        assert pep_group(bundled_catalog.get("o3b")) == "MEO"

    def test_group_label_dispatch(self, bundled_catalog):
        entry = bundled_catalog.get("viasat")
        assert group_label(entry, GROUPING_ORBIT) == "GEO"
        assert group_label(entry, GROUPING_SNO) == "viasat"
        assert group_label(entry, GROUPING_PEP) == "GEO (PEP)"
        with pytest.raises(ValueError):
            group_label(entry, "constellation")


class TestCompareGroups:
    def _metrics(self):
        catalog = catalog_fixture()
        rows = []
        for i, (sno, lat) in enumerate(
            [("starlink", 56.0), ("starlink", 58.0), ("viasat", 620.0), ("telalaska", 700.0), ("o3b", 280.0)]
        ):
            rows.append(session_metrics(make_session(session_id=f"m{i}", rtts=[lat, lat]), sno=sno))
        rows.append(session_metrics(make_session(session_id="m-none", rtts=[100.0, 100.0]), sno=None))
        rows.append(session_metrics(make_session(session_id="m-unk", rtts=[100.0, 100.0]), sno="nobody"))
        return catalog, rows

    def test_orbit_grouping_pools(self):
        catalog, rows = self._metrics()
        groups = compare_groups(rows, catalog, grouping=GROUPING_ORBIT, metric="latency_p5_ms")
        assert set(groups) == {"LEO", "MEO", "GEO"}
        assert groups["LEO"].n == 2
        assert groups["GEO"].n == 2  # viasat + telalaska pool together
        assert groups["GEO"].p50 == 660.0

    def test_unattributed_sessions_skipped(self):
        catalog, rows = self._metrics()
        total = sum(s.n for s in compare_groups(rows, catalog).values())
        assert total == 5  # the None-sno and unknown-sno rows are gone

    def test_pep_grouping(self):
        catalog, rows = self._metrics()
        groups = compare_groups(rows, catalog, grouping=GROUPING_PEP, metric="latency_p5_ms")
        assert groups["GEO (PEP)"].n == 1
        assert groups["GEO (others)"].n == 1

    def test_none_metric_values_skipped(self):
        catalog = catalog_fixture()
        rows = [
            session_metrics(make_session(session_id="a", bytes_sent_final=0), sno="viasat"),
            session_metrics(
                make_session(session_id="b", bytes_sent_final=1_000_000, bytes_retrans_final=50_000),
                sno="viasat",
            ),
        ]
        groups = compare_groups(rows, catalog, grouping=GROUPING_SNO, metric="retrans_fraction")
        assert groups["viasat"].n == 1
        assert groups["viasat"].p50 == 0.05


class TestCorpusMetrics:
    def _corpus(self):
        sessions = []
        for i in range(10):
            sessions.append(
                make_session(
                    session_id=f"vs-{i}", client_asn=13955, client_ip=f"100.1.2.{i + 1}", rtts=[600.0 + i, 600.0 + i]
                )
            )
        sessions.append(
            make_session(session_id="vs-lo", client_asn=13955, client_ip="100.1.9.1", rtts=[310.0, 310.0])
        )
        sessions.append(
            make_session(session_id="unk", client_asn=64500, client_ip="80.0.0.1", rtts=[50.0, 50.0])
        )
        return sessions

    def test_accepted_only_filters_rejections(self):
        sessions = self._corpus()
        corpus = run_pipeline(sessions, catalog_fixture())
        rows = corpus_metrics(sessions, corpus)
        ids = {m.session_id for m in rows}
        assert ids == {f"vs-{i}" for i in range(10)}
        assert all(m.sno == "viasat" for m in rows)

    def test_all_sessions_when_not_filtering(self):
        sessions = self._corpus()
        corpus = run_pipeline(sessions, catalog_fixture())
        rows = corpus_metrics(sessions, corpus, accepted_only=False)
        assert {m.session_id for m in rows} == {s.session_id for s in sessions}
        by_id = {m.session_id: m for m in rows}
        assert by_id["unk"].sno is None

    def test_repeated_session_ids_keep_their_own_outcomes(self):
        # The GEO "dup" is decided after the unknown-ASN "dup"; each keeps its own.
        sessions = self._corpus() + [
            make_session(session_id="dup", client_asn=13955, client_ip="100.1.3.1", rtts=[610.0, 600.0]),
            make_session(session_id="dup", client_asn=64500, client_ip="80.0.0.2", rtts=[30.0, 31.0]),
        ]
        corpus = run_pipeline(sessions, catalog_fixture())
        rows = corpus_metrics(sessions, corpus, accepted_only=False)
        assert [(m.sno, m.latency_p5_ms) for m in rows if m.session_id == "dup"] == [
            ("viasat", session_metrics(sessions[-2]).latency_p5_ms),
            (None, session_metrics(sessions[-1]).latency_p5_ms),
        ]
        accepted = corpus_metrics(sessions, corpus)
        assert [m.sno for m in accepted if m.session_id == "dup"] == ["viasat"]
