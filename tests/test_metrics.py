"""Per-session stability metrics, daily series, and group summaries."""

from __future__ import annotations

import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    corpus_metrics,
    make_session,
    reference_compare_groups,
    reference_daily_median_series,
    session_table,
)
from snoscope.catalog import SnoCatalog, SnoEntry
from snoscope.filtering import run_pipeline
from snoscope.ingest import session_row
from snoscope.metrics import (
    GROUPING_ORBIT,
    GROUPING_PEP,
    GROUPING_SNO,
    compare_groups,
    daily_median_series,
    group_label,
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
    def _table(self):
        plan = [
            ("2021-03-01", [600.0, 610.0, 620.0]),
            ("2021-03-02", [605.0]),
            ("2021-03-04", [590.0, 600.0]),  # note: no sessions on 03-03
        ]
        sessions = [
            make_session(session_id=f"{day}-{i}", rtts=[lat, lat], timestamp=f"{day}T12:00:00Z")
            for day, lats in plan
            for i, lat in enumerate(lats)
        ]
        return session_table(sessions)

    def test_series_medians_and_gaps(self):
        table = self._table()
        series = daily_median_series(table, ["viasat"] * len(table))
        assert series == {
            "viasat": [
                (date(2021, 3, 1), 610.0),
                (date(2021, 3, 2), 605.0),
                (date(2021, 3, 4), 595.0),
            ]
        }

    def test_alternate_metric_and_none_skipping(self):
        table = session_table(
            [
                make_session(session_id="a", bytes_sent_final=0, timestamp="2021-03-01T00:00:00Z"),
                make_session(
                    session_id="b", bytes_sent_final=1_000_000, bytes_retrans_final=10_000, timestamp="2021-03-01T05:00:00Z"
                ),
                make_session(session_id="c", bytes_sent_final=1_000_000, timestamp="2021-03-01T06:00:00Z"),
            ]
        )
        series = daily_median_series(table, ["viasat", "viasat", None], "retrans_fraction")
        assert series == {"viasat": [(date(2021, 3, 1), 0.01)]}

    def test_empty_input(self):
        assert daily_median_series(session_table([]), []) == {}


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
        assert group_label(bundled_catalog.get("starlink"), GROUPING_ORBIT) == "LEO"
        assert group_label(bundled_catalog.get("o3b"), GROUPING_ORBIT) == "MEO"
        assert group_label(bundled_catalog.get("ses"), GROUPING_ORBIT) == "MEO+GEO"
        assert group_label(bundled_catalog.get("viasat"), GROUPING_ORBIT) == "GEO"

    def test_pep_grouping_splits_geo(self, bundled_catalog):
        assert group_label(bundled_catalog.get("viasat"), GROUPING_PEP) == "GEO (PEP)"
        assert group_label(bundled_catalog.get("telalaska"), GROUPING_PEP) == "GEO (others)"
        assert group_label(bundled_catalog.get("ses"), GROUPING_PEP) == "GEO (others)"  # hybrid, no proxy
        assert group_label(bundled_catalog.get("starlink"), GROUPING_PEP) == "LEO"
        assert group_label(bundled_catalog.get("o3b"), GROUPING_PEP) == "MEO"

    def test_group_label_dispatch(self, bundled_catalog):
        entry = bundled_catalog.get("viasat")
        assert group_label(entry, GROUPING_ORBIT) == "GEO"
        assert group_label(entry, GROUPING_SNO) == "viasat"
        assert group_label(entry, GROUPING_PEP) == "GEO (PEP)"
        with pytest.raises(ValueError):
            group_label(entry, "constellation")


class TestCompareGroups:
    def _table(self):
        catalog = catalog_fixture()
        plan = [("starlink", 56.0), ("starlink", 58.0), ("viasat", 620.0), ("telalaska", 700.0), ("o3b", 280.0), (None, 100.0)]
        sessions = [make_session(session_id=f"m{i}", rtts=[lat, lat]) for i, (_, lat) in enumerate(plan)]
        return catalog, session_table(sessions), [sno for sno, _ in plan]

    def test_orbit_grouping_pools(self):
        catalog, table, snos = self._table()
        groups = compare_groups(table, snos, catalog, grouping=GROUPING_ORBIT, metric="latency_p5_ms")
        assert set(groups) == {"LEO", "MEO", "GEO"}
        assert groups["LEO"].n == 2
        assert groups["GEO"].n == 2  # viasat + telalaska pool together
        assert groups["GEO"].p50 == 660.0

    def test_unattributed_sessions_skipped(self):
        catalog, table, snos = self._table()
        total = sum(s.n for s in compare_groups(table, snos, catalog).values())
        assert total == 5  # the row without an operator is gone
        with pytest.raises(KeyError, match="nobody"):
            compare_groups(table, [*snos[:-1], "nobody"], catalog)

    def test_pep_grouping(self):
        catalog, table, snos = self._table()
        groups = compare_groups(table, snos, catalog, grouping=GROUPING_PEP, metric="latency_p5_ms")
        assert groups["GEO (PEP)"].n == 1
        assert groups["GEO (others)"].n == 1

    def test_none_metric_values_skipped(self):
        catalog = catalog_fixture()
        table = session_table(
            [
                make_session(session_id="a", bytes_sent_final=0),
                make_session(session_id="b", bytes_sent_final=1_000_000, bytes_retrans_final=50_000),
            ]
        )
        groups = compare_groups(table, ["viasat", "viasat"], catalog, grouping=GROUPING_SNO, metric="retrans_fraction")
        assert groups["viasat"].n == 1
        assert groups["viasat"].p50 == 0.05


# Operators of every PEP class: LEO, MEO, hybrid MEO+GEO, GEO with a proxy, GEO without; None is a rejected row.
OPERATORS = [None, "starlink", "o3b", "ses", "viasat", "telalaska"]
METRICS = ("latency_p5_ms", "jitter_variability", "retrans_fraction")
# A few values drawn often, so that pools hold ties.
RTTS = st.sampled_from([0.5, 56.0, 600.0]) | st.floats(0.01, 900.0)
RTT_VARS = st.sampled_from([0.0, 5.0, 28.0]) | st.floats(0.0, 100.0)


@st.composite
def operator_sessions(draw):
    """A few sessions over four days, each with its operator; some send nothing, so their retrans is NaN."""
    sessions, snos = [], []
    for i in range(draw(st.integers(0, 12))):
        n = draw(st.integers(1, 3))
        sent = draw(st.sampled_from([0, 1_000, 10_000_000]))
        sessions.append(
            make_session(
                session_id=f"s{i}",
                rtts=draw(st.lists(RTTS, min_size=n, max_size=n)),
                rtt_vars=draw(st.lists(RTT_VARS, min_size=n, max_size=n)),
                timestamp=f"2021-03-0{draw(st.integers(1, 4))}T12:00:00Z",
                bytes_sent_final=sent,
                bytes_retrans_final=draw(st.integers(0, sent)),
            )
        )
        snos.append(draw(st.sampled_from(OPERATORS)))
    return sessions, snos


@settings(max_examples=150, derandomize=True, deadline=None)
@given(operator_sessions())
def test_columns_agree_with_per_session_metrics(drawn):
    """compare_groups and daily_median_series over the session table equal the per-session reference, float for float."""
    sessions, snos = drawn
    catalog, table = catalog_fixture(), session_table(sessions)
    rows = [session_metrics(session, sno) for session, sno in zip(sessions, snos)]
    for metric in METRICS:
        for grouping in (GROUPING_ORBIT, GROUPING_SNO, GROUPING_PEP):
            expected = reference_compare_groups(rows, catalog, grouping=grouping, metric=metric)
            assert compare_groups(table, snos, catalog, grouping=grouping, metric=metric) == expected
        by_sno = {sno: reference_daily_median_series([m for m in rows if m.sno == sno], metric) for sno in sorted(set(snos) - {None})}
        assert daily_median_series(table, snos, metric) == {sno: series for sno, series in by_sno.items() if series}


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
        corpus = run_pipeline(map(session_row, sessions), catalog_fixture())
        rows = corpus_metrics(sessions, corpus)
        ids = {m.session_id for m in rows}
        assert ids == {f"vs-{i}" for i in range(10)}
        assert all(m.sno == "viasat" for m in rows)

    def test_all_sessions_when_not_filtering(self):
        sessions = self._corpus()
        corpus = run_pipeline(map(session_row, sessions), catalog_fixture())
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
        corpus = run_pipeline(map(session_row, sessions), catalog_fixture())
        rows = corpus_metrics(sessions, corpus, accepted_only=False)
        assert [(m.sno, m.latency_p5_ms) for m in rows if m.session_id == "dup"] == [
            ("viasat", session_metrics(sessions[-2]).latency_p5_ms),
            (None, session_metrics(sessions[-1]).latency_p5_ms),
        ]
        accepted = corpus_metrics(sessions, corpus)
        assert [m.sno for m in accepted if m.session_id == "dup"] == ["viasat"]
