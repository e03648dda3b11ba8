"""Acceptance pipeline stages, checked against an independently-coded oracle."""

from __future__ import annotations

import math
import random
from ipaddress import ip_address, ip_network

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_session
from snoscope.catalog import DEFAULT_BANDS, SnoCatalog, SnoEntry
from snoscope.filtering import (
    DEFAULT_GLOBAL_FLOOR_MS,
    REASON_BELOW_THRESHOLD,
    REASON_EXCLUDED_ASN,
    REASON_UNKNOWN_ASN,
    STAGE_ASN,
    STAGE_REJECTED,
    STAGE_RELAXED,
    STAGE_STRICT,
    PrefixGroup,
    SessionRef,
    group_prefix24,
    in_bands,
    relaxed_filter,
    relaxed_threshold,
    run_pipeline,
    strict_filter,
    summary_rows,
)
from snoscope.ingest import SessionRow, session_row


def ref(session_id: str, ip: str, latency: float, sno: str = "viasat") -> SessionRef:
    address = ip_address(ip)
    return SessionRef(
        session_id=session_id,
        sno=sno,
        ipv4=int(address) if address.version == 4 else -1,
        access_latency_ms=latency,
    )


# The orbit bands as README states them: [lo, hi) access latency in ms.
ORACLE_BANDS = {"LEO": (0.0, 200.0), "MEO": (200.0, 500.0), "GEO": (500.0, math.inf)}


def catalog_fixture() -> SnoCatalog:
    return SnoCatalog(
        [
            SnoEntry("starlink", frozenset({14593}), frozenset({"LEO"}), excluded_asns=frozenset({27277})),
            SnoEntry("viasat", frozenset({13955}), frozenset({"GEO"}), pep=True),
            SnoEntry("ses", frozenset({12684}), frozenset({"MEO", "GEO"})),
        ]
    )


class TestGroupPrefix24:
    def test_same_slash24_shares_a_group(self):
        groups, ipv6 = group_prefix24(
            [ref("a", "100.1.2.3", 600.0), ref("b", "100.1.2.250", 610.0), ref("c", "100.1.3.1", 620.0)]
        )
        assert ipv6 == []
        assert [str(g.prefix) for g in groups] == ["100.1.2.0/24", "100.1.3.0/24"]
        assert [r.session_id for r in groups[0].sessions] == ["a", "b"]

    def test_ipv6_set_aside(self):
        groups, ipv6 = group_prefix24(
            [ref("a", "100.1.2.3", 600.0), ref("b", "2001:db8::1", 610.0)]
        )
        assert len(groups) == 1
        assert [r.session_id for r in ipv6] == ["b"]

    def test_operators_do_not_share_groups(self):
        groups, _ = group_prefix24(
            [ref("a", "100.1.2.3", 600.0, sno="viasat"), ref("b", "100.1.2.9", 610.0, sno="hughes")]
        )
        assert len(groups) == 2
        assert [g.sno for g in groups] == ["hughes", "viasat"]  # sorted by operator

    def test_empty_input(self):
        assert group_prefix24([]) == ([], [])

    def test_prefixes_match_ip_network(self):
        rng = random.Random(24)
        ips = ["0.0.0.0", "0.0.0.255", "255.255.255.255", "100.1.2.3"]
        ips += [str(ip_address(rng.getrandbits(32))) for _ in range(500)]
        groups, _ = group_prefix24([ref(f"s{i}", ip, 600.0) for i, ip in enumerate(ips)])
        assert sum(len(g.sessions) for g in groups) == len(ips)
        for group in groups:
            for r in group.sessions:
                assert group.prefix == ip_network(f"{ip_address(r.ipv4)}/24", strict=False)


class TestStrictFilter:
    def _group(self, latencies):
        refs = [ref(f"s{i}", f"100.1.2.{i + 1}", lat) for i, lat in enumerate(latencies)]
        return PrefixGroup(sno="viasat", prefix=ip_network("100.1.2.0/24"), sessions=refs)

    def test_well_measured_in_band_group_accepted(self):
        group = self._group([600.0 + i for i in range(10)])
        assert strict_filter(group, DEFAULT_BANDS["GEO"]) is True

    def test_undersampled_group_rejected(self):
        group = self._group([600.0 + i for i in range(9)])
        assert strict_filter(group, DEFAULT_BANDS["GEO"]) is False

    def test_single_out_of_band_session_rejects_the_prefix(self):
        group = self._group([600.0] * 9 + [300.0])
        assert strict_filter(group, DEFAULT_BANDS["GEO"]) is False

    def test_band_union_for_hybrid_operators(self):
        bands = [DEFAULT_BANDS["MEO"], DEFAULT_BANDS["GEO"]]
        group = self._group([280.0] * 5 + [700.0] * 5)
        assert strict_filter(group, bands) is True

    def test_boundary_latencies_follow_half_open_bands(self):
        assert strict_filter(self._group([500.0] * 10), DEFAULT_BANDS["GEO"]) is True
        assert strict_filter(self._group([499.999] * 10), DEFAULT_BANDS["GEO"]) is False

    def test_custom_min_tests(self):
        group = self._group([600.0] * 3)
        assert strict_filter(group, DEFAULT_BANDS["GEO"], min_tests=3) is True
        with pytest.raises(ValueError):
            strict_filter(group, DEFAULT_BANDS["GEO"], min_tests=0)

    def test_in_bands_requires_at_least_one_band(self):
        with pytest.raises(ValueError):
            in_bands(600.0, [])


class TestRelaxedStage:
    def test_threshold_is_min_strict_latency(self):
        assert relaxed_threshold([548.9, 602.3, 710.0]) == 548.9

    def test_threshold_falls_back_to_global_floor(self):
        assert relaxed_threshold([]) == DEFAULT_GLOBAL_FLOOR_MS == 527.0
        assert relaxed_threshold([], global_floor_ms=480.0) == 480.0

    def test_filter_is_inclusive_at_the_threshold(self):
        assert relaxed_filter(ref("a", "1.2.3.4", 548.9), 548.9) is True
        assert relaxed_filter(ref("a", "1.2.3.4", 548.8999), 548.9) is False


class TestRunPipeline:
    def _sessions(self):
        out = []

        def sess(sid, asn, ip, lat):
            out.append(make_session(session_id=sid, client_asn=asn, client_ip=ip, rtts=[lat, lat]))

        # pure-LEO operator: accepted at the ASN stage regardless of latency
        for i in range(3):
            sess(f"sl-{i}", 14593, f"50.0.0.{i + 1}", 40.0 + i)
        # excluded ASN of the same operator
        sess("sl-x0", 27277, "60.0.0.1", 12.0)
        sess("sl-x1", 27277, "60.0.0.2", 14.0)
        # unknown ASN
        sess("unk-0", 64500, "70.0.0.1", 25.0)
        # viasat strict prefix: 10 in-band sessions in one /24
        for i in range(10):
            sess(f"vs-strict-{i}", 13955, f"100.1.2.{i + 1}", 600.0 + i)
        # viasat sparse prefix: above and below the strict minimum (600.0)
        sess("vs-hi", 13955, "100.1.9.1", 650.0)
        sess("vs-lo", 13955, "100.1.9.2", 580.0)
        # viasat IPv6 clients never see the prefix screen
        sess("vs-v6-hi", 13955, "2001:db8::10", 700.0)
        sess("vs-v6-lo", 13955, "2001:db8::11", 300.0)
        # hybrid operator with no strict prefix: global floor applies
        sess("ses-hi", 12684, "110.0.0.1", 530.0)
        sess("ses-lo", 12684, "110.0.0.2", 300.0)
        return out

    def _run(self, **kwargs):
        return run_pipeline(map(session_row, self._sessions()), catalog_fixture(), **kwargs)

    def test_stage_assignment(self):
        corpus = self._run()
        stages = {d.session_id: (d.stage, d.reason) for d in corpus.dispositions}
        assert stages["sl-0"] == (STAGE_ASN, None)
        assert stages["sl-x0"] == (STAGE_REJECTED, REASON_EXCLUDED_ASN)
        assert stages["unk-0"] == (STAGE_REJECTED, REASON_UNKNOWN_ASN)
        assert stages["vs-strict-0"] == (STAGE_STRICT, None)
        assert stages["vs-hi"] == (STAGE_RELAXED, None)
        assert stages["vs-lo"] == (STAGE_REJECTED, REASON_BELOW_THRESHOLD)
        assert stages["vs-v6-hi"] == (STAGE_RELAXED, None)
        assert stages["vs-v6-lo"] == (STAGE_REJECTED, REASON_BELOW_THRESHOLD)
        assert stages["ses-hi"] == (STAGE_RELAXED, None)
        assert stages["ses-lo"] == (STAGE_REJECTED, REASON_BELOW_THRESHOLD)

    def test_every_input_gets_exactly_one_disposition(self):
        corpus = self._run()
        sessions = self._sessions()
        assert corpus.input_count == len(sessions)
        assert len(corpus.dispositions) == len(sessions)
        assert {d.session_id for d in corpus.dispositions} == {s.session_id for s in sessions}

    def test_per_operator_results(self):
        corpus = self._run()
        starlink = corpus.per_sno["starlink"]
        assert len(starlink.accepted) == 3
        assert starlink.rejected_count == 2  # the excluded-ASN sessions
        assert starlink.threshold_ms is None  # no latency cutoff at the ASN stage
        viasat = corpus.per_sno["viasat"]
        assert viasat.threshold_ms == 600.0
        assert viasat.strict_prefixes == 1
        assert viasat.total_prefixes == 2
        assert len(viasat.accepted) == 12  # 10 strict + vs-hi + vs-v6-hi
        assert viasat.rejected_count == 2
        ses = corpus.per_sno["ses"]
        assert ses.threshold_ms == DEFAULT_GLOBAL_FLOOR_MS
        assert ses.strict_prefixes == 0
        assert len(ses.accepted) == 1 and ses.rejected_count == 1

    def test_counters(self):
        corpus = self._run()
        assert corpus.ipv6_excluded == 2
        assert corpus.accepted_count() == 3 + 12 + 1
        # latency populations recorded for cataloged ASNs only, excluded included
        assert set(corpus.asn_latencies) == {14593, 27277, 13955, 12684}
        assert len(corpus.asn_latencies[13955]) == 14

    def test_custom_floor_changes_relaxed_verdicts(self):
        corpus = self._run(global_floor_ms=290.0)
        stages = {d.session_id: d.stage for d in corpus.dispositions}
        assert stages["ses-hi"] == STAGE_RELAXED
        assert stages["ses-lo"] == STAGE_RELAXED  # 300 >= 290
        # viasat has a strict stage, so its threshold ignores the floor
        assert corpus.per_sno["viasat"].threshold_ms == 600.0

    def test_input_order_invariance(self):
        sessions = self._sessions()
        rng = random.Random(55)
        shuffled = sessions[:]
        rng.shuffle(shuffled)
        a = run_pipeline(map(session_row, sessions), catalog_fixture())
        b = run_pipeline(map(session_row, shuffled), catalog_fixture())
        assert a.dispositions == b.dispositions
        assert summary_rows(a) == summary_rows(b)

    def test_worker_count_invariance(self):
        a = self._run(workers=1)
        b = self._run(workers=4)
        assert a.dispositions == b.dispositions
        assert summary_rows(a) == summary_rows(b)
        assert a.ipv6_excluded == b.ipv6_excluded

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            self._run(workers=0)

    def test_summary_rows_shape(self):
        rows = summary_rows(self._run())
        assert [row["sno"] for row in rows] == ["ses", "starlink", "viasat"]
        by_name = {row["sno"]: row for row in rows}
        assert by_name["viasat"]["orbit"] == "GEO"
        assert by_name["ses"]["orbit"] == "MEO+GEO"
        assert by_name["viasat"]["threshold_ms"] == "600.000"
        assert by_name["starlink"]["threshold_ms"] == ""
        assert by_name["starlink"]["accepted"] == 3


class TestPipelineAgainstOracle:
    """Corpora scored by a from-scratch reimplementation of the stages."""

    def _oracle(self, sessions, min_tests=10, floor=DEFAULT_GLOBAL_FLOOR_MS):
        """(stage, reason) per input position, and each screened operator's threshold.

        Derived straight from the stage definitions. sessions are
        (session_id, client_asn, client address text, access latency)
        tuples; a /24 is the dotted text up to its last dot.
        """
        catalog = catalog_fixture()
        owner = {}
        for entry in catalog.entries:
            owner.update({asn: (entry, True) for asn in entry.asns})
            owner.update({asn: (entry, False) for asn in entry.excluded_asns})
        outcomes = [None] * len(sessions)
        screened: dict[str, list[int]] = {}
        for i, (_, asn, _, _) in enumerate(sessions):
            entry, subscriber = owner.get(asn, (None, False))
            if entry is None:
                outcomes[i] = (STAGE_REJECTED, REASON_UNKNOWN_ASN)
            elif not subscriber:
                outcomes[i] = (STAGE_REJECTED, REASON_EXCLUDED_ASN)
            elif entry.orbits == {"LEO"}:
                outcomes[i] = (STAGE_ASN, None)
            else:
                screened.setdefault(entry.name, []).append(i)
        thresholds = {}
        for name, members in screened.items():
            bands = [ORACLE_BANDS[orbit] for orbit in catalog.get(name).orbits]
            by_prefix: dict[str, list[int]] = {}
            for i in members:
                address = sessions[i][2]
                if ":" not in address:
                    by_prefix.setdefault(address.rsplit(".", 1)[0], []).append(i)
            strict: set[int] = set()
            for prefix_members in by_prefix.values():
                lats = [sessions[i][3] for i in prefix_members]
                if len(lats) >= min_tests and all(any(lo <= lat < hi for lo, hi in bands) for lat in lats):
                    strict.update(prefix_members)
            threshold = thresholds[name] = min((sessions[i][3] for i in strict), default=floor)
            for i in members:
                if i in strict:
                    outcomes[i] = (STAGE_STRICT, None)
                elif sessions[i][3] >= threshold:
                    outcomes[i] = (STAGE_RELAXED, None)
                else:
                    outcomes[i] = (STAGE_REJECTED, REASON_BELOW_THRESHOLD)
        return outcomes, thresholds

    def _outcomes(self, corpus):
        """(stage, reason) per input position, and the thresholds, as run_pipeline gave them."""
        assert sorted(d.index for d in corpus.dispositions) == list(range(corpus.input_count))
        outcomes = [None] * corpus.input_count
        for d in corpus.dispositions:
            outcomes[d.index] = (d.stage, d.reason)
        thresholds = {name: r.threshold_ms for name, r in corpus.per_sno.items() if r.threshold_ms is not None}
        return outcomes, thresholds

    def _random_corpus(self, rng):
        sessions = []
        sid = 0
        for prefix_no in range(rng.randint(1, 8)):
            for _ in range(rng.randint(1, 14)):
                lat = round(rng.uniform(300.0, 900.0), 3)
                sessions.append(
                    make_session(
                        session_id=f"r-{sid:04d}",
                        client_asn=13955,
                        client_ip=f"100.7.{prefix_no}.{(sid % 250) + 1}",
                        rtts=[lat, lat],
                    )
                )
                sid += 1
        if rng.random() < 0.5:
            lat = round(rng.uniform(300.0, 900.0), 3)
            sessions.append(
                make_session(
                    session_id=f"r-{sid:04d}",
                    client_asn=13955,
                    client_ip=f"2001:db8::{sid:x}",
                    rtts=[lat, lat],
                )
            )
        return sessions

    def test_pipeline_matches_oracle_on_random_corpora(self):
        rng = random.Random(2024)
        catalog = catalog_fixture()
        for _ in range(100):
            sessions = self._random_corpus(rng)
            drawn = [(s.session_id, s.client_asn, str(s.client_ip), s.rtt_ms[0]) for s in sessions]  # flat RTTs
            assert self._outcomes(run_pipeline(map(session_row, sessions), catalog)) == self._oracle(drawn)

    @settings(max_examples=300, deadline=None)
    @given(
        sessions=st.lists(
            st.tuples(
                st.sampled_from(["s0", "s1", "s2"]),
                st.sampled_from([13955, 12684, 14593, 27277, 64500]),
                st.sampled_from(["100.7.0.1", "100.7.0.2", "100.7.1.1", "100.7.2.9", "2001:db8::1"]),
                st.sampled_from([30.0, 199.999, 200.0, 350.0, 499.999, 500.0, 527.0, 600.0, 609.0, 900.0]),
            ),
            max_size=16,
        ),
        min_tests=st.integers(1, 4),
        floor=st.sampled_from([DEFAULT_GLOBAL_FLOOR_MS, 250.0]),
    )
    @example(  # twins of strictly accepted sessions: in another /24, from IPv6, and at the ASN stage
        sessions=[
            ("s0", 13955, "100.7.0.1", 600.0),
            ("s1", 13955, "100.7.0.2", 609.0),
            ("s0", 13955, "100.7.1.1", 30.0),
            ("s1", 13955, "2001:db8::1", 30.0),
            ("s0", 12684, "100.7.0.1", 30.0),
            ("s1", 64500, "100.7.0.2", 600.0),
        ],
        min_tests=2,
        floor=DEFAULT_GLOBAL_FLOOR_MS,
    )
    def test_repeated_ids_are_each_screened_in_their_own_place(self, sessions, min_tests, floor):
        rows = [
            SessionRow(sid, asn, int(ip_address(text)) if ":" not in text else -1, lat, 1.0, math.nan, 738000)
            for sid, asn, text, lat in sessions
        ]
        corpus = run_pipeline(rows, catalog_fixture(), min_tests=min_tests, global_floor_ms=floor)
        assert self._outcomes(corpus) == self._oracle(sessions, min_tests, floor)

    def test_strict_accepts_always_clear_the_relaxed_cutoff(self):
        rng = random.Random(77)
        catalog = catalog_fixture()
        for _ in range(100):
            sessions = self._random_corpus(rng)
            corpus = run_pipeline(map(session_row, sessions), catalog)
            result = corpus.per_sno["viasat"]
            strict_ids = {
                d.session_id for d in corpus.dispositions if d.stage == STAGE_STRICT
            }
            accepted_by_id = {r.session_id: r for r in result.accepted}
            for sid in strict_ids:
                assert relaxed_filter(accepted_by_id[sid], result.threshold_ms)

    def test_raising_the_floor_never_grows_the_accepted_set(self):
        rng = random.Random(31)
        catalog = catalog_fixture()
        for _ in range(40):
            sessions = self._random_corpus(rng)
            lo = run_pipeline(map(session_row, sessions), catalog, global_floor_ms=400.0)
            hi = run_pipeline(map(session_row, sessions), catalog, global_floor_ms=650.0)
            lo_accepted = {d.session_id for d in lo.dispositions if d.stage != STAGE_REJECTED}
            hi_accepted = {d.session_id for d in hi.dispositions if d.stage != STAGE_REJECTED}
            assert hi_accepted <= lo_accepted
