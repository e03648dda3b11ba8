"""Gateway detection, PoP hostname grammar, timelines, and change events."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest

from helpers import make_traceroute, ts
from snoscope.ingest import HopReply
from snoscope.starlink import (
    EVENT_LATENCY_SHIFT,
    GATEWAY_IP,
    EVENT_POP_CHANGE,
    UNKNOWN_POP,
    PopAssignment,
    PopHostnameError,
    build_pop_timeline,
    detect_changes,
    parse_pop_hostname,
    path_sample,
)


class TestGatewayDetection:
    def test_gateway_hop_proves_satellite_path(self):
        assert path_sample(make_traceroute(), {}) is not None

    def test_no_gateway_hop(self):
        assert path_sample(make_traceroute(include_gateway=False), {}) is None

    def test_pop_rtt_is_median_of_gateway_replies(self):
        m = make_traceroute(gateway_rtts=[53.0, 52.0, 57.0])
        assert path_sample(m, {}).rtt_ms == 53.0
        m = make_traceroute(gateway_rtts=[50.0, 60.0])
        assert path_sample(m, {}).rtt_ms == 55.0

    def test_gateway_replies_without_rtt_give_no_sample(self):
        m = make_traceroute(gateway_rtts=[53.0])
        m.hops[1].replies[0].rtt_ms = None
        assert path_sample(m, {}) is None
        m.hops[1].replies.append(HopReply(ip=GATEWAY_IP, rtt_ms=61.0))
        assert path_sample(m, {}).rtt_ms == 61.0


class TestPopHostnameGrammar:
    @pytest.mark.parametrize(
        "hostname, code",
        [
            ("customer.tkyojpn1.pop.starlinkisp.net", "tkyojpn1"),
            ("customer.sttlwax1.pop.starlinkisp.net.", "sttlwax1"),
            ("CUSTOMER.FRNKDEU1.POP.STARLINKISP.NET", "frnkdeu1"),
            ("customer.new-york1.pop.starlinkisp.net", "new-york1"),
        ],
    )
    def test_accepted(self, hostname, code):
        assert parse_pop_hostname(hostname) == code

    @pytest.mark.parametrize(
        "hostname",
        [
            "tkyojpn1.pop.starlinkisp.net",  # missing customer label
            "customer.tkyojpn1.starlinkisp.net",  # missing pop label
            "customer..pop.starlinkisp.net",  # empty code
            "customer.tkyojpn1.pop.starlinkisp.net.example.com",
            "host.example.net",
            "customer.-bad.pop.starlinkisp.net",  # code cannot start with a dash
            "",
        ],
    )
    def test_rejected(self, hostname):
        with pytest.raises(PopHostnameError):
            parse_pop_hostname(hostname)


def rdns_for(codes: dict[str, str]) -> dict[str, str]:
    return {ip: f"customer.{code}.pop.starlinkisp.net" for ip, code in codes.items()}


def measurement(stamp: str, src: str, rtts=None, probe_id: int = 1001, include_gateway: bool = True):
    return make_traceroute(
        probe_id=probe_id,
        timestamp=stamp,
        src_addr=src,
        gateway_rtts=rtts or [53.0, 52.0, 54.0],
        include_gateway=include_gateway,
    )


def timeline_of(ms, rdns):
    """build_pop_timeline over the path samples of the measurements that crossed the gateway."""
    return build_pop_timeline([s for s in (path_sample(m, rdns) for m in ms) if s is not None])


class TestBuildPopTimeline:
    def test_consecutive_same_pop_coalesces(self):
        rdns = rdns_for({"98.0.1.10": "sydnaus1", "98.0.1.11": "akldnzl1"})
        ms = [
            measurement("2022-05-03T00:00:00Z", "98.0.1.10", [53.0]),
            measurement("2022-05-03T12:00:00Z", "98.0.1.10", [55.0]),
            measurement("2022-05-04T00:00:00Z", "98.0.1.11", [33.0]),
            measurement("2022-05-04T12:00:00Z", "98.0.1.11", [35.0]),
            measurement("2022-05-05T00:00:00Z", "98.0.1.10", [54.0]),
        ]
        timeline = timeline_of(ms, rdns)
        assert [a.pop_code for a in timeline] == ["sydnaus1", "akldnzl1", "sydnaus1"]
        assert timeline[0].n_measurements == 2
        assert timeline[0].start == ts("2022-05-03T00:00:00Z")
        assert timeline[0].end == ts("2022-05-03T12:00:00Z")
        assert timeline[0].median_rtt_ms == 54.0
        assert timeline[1].median_rtt_ms == 34.0

    def test_out_of_order_input_is_sorted(self):
        rdns = rdns_for({"98.0.1.10": "sydnaus1", "98.0.1.11": "akldnzl1"})
        ms = [
            measurement("2022-05-05T00:00:00Z", "98.0.1.11"),
            measurement("2022-05-03T00:00:00Z", "98.0.1.10"),
            measurement("2022-05-04T00:00:00Z", "98.0.1.10"),
        ]
        timeline = timeline_of(ms, rdns)
        assert [a.pop_code for a in timeline] == ["sydnaus1", "akldnzl1"]
        assert timeline[0].n_measurements == 2

    def test_non_satellite_measurements_dropped(self):
        rdns = rdns_for({"98.0.1.10": "sydnaus1"})
        ms = [
            measurement("2022-05-03T00:00:00Z", "98.0.1.10"),
            measurement("2022-05-03T12:00:00Z", "98.0.1.10", include_gateway=False),
        ]
        timeline = timeline_of(ms, rdns)
        assert len(timeline) == 1
        assert timeline[0].n_measurements == 1

    def test_missing_or_foreign_rdns_maps_to_unknown(self):
        rdns = {"98.0.1.11": "mail.example.org"}
        ms = [
            measurement("2022-05-03T00:00:00Z", "98.0.1.10"),  # no rdns row
            measurement("2022-05-03T12:00:00Z", "98.0.1.11"),  # non-PoP hostname
        ]
        timeline = timeline_of(ms, rdns)
        assert [a.pop_code for a in timeline] == [UNKNOWN_POP]
        assert timeline[0].n_measurements == 2

    def test_mixed_probes_rejected(self):
        rdns = rdns_for({"98.0.1.10": "sydnaus1"})
        ms = [
            measurement("2022-05-03T00:00:00Z", "98.0.1.10", probe_id=1001),
            measurement("2022-05-03T12:00:00Z", "98.0.1.10", probe_id=1002),
        ]
        with pytest.raises(ValueError, match="mixes probes"):
            timeline_of(ms, rdns)

    def test_empty_input(self):
        assert build_pop_timeline([]) == []

    def test_path_sample_of_a_measurement(self):
        rdns = rdns_for({"98.0.1.10": "sydnaus1"})
        sample = path_sample(measurement("2022-05-03T00:00:00Z", "98.0.1.10", [53.0, 51.0]), rdns)
        assert (sample.probe_id, sample.timestamp) == (1001, ts("2022-05-03T00:00:00Z"))
        assert sample.dst_name == "k.root-servers.net"
        assert (sample.pop_code, sample.rtt_ms) == ("sydnaus1", 52.0)
        assert path_sample(measurement("2022-05-03T00:00:00Z", "98.0.1.10", include_gateway=False), rdns) is None


def assignment(pop: str, start: str, rtts: list[float], probe_id: int = 1001, step_hours: float = 12.0):
    begin = ts(start)
    samples = [(begin + timedelta(hours=step_hours * i), r) for i, r in enumerate(rtts)]
    return PopAssignment(
        probe_id=probe_id,
        pop_code=pop,
        start=samples[0][0],
        end=samples[-1][0],
        median_rtt_ms=sorted(rtts)[len(rtts) // 2],
        samples=samples,
    )


class TestDetectChanges:
    def test_k_assignments_yield_k_minus_one_pop_changes(self):
        timeline = [
            assignment("sydnaus1", "2022-05-03T00:00:00Z", [53.0, 54.0]),
            assignment("akldnzl1", "2022-06-01T00:00:00Z", [33.0, 34.0]),
            assignment("sydnaus1", "2022-07-01T00:00:00Z", [52.0, 53.0]),
        ]
        events = detect_changes(timeline)
        pop_changes = [e for e in events if e.kind == EVENT_POP_CHANGE]
        assert len(pop_changes) == len(timeline) - 1
        first = pop_changes[0]
        assert first.before_pop == "sydnaus1" and first.after_pop == "akldnzl1"
        assert first.at == timeline[1].start
        assert first.before_rtt_ms == timeline[0].median_rtt_ms
        assert first.after_rtt_ms == timeline[1].median_rtt_ms

    def test_single_assignment_has_no_pop_changes(self):
        timeline = [assignment("sydnaus1", "2022-05-03T00:00:00Z", [53.0] * 20)]
        assert detect_changes(timeline) == []

    def test_latency_shift_detected_and_baseline_reanchors(self):
        # 30 samples at ~50ms then 30 at ~80ms inside one assignment:
        # one shift event, not one per sample after the step.
        rng = random.Random(4)
        rtts = [50.0 + rng.uniform(-1.0, 1.0) for _ in range(30)]
        rtts += [80.0 + rng.uniform(-1.0, 1.0) for _ in range(30)]
        timeline = [assignment("sydnaus1", "2022-05-03T00:00:00Z", rtts)]
        events = detect_changes(timeline, window=5)
        shifts = [e for e in events if e.kind == EVENT_LATENCY_SHIFT]
        assert len(shifts) == 1
        shift = shifts[0]
        assert shift.before_pop == shift.after_pop == "sydnaus1"
        assert shift.before_rtt_ms == pytest.approx(50.0, abs=2.0)
        assert shift.after_rtt_ms == pytest.approx(80.0, abs=5.0)
        # the event lands within a window of the actual step
        step_at = timeline[0].samples[30][0]
        assert abs(shift.at - step_at) <= timedelta(hours=12 * 5)

    def test_no_shift_for_steady_series(self):
        rng = random.Random(9)
        rtts = [50.0 + rng.uniform(-2.0, 2.0) for _ in range(120)]
        timeline = [assignment("sydnaus1", "2022-05-03T00:00:00Z", rtts)]
        assert detect_changes(timeline, window=10) == []

    def test_short_assignments_skip_shift_detection(self):
        # fewer than 2 windows of samples: a step stays undetected by design
        rtts = [50.0] * 5 + [80.0] * 4
        timeline = [assignment("sydnaus1", "2022-05-03T00:00:00Z", rtts)]
        assert detect_changes(timeline, window=5) == []

    def test_events_sorted_by_time(self):
        rng = random.Random(14)
        first_rtts = [50.0 + rng.uniform(-1.0, 1.0) for _ in range(30)]
        first_rtts += [80.0 + rng.uniform(-1.0, 1.0) for _ in range(30)]
        timeline = [
            assignment("sydnaus1", "2022-05-03T00:00:00Z", first_rtts),
            assignment("akldnzl1", "2022-09-01T00:00:00Z", [33.0, 34.0, 33.5]),
        ]
        events = detect_changes(timeline, window=5)
        assert [e.kind for e in events] == [EVENT_LATENCY_SHIFT, EVENT_POP_CHANGE]
        stamps = [e.at for e in events]
        assert stamps == sorted(stamps)

    def test_bad_parameters_rejected(self):
        timeline = [assignment("sydnaus1", "2022-05-03T00:00:00Z", [50.0, 51.0])]
        with pytest.raises(ValueError):
            detect_changes(timeline, shift_threshold=0.0)
        with pytest.raises(ValueError):
            detect_changes(timeline, window=0)
