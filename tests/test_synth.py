"""Synthetic corpus generator: distribution targets, determinism, validity."""

from __future__ import annotations

import json
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import reference_sessions
from snoscope.catalog import band_of
from snoscope.ingest import (
    parse_aspath_stream,
    parse_rdns,
    parse_speedtest_stream,
    parse_traceroute_stream,
)
from snoscope.profiling import percentile
from snoscope.synth import (
    GATEWAY,
    GeneratorSpec,
    gen_corpus,
)
from snoscope.util import sha256_file


def small_spec_dict(**overrides) -> dict:
    base = {
        "seed": 7,
        "start": "2021-03-01T00:00:00Z",
        "days": 5,
        "snapshots_per_session": 4,
        "profiles": [
            {
                "sno": "starlink",
                "asn": 14593,
                "n_sessions": 40,
                "n_prefixes": 4,
                "components": [{"orbit": "LEO", "weight": 1.0, "median_ms": 56.0, "spread_ms": 8.0}],
                "jitter_ratio": 0.5,
                "retrans_median": 0.004,
            },
            {
                "sno": "viasat",
                "asn": 13955,
                "n_sessions": 60,
                "n_prefixes": 6,
                "components": [{"orbit": "GEO", "weight": 1.0, "median_ms": 600.0, "spread_ms": 40.0}],
                "jitter_ratio": 0.28,
                "retrans_median": 0.012,
                "backup_fraction": 0.2,
            },
        ],
        "traceroute_plans": [
            {
                "probe_id": 1001,
                "start": "2022-05-01T00:00:00Z",
                "end": "2022-05-11T00:00:00Z",
                "cadence_hours": 12.0,
                "periods": [
                    {"pop": "sydnaus1", "rtt_ms": 53.0, "until": "2022-05-06T00:00:00Z"},
                    {"pop": "akldnzl1", "rtt_ms": 33.0},
                ],
            }
        ],
        "as_paths": ["2023-01-01T00:00:00Z 3356 14593"],
    }
    base.update(overrides)
    return base


class TestGeneratorSpec:
    def test_from_dict_round_trip(self):
        spec = GeneratorSpec.from_dict(small_spec_dict())
        assert spec.seed == 7
        assert len(spec.profiles) == 2
        assert spec.profiles[1].backup_fraction == 0.2
        assert spec.traceroute_plans[0].periods[0].until is not None
        assert spec.traceroute_plans[0].periods[1].until is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"days": 0},
            {"snapshots_per_session": 1},
            {"profiles": []},
        ],
    )
    def test_top_level_validation(self, overrides):
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(small_spec_dict(**overrides))

    def test_median_must_sit_in_declared_band(self):
        bad = small_spec_dict()
        bad["profiles"][0]["components"][0]["median_ms"] = 300.0  # not a LEO latency
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)

    def test_duplicate_profile_asn_rejected(self):
        bad = small_spec_dict()
        bad["profiles"][1]["asn"] = bad["profiles"][0]["asn"]
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)

    def test_only_last_period_may_be_open_ended(self):
        bad = small_spec_dict()
        del bad["traceroute_plans"][0]["periods"][0]["until"]
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)

    @pytest.mark.parametrize(
        ("profile", "field", "value"),
        [
            (1, "backup_median_ms", -5.0),  # never draws into the backup band
            (1, "backup_median_ms", 0.5),
            (1, "backup_median_ms", 180.0),
            (0, "jitter_ratio", float("inf")),
            (0, "jitter_ratio", float("nan")),
            (0, "jitter_ratio", -0.1),
            (0, "retrans_median", -0.001),
            (0, "retrans_median", float("-inf")),
            (1, "backup_fraction", float("nan")),
            (0, "n_prefixes", 70_000),  # octets above 255
            (0, "n_prefixes", 0),
            (0, "n_sessions", 0),
        ],
    )
    def test_bad_profile_values_rejected(self, profile, field, value):
        bad = small_spec_dict()
        bad["profiles"][profile][field] = value
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)

    @pytest.mark.parametrize("field", ["weight", "median_ms", "spread_ms"])
    def test_component_values_must_be_finite(self, field):
        bad = small_spec_dict()
        bad["profiles"][0]["components"][0][field] = float("inf")
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)

    @pytest.mark.parametrize(("field", "value"), [("weight", 0.0), ("spread_ms", 0.0), ("spread_ms", -1.0)])
    def test_component_spread_and_weight_must_be_positive(self, field, value):
        bad = small_spec_dict()
        bad["profiles"][0]["components"][0][field] = value
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)

    def test_traceroute_plan_values_must_be_finite(self):
        bad = small_spec_dict()
        bad["traceroute_plans"][0]["periods"][0]["rtt_ms"] = float("nan")
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)
        bad = small_spec_dict()
        bad["traceroute_plans"][0]["cadence_hours"] = float("inf")
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)

    @pytest.mark.parametrize("cadence", [0.0, -1.0, 1e-12])  # 1e-12 h rounds to a zero step
    def test_cadence_must_advance(self, cadence):
        bad = small_spec_dict()
        bad["traceroute_plans"][0]["cadence_hours"] = cadence
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)

    def test_boundary_values_accepted(self):
        spec = small_spec_dict()
        spec["profiles"][0].update(n_prefixes=65_536, jitter_ratio=0.0, retrans_median=0.0)
        spec["profiles"][0]["backup_median_ms"] = 500.0  # unused: the profile has no backup sessions
        spec["profiles"][1]["backup_median_ms"] = 1.0
        GeneratorSpec.from_dict(spec)

    def test_as_paths_validated_up_front(self):
        bad = small_spec_dict(as_paths=["2023-01-01T00:00:00Z 3356 nonsense"])
        with pytest.raises(ValueError):
            GeneratorSpec.from_dict(bad)


class TestGenCorpus:
    @pytest.fixture()
    def corpus(self, tmp_path):
        spec = GeneratorSpec.from_dict(small_spec_dict())
        return spec, gen_corpus(spec, tmp_path)

    def test_writes_all_six_files(self, corpus):
        _, paths = corpus
        assert sorted(paths) == [
            "as_paths.txt",
            "labels.ndjson",
            "manifest.json",
            "rdns.csv",
            "speedtests.ndjson",
            "traceroutes.ndjson",
        ]
        for path in paths.values():
            assert path.is_file()

    def test_byte_identical_across_runs(self, tmp_path):
        spec = GeneratorSpec.from_dict(small_spec_dict())
        a = gen_corpus(spec, tmp_path / "a")
        b = gen_corpus(spec, tmp_path / "b")
        for name in a:
            assert sha256_file(a[name]) == sha256_file(b[name]), name

    def test_manifest_lists_correct_digests(self, corpus):
        _, paths = corpus
        manifest = json.loads(paths["manifest.json"].read_text())
        assert manifest["seed"] == 7
        for name, entry in manifest["files"].items():
            assert entry["sha256"] == sha256_file(paths[name])
            assert entry["bytes"] == paths[name].stat().st_size
        assert "manifest.json" not in manifest["files"]

    def test_sessions_all_parse_under_strict_validation(self, corpus):
        spec, paths = corpus
        rows = list(parse_speedtest_stream(paths["speedtests.ndjson"], strictness="strict"))
        assert len(rows) == sum(p.n_sessions for p in spec.profiles)
        assert len({r.session_id for r in rows}) == len(rows)
        for s in reference_sessions(paths["speedtests.ndjson"])[:10]:
            assert len(s.rtt_ms) == spec.snapshots_per_session

    def test_labels_align_with_sessions(self, corpus):
        spec, paths = corpus
        sessions = [
            s for s in parse_speedtest_stream(paths["speedtests.ndjson"], strictness="strict")
        ]
        labels = [json.loads(line) for line in paths["labels.ndjson"].read_text().splitlines()]
        assert [l["session_id"] for l in labels] == [s.session_id for s in sessions]
        by_kind: dict[str, int] = {}
        for label in labels:
            assert label["expect"] in ("accept", "reject")
            assert label["sno"] in ("starlink", "viasat")
            by_kind[label["kind"]] = by_kind.get(label["kind"], 0) + 1
        assert by_kind["satellite"] == 40 + 48  # 20% of viasat sessions are backup
        assert by_kind["backup"] == 12

    def test_backup_sessions_live_in_low_prefixes_and_expect_reject(self, corpus):
        spec, paths = corpus
        labels = {
            row["session_id"]: row
            for row in map(json.loads, paths["labels.ndjson"].read_text().splitlines())
        }
        mixed_prefix_limit = round(6 * 0.3)  # 30% of viasat's 6 prefixes carry backup
        for session in reference_sessions(paths["speedtests.ndjson"]):
            label = labels[session.session_id]
            if label["kind"] != "backup":
                continue
            assert label["expect"] == "reject"
            assert label["latency_ms"] < 200.0
            third_octet = int(str(session.client_ip).split(".")[2])
            assert third_octet < mixed_prefix_limit

    def test_traceroutes_parse_and_cross_the_gateway(self, corpus):
        spec, paths = corpus
        measurements = list(parse_traceroute_stream(paths["traceroutes.ndjson"], strictness="strict"))
        plan = spec.traceroute_plans[0]
        expected_count = int((plan.end - plan.start) / timedelta(hours=12))
        assert len(measurements) == expected_count
        rdns = parse_rdns(paths["rdns.csv"])
        for m in measurements:
            assert any(str(r.ip) == GATEWAY for hop in m.hops for r in hop.replies)
            assert str(m.src_addr) in rdns

    def test_rdns_covers_both_periods(self, corpus):
        _, paths = corpus
        rdns = parse_rdns(paths["rdns.csv"])
        hostnames = set(rdns.values())
        assert "customer.sydnaus1.pop.starlinkisp.net" in hostnames
        assert "customer.akldnzl1.pop.starlinkisp.net" in hostnames

    def test_as_paths_parse(self, corpus):
        _, paths = corpus
        records = list(parse_aspath_stream(paths["as_paths.txt"], strictness="strict"))
        assert [r.as_path for r in records] == [[3356, 14593]]

    def test_seed_changes_output(self, tmp_path):
        a = gen_corpus(GeneratorSpec.from_dict(small_spec_dict(seed=7)), tmp_path / "a")
        b = gen_corpus(GeneratorSpec.from_dict(small_spec_dict(seed=8)), tmp_path / "b")
        assert sha256_file(a["speedtests.ndjson"]) != sha256_file(b["speedtests.ndjson"])

    def test_profile_substreams_are_insertion_stable(self, tmp_path):
        """Adding a profile must not disturb the sessions of existing ones."""
        base = GeneratorSpec.from_dict(small_spec_dict())
        extended_dict = small_spec_dict()
        extended_dict["profiles"].append(
            {
                "sno": "o3b",
                "asn": 60725,
                "n_sessions": 10,
                "n_prefixes": 1,
                "components": [{"orbit": "MEO", "weight": 1.0, "median_ms": 280.0, "spread_ms": 25.0}],
                "jitter_ratio": 0.28,
                "retrans_median": 0.02,
            }
        )
        extended = GeneratorSpec.from_dict(extended_dict)
        a = gen_corpus(base, tmp_path / "a")
        b = gen_corpus(extended, tmp_path / "b")
        base_lines = (tmp_path / "a" / "speedtests.ndjson").read_text().splitlines()
        ext_lines = (tmp_path / "b" / "speedtests.ndjson").read_text().splitlines()
        assert ext_lines[: len(base_lines)] == base_lines
        assert len(ext_lines) == len(base_lines) + 10


# sha256 of the files gen_corpus writes for small_spec_dict() (seed 7) and
# for the bundled default spec. Any change to these bytes is a change to the
# corpus every downstream test and benchmark reads.
SMALL_SPEC_DIGESTS = {
    "speedtests.ndjson": "8b53b75626f4ef755376c6df702c335453451f191adfcc9b1a3a4c96304fe3fd",
    "labels.ndjson": "f3a78e66ab7ffeae92846f28f16eefbc804b030073754d03b94ba1e822b3ef73",
    "traceroutes.ndjson": "5d8d3dc4ef876b149cfe6d3fbc999b710a96149c3bd8953c72ef2c1506158d35",
    "manifest.json": "b0fb072b0d550a989ccc33fb0e68705552ee412c3a0efda88a2d934a1b5fa2ed",
}
DEFAULT_SPEC_DIGESTS = {
    "speedtests.ndjson": "afe47467eb4bb5a7ce9fbbf72c157d102e2528962833c8b82cf7ddac1c62bde1",
    "labels.ndjson": "d7de2ff4e98c47e7def57534e85cab1432c1b3986883c47183d601b061352c26",
}


class TestGoldenCorpus:
    def test_small_spec_digests(self, tmp_path):
        paths = gen_corpus(GeneratorSpec.from_dict(small_spec_dict()), tmp_path)
        assert {name: sha256_file(paths[name]) for name in SMALL_SPEC_DIGESTS} == SMALL_SPEC_DIGESTS

    def test_default_spec_digests(self, default_corpus):
        assert {name: sha256_file(default_corpus[name]) for name in DEFAULT_SPEC_DIGESTS} == DEFAULT_SPEC_DIGESTS


class TestCorpusLatencies:
    """Each satellite session's latency comes from one of its profile's components."""

    @pytest.fixture(scope="class")
    def satellite_latencies(self, default_labels) -> dict[int, list[float]]:
        by_asn: dict[int, list[float]] = {}
        for row in default_labels.values():
            if row["kind"] != "backup":
                by_asn.setdefault(row["asn"], []).append(row["latency_ms"])
        return by_asn

    def test_satellite_latencies_inside_a_component_band(self, default_spec, satellite_latencies):
        assert sum(map(len, satellite_latencies.values())) > 90_000
        for profile in default_spec.profiles:
            bands = [band_of(c.orbit) for c in profile.components]
            outside = [x for x in satellite_latencies[profile.asn] if not any(b.contains(x) for b in bands)]
            assert outside == [], profile.sno

    def test_satellite_latency_medians_track_targets(self, default_spec, satellite_latencies):
        for profile in default_spec.profiles:
            if len(profile.components) != 1:
                continue
            (component,) = profile.components
            samples = satellite_latencies[profile.asn]
            # Four standard errors of a sample median, sqrt(pi / 2) * sigma / sqrt(n).
            tolerance = 4 * 1.2533 * component.spread_ms / len(samples) ** 0.5
            assert abs(percentile(samples, 0.5) - component.median_ms) < tolerance, profile.sno


def _canonical(line: str) -> str:
    return json.dumps(json.loads(line), separators=(",", ":"))


# Operator names with characters JSON must escape or a %-template could
# misread: quotes, backslashes, percent signs, control and non-ASCII text.
operator_names = st.text(
    alphabet=st.one_of(st.sampled_from('"\\%/ \t\n\x00\x1f\x7fé€😀'), st.characters()), min_size=1, max_size=12
)


class TestCanonicalLines:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        names=st.lists(operator_names, min_size=1, max_size=3), snapshots=st.integers(2, 6), seed=st.integers(0, 2**32)
    )
    def test_every_line_is_canonical_json(self, names, snapshots, seed):
        spec = small_spec_dict(seed=seed, snapshots_per_session=snapshots, days=2)
        template = spec["profiles"][1]
        spec["profiles"] = [
            dict(template, sno=name, asn=64_500 + i, n_sessions=5, n_prefixes=2, kind=name)
            for i, name in enumerate(names)
        ]
        spec["traceroute_plans"][0]["cadence_hours"] = 48.0
        with tempfile.TemporaryDirectory() as out:
            paths = gen_corpus(GeneratorSpec.from_dict(spec), out)
            for name in ("speedtests.ndjson", "labels.ndjson", "traceroutes.ndjson"):
                text = Path(paths[name]).read_text(encoding="utf-8")
                lines = text.splitlines()
                assert text == "".join(line + "\n" for line in lines)
                for line in lines:
                    assert line == _canonical(line)
            assert len(list(parse_speedtest_stream(paths["speedtests.ndjson"], strictness="strict"))) == 5 * len(names)
            sessions = reference_sessions(paths["speedtests.ndjson"])
            assert all(len(s.rtt_ms) == snapshots for s in sessions)
            for s in sessions:  # the rate over each interval, one snapshot at a time in Python
                prev_off, prev_sent = 0.0, 0
                for off, sent, rate in zip(s.t_offset_ms, s.bytes_sent, s.delivery_rate_bps):
                    assert rate == round((sent - prev_sent) * 8000.0 / (off - prev_off), 1)
                    prev_off, prev_sent = off, sent
            labels = [json.loads(line) for line in Path(paths["labels.ndjson"]).read_text().splitlines()]
            assert [row["sno"] for row in labels] == [name for name in names for _ in range(5)]
            assert [row["session_id"] for row in labels] == [s.session_id for s in sessions]
            assert list(parse_traceroute_stream(paths["traceroutes.ndjson"], strictness="strict"))
