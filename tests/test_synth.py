"""Synthetic corpus generator: distribution targets, determinism, validity."""

from __future__ import annotations

import json
from datetime import timedelta

import pytest

from snoscope.catalog import DEFAULT_BANDS
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
    gen_latency_samples,
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


class TestGenLatencySamples:
    def test_median_tracks_target_within_two_percent(self):
        for orbit, median in (("LEO", 56.0), ("MEO", 280.0), ("GEO", 673.5)):
            samples = gen_latency_samples(orbit, median, median * 0.07, 2000, seed=42)
            assert len(samples) == 2000
            observed = percentile(samples, 0.5)
            assert abs(observed - median) / median < 0.02

    def test_all_samples_inside_the_band(self):
        for orbit, median in (("LEO", 56.0), ("MEO", 280.0), ("GEO", 673.5)):
            band = DEFAULT_BANDS[orbit]
            samples = gen_latency_samples(orbit, median, median * 0.3, 500, seed=1)
            assert all(band.contains(s) for s in samples)

    def test_deterministic_in_the_seed(self):
        a = gen_latency_samples("GEO", 600.0, 40.0, 100, seed=5)
        b = gen_latency_samples("GEO", 600.0, 40.0, 100, seed=5)
        c = gen_latency_samples("GEO", 600.0, 40.0, 100, seed=6)
        assert a == b
        assert a != c

    def test_median_outside_band_rejected(self):
        with pytest.raises(ValueError):
            gen_latency_samples("LEO", 300.0, 10.0, 10, seed=1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            gen_latency_samples("GEO", 600.0, 0.0, 10, seed=1)
        with pytest.raises(ValueError):
            gen_latency_samples("GEO", 600.0, 10.0, 0, seed=1)


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
        sessions = list(parse_speedtest_stream(paths["speedtests.ndjson"], strictness="strict"))
        assert len(sessions) == sum(p.n_sessions for p in spec.profiles)
        assert len({s.session_id for s in sessions}) == len(sessions)
        for s in sessions[:10]:
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
        for session in parse_speedtest_stream(paths["speedtests.ndjson"], strictness="strict"):
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
