"""Workload definitions: synth specs, side inputs and the expectations the oracle checks.

Every input comes from the workload seed. A synth spec carries the seed, so
`snoscope synth` writes the speed-test, label, traceroute and reverse-DNS
files; the benchmark itself writes the AS-path snapshots and the ASN registry
that `report bgp` reads, because synth emits only one small path fixture.

All three workloads run all five subcommands, so every end-to-end metric
exists on every workload; what differs is which commands carry the weight:

- corpus-default: the bundled spec (96,400 sessions x 12 snapshots). The
  speed-test parser dominates `classify` and `report metrics`.
- geo-screen: the bundled spec without its two LEO subscriber profiles, the
  rest tripled with 3 snapshots each (100,200 sessions). No session is
  accepted at the ASN stage, so the /24 screen, the anomaly KDE and metric
  aggregation carry a larger share while each session parses cheaper.
- pop-peering: 24 Starlink probes every 8 h for a year (26,280 traceroutes)
  and two AS-path snapshots of 150,000 paths each. Its speed-test corpus is
  a token 2,600 sessions, so the speed-test parser barely runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any

DEFAULT_SEED = 20230501

STARLINK_ASN = 14593
HUGHES_ASN = 28613
# Operators dropped from the geo-screen spec: every LEO subscriber profile.
GEO_SCREEN_DROPPED_ASNS = (STARLINK_ASN, 800)
BGP_SNO = "starlink"

SNAPSHOT_BEFORE_AT = "2023-01-01T00:00:00Z"
SNAPSHOT_AFTER_AT = "2023-04-01T00:00:00Z"
COUNTRIES = ("US", "DE", "GB", "FR", "NL", "JP", "AU", "NZ", "BR", "CL", "ZA", "SG", "IN", "CA", "MX", "PL")


@dataclass(frozen=True)
class BgpPlan:
    """Sizes of the generated AS-path snapshots for `report bgp`."""

    paths_per_snapshot: int
    peers: int  # neighbours of the operator in the first snapshot
    churn: int  # neighbours removed, and as many added, in the second
    transit_pool: int  # other ASNs that appear on paths


# The corpus workloads' `report bgp` input: small, since their weight is elsewhere.
SMALL_BGP = BgpPlan(paths_per_snapshot=2_000, peers=40, churn=4, transit_pool=300)


@dataclass
class Workload:
    name: str
    spec: dict[str, Any]
    bgp: BgpPlan
    # Filled by write_side_inputs: the exact peer sets the bgp oracle expects.
    expected: dict[str, Any] = field(default_factory=dict)

    @property
    def sessions(self) -> int:
        return sum(int(p["n_sessions"]) for p in self.spec["profiles"])


def bundled_spec(src_dir: Path) -> dict[str, Any]:
    with open(src_dir / "snoscope" / "data" / "default_synth_spec.json", encoding="utf-8") as handle:
        return json.load(handle)


def corpus_default(src_dir: Path, seed: int) -> Workload:
    spec = bundled_spec(src_dir)
    spec["seed"] = seed
    return Workload(
        "corpus-default",
        spec,
        SMALL_BGP,
    )


def geo_screen(src_dir: Path, seed: int) -> Workload:
    spec = bundled_spec(src_dir)
    spec["seed"] = seed
    spec["snapshots_per_session"] = 3
    profiles = []
    for profile in spec["profiles"]:
        if profile["asn"] in GEO_SCREEN_DROPPED_ASNS:
            continue
        profile = dict(profile, n_sessions=profile["n_sessions"] * 3, n_prefixes=profile["n_prefixes"] * 3)
        profiles.append(profile)
    spec["profiles"] = profiles
    return Workload(
        "geo-screen",
        spec,
        SMALL_BGP,
    )


def pop_peering(src_dir: Path, seed: int) -> Workload:
    rng = random.Random(f"pop-peering/{seed}")
    pops = _pop_codes(src_dir)
    start = datetime(2022, 5, 1, tzinfo=timezone.utc)
    end = start + timedelta(days=365)
    plans = []
    for i in range(24):
        first, second = rng.sample(pops, 2)
        handover = start + timedelta(days=rng.randint(60, 300))
        plans.append(
            {
                "probe_id": 2001 + i,
                "start": _rfc3339(start),
                "end": _rfc3339(end),
                "cadence_hours": 8.0,
                "periods": [
                    {"pop": first, "rtt_ms": round(rng.uniform(25.0, 70.0), 1), "until": _rfc3339(handover)},
                    {"pop": second, "rtt_ms": round(rng.uniform(25.0, 70.0), 1)},
                ],
            }
        )
    bundled = {p["asn"]: p for p in bundled_spec(src_dir)["profiles"]}
    spec = {
        "seed": seed,
        "start": "2022-05-01T00:00:00Z",
        "days": 120,
        "snapshots_per_session": 12,
        "profiles": [
            dict(bundled[STARLINK_ASN], n_sessions=2000, n_prefixes=80),
            dict(bundled[HUGHES_ASN], n_sessions=600, n_prefixes=24, backup_fraction=0.0),
        ],
        "traceroute_plans": plans,
    }
    return Workload(
        "pop-peering",
        spec,
        BgpPlan(paths_per_snapshot=150_000, peers=120, churn=12, transit_pool=5_000),
    )


WORKLOADS = {"corpus-default": corpus_default, "geo-screen": geo_screen, "pop-peering": pop_peering}


def smoke(workload: Workload) -> Workload:
    """The same workload cut to a few thousand records, for the smoke mode."""
    spec = dict(workload.spec)
    spec["profiles"] = [
        dict(p, n_sessions=max(20, p["n_sessions"] // 100), n_prefixes=max(1, p["n_prefixes"] // 100))
        for p in spec["profiles"]
    ]
    spec["traceroute_plans"] = [dict(t, cadence_hours=168.0) for t in spec["traceroute_plans"]]
    plan = BgpPlan(paths_per_snapshot=500, peers=20, churn=3, transit_pool=100)
    return Workload(workload.name, spec, plan)


def _pop_codes(src_dir: Path) -> list[str]:
    with open(src_dir / "snoscope" / "data" / "pop_locations.csv", encoding="utf-8") as handle:
        next(handle)
        return sorted(line.split(",", 1)[0] for line in handle if line.strip())


def _rfc3339(stamp: datetime) -> str:
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# side inputs


def write_side_inputs(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the spec, two AS-path snapshots and the registry; record expectations.

    The operator's neighbours are chosen up front, so the peer sets that
    `report bgp` should find are known exactly. Paths that do not end at the
    operator never contain its ASN, and each chosen neighbour ends at least
    one operator path, so the expected peer set of a snapshot is exactly its
    chosen neighbours.
    """
    rng = random.Random(f"{workload.name}/bgp/{seed}")
    plan = workload.bgp
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(workload.spec, indent=1), encoding="utf-8")

    pool = rng.sample(range(100_000, 400_000), plan.transit_pool + plan.peers + plan.churn)
    removed, kept = pool[: plan.churn], pool[plan.churn : plan.peers]
    added = pool[plan.peers : plan.peers + plan.churn]
    transit = pool[plan.peers + plan.churn :]
    before_peers, after_peers = removed + kept, kept + added
    # Removed and added neighbours sit in countries of their own, so the
    # country footprint changes too. A few ASNs stay unregistered ("ZZ").
    registry: dict[int, str] = {}
    for group, countries in ((transit, COUNTRIES), (kept, COUNTRIES[:10]), (removed, COUNTRIES[10:12]),
                             (added, COUNTRIES[12:])):
        for asn in group:
            if rng.random() < 0.95:
                registry[asn] = rng.choice(countries)

    paths = {}
    for label, peers, stamp in (("before", before_peers, SNAPSHOT_BEFORE_AT), ("after", after_peers, SNAPSHOT_AFTER_AT)):
        path = out_dir / f"paths_{label}.txt"
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(plan.paths_per_snapshot):
                hops = rng.sample(transit, rng.randint(1, 4))
                if i < len(peers) or rng.random() < 0.1:
                    hops.append(peers[i % len(peers)] if i < len(peers) else rng.choice(peers))
                    hops.append(STARLINK_ASN)
                handle.write(stamp + " " + " ".join(map(str, hops)) + "\n")
        paths[label] = path

    registry_path = out_dir / "registry.csv"
    with open(registry_path, "w", encoding="utf-8") as handle:
        handle.write("asn,country_code\n")
        for asn in sorted(registry):
            handle.write(f"{asn},{registry[asn]}\n")

    def countries(peers: list[int]) -> set[str]:
        return {registry[p] for p in peers if p in registry}

    workload.expected = {
        "added_peer": sorted(set(after_peers) - set(before_peers)),
        "removed_peer": sorted(set(before_peers) - set(after_peers)),
        "added_country": sorted(countries(after_peers) - countries(before_peers)),
        "removed_country": sorted(countries(before_peers) - countries(after_peers)),
    }
    return {"spec": spec_path, "before": paths["before"], "after": paths["after"], "registry": registry_path}


def expected_pop_changes(spec: dict[str, Any]) -> dict[int, list[tuple[str, str]]]:
    """Per probe, the (before, after) PoP pairs its scripted periods imply."""
    out: dict[int, list[tuple[str, str]]] = {}
    for plan in spec.get("traceroute_plans", ()):
        codes = [p["pop"] for p in plan["periods"]]
        out[int(plan["probe_id"])] = [(a, b) for a, b in zip(codes, codes[1:]) if a != b]
    return out
