"""Deterministic synthetic corpus generation with ground-truth labels.

The generator builds a measurement corpus whose every session has a known
intended disposition, so the filtering pipeline can be scored end to end.
Latency populations are lognormal around a target median, rejection-sampled
into the component's orbit band; a profile can dilute its satellite traffic
with terrestrial backup sessions that land inside a subset of its prefixes,
reproducing the mixed-prefix problem the relaxed filter stage exists for.
All randomness flows from one seed through per-profile substreams, so equal
specs produce byte-identical corpora.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import repeat
from json.encoder import encode_basestring_ascii as json_str
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .catalog import band_of
from .ingest import aspath_from_line, aspath_to_line
from .util import atomic_write, format_rfc3339, parse_rfc3339, sha256_file

LABEL_ACCEPT = "accept"
LABEL_REJECT = "reject"

KIND_SATELLITE = "satellite"
KIND_BACKUP = "backup"

# Fraction of a backup-carrying profile's prefixes that receive the backup
# sessions, mixing them with satellite traffic there.
MIXED_PREFIX_SHARE = 0.3

# Backup sessions are terrestrial: their latencies are drawn into
# [BACKUP_MIN_MS, BACKUP_MAX_MS), so the median must lie there too.
BACKUP_MIN_MS = 1.0
BACKUP_MAX_MS = 180.0

# A profile's prefix index fills the second and third octets of its /24s.
MAX_PREFIXES = 1 << 16

GATEWAY = "100.64.0.1"

ROOT_SERVERS = [
    ("a.root-servers.net", "198.41.0.4"),
    ("b.root-servers.net", "170.247.170.2"),
    ("c.root-servers.net", "192.33.4.12"),
    ("d.root-servers.net", "199.7.91.13"),
    ("e.root-servers.net", "192.203.230.10"),
    ("f.root-servers.net", "192.5.5.241"),
    ("g.root-servers.net", "192.112.36.4"),
    ("h.root-servers.net", "198.97.190.53"),
    ("i.root-servers.net", "192.36.148.17"),
    ("j.root-servers.net", "192.58.128.30"),
    ("k.root-servers.net", "193.0.14.129"),
    ("l.root-servers.net", "199.7.83.42"),
    ("m.root-servers.net", "202.12.27.33"),
]


@dataclass(frozen=True)
class OrbitComponent:
    """One latency population inside a profile: an orbit with its own median."""

    orbit: str
    weight: float
    median_ms: float
    spread_ms: float


@dataclass(frozen=True)
class SnoProfile:
    """Generation plan for one ASN's sessions."""

    sno: str
    asn: int
    n_sessions: int
    n_prefixes: int
    components: tuple[OrbitComponent, ...]
    jitter_ratio: float
    retrans_median: float
    backup_fraction: float = 0.0
    backup_median_ms: float = 30.0
    expect_accept: bool = True
    kind: str = KIND_SATELLITE


@dataclass(frozen=True)
class PopPeriod:
    """A scheduled PoP assignment; until=None means until the plan's end."""

    pop_code: str
    rtt_ms: float
    until: datetime | None = None


@dataclass(frozen=True)
class TraceroutePlan:
    """Scripted PoP history for one probe."""

    probe_id: int
    start: datetime
    end: datetime
    cadence_hours: float
    periods: tuple[PopPeriod, ...]


@dataclass(frozen=True)
class GeneratorSpec:
    """Full corpus plan: session profiles, probe plans, and path fixtures."""

    seed: int
    start: datetime
    days: int
    snapshots_per_session: int
    profiles: tuple[SnoProfile, ...]
    traceroute_plans: tuple[TraceroutePlan, ...] = ()
    as_paths: tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "GeneratorSpec":
        try:
            spec = cls._from_dict(obj)
        except (TypeError, OverflowError) as exc:
            # int() or float() of a value that is no number, such as null or a list
            raise ValueError(f"malformed spec: {exc}") from None
        spec.validate()
        return spec

    @classmethod
    def _from_dict(cls, obj: Mapping[str, Any]) -> "GeneratorSpec":
        profiles = tuple(
            SnoProfile(
                sno=_string(p["sno"], "sno"),
                asn=int(p["asn"]),
                n_sessions=int(p["n_sessions"]),
                n_prefixes=int(p["n_prefixes"]),
                components=tuple(
                    OrbitComponent(
                        _string(c["orbit"], "orbit"), float(c["weight"]), float(c["median_ms"]), float(c["spread_ms"])
                    )
                    for c in _objects(p["components"], "components")
                ),
                jitter_ratio=float(p["jitter_ratio"]),
                retrans_median=float(p["retrans_median"]),
                backup_fraction=float(p.get("backup_fraction", 0.0)),
                backup_median_ms=float(p.get("backup_median_ms", 30.0)),
                expect_accept=bool(p.get("expect_accept", True)),
                kind=str(p.get("kind", KIND_SATELLITE)),
            )
            for p in _objects(obj["profiles"], "profiles")
        )
        plans = tuple(
            TraceroutePlan(
                probe_id=int(t["probe_id"]),
                start=parse_rfc3339(_string(t["start"], "start")),
                end=parse_rfc3339(_string(t["end"], "end")),
                cadence_hours=float(t["cadence_hours"]),
                periods=tuple(
                    PopPeriod(
                        pop_code=str(pp["pop"]),
                        rtt_ms=float(pp["rtt_ms"]),
                        until=parse_rfc3339(_string(pp["until"], "until")) if pp.get("until") else None,
                    )
                    for pp in _objects(t["periods"], "periods")
                ),
            )
            for t in _objects(obj.get("traceroute_plans", []), "traceroute_plans")
        )
        as_paths = obj.get("as_paths", [])
        if not isinstance(as_paths, (list, tuple)) or not all(isinstance(line, str) for line in as_paths):
            raise ValueError("as_paths must be an array of strings")
        return cls(
            seed=int(obj["seed"]),
            start=parse_rfc3339(_string(obj["start"], "start")),
            days=int(obj["days"]),
            snapshots_per_session=int(obj["snapshots_per_session"]),
            profiles=profiles,
            traceroute_plans=plans,
            as_paths=tuple(as_paths),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "GeneratorSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def validate(self) -> None:
        if self.days < 1:
            raise ValueError("days must be >= 1")
        try:
            self.start + timedelta(days=self.days)
        except OverflowError:
            raise ValueError("start plus days must fall before year 10000") from None
        if self.snapshots_per_session < 2:
            raise ValueError("snapshots_per_session must be >= 2")
        if not self.profiles:
            raise ValueError("at least one profile is required")
        seen_asns: set[int] = set()
        for p in self.profiles:
            floats = [p.jitter_ratio, p.retrans_median, p.backup_fraction, p.backup_median_ms]
            floats += [x for c in p.components for x in (c.weight, c.median_ms, c.spread_ms)]
            if not all(map(math.isfinite, floats)):
                raise ValueError(f"{p.sno}: every numeric field must be finite")
            if p.n_sessions < 1 or p.n_prefixes < 1:
                raise ValueError(f"{p.sno}: session and prefix counts must be >= 1")
            if p.n_prefixes > MAX_PREFIXES:
                raise ValueError(f"{p.sno}: n_prefixes must be <= {MAX_PREFIXES}")
            if p.jitter_ratio < 0 or p.retrans_median < 0:
                raise ValueError(f"{p.sno}: jitter_ratio and retrans_median must be >= 0")
            if not 0.0 <= p.backup_fraction <= 1.0:
                raise ValueError(f"{p.sno}: backup_fraction must be in [0, 1]")
            if p.backup_fraction > 0 and not BACKUP_MIN_MS <= p.backup_median_ms < BACKUP_MAX_MS:
                raise ValueError(f"{p.sno}: backup_median_ms must be in [{BACKUP_MIN_MS}, {BACKUP_MAX_MS})")
            if not p.components:
                raise ValueError(f"{p.sno}: at least one component is required")
            if p.asn in seen_asns:
                raise ValueError(f"duplicate profile ASN {p.asn}")
            seen_asns.add(p.asn)
            for c in p.components:
                band = band_of(c.orbit)
                if not band.contains(c.median_ms):
                    raise ValueError(f"{p.sno}: median {c.median_ms} outside the {c.orbit} band")
                if c.spread_ms <= 0 or c.weight <= 0:
                    raise ValueError(f"{p.sno}: component spread and weight must be positive")
        for t in self.traceroute_plans:
            if not all(math.isfinite(x) for x in (t.cadence_hours, *(pp.rtt_ms for pp in t.periods))):
                raise ValueError(f"probe {t.probe_id}: every numeric field must be finite")
            # The step is whole microseconds; a shorter cadence never advances.
            if t.end <= t.start or t.cadence_hours * 3.6e9 < 1 or not t.periods:
                raise ValueError(f"probe {t.probe_id}: bad schedule")
            try:
                # the last measurement is before end, so each step lands before end plus one step
                t.end + timedelta(hours=t.cadence_hours)
            except OverflowError:
                raise ValueError(f"probe {t.probe_id}: cadence_hours steps past year 9999") from None
            for pp in t.periods[:-1]:
                if pp.until is None:
                    raise ValueError(f"probe {t.probe_id}: only the last period may be open-ended")
        for line in self.as_paths:
            aspath_from_line(line)


def _objects(value: Any, name: str) -> Sequence[Mapping[str, Any]]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, dict) for x in value):
        raise ValueError(f"{name} must be an array of objects")
    return value


def _string(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _lognormal_in_band(
    rng: np.random.Generator,
    median_ms: float,
    spread_ms: float,
    n: int,
    lo: float,
    hi: float,
) -> np.ndarray:
    """Lognormal draws with the given median, rejection-sampled into [lo, hi)."""
    sigma = spread_ms / median_ms
    out = np.empty(n, dtype=float)
    filled = 0
    while filled < n:
        draw = median_ms * np.exp(sigma * rng.standard_normal(n - filled))
        keep = draw[(draw >= lo) & (draw < hi)]
        out[filled : filled + keep.size] = keep
        filled += keep.size
    return out


def _backup_slots(n: int, fraction: float) -> np.ndarray:
    """Boolean mask marking round(n * fraction) evenly spaced backup sessions."""
    flags = np.zeros(n, dtype=bool)
    count = int(round(n * fraction))
    if count > 0:
        step = n / count
        flags[(np.arange(count) * step).astype(int)] = True
    return flags


# Sessions are formatted ROW_BLOCK rows at a time, so only one block's
# values are held as Python objects.
ROW_BLOCK = 2048

# Each NDJSON line is one %-template with its keys in a fixed order, giving
# the bytes of json.dumps(..., separators=(",", ":")): floats use %r, which
# is float.__repr__ as json writes finite floats; ints use %d; each string is
# passed already JSON-encoded through %s and never pasted into a template.
_SESSION_HEAD_FMT = '{"session_id":%s,"timestamp":%s,"client_ip":%s,"client_asn":%d,"direction":"download","snapshots":['
_SNAPSHOT_FMT = (
    '{"t_offset_ms":%r,"rtt_ms":%r,"rtt_var_ms":%r,"bytes_sent":%d,"bytes_retrans":%d,"delivery_rate_bps":%r}'
)
_LABEL_FMT = '{"session_id":%s,"sno":%s,"asn":%d,"expect":%s,"kind":%s,"latency_ms":%r}\n'
_REPLY_FMT = '{"ip":%s,"rtt_ms":%r}'
_HOP_FMT = '{"hop_no":%d,"replies":[%s]}'
_TRACEROUTE_FMT = '{"probe_id":%d,"timestamp":%s,"src_addr":%s,"dst_name":%s,"dst_addr":%s,"hops":[%s]}\n'


def _profile_sessions(
    profile: SnoProfile,
    profile_index: int,
    spec: GeneratorSpec,
    rng: np.random.Generator,
) -> Iterator[tuple[str, str]]:
    """Yield the (session line, label line) of each of one profile's sessions."""
    n = profile.n_sessions
    k = spec.snapshots_per_session
    flags = _backup_slots(n, profile.backup_fraction)
    n_backup = int(flags.sum())

    weights = np.array([c.weight for c in profile.components], dtype=float)
    weights /= weights.sum()
    comp_idx = rng.choice(len(profile.components), size=n, p=weights)

    lat = np.empty(n, dtype=float)
    for ci, comp in enumerate(profile.components):
        mask = (~flags) & (comp_idx == ci)
        band = band_of(comp.orbit)
        hi = band.max_ms if band.max_ms != float("inf") else comp.median_ms * 64.0
        lat[mask] = _lognormal_in_band(rng, comp.median_ms, comp.spread_ms, int(mask.sum()), band.min_ms, hi)
    if n_backup:
        lat[flags] = _lognormal_in_band(
            rng, profile.backup_median_ms, profile.backup_median_ms * 0.25, n_backup, BACKUP_MIN_MS, BACKUP_MAX_MS
        )

    offsets = np.cumsum(rng.uniform(500.0, 1100.0, (n, k)), axis=1)
    rtt = lat[:, None] * (1.0 + rng.exponential(0.05, (n, k)))
    ratio = profile.jitter_ratio * np.exp(rng.normal(0.0, 0.2, n))
    # exp(N(-0.4935, 0.3)) has its 95th percentile at ~1, so a session's
    # jitter p95 lands near ratio * latency.
    rttvar = ratio[:, None] * lat[:, None] * np.exp(rng.normal(-0.4935, 0.3, (n, k)))
    totals = rng.integers(2_000_000, 40_000_000, n)
    ramp = np.arange(1, k + 1) / k
    bytes_sent = np.round(totals[:, None] * ramp[None, :]).astype(np.int64)
    rfrac = np.clip(profile.retrans_median * np.exp(rng.normal(0.0, 0.5, n)), 0.0, 0.5)
    bytes_retrans = np.floor(rfrac[:, None] * bytes_sent).astype(np.int64)
    secs = rng.integers(0, spec.days * 86400, n)

    mixed_prefixes = max(1, round(profile.n_prefixes * MIXED_PREFIX_SHARE)) if n_backup else 0
    base_octet = 20 + (profile_index % 200)

    offsets = offsets.round(3)
    # A snapshot's delivery rate covers the interval since the one before,
    # over the offsets as written.
    rates = np.diff(bytes_sent, axis=1, prepend=0).astype(float) * 8000.0 / np.diff(offsets, axis=1, prepend=0.0)
    columns = (offsets, rtt.round(3), rttvar.round(3), bytes_sent, bytes_retrans)
    lat = lat.round(3)

    session_fmt = _SESSION_HEAD_FMT + ",".join([_SNAPSHOT_FMT] * k) + "]}\n"
    sno = json_str(profile.sno)
    satellite = (json_str(LABEL_ACCEPT if profile.expect_accept else LABEL_REJECT), json_str(profile.kind))
    backup = (json_str(LABEL_REJECT), json_str(KIND_BACKUP))
    sid_prefix = profile.sno.replace(" ", "-")
    sat_count = 0
    backup_count = 0
    per_prefix_hosts: dict[int, int] = {}
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        block = np.empty((hi - lo, k, len(columns) + 1), dtype=object)
        for field, column in enumerate(columns):
            block[:, :, field] = column[lo:hi]
        # Python's round is correctly rounded; np.round is not.
        rounded = list(map(round, rates[lo:hi].ravel().tolist(), repeat(1)))
        block[:, :, -1] = np.array(rounded, dtype=object).reshape(hi - lo, k)
        rows = block.reshape(hi - lo, -1).tolist()
        sessions = zip(range(lo, hi), rows, flags[lo:hi].tolist(), secs[lo:hi].tolist(), lat[lo:hi].tolist())
        for j, snaps, is_backup, sec, latency in sessions:
            if is_backup:
                prefix = backup_count % mixed_prefixes
                backup_count += 1
            else:
                prefix = sat_count % profile.n_prefixes
                sat_count += 1
            host_idx = per_prefix_hosts.get(prefix, 0)
            per_prefix_hosts[prefix] = host_idx + 1
            ip = f"{base_octet}.{prefix >> 8}.{prefix & 255}.{1 + host_idx % 250}"
            stamp = format_rfc3339(spec.start + timedelta(seconds=sec))
            sid = json_str(f"{sid_prefix}-{profile.asn}-{j:06d}")
            session = session_fmt % (sid, json_str(stamp), json_str(ip), profile.asn, *snaps)
            label = _LABEL_FMT % (sid, sno, profile.asn, *(backup if is_backup else satellite), latency)
            yield session, label


def _plan_times(plan: TraceroutePlan) -> Iterator[datetime]:
    step = timedelta(hours=plan.cadence_hours)
    t = plan.start
    while t < plan.end:
        yield t
        t += step


def _period_at(plan: TraceroutePlan, t: datetime) -> int:
    for i, period in enumerate(plan.periods):
        if period.until is None or t < period.until:
            return i
    return len(plan.periods) - 1


def probe_address(plan: TraceroutePlan, period_index: int) -> str:
    """The probe's public address while it sits in one scripted period."""
    return f"98.{(plan.probe_id >> 8) & 255}.{plan.probe_id & 255}.{10 + period_index}"


def gen_traceroute_series(
    plan: TraceroutePlan,
    rng: np.random.Generator,
) -> tuple[list[str], dict[str, str]]:
    """NDJSON lines of one probe's measurements, plus the reverse-DNS rows they rely on.

    The probe measures each root server in rotation on a fixed cadence; its
    source address (and therefore its PoP hostname) follows the scripted
    periods. Gateway-hop RTTs are drawn within 2% of the period's scripted
    value, so assignment medians track the script tightly.
    """
    rdns: dict[str, str] = {}
    for i, period in enumerate(plan.periods):
        rdns[probe_address(plan, i)] = f"customer.{period.pop_code}.pop.starlinkisp.net"
    lines: list[str] = []
    for ti, stamp in enumerate(_plan_times(plan)):
        period_index = _period_at(plan, stamp)
        period = plan.periods[period_index]
        dst_name, dst_addr = ROOT_SERVERS[ti % len(ROOT_SERVERS)]
        base = period.rtt_ms
        gateway_rtts = np.maximum(rng.normal(base, 0.02 * base, 3), 1.0)
        lan = _REPLY_FMT % (json_str("192.168.1.1"), round(float(rng.uniform(1.0, 3.0)), 2))
        gateway = ",".join([_REPLY_FMT % (json_str(GATEWAY), round(float(r), 2)) for r in gateway_rtts])
        pop = _REPLY_FMT % (json_str(f"206.224.{period_index}.1"), round(base + float(rng.uniform(0.5, 2.0)), 2))
        hops = [_HOP_FMT % (1, lan), _HOP_FMT % (2, gateway), _HOP_FMT % (3, pop)]
        transit_hops = ti % len(ROOT_SERVERS)  # path lengths spread 4..17 hops
        cumulative = base + 2.0
        for h in range(transit_hops):
            cumulative += float(rng.uniform(0.2, 3.0))
            hops.append(_HOP_FMT % (4 + h, _REPLY_FMT % (json_str(f"160.{ti % 13}.{h}.1"), round(cumulative, 2))))
        target = _REPLY_FMT % (json_str(dst_addr), round(cumulative + float(rng.uniform(0.0, 2.0)), 2))
        hops.append(_HOP_FMT % (4 + transit_hops, target))
        src_addr = probe_address(plan, period_index)
        strings = (format_rfc3339(stamp), src_addr, dst_name, dst_addr)
        lines.append(_TRACEROUTE_FMT % (plan.probe_id, *map(json_str, strings), ",".join(hops)))
    return lines, rdns


SPEEDTESTS_FILE = "speedtests.ndjson"
LABELS_FILE = "labels.ndjson"
TRACEROUTES_FILE = "traceroutes.ndjson"
RDNS_FILE = "rdns.csv"
AS_PATHS_FILE = "as_paths.txt"
MANIFEST_FILE = "manifest.json"


def gen_corpus(spec: GeneratorSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write the full corpus into out_dir and return the path of each file.

    Output is byte-deterministic in the spec: every random draw comes from
    per-profile (or per-plan) substreams of the spec seed, and files are
    written in a fixed order with a trailing manifest of SHA-256 digests.
    """
    spec.validate()
    out = Path(out_dir)
    paths = {
        name: out / name
        for name in (SPEEDTESTS_FILE, LABELS_FILE, TRACEROUTES_FILE, RDNS_FILE, AS_PATHS_FILE, MANIFEST_FILE)
    }

    with atomic_write(paths[SPEEDTESTS_FILE]) as sessions_out, atomic_write(paths[LABELS_FILE]) as labels_out:
        for index, profile in enumerate(spec.profiles):
            rng = np.random.default_rng([spec.seed, index])
            for session, label in _profile_sessions(profile, index, spec, rng):
                sessions_out.write(session)
                labels_out.write(label)

    rdns_all: dict[str, str] = {}
    with atomic_write(paths[TRACEROUTES_FILE]) as traces_out:
        for index, plan in enumerate(spec.traceroute_plans):
            rng = np.random.default_rng([spec.seed, 1_000_000 + index])
            lines, rdns = gen_traceroute_series(plan, rng)
            rdns_all.update(rdns)
            traces_out.writelines(lines)

    with atomic_write(paths[RDNS_FILE]) as rdns_out:
        rdns_out.write("ip,hostname\n")
        for ip in sorted(rdns_all):
            rdns_out.write(f"{ip},{rdns_all[ip]}\n")

    with atomic_write(paths[AS_PATHS_FILE]) as paths_out:
        for line in spec.as_paths:
            paths_out.write(aspath_to_line(aspath_from_line(line)) + "\n")

    manifest = {
        "seed": spec.seed,
        "files": {
            name: {"sha256": sha256_file(paths[name]), "bytes": paths[name].stat().st_size}
            for name in sorted(paths)
            if name != MANIFEST_FILE
        },
    }
    with atomic_write(paths[MANIFEST_FILE]) as manifest_out:
        json.dump(manifest, manifest_out, indent=2, sort_keys=True)
        manifest_out.write("\n")
    return paths
