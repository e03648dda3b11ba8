"""Output checks for each subcommand. Each check returns a list of failure messages.

- synth: the label file covers the spec's sessions and the manifest digests
  match the files.
- classify: every input session has exactly one disposition, and every
  accept/reject decision agrees with synth's labels, save the relaxed
  stage's documented rejections (see check_classify).
- report metrics: the per-orbit latency groups count every accepted session.
- report traceroute: each probe's PoP changes are exactly its scripted ones.
- report bgp: the diff lists exactly the peers and countries the generated
  churn added and removed.
- At the default seed, every report output matches a sha256 digest pinned
  in digests.json (manifest.json is not pinned: it may gain keys).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any

DIGESTS_FILE = Path(__file__).with_name("digests.json")

# Output files pinned by digest, per subcommand, relative to its --out.
PINNED = {
    "classify": ("dispositions.ndjson", "summary.csv", "anomalies.ndjson"),
    "report_metrics": ("boxstats.csv", "cdf.csv", "daily.csv"),
    "report_traceroute": ("timeline.ndjson", "events.ndjson", "country_rtt.csv", "probe_pops.csv"),
    "report_bgp": ("graph_before.dot", "graph_after.dot", "countries.csv", "coverage.csv", "diff.ndjson"),
}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _ndjson(path: Path) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _missing(out_dir: Path, names: tuple[str, ...]) -> list[str]:
    return [f"{out_dir.name}/{name} missing" for name in names if not (out_dir / name).is_file()]


def check_synth(corpus: Path, sessions: int) -> list[str]:
    names = ("speedtests.ndjson", "labels.ndjson", "traceroutes.ndjson", "rdns.csv", "manifest.json")
    failures = _missing(corpus, names)
    if failures:
        return failures
    with open(corpus / "labels.ndjson", encoding="utf-8") as handle:
        labels = sum(1 for line in handle if line.strip())
    if labels != sessions:
        failures.append(f"synth wrote {labels} labels for {sessions} sessions")
    with open(corpus / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    for name, entry in manifest["files"].items():
        if sha256(corpus / name) != entry["sha256"]:
            failures.append(f"synth manifest digest of {name} does not match the file")
    return failures


def check_classify(out_dir: Path, labels_path: Path, speedtests_path: Path) -> list[str]:
    """One disposition per input session, each agreeing with synth's label.

    The one allowed disagreement is the relaxed stage's rule: a satellite
    session outside every strictly accepted /24 is rejected when its access
    latency is below its operator's threshold, the lowest strictly accepted
    latency. A generated session can land there (at seed 1002 one viasat
    session at 500.4 ms sits under a 502.9 ms threshold). Each such
    rejection is confirmed by recomputing the session's access latency from
    the corpus, and together they must stay under 1 % of sessions, the label
    agreement the acceptance gate requires.
    """
    failures = _missing(out_dir, PINNED["classify"])
    if failures:
        return failures
    expect = {label["session_id"]: label["expect"] for label in _ndjson(labels_path)}
    seen: set[str] = set()
    disagree: dict[str, dict[str, Any]] = {}
    for disposition in _ndjson(out_dir / "dispositions.ndjson"):
        sid = disposition["session_id"]
        if sid in seen:
            failures.append(f"session {sid} has more than one disposition")
            continue
        seen.add(sid)
        if sid not in expect:
            failures.append(f"disposition for unknown session {sid}")
            continue
        if (disposition["stage"] != "rejected") != (expect[sid] == "accept"):
            disagree[sid] = disposition
    missing = len(expect.keys() - seen)
    if missing:
        failures.append(f"{missing} input sessions have no disposition")
    if disagree:
        failures += _unexplained(disagree, out_dir / "summary.csv", speedtests_path)
        if len(disagree) * 100 >= len(expect):
            failures.append(f"{len(disagree)} of {len(expect)} decisions disagree with the labels")
    return failures


def _unexplained(disagree: dict[str, dict[str, Any]], summary_path: Path, speedtests_path: Path) -> list[str]:
    with open(summary_path, encoding="utf-8", newline="") as handle:
        thresholds = {row["sno"]: row["threshold_ms"] for row in csv.DictReader(handle)}
    rtts: dict[str, list[float]] = {}
    with open(speedtests_path, encoding="utf-8") as handle:
        for line in handle:
            session = json.loads(line)
            if session["session_id"] in disagree:
                rtts[session["session_id"]] = [snap["rtt_ms"] for snap in session["snapshots"]]
    failures = []
    for sid, disposition in sorted(disagree.items()):
        threshold = thresholds.get(disposition["sno"] or "", "")
        explained = (
            disposition["reason"] == "below_threshold"
            and threshold != ""
            and sid in rtts
            # summary.csv rounds the threshold to 3 decimals.
            and percentile(rtts[sid], 0.05) < float(threshold) + 0.0005
        )
        if not explained:
            failures.append(f"session {sid}: {disposition['stage']} disagrees with its label")
    return failures


def percentile(samples: list[float], q: float) -> float:
    """Linear interpolation at rank (n - 1) * q of the sorted samples."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q
    lo = int(rank)
    return ordered[lo] + (ordered[min(lo + 1, len(ordered) - 1)] - ordered[lo]) * (rank - lo)


def check_report_metrics(out_dir: Path, dispositions_path: Path) -> list[str]:
    failures = _missing(out_dir, PINNED["report_metrics"])
    if failures:
        return failures
    accepted = sum(1 for d in _ndjson(dispositions_path) if d["stage"] != "rejected")
    with open(out_dir / "boxstats.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    orbits = {"LEO", "MEO", "GEO", "MEO+GEO", "LEO+MEO", "LEO+GEO", "LEO+MEO+GEO"}
    counted = sum(int(r["n"]) for r in rows if r["group"].startswith("latency:") and r["group"][8:] in orbits)
    if counted != accepted:
        failures.append(f"latency by orbit counts {counted} sessions, classify accepted {accepted}")
    return failures


def check_report_traceroute(out_dir: Path, expected: dict[int, list[tuple[str, str]]]) -> list[str]:
    failures = _missing(out_dir, PINNED["report_traceroute"])
    if failures:
        return failures
    found: dict[int, list[tuple[str, str]]] = {probe: [] for probe in expected}
    for event in _ndjson(out_dir / "events.ndjson"):
        if event["kind"] != "pop_change":
            failures.append(f"unexpected {event['kind']} event on probe {event['probe_id']}")
            continue
        found.setdefault(event["probe_id"], []).append((event["before_pop"], event["after_pop"]))
    if found != expected:
        failures.append(f"PoP changes {found} differ from the scripted {expected}")
    return failures


def check_report_bgp(out_dir: Path, expected: dict[str, list[Any]]) -> list[str]:
    failures = _missing(out_dir, PINNED["report_bgp"])
    if failures:
        return failures
    found: dict[str, list[Any]] = {kind: [] for kind in expected}
    for delta in _ndjson(out_dir / "diff.ndjson"):
        found.setdefault(delta["kind"], []).append(delta["value"])
    if found != expected:
        failures.append(f"peering diff {found} differs from the generated churn {expected}")
    return failures


def check_digests(command: str, out_dir: Path, pinned: dict[str, str]) -> list[str]:
    return [
        f"{out_dir.name}/{name} differs from its pinned digest"
        for name in PINNED[command]
        if sha256(out_dir / name) != pinned[name]
    ]


def load_digests(workload: str) -> dict[str, dict[str, str]]:
    with open(DIGESTS_FILE, encoding="utf-8") as handle:
        return json.load(handle)[workload]
