"""Command line interface: synth, classify, and report subcommands.

Exit codes: 0 on success, 2 on bad input (malformed records under strict
parsing, broken tables, bad flags or config), 1 on internal failure. Every
output file is written atomically, so an aborted run leaves no partial
outputs behind. Log verbosity follows the SNO_SCOPE_LOG environment
variable (a standard logging level name).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import bgp, filtering, metrics, profiling, starlink, synth
from .catalog import SnoCatalog, make_bands
from .ingest import (
    RecordError,
    TableError,
    parse_aspath_stream,
    parse_catalog,
    parse_pop_table,
    parse_rdns,
    parse_registry,
    parse_speedtest_stream,
    parse_traceroute_stream,
)
from .util import atomic_write, format_rfc3339, sha256_file

log = logging.getLogger("snoscope")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

# Parse errors a classify manifest lists, first to last.
PARSE_ERROR_SAMPLE = 20

SESSION_TABLE_NAME = "session_metrics.npy"

T = TypeVar("T")


def _packaged(name: str) -> Path:
    return Path(str(resources.files("snoscope").joinpath("data", name)))


def default_catalog_path() -> Path:
    return _packaged("catalog.json")


def default_pop_table_path() -> Path:
    return _packaged("pop_locations.csv")


def default_synth_spec_path() -> Path:
    return _packaged("default_synth_spec.json")


# ---------------------------------------------------------------------------
# options


@dataclasses.dataclass
class Options:
    """Effective settings after merging config file and flags."""

    inputs: list[Path]
    out: Path
    catalog: Path
    pop_table: Path
    seed: int | None = None
    parallelism: int = 1
    strict_parsing: bool = False
    global_floor_ms: float = filtering.DEFAULT_GLOBAL_FLOOR_MS
    min_tests: int = filtering.DEFAULT_MIN_TESTS
    meo_min_ms: float = 200.0
    geo_min_ms: float = 500.0
    dispositions: Path | None = None
    rdns: Path | None = None
    registry: Path | None = None
    sno: str | None = None
    pops: Path | None = None
    spec: Path | None = None

    def validate(self) -> None:
        if self.parallelism < 1:
            raise ValueError("--parallelism must be >= 1")
        if self.min_tests < 1:
            raise ValueError("--min-tests must be >= 1")
        if self.global_floor_ms < 0:
            raise ValueError("--global-floor must be >= 0")
        if not 0 < self.meo_min_ms < self.geo_min_ms:
            raise ValueError("band cut points must satisfy 0 < meo-min < geo-min")
        seen: set[Path] = set()
        for path in self.inputs:
            resolved = path.resolve()
            if resolved in seen:
                raise ValueError(f"input path given twice: {path}")
            seen.add(resolved)
        out = self.out.resolve()
        for path in seen:
            if path == out:
                raise ValueError(f"--out collides with an input path: {out}")

    def bands(self) -> dict[str, Any]:
        return make_bands(self.meo_min_ms, self.geo_min_ms)

    def strictness(self) -> str:
        return "strict" if self.strict_parsing else "lenient"


def _load_config(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"config {path}: must be a JSON object")
    return obj


def _merge_options(args: argparse.Namespace) -> Options:
    """Resolve each option as flag > config file > default."""
    config = _load_config(getattr(args, "config", None))

    def pick(flag_name: str, config_key: str, default: Any) -> Any:
        value = getattr(args, flag_name, None)
        if value is not None:
            return value
        if config_key in config:
            return config[config_key]
        return default

    inputs = [Path(p) for p in (getattr(args, "input", None) or config.get("input", []) or [])]
    out = pick("out", "out", None)
    if out is None:
        raise ValueError("an output directory is required (--out)")
    opts = Options(
        inputs=inputs,
        out=Path(out),
        catalog=Path(pick("catalog", "catalog", default_catalog_path())),
        pop_table=Path(pick("pop_table", "pop_table", default_pop_table_path())),
        seed=pick("seed", "seed", None),
        parallelism=int(pick("parallelism", "parallelism", 1)),
        strict_parsing=bool(pick("strict_parsing", "strict_parsing", False)),
        global_floor_ms=float(pick("global_floor", "global_floor_ms", filtering.DEFAULT_GLOBAL_FLOOR_MS)),
        min_tests=int(pick("min_tests", "min_tests", filtering.DEFAULT_MIN_TESTS)),
        meo_min_ms=float(pick("meo_min", "meo_min_ms", 200.0)),
        geo_min_ms=float(pick("geo_min", "geo_min_ms", 500.0)),
        dispositions=_opt_path(pick("dispositions", "dispositions", None)),
        rdns=_opt_path(pick("rdns", "rdns", None)),
        registry=_opt_path(pick("registry", "registry", None)),
        sno=pick("sno", "sno", None),
        pops=_opt_path(pick("pops", "pops", None)),
        spec=_opt_path(pick("spec", "spec", None)),
    )
    opts.validate()
    return opts


def _opt_path(value: Any) -> Path | None:
    return None if value is None else Path(value)


# ---------------------------------------------------------------------------
# shared helpers


def _load_catalog(opts: Options) -> SnoCatalog:
    return parse_catalog(opts.catalog)


def _require_inputs(opts: Options, count: int, what: str) -> list[Path]:
    if len(opts.inputs) != count:
        raise ValueError(f"expected {count} --input path(s): {what}")
    for path in opts.inputs:
        if not path.is_file():
            raise OSError(f"input file not found: {path}")
    return opts.inputs


class ParseErrors:
    """The records a lenient parse skipped: how many, and the first few."""

    def __init__(self) -> None:
        self.count = 0
        self.sample: list[RecordError] = []

    def skip(self, stream: Iterable[T | RecordError]) -> Iterator[T]:
        """Yield a parse stream's records, counting and dropping its RecordErrors."""
        for item in stream:
            if isinstance(item, RecordError):
                self.count += 1
                if len(self.sample) < PARSE_ERROR_SAMPLE:
                    self.sample.append(item)
                log.debug("skipping bad record: %s", item)
                continue
            yield item


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# json.dumps builds a new encoder on every call that passes separators.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def _write_ndjson(path: Path, objs: Iterable[dict[str, Any]]) -> None:
    with atomic_write(path) as handle:
        for obj in objs:
            handle.write(_encode_compact(obj) + "\n")


def _write_manifest(out_dir: Path, files: Sequence[Path], extra: dict[str, Any]) -> Path:
    manifest = dict(extra)
    manifest["files"] = {
        path.name: {"sha256": sha256_file(path), "bytes": path.stat().st_size}
        for path in sorted(files, key=lambda p: p.name)
    }
    path = out_dir / "manifest.json"
    with atomic_write(path) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    spec_path = opts.spec or default_synth_spec_path()
    spec = synth.GeneratorSpec.from_file(spec_path)
    if opts.seed is not None:
        spec = dataclasses.replace(spec, seed=int(opts.seed))
    paths = synth.gen_corpus(spec, opts.out)
    total = sum(p.n_sessions for p in spec.profiles)
    print(f"synth: wrote {len(paths)} files to {opts.out} ({total} sessions, seed {spec.seed})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    (speedtests_path,) = _require_inputs(opts, 1, "the speed-test NDJSON corpus")
    catalog = _load_catalog(opts)
    errors = ParseErrors()
    digest = hashlib.sha256()
    table = metrics.SessionTableBuilder()
    sessions = errors.skip(parse_speedtest_stream(speedtests_path, strictness=opts.strictness(), digest=digest))
    corpus = filtering.run_pipeline(
        table.measure(sessions),
        catalog,
        min_tests=opts.min_tests,
        global_floor_ms=opts.global_floor_ms,
        bands=opts.bands(),
        workers=opts.parallelism,
    )
    anomalies = profiling.flag_asn_anomalies(catalog, corpus.asn_latencies, bands=opts.bands())

    out = opts.out
    dispositions_path = out / "dispositions.ndjson"
    _write_ndjson(
        dispositions_path,
        (
            {"session_id": d.session_id, "sno": d.sno, "stage": d.stage, "reason": d.reason}
            for d in corpus.dispositions
        ),
    )
    summary_path = out / "summary.csv"
    _write_csv(
        summary_path,
        ("sno", "orbit", "accepted", "rejected", "threshold_ms"),
        (
            (row["sno"], row["orbit"], row["accepted"], row["rejected"], row["threshold_ms"])
            for row in filtering.summary_rows(corpus)
        ),
    )
    anomalies_path = out / "anomalies.ndjson"
    _write_ndjson(
        anomalies_path,
        (
            {
                "asn": a.asn,
                "sno": a.sno,
                "declared_orbits": sorted(a.declared_orbits),
                "verdict": {
                    "orbit": a.verdict.orbit,
                    "confidence": round(a.verdict.confidence, 6),
                    "median_ms": round(a.verdict.median_ms, 3),
                    "modes_ms": [round(m, 3) for m in a.verdict.modes_ms],
                    "n_samples": a.verdict.n_samples,
                },
            }
            for a in anomalies
        ),
    )
    # Row i of the table describes the session behind line i of dispositions.ndjson.
    table_path = out / SESSION_TABLE_NAME
    metrics.save_session_table(table_path, table.build([d.index for d in corpus.dispositions]))
    _write_manifest(
        out,
        [dispositions_path, summary_path, anomalies_path, table_path],
        {
            "input_sessions": corpus.input_count,
            "accepted": corpus.accepted_count(),
            "parse_errors": errors.count,
            "ipv6_excluded": corpus.ipv6_excluded,
            "min_tests": opts.min_tests,
            "global_floor_ms": opts.global_floor_ms,
            "input": {"sha256": digest.hexdigest(), "bytes": speedtests_path.stat().st_size},
            "strictness": opts.strictness(),
            "parse_error_sample": [[e.line_no, e.reason] for e in errors.sample],
        },
    )
    print(
        f"classify: {corpus.input_count} sessions in, {corpus.accepted_count()} accepted, "
        f"{errors.count} parse errors, {len(anomalies)} ASN anomalies -> {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report: metrics


def _load_dispositions(path: Path) -> list[tuple[str, str | None, str]]:
    """Each line's (session_id, sno, stage), in file order."""
    rows: list[tuple[str, str | None, str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            obj = json.loads(line)
            rows.append((obj["session_id"], obj.get("sno"), obj["stage"]))
    return rows


def _load_classify_run(
    dispositions: Path, speedtests: Path, strict: bool
) -> tuple[list[tuple[str, str | None, str]], np.ndarray]:
    """The dispositions and session table of the classify run that wrote `dispositions`.

    The run's manifest must show that it read `speedtests`, and both files
    must match their recorded digests. Under strict parsing, a run that
    skipped malformed records is refused with the first of them.
    """
    manifest_path = dispositions.parent / "manifest.json"
    table_path = dispositions.parent / SESSION_TABLE_NAME
    if not manifest_path.is_file():
        raise OSError(f"no classify manifest beside {dispositions}: {manifest_path} not found")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, dict) or not isinstance(manifest.get("input"), dict):
        raise ValueError(f"{manifest_path} lacks the input and file digests; re-run classify")
    for path in (dispositions, table_path):
        if path.name not in files or not path.is_file():
            raise OSError(f"{path} not found, or not listed in {manifest_path}; re-run classify")
    if sha256_file(speedtests) != manifest["input"].get("sha256"):
        raise ValueError(f"--input {speedtests} is not the corpus that classify read for {dispositions}")
    for path in (dispositions, table_path):
        if sha256_file(path) != files[path.name].get("sha256"):
            raise ValueError(f"{path} does not match its digest in {manifest_path}")
    if strict and manifest.get("parse_errors"):
        line_no, reason = manifest["parse_error_sample"][0]
        raise RecordError(line_no, reason)
    return _load_dispositions(dispositions), metrics.load_session_table(table_path)


def _round_cdf(points: list[tuple[float, float]], digits: int = 4) -> list[tuple[float, float]]:
    rounded: dict[float, float] = {}
    for value, fraction in points:
        rounded[round(value, digits)] = fraction
    return sorted(rounded.items())


def cmd_report_metrics(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    (speedtests_path,) = _require_inputs(opts, 1, "the speed-test NDJSON corpus")
    if opts.dispositions is None:
        raise ValueError("report metrics needs --dispositions (from a classify run)")
    catalog = _load_catalog(opts)
    dispositions, table = _load_classify_run(opts.dispositions, speedtests_path, opts.strict_parsing)
    # Row i of the table is the session on line i of dispositions.ndjson.
    ids = [session_id for session_id, _, _ in dispositions]
    snos = [None if stage == filtering.STAGE_REJECTED else sno for _, sno, stage in dispositions]
    rows = metrics.table_metrics(table, ids, snos)

    plans = (
        ("latency", "latency_p5_ms", metrics.GROUPING_ORBIT),
        ("latency", "latency_p5_ms", metrics.GROUPING_SNO),
        ("jitter_variability", "jitter_variability", metrics.GROUPING_ORBIT),
        ("retrans", "retrans_fraction", metrics.GROUPING_PEP),
    )
    box_rows: list[tuple[Any, ...]] = []
    cdf_rows: list[tuple[Any, ...]] = []
    for prefix, field_name, grouping in plans:
        groups = metrics.compare_groups(rows, catalog, grouping=grouping, metric=field_name)
        for label, summary in groups.items():
            tag = f"{prefix}:{label}"
            box_rows.append(
                (
                    tag,
                    round(summary.p5, 4),
                    round(summary.p25, 4),
                    round(summary.p50, 4),
                    round(summary.p75, 4),
                    round(summary.p95, 4),
                    summary.n,
                )
            )
            if grouping != metrics.GROUPING_SNO:
                for value, fraction in _round_cdf(summary.cdf_points):
                    cdf_rows.append((tag, value, round(fraction, 6)))

    daily_rows: list[tuple[Any, ...]] = []
    by_sno: dict[str, list[metrics.SessionMetrics]] = {}
    for m in rows:
        if m.sno is not None:
            by_sno.setdefault(m.sno, []).append(m)
    for sno in sorted(by_sno):
        series = metrics.daily_median_series(by_sno[sno], "latency_p5_ms")
        for day, median in series:
            daily_rows.append((f"latency:{sno}", day.isoformat(), round(median, 3)))

    out = opts.out
    _write_csv(out / "boxstats.csv", ("group", "p5", "p25", "p50", "p75", "p95", "n"), box_rows)
    _write_csv(out / "cdf.csv", ("group", "value", "fraction"), cdf_rows)
    _write_csv(out / "daily.csv", ("group", "date", "median"), daily_rows)
    print(f"report metrics: {len(rows)} accepted sessions summarized -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report: traceroute


def cmd_report_traceroute(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    (traceroutes_path,) = _require_inputs(opts, 1, "the traceroute NDJSON corpus")
    if opts.rdns is None:
        raise ValueError("report traceroute needs --rdns (ip,hostname CSV)")
    rdns = parse_rdns(opts.rdns)
    pop_table = parse_pop_table(opts.pop_table)
    errors = ParseErrors()
    # Each measurement is reduced as it is parsed; a probe none of whose
    # paths crossed the gateway still counts, with an empty timeline.
    by_probe: dict[int, list[starlink.PathSample]] = {}
    for item in errors.skip(parse_traceroute_stream(traceroutes_path, strictness=opts.strictness())):
        samples = by_probe.setdefault(item.probe_id, [])
        sample = starlink.path_sample(item, rdns)
        if sample is not None:
            samples.append(sample)

    timeline_rows: list[dict[str, Any]] = []
    event_rows: list[dict[str, Any]] = []
    country_rtts: dict[str, list[float]] = {}
    pop_rows: set[tuple[Any, ...]] = set()
    for probe_id in sorted(by_probe):
        timeline = starlink.build_pop_timeline(by_probe[probe_id])
        for assignment in timeline:
            timeline_rows.append(
                {
                    "probe_id": assignment.probe_id,
                    "pop": assignment.pop_code,
                    "start": format_rfc3339(assignment.start),
                    "end": format_rfc3339(assignment.end),
                    "n": assignment.n_measurements,
                    "median_rtt_ms": round(assignment.median_rtt_ms, 3),
                }
            )
            location = pop_table.get(assignment.pop_code)
            country = location.country_code if location else "ZZ"
            country_rtts.setdefault(country, []).extend(r for _, r in assignment.samples)
            if location is not None:
                pop_rows.add(
                    (probe_id, assignment.pop_code, location.city, location.country_code, location.lat, location.lon)
                )
            else:
                pop_rows.add((probe_id, assignment.pop_code, "", "", "", ""))
        for event in starlink.detect_changes(timeline):
            event_rows.append(
                {
                    "probe_id": event.probe_id,
                    "at": format_rfc3339(event.at),
                    "kind": event.kind,
                    "before_pop": event.before_pop,
                    "before_rtt_ms": None if event.before_rtt_ms is None else round(event.before_rtt_ms, 3),
                    "after_pop": event.after_pop,
                    "after_rtt_ms": round(event.after_rtt_ms, 3),
                }
            )

    country_rows = []
    for country in sorted(country_rtts):
        summary = metrics.summarize(country_rtts[country])
        country_rows.append(
            (
                country,
                round(summary.p5, 3),
                round(summary.p25, 3),
                round(summary.p50, 3),
                round(summary.p75, 3),
                round(summary.p95, 3),
                summary.n,
            )
        )

    out = opts.out
    _write_ndjson(out / "timeline.ndjson", timeline_rows)
    _write_ndjson(out / "events.ndjson", event_rows)
    _write_csv(out / "country_rtt.csv", ("country", "p5", "p25", "p50", "p75", "p95", "n"), country_rows)
    _write_csv(
        out / "probe_pops.csv",
        ("probe_id", "pop", "city", "country_code", "lat", "lon"),
        sorted(pop_rows),
    )
    print(
        f"report traceroute: {len(by_probe)} probes, {len(timeline_rows)} assignments, "
        f"{len(event_rows)} events, {errors.count} parse errors -> {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report: bgp


def cmd_report_bgp(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    if len(opts.inputs) not in (1, 2):
        raise ValueError("report bgp takes one AS-path snapshot file, or two to diff")
    for path in opts.inputs:
        if not path.is_file():
            raise OSError(f"input file not found: {path}")
    if opts.sno is None:
        raise ValueError("report bgp needs --sno (an operator name from the catalog)")
    if opts.registry is None:
        raise ValueError("report bgp needs --registry (asn,country_code CSV)")
    catalog = _load_catalog(opts)
    entry = catalog.get(opts.sno)
    registry = parse_registry(opts.registry)
    errors = ParseErrors()
    graphs = [
        bgp.build_graph(errors.skip(parse_aspath_stream(path, strictness=opts.strictness())), entry, registry)
        for path in opts.inputs
    ]

    out = opts.out
    names = ["graph.dot"] if len(graphs) == 1 else ["graph_before.dot", "graph_after.dot"]
    labels = ["current"] if len(graphs) == 1 else ["before", "after"]
    for graph, name in zip(graphs, names):
        with atomic_write(out / name) as handle:
            handle.write(bgp.graph_to_dot(graph))
    _write_csv(
        out / "countries.csv",
        ("snapshot", "country"),
        (
            (label, country)
            for label, graph in zip(labels, graphs)
            for country in sorted(bgp.infer_countries(graph))
        ),
    )
    if opts.pops is not None:
        truth = list(parse_pop_table(opts.pops).values())
        _write_csv(
            out / "coverage.csv",
            ("snapshot", "country_fraction", "city_fraction", "truth_countries", "truth_cities"),
            (
                (
                    label,
                    round(score.country_fraction, 6),
                    round(score.city_fraction, 6),
                    len(score.truth_countries),
                    len(truth),
                )
                for label, graph in zip(labels, graphs)
                for score in [bgp.coverage_score(graph, truth)]
            ),
        )
    if len(graphs) == 2:
        diff = bgp.snapshot_diff(graphs[0], graphs[1])
        deltas = (
            [{"kind": "added_peer", "value": v} for v in sorted(diff.added_peers)]
            + [{"kind": "removed_peer", "value": v} for v in sorted(diff.removed_peers)]
            + [{"kind": "added_country", "value": v} for v in sorted(diff.added_countries)]
            + [{"kind": "removed_country", "value": v} for v in sorted(diff.removed_countries)]
        )
        _write_ndjson(out / "diff.ndjson", deltas)
    print(f"report bgp: {opts.sno}, {len(graphs)} snapshot(s), {errors.count} parse errors -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--input", nargs="+", help="input data file(s)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="random seed override")
    parser.add_argument("--parallelism", type=int, help="worker count (default 1)")
    parser.add_argument("--strict-parsing", dest="strict_parsing", action="store_const", const=True,
                        help="abort on the first malformed record")
    parser.add_argument("--global-floor", dest="global_floor", type=float,
                        help="relaxed-stage fallback latency floor in ms")
    parser.add_argument("--min-tests", dest="min_tests", type=int,
                        help="minimum sessions per /24 for the strict stage")
    parser.add_argument("--catalog", help="operator catalog JSON (default: bundled)")
    parser.add_argument("--meo-min", dest="meo_min", type=float, help="LEO/MEO band cut in ms")
    parser.add_argument("--geo-min", dest="geo_min", type=float, help="MEO/GEO band cut in ms")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snoscope",
        description="Identify satellite-operator traffic and characterize operator networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    _add_common_flags(p_synth)
    p_synth.add_argument("--spec", help="generator spec JSON (default: bundled)")
    p_synth.set_defaults(func=cmd_synth)

    p_classify = sub.add_parser("classify", help="run the filtering pipeline over a corpus")
    _add_common_flags(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_report = sub.add_parser("report", help="derive report tables from corpora")
    report_sub = p_report.add_subparsers(dest="report_kind", required=True)

    p_metrics = report_sub.add_parser("metrics", help="performance metric exports")
    _add_common_flags(p_metrics)
    p_metrics.add_argument("--dispositions",
                           help="dispositions.ndjson of a classify run over --input, beside its manifest and session table")
    p_metrics.set_defaults(func=cmd_report_metrics)

    p_trace = report_sub.add_parser("traceroute", help="PoP timelines and change events")
    _add_common_flags(p_trace)
    p_trace.add_argument("--rdns", help="reverse DNS CSV (ip,hostname)")
    p_trace.add_argument("--pop-table", dest="pop_table", help="PoP location CSV (default: bundled)")
    p_trace.set_defaults(func=cmd_report_traceroute)

    p_bgp = report_sub.add_parser("bgp", help="peering graph, countries, and diffs")
    _add_common_flags(p_bgp)
    p_bgp.add_argument("--sno", help="operator name from the catalog")
    p_bgp.add_argument("--registry", help="ASN registry CSV (asn,country_code)")
    p_bgp.add_argument("--pops", help="ground-truth PoP CSV to score coverage against")
    p_bgp.set_defaults(func=cmd_report_bgp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("SNO_SCOPE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RecordError, TableError) as exc:
        log.debug("input error", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
