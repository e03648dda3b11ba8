"""Command line interface: synth, classify, and report subcommands.

Exit codes: 0 on success, 2 on bad input (malformed records under strict
parsing, broken tables, bad flags or config), 1 on internal failure. Every
output file is written atomically, so an aborted run leaves no partial
outputs behind. Log verbosity follows the SNO_SCOPE_LOG environment
variable (a standard logging level name).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import logging
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import bgp, filtering, metrics, profiling, starlink, synth
from .catalog import SnoCatalog, SnoEntry, make_bands
from .ingest import (
    RecordError,
    TableError,
    _as_bool,
    _as_int,
    _as_number,
    _as_str,
    _decode,
    _loads,
    forked_map,
    parse_aspath_stream,
    parse_catalog,
    parse_pop_table,
    parse_rdns,
    parse_registry,
    parse_speedtest_rows,
    parse_traceroute_stream,
    until_stopped,
    usable_cpus,
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


# ---------------------------------------------------------------------------
# options

SYNTH, CLASSIFY = "synth", "classify"
METRICS, TRACEROUTE, BGP = "report metrics", "report traceroute", "report bgp"
CORPUS_READERS = (CLASSIFY, METRICS, TRACEROUTE, BGP)


def _option(flag: str, readers: Sequence[str], help: str, default: Any = None, minimum: float | None = None) -> Any:
    """An Options field: its default, its flag, the subcommands that read it, and its lower bound."""
    return dataclasses.field(default=default, metadata={"flag": flag, "readers": readers, "help": help, "minimum": minimum})


def _as_paths(value: Any, name: str) -> tuple[Path, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array of paths")
    return tuple(Path(_as_str(item, name)) for item in value)


# For each type an option is declared with: the check of a flag or config
# value, given its name and lower bound, and the flag's argparse keywords.
# `| None` only marks an option with no default; a null value is rejected.
_OPTION_TYPES: dict[str, tuple[Callable[[Any, str, Any], Any], dict[str, Any]]] = {
    "int": (lambda value, name, low: _as_int(value, name, minimum=low), {"type": int}),
    "float": (lambda value, name, low: _as_number(value, name, minimum=low), {"type": float}),
    "bool": (lambda value, name, low: _as_bool(value, name), {"action": "store_const", "const": True}),
    "str": (lambda value, name, low: _as_str(value, name), {}),
    "Path": (lambda value, name, low: Path(_as_str(value, name)), {}),
    "tuple[Path, ...]": (lambda value, name, low: _as_paths(value, name), {"nargs": "+"}),
}


@dataclasses.dataclass
class Options:
    """Every option, each declared once: type, default, flag, readers, bound.

    A subcommand registers the flags of the options it reads. Each of those
    takes its flag's value, else the value of the config key named after the
    field, else the default. Flag and config values pass the same checks.
    """

    out: Path | None = _option("--out", (SYNTH, *CORPUS_READERS), "output directory")
    input: tuple[Path, ...] = _option("--input", CORPUS_READERS, "input data file(s)", default=())
    seed: int | None = _option("--seed", (SYNTH,), "random seed override", minimum=0)
    spec: Path = _option("--spec", (SYNTH,), "generator spec JSON (default: bundled)",
                         default=_packaged("default_synth_spec.json"))
    catalog: Path = _option("--catalog", (CLASSIFY, METRICS, BGP), "operator catalog JSON (default: bundled)",
                            default=default_catalog_path())
    parallelism: int | None = _option(
        "--parallelism", (CLASSIFY, BGP),
        "worker processes for classify's parse or report bgp's snapshots (default: the usable CPUs)", minimum=1)
    strict_parsing: bool = _option("--strict-parsing", CORPUS_READERS, "abort on the first malformed record",
                                   default=False)
    global_floor_ms: float = _option("--global-floor", (CLASSIFY,), "relaxed-stage fallback latency floor in ms",
                                     default=filtering.DEFAULT_GLOBAL_FLOOR_MS, minimum=0.0)
    min_tests: int = _option("--min-tests", (CLASSIFY,), "minimum sessions per /24 for the strict stage",
                             default=filtering.DEFAULT_MIN_TESTS, minimum=1)
    meo_min_ms: float = _option("--meo-min", (CLASSIFY,), "LEO/MEO band cut in ms", default=200.0)
    geo_min_ms: float = _option("--geo-min", (CLASSIFY,), "MEO/GEO band cut in ms", default=500.0)
    dispositions: Path | None = _option(
        "--dispositions", (METRICS,),
        "dispositions.ndjson of a classify run over --input, beside its manifest and session table")
    rdns: Path | None = _option("--rdns", (TRACEROUTE,), "reverse DNS CSV (ip,hostname)")
    pop_table: Path = _option("--pop-table", (TRACEROUTE,), "PoP location CSV (default: bundled)",
                              default=_packaged("pop_locations.csv"))
    sno: str | None = _option("--sno", (BGP,), "operator name from the catalog")
    registry: Path | None = _option("--registry", (BGP,), "ASN registry CSV (asn,country_code)")
    pops: Path | None = _option("--pops", (BGP,), "ground-truth PoP CSV to score coverage against")

    def validate(self) -> None:
        if self.out is None:
            raise ValueError("an output directory is required (--out)")
        if not 0 < self.meo_min_ms < self.geo_min_ms:
            raise ValueError("band cut points must satisfy 0 < meo-min < geo-min")
        seen: set[Path] = set()
        for path in self.input:
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

    def workers(self) -> int:
        return self.parallelism or usable_cpus()


# Each option's field, value check and flag keywords, by config key.
_OPTIONS = {f.name: (f, *_OPTION_TYPES[f.type.removesuffix(" | None")]) for f in dataclasses.fields(Options)}


def _check_option(key: str, value: Any, name: str) -> Any:
    field, check, _ = _OPTIONS[key]
    return check(value, name, field.metadata["minimum"])


def _load_config(path: str | None) -> dict[str, Any]:
    """A config file's options, every key checked, whichever subcommand reads it."""
    if not path:
        return {}
    try:
        obj = _loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"config {path}: must be a JSON object")
    for key, value in obj.items():
        if key not in _OPTIONS:
            raise ValueError(f"config {path}: no subcommand reads the key {key!r}")
        obj[key] = _check_option(key, value, f"config {path}: {key}")
    return obj


def _merge_options(args: argparse.Namespace) -> Options:
    """Resolve each option the subcommand reads as flag > config file > default."""
    config = _load_config(args.config)
    values: dict[str, Any] = {}
    for key, (field, _, _) in _OPTIONS.items():
        if args.subcommand not in field.metadata["readers"]:
            continue
        flag_value = getattr(args, key)
        if flag_value is not None:
            values[key] = _check_option(key, flag_value, field.metadata["flag"])
        elif key in config:
            values[key] = config[key]
    opts = Options(**values)
    opts.validate()
    return opts


# ---------------------------------------------------------------------------
# shared helpers


def _require_inputs(opts: Options, count: int, what: str) -> tuple[Path, ...]:
    if len(opts.input) != count:
        raise ValueError(f"expected {count} --input path(s): {what}")
    for path in opts.input:
        if not path.is_file():
            raise OSError(f"input file not found: {path}")
    return opts.input


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

    def merge(self, other: ParseErrors) -> None:
        """Count the records another parse skipped, after this one's."""
        self.count += other.count
        self.sample += other.sample[: PARSE_ERROR_SAMPLE - len(self.sample)]


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
    spec = synth.GeneratorSpec.from_file(opts.spec)
    if opts.seed is not None:
        spec = dataclasses.replace(spec, seed=opts.seed)
    paths = synth.gen_corpus(spec, opts.out)
    total = sum(p.n_sessions for p in spec.profiles)
    print(f"synth: wrote {len(paths)} files to {opts.out} ({total} sessions, seed {spec.seed})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    (speedtests_path,) = _require_inputs(opts, 1, "the speed-test NDJSON corpus")
    catalog = parse_catalog(opts.catalog)
    errors = ParseErrors()
    digest = hashlib.sha256()
    table = metrics.SessionTableBuilder()
    rows = parse_speedtest_rows(speedtests_path, opts.strictness(), digest, opts.workers())
    with contextlib.closing(rows):  # its worker processes end with it
        corpus = filtering.run_pipeline(table.measure(errors.skip(rows)), catalog, min_tests=opts.min_tests,
                                        global_floor_ms=opts.global_floor_ms, bands=opts.bands())
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


_STAGES = (filtering.STAGE_ASN, filtering.STAGE_STRICT, filtering.STAGE_RELAXED, filtering.STAGE_REJECTED)


def _load_operators(path: Path, catalog: SnoCatalog) -> list[str | None]:
    """Each line's operator, None where the session was rejected, in file order.

    A line of another shape, or one that accepts a session for an operator
    the catalog lacks, is a ValueError.
    """
    snos: list[str | None] = []
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = _loads(_decode(line))
                if not isinstance(obj, dict):
                    raise ValueError("a disposition must be a JSON object")
                _as_str(obj.get("session_id"), "session_id")
                sno, stage = obj.get("sno"), obj.get("stage")
                if stage not in _STAGES:
                    raise ValueError(f"unknown stage {stage!r}")
                if sno is not None and not isinstance(sno, str):
                    raise ValueError("sno must be a string or null")
                if stage == filtering.STAGE_REJECTED:
                    sno = None
                elif sno is not None and sno not in catalog:
                    raise ValueError(f"operator {sno!r} is not in the catalog")
            except ValueError as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from None
            snos.append(sno)
    return snos


def _load_classify_run(
    dispositions: Path, speedtests: Path, strict: bool, catalog: SnoCatalog
) -> tuple[np.ndarray, list[str | None]]:
    """The session table of the classify run that wrote `dispositions`, and each row's operator (see _load_operators).

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
    if not isinstance(files, dict):
        raise ValueError(f"{manifest_path} lacks the input and file digests; re-run classify")
    for path in (dispositions, table_path):
        if path.name not in files or not path.is_file():
            raise OSError(f"{path} not found, or not listed in {manifest_path}; re-run classify")
    recorded = {"its input": manifest.get("input"), **{p.name: files[p.name] for p in (dispositions, table_path)}}
    for what, entry in recorded.items():
        if not (isinstance(entry, dict) and isinstance(entry.get("sha256"), str)):
            raise ValueError(f"{manifest_path} records no sha256 string for {what}; re-run classify")
    if sha256_file(speedtests) != manifest["input"]["sha256"]:
        raise ValueError(f"--input {speedtests} is not the corpus that classify read for {dispositions}")
    for path in (dispositions, table_path):
        if sha256_file(path) != files[path.name]["sha256"]:
            raise ValueError(f"{path} does not match its digest in {manifest_path}")
    if strict and manifest.get("parse_errors"):
        sample = manifest.get("parse_error_sample")
        first = sample[0] if isinstance(sample, list) and sample else None
        if not (isinstance(first, list) and len(first) == 2 and type(first[0]) is int and isinstance(first[1], str)):
            raise ValueError(f"{manifest_path} counts parse errors but lists no [line, reason] sample; re-run classify")
        raise RecordError(*first)
    table, snos = metrics.load_session_table(table_path), _load_operators(dispositions, catalog)
    if len(table) != len(snos):
        raise ValueError(f"{table_path} has {len(table)} rows for the {len(snos)} dispositions in {dispositions}")
    return table, snos


def _round_cdf(points: list[tuple[float, float]], digits: int = 4) -> list[tuple[float, float]]:
    return sorted({round(value, digits): fraction for value, fraction in points}.items())


def cmd_report_metrics(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    (speedtests_path,) = _require_inputs(opts, 1, "the speed-test NDJSON corpus")
    if opts.dispositions is None:
        raise ValueError("report metrics needs --dispositions (from a classify run)")
    catalog = parse_catalog(opts.catalog)
    # Row i of the table is the session on line i of dispositions.ndjson.
    table, snos = _load_classify_run(opts.dispositions, speedtests_path, opts.strict_parsing, catalog)

    plans = (
        ("latency", "latency_p5_ms", metrics.GROUPING_ORBIT),
        ("latency", "latency_p5_ms", metrics.GROUPING_SNO),
        ("jitter_variability", "jitter_variability", metrics.GROUPING_ORBIT),
        ("retrans", "retrans_fraction", metrics.GROUPING_PEP),
    )
    box_rows: list[tuple[Any, ...]] = []
    cdf_rows: list[tuple[Any, ...]] = []
    for prefix, field_name, grouping in plans:
        groups = metrics.compare_groups(table, snos, catalog, grouping=grouping, metric=field_name)
        for label, summary in groups.items():
            tag = f"{prefix}:{label}"
            quantiles = (summary.p5, summary.p25, summary.p50, summary.p75, summary.p95)
            box_rows.append((tag, *(round(q, 4) for q in quantiles), summary.n))
            if grouping != metrics.GROUPING_SNO:
                cdf_rows.extend((tag, value, round(fraction, 6)) for value, fraction in _round_cdf(summary.cdf_points))

    daily_rows = [
        (f"latency:{sno}", day.isoformat(), round(median, 3))
        for sno, series in metrics.daily_median_series(table, snos, "latency_p5_ms").items()
        for day, median in series
    ]

    out = opts.out
    _write_csv(out / "boxstats.csv", ("group", "p5", "p25", "p50", "p75", "p95", "n"), box_rows)
    _write_csv(out / "cdf.csv", ("group", "value", "fraction"), cdf_rows)
    _write_csv(out / "daily.csv", ("group", "date", "median"), daily_rows)
    print(f"report metrics: {len(snos) - snos.count(None)} accepted sessions summarized -> {out}")
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


def _snapshot_graph(
    path: Path, strictness: str, entry: SnoEntry, registry: dict[int, str]
) -> tuple[bgp.PeeringGraph, ParseErrors]:
    """An AS-path file's peering graph and the records its parse skipped: one forked_map task."""
    errors = ParseErrors()
    records = until_stopped(errors.skip(parse_aspath_stream(path, strictness=strictness)))
    return bgp.build_graph(records, entry, registry), errors


def cmd_report_bgp(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    if len(opts.input) not in (1, 2):
        raise ValueError("report bgp takes one AS-path snapshot file, or two to diff")
    for path in opts.input:
        if not path.is_file():
            raise OSError(f"input file not found: {path}")
    if opts.sno is None:
        raise ValueError("report bgp needs --sno (an operator name from the catalog)")
    if opts.registry is None:
        raise ValueError("report bgp needs --registry (asn,country_code CSV)")
    catalog = parse_catalog(opts.catalog)
    entry = catalog.get(opts.sno)
    registry = parse_registry(opts.registry)
    truth = None if opts.pops is None else list(parse_pop_table(opts.pops).values())
    errors = ParseErrors()
    graphs = []
    # Results come in input order, so under strict parsing the first error in input order raises.
    task = functools.partial(_snapshot_graph, strictness=opts.strictness(), entry=entry, registry=registry)
    with forked_map(task, [(path,) for path in opts.input], opts.workers()) as results:
        for graph, file_errors in results:
            graphs.append(graph)
            errors.merge(file_errors)

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
    if truth is not None:
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


def _add_subcommand(parent: Any, name: str, func: Callable[[argparse.Namespace], int], help: str) -> None:
    """Register a subcommand with --config and the flags of the options it reads."""
    command = parent.add_parser(name.split()[-1], help=help)
    command.add_argument("--config", help="JSON config file; flags override its keys")
    for key, (field, _, flag_kwargs) in _OPTIONS.items():
        if name in field.metadata["readers"]:
            command.add_argument(field.metadata["flag"], dest=key, help=field.metadata["help"], **flag_kwargs)
    command.set_defaults(func=func, subcommand=name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snoscope",
        description="Identify satellite-operator traffic and characterize operator networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(sub, SYNTH, cmd_synth, "generate a labeled synthetic corpus")
    _add_subcommand(sub, CLASSIFY, cmd_classify, "run the filtering pipeline over a corpus")
    report = sub.add_parser("report", help="derive report tables from corpora")
    report_sub = report.add_subparsers(dest="report_kind", required=True)
    _add_subcommand(report_sub, METRICS, cmd_report_metrics, "performance metric exports")
    _add_subcommand(report_sub, TRACEROUTE, cmd_report_traceroute, "PoP timelines and change events")
    _add_subcommand(report_sub, BGP, cmd_report_bgp, "peering graph, countries, and diffs")
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
