"""Benchmark for the snoscope CLI: wall time, peak RSS and per-layer trace.

    python3 perfbench/run.py --workload corpus-default --seed 20230501 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The workload inputs come from --seed (see
workloads.py). With --trace 0 the benchmark runs the real CLI as child
processes, one at a time, in a closed loop: a pass is synth, classify,
report metrics, report traceroute and report bgp, and passes repeat until
--seconds have elapsed (at least one). Each child runs the equivalent of the
installed `snoscope` entry point, `snoscope.cli.main`, from `src/`, and
reports how long its `import snoscope.cli` took. A small launcher process
(launcher.py) spawns the children and takes each one's peak RSS from
os.wait4. Every output is checked (oracle.py). With --trace 1 the same
commands run in-process through `snoscope.cli.main`, once untraced and once
with the layer functions wrapped (tracing.py), for per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
(subcommand invocations, counting failed output checks) and metrics, named
and with units as in BENCHMARK.json. The line before it carries
information that is not a gated metric: ops_failed_frac, src_lines, sample
counts and notes. Exit code 0 means the run completed, even if a check
failed; any other exit code means no result.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle
import workloads
from stats import median, tail_percentile
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 170.0
IMPORT_MARK = "perfbench-import-s "

# The installed `snoscope` script, plus a timer around the import.
CHILD_SHIM = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import snoscope.cli\n"
    f"sys.stderr.write('{IMPORT_MARK}%r\\n' % (time.perf_counter() - start))\n"
    "sys.exit(snoscope.cli.main(sys.argv[1:]))\n"
)

COMMANDS = ("synth", "classify", "report_metrics", "report_traceroute", "report_bgp")


@dataclass
class Command:
    key: str
    argv: list[str]
    out: Path
    check: Callable[[], list[str]]


def plan(workload: workloads.Workload, side: dict[str, Path], pass_dir: Path) -> list[Command]:
    """The five subcommands of one pass, each with its output check."""
    corpus = pass_dir / "corpus"
    outs = {key: pass_dir / key for key in COMMANDS[1:]}
    speedtests, dispositions = corpus / "speedtests.ndjson", outs["classify"] / "dispositions.ndjson"
    pops = SRC / "snoscope" / "data" / "pop_locations.csv"
    argv = {
        "synth": ["synth", "--spec", side["spec"], "--out", corpus],
        "classify": ["classify", "--input", speedtests, "--out", outs["classify"]],
        "report_metrics": ["report", "metrics", "--input", speedtests, "--dispositions", dispositions,
                           "--out", outs["report_metrics"]],
        "report_traceroute": ["report", "traceroute", "--input", corpus / "traceroutes.ndjson",
                              "--rdns", corpus / "rdns.csv", "--out", outs["report_traceroute"]],
        "report_bgp": ["report", "bgp", "--input", side["before"], side["after"], "--sno", workloads.BGP_SNO,
                       "--registry", side["registry"], "--pops", pops, "--out", outs["report_bgp"]],
    }
    checks = {
        "synth": lambda: oracle.check_synth(corpus, workload.sessions),
        "classify": lambda: oracle.check_classify(outs["classify"], corpus / "labels.ndjson", speedtests),
        "report_metrics": lambda: oracle.check_report_metrics(outs["report_metrics"], dispositions),
        "report_traceroute": lambda: oracle.check_report_traceroute(
            outs["report_traceroute"], workloads.expected_pop_changes(workload.spec)),
        "report_bgp": lambda: oracle.check_report_bgp(outs["report_bgp"], workload.expected),
    }
    return [
        Command(key, [str(a) for a in argv[key]], corpus if key == "synth" else outs[key], checks[key])
        for key in COMMANDS
    ]


def check(command: Command, pinned: dict[str, dict[str, str]] | None) -> list[str]:
    failures = command.check()
    if not failures and pinned is not None and command.key in oracle.PINNED:
        failures = oracle.check_digests(command.key, command.out, pinned[command.key])
    return failures


class Tally:
    """Subcommand invocations attempted and failed; each failure is printed to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, key: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAIL {key}: {failure}", file=sys.stderr)


# ---------------------------------------------------------------------------
# untraced: child processes


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    import_s: float | None
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """A small helper process (launcher.py) that runs each child and reports wall time and peak RSS."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log_dir: Path) -> Child:
        """Run the CLI in a fresh interpreter, as the installed entry point would."""
        request = {"argv": [sys.executable, "-c", CHILD_SHIM, *argv], "env": child_env(), "cwd": str(ROOT),
                   "stdout": str(log_dir / "stdout"), "stderr": str(log_dir / "stderr"),
                   "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        text = (log_dir / "stderr").read_text(encoding="utf-8", errors="replace")
        first, _, rest = text.partition("\n")
        import_s = float(first[len(IMPORT_MARK):]) if first.startswith(IMPORT_MARK) else None
        # ru_maxrss is in KiB on Linux.
        return Child(reply["code"], reply["wall_s"], reply["maxrss_kib"] * 1024 / 1e6, import_s,
                     rest if import_s is not None else text)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def run_untraced(workload: workloads.Workload, side: dict[str, Path], work: Path, seconds: float,
                 pinned: dict[str, dict[str, str]] | None, tally: Tally) -> tuple[dict[str, float], dict[str, Any]]:
    walls: dict[str, list[float]] = {key: [] for key in COMMANDS}
    rss: dict[str, list[float]] = {key: [] for key in COMMANDS}
    imports: list[float] = []
    deadline = time.perf_counter() + seconds
    passes = 0
    launcher = Launcher()
    try:
        while True:
            pass_dir = work / f"pass{passes}"
            pass_dir.mkdir()
            for command in plan(workload, side, pass_dir):
                child = launcher.run(command.argv, pass_dir)
                if child.code != 0:
                    failures = [f"exit code {child.code}: {child.stderr.strip()[-500:]}"]
                else:
                    failures = check(command, pinned)
                tally.record(command.key, failures)
                walls[command.key].append(child.wall_s)
                rss[command.key].append(child.rss_mb)
                if child.import_s is not None:
                    imports.append(child.import_s)
            shutil.rmtree(pass_dir)
            passes += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        launcher.close()

    metrics = {"setup_s": median(imports)}
    for key in COMMANDS:
        metrics[f"{key}_s"] = median(walls[key])
        metrics[f"{key}_rss_mb"] = median(rss[key])
    metrics["classify_sessions_per_s"] = workload.sessions / metrics["classify_s"]
    info = {"passes": passes, "setup_samples": len(imports)}
    tail = tail_percentile(imports)
    if tail is not None:
        info["setup_tail"] = {"percentile": tail[0], "s": tail[1]}
    return metrics, info


# ---------------------------------------------------------------------------
# traced: in-process


def import_times() -> dict[str, float]:
    """Cumulative import seconds of snoscope, numpy and scipy.signal from `python -X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import snoscope.cli"],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    cumulative: dict[str, float] = {}
    snoscope_s = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        seconds = int(cum) / 1e6
        module = name.strip()
        cumulative.setdefault(module, seconds)
        if name.startswith(" snoscope") and module.split(".")[0] == "snoscope":
            snoscope_s += seconds  # top-level entries only: `snoscope`, then `snoscope.cli`
    return {
        "import.snoscope_s": snoscope_s,
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.scipy_signal_s": cumulative.get("scipy.signal", 0.0),
    }


WORKERS_PREFIX = "filtering.run_pipeline.workers_"


def workers_comparison(speedtests: Path, notes: list[str]) -> dict[str, float]:
    """run_pipeline on the already-parsed sessions with 1 worker and with one per CPU."""
    from snoscope import cli, filtering, ingest

    if "workers" not in inspect.signature(filtering.run_pipeline).parameters:
        notes.append(f"run_pipeline has no workers parameter; {WORKERS_PREFIX}* are absent")
        return {}
    sessions = [s for s in ingest.parse_speedtest_stream(speedtests) if not isinstance(s, ingest.RecordError)]
    catalog = ingest.parse_catalog(cli.default_catalog_path())
    out = {}
    for suffix, workers in (("1_s", 1), ("nproc_s", len(os.sched_getaffinity(0)))):
        start = time.perf_counter()
        filtering.run_pipeline(sessions, catalog, workers=workers)
        out[WORKERS_PREFIX + suffix] = time.perf_counter() - start
    return out


def run_traced(workload: workloads.Workload, side: dict[str, Path], work: Path,
               pinned: dict[str, dict[str, str]] | None, tally: Tally) -> tuple[dict[str, float], list[str]]:
    measured = import_times()
    sys.path.insert(0, str(SRC))
    from snoscope import cli

    def call(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    pass_dir = work / "traced"
    pass_dir.mkdir()
    for command in plan(workload, side, pass_dir):
        # Overhead is measured on the commands that read the corpus; an untraced
        # repeat of synth would only add run time.
        if command.key != "synth":
            bare = [str(command.out) + ".untraced" if a == str(command.out) else a for a in command.argv]
            start = time.perf_counter()
            call(bare)
            untraced_s += time.perf_counter() - start
        tracer.install()
        try:
            start = time.perf_counter()
            code = tracer.span("cli.main", call, command.argv)
            if command.key != "synth":
                traced_s += time.perf_counter() - start
        finally:
            tracer.uninstall()
        tally.record(command.key, [f"exit code {code}"] if code != 0 else check(command, pinned))

    measured.update(tracer.layer_metrics())
    measured["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    notes = tracer.notes
    absent = tracer.absent
    workers = workers_comparison(pass_dir / "corpus" / "speedtests.ndjson", notes)
    if not workers:
        absent.append(WORKERS_PREFIX)
    measured.update(workers)
    metrics = {}
    for name in declared_metrics("per_layer"):
        if name in measured:
            metrics[name] = measured[name]
        elif not any(name.startswith(prefix) for prefix in absent):
            metrics[name] = 0  # the function exists but was not called in this run
    return metrics, notes


# ---------------------------------------------------------------------------
# entry points


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def src_lines() -> int:
    total = 0
    for path in glob.glob(str(SRC / "snoscope" / "*.py")):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def run_workload(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
                 pinned: dict[str, dict[str, str]] | None) -> dict[str, Any]:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    tally = Tally()
    info: dict[str, Any] = {"workload": workload.name, "seed": seed, "src_lines": src_lines()}
    try:
        side = workloads.write_side_inputs(workload, seed, work / "inputs")
        if trace:
            metrics, info["notes"] = run_traced(workload, side, work, pinned, tally)
            units = declared_metrics("per_layer")
        else:
            metrics, extra = run_untraced(workload, side, work, seconds, pinned, tally)
            info.update(extra)
            units = declared_metrics("end_to_end")
            metrics = {name: metrics[name] for name in units}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["ops_failed_frac"] = tally.failed / tally.attempted
    return {
        "info": info,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }


def smoke() -> int:
    """All three workloads, untraced and traced, on tiny inputs with every oracle."""
    ok = True
    for name, build in workloads.WORKLOADS.items():
        for trace in (False, True):
            workload = workloads.smoke(build(SRC, workloads.DEFAULT_SEED))
            out = run_workload(workload, workloads.DEFAULT_SEED, 0.0, trace, None)
            result = out["result"]
            ok = ok and result["correct"] and len(result["metrics"]) > 0
            print(json.dumps({"workload": name, "trace": trace, "correct": result["correct"],
                              "attempted": result["attempted"], "failed": result["failed"]}))
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, all workloads, checks only")
    args = parser.parse_args(argv)
    if not (SRC / "snoscope" / "cli.py").is_file():
        print(f"error: no snoscope sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    workload = workloads.WORKLOADS[args.workload](SRC, args.seed)
    pinned = oracle.load_digests(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    out = run_workload(workload, args.seed, args.seconds, bool(args.trace), pinned)
    print(json.dumps({"info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
