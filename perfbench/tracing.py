"""In-process tracer that wraps snoscope's layer functions from outside the package.

Each layer function is replaced, for the length of a traced run, in every
snoscope module that holds a reference to it: `cli` and `filtering` import
names such as `parse_speedtest_stream` and `access_latency` directly, so
patching only the defining module would miss those calls. A function the
package no longer has is skipped with a note, and its metrics are absent.

Three kinds of wrapper:

- span: one Span per call, with its caller, for functions called a few
  times per command. Self time is the span minus its children.
- hot: calls too frequent for a span each (one per session or per write)
  are summed into a call count and a total. Their time is charged to the
  enclosing span, so its self time excludes them; a hot call nested in
  another hot call is charged only once.
- stream: a parse_*_stream generator is wrapped so that each next() is a
  hot call, with the records, RecordErrors and input bytes counted.

The tracer keeps one span stack and assumes the traced run is single
threaded; the benchmark runs `classify` with its default of one worker.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from stats import Span, self_times

SPAN, HOT, STREAM, WRITER = "span", "hot", "stream", "writer"


def _count_pipeline(counts: Counter, corpus: Any) -> None:
    for disposition in corpus.dispositions:
        counts[f"filtering.stage.{disposition.stage}"] += 1
    for result in corpus.per_sno.values():
        counts["filtering.strict_prefixes"] += result.strict_prefixes
        counts["filtering.total_prefixes"] += result.total_prefixes


def _count_graph(counts: Counter, graph: Any) -> None:
    counts["bgp.peers"] += len(graph.peers)
    counts["bgp.edges"] += len(graph.edges)


def _count_len(name: str) -> Callable[[Counter, Any], None]:
    def count(counts: Counter, result: Any) -> None:
        counts[name] += len(result)

    return count


@dataclass(frozen=True)
class Site:
    """A layer function to wrap: defining module, function name, wrapper kind.

    observe, when given, counts things in each call's result into the
    counters that `observed` names.
    """

    module: str
    function: str
    kind: str
    observe: Callable[[Counter, Any], None] | None = None
    observed: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"

    @property
    def counters(self) -> tuple[str, ...]:
        if self.kind == STREAM:
            return tuple(f"{self.name}.{c}" for c in ("records", "errors", "bytes"))
        if self.kind == WRITER or self.name == "util.sha256_file":
            return (self.name + ".bytes",)
        return self.observed


SITES = (
    Site("ingest", "parse_speedtest_stream", STREAM),
    Site("ingest", "parse_traceroute_stream", STREAM),
    Site("ingest", "parse_aspath_stream", STREAM),
    Site("ingest", "parse_catalog", SPAN),
    Site("ingest", "parse_rdns", SPAN),
    Site("ingest", "parse_registry", SPAN),
    Site("ingest", "parse_pop_table", SPAN),
    Site("filtering", "run_pipeline", SPAN, _count_pipeline, (
        "filtering.stage.accepted_asn_stage", "filtering.stage.accepted_strict", "filtering.stage.accepted_relaxed",
        "filtering.stage.rejected", "filtering.strict_prefixes", "filtering.total_prefixes")),
    Site("filtering", "group_prefix24", SPAN),
    Site("filtering", "strict_filter", HOT),
    Site("filtering", "relaxed_filter", HOT),
    Site("profiling", "access_latency", HOT),
    Site("profiling", "percentile", HOT),
    Site("profiling", "flag_asn_anomalies", SPAN),
    Site("profiling", "kde", SPAN),
    Site("profiling", "modes", SPAN),
    Site("metrics", "session_metrics", HOT),
    Site("metrics", "compare_groups", SPAN),
    Site("metrics", "daily_median_series", SPAN),
    Site("metrics", "summarize", SPAN),
    Site("starlink", "build_pop_timeline", SPAN, _count_len("starlink.assignments"), ("starlink.assignments",)),
    Site("starlink", "detect_changes", SPAN, _count_len("starlink.events"), ("starlink.events",)),
    Site("bgp", "build_graph", SPAN, _count_graph, ("bgp.peers", "bgp.edges")),
    Site("bgp", "graph_to_dot", SPAN),
    Site("bgp", "snapshot_diff", SPAN),
    Site("bgp", "coverage_score", SPAN),
    Site("synth", "gen_corpus", SPAN),
    Site("synth", "gen_traceroute_series", SPAN),
    Site("util", "atomic_write", WRITER),
    Site("util", "sha256_file", HOT),
)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.hot_calls: Counter = Counter()
        self.hot_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.notes: list[str] = []
        # Metric-name prefixes of sites the package no longer has.
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._hot_depth = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()

    def hot(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        self._hot_depth += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._charge(name, self.clock() - start)

    def _charge(self, name: str, seconds: float) -> None:
        self._hot_depth -= 1
        self.hot_calls[name] += 1
        self.hot_s[name] += seconds
        if self._hot_depth == 0 and self._stack:
            self.spans[self._stack[-1]].hot_s += seconds

    # -- wrappers

    def _wrap(self, site: Site, fn: Callable[..., Any]) -> Callable[..., Any]:
        name, observe, counts = site.name, site.observe, self.counts
        if site.kind == HOT:
            def hot_wrapper(*args: Any, **kwargs: Any) -> Any:
                result = self.hot(name, fn, *args, **kwargs)
                if name == "util.sha256_file":
                    counts[name + ".bytes"] += os.path.getsize(args[0])
                return result

            return hot_wrapper
        if site.kind == STREAM:
            def stream_wrapper(source: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
                if isinstance(source, (str, os.PathLike)):
                    counts[name + ".bytes"] += os.path.getsize(source)
                return self._stream(name, fn(source, *args, **kwargs))

            return stream_wrapper
        if site.kind == WRITER:
            def writer_wrapper(path: Any, *args: Any, **kwargs: Any) -> "_TimedWrite":
                return _TimedWrite(self, name, fn(path, *args, **kwargs), path)

            return writer_wrapper

        def span_wrapper(*args: Any, **kwargs: Any) -> Any:
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(counts, result)
            return result

        return span_wrapper

    def _stream(self, name: str, items: Iterator[Any]) -> Iterator[Any]:
        counts = self.counts
        while True:
            try:
                item = self.hot(name, next, items)
            except StopIteration:
                return
            if type(item).__name__ == "RecordError":
                counts[name + ".errors"] += 1
            else:
                counts[name + ".records"] += 1
            yield item

    # -- installation

    def install(self) -> None:
        """Wrap every site in every loaded snoscope module that references it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "snoscope" or n.startswith("snoscope.")]
        for site in SITES:
            home = sys.modules.get(f"snoscope.{site.module}")
            original = getattr(home, site.function, None)
            if original is None:
                if site.name + "." not in self.absent:
                    self.notes.append(f"{site.name} not found; its metrics are absent")
                    self.absent += [site.name + ".", *site.counters]
                continue
            for counter in site.counters:
                self.counts[counter] += 0  # present even when nothing is counted
            wrapper = self._wrap(site, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: .s, .self_s and .calls for spans, .s and .calls for hot calls, plus counts."""
        out: dict[str, float] = {}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            out[span.name + ".s"] = out.get(span.name + ".s", 0.0) + (span.end - span.start)
            out[span.name + ".self_s"] = out.get(span.name + ".self_s", 0.0) + self_s
            out[span.name + ".calls"] = out.get(span.name + ".calls", 0) + 1
        for name, seconds in self.hot_s.items():
            out[name + ".s"] = seconds
            out[name + ".calls"] = self.hot_calls[name]
        for name, count in self.counts.items():
            out[name] = count
        return out


class _TimedWrite:
    """atomic_write's context manager with its enter, writes and exit timed as hot calls."""

    def __init__(self, tracer: Tracer, name: str, inner: Any, path: Any):
        self.tracer, self.name, self.inner, self.path = tracer, name, inner, path

    def __enter__(self) -> "_TimedHandle":
        handle = self.tracer.hot(self.name, self.inner.__enter__)
        return _TimedHandle(self.tracer, self.name, handle)

    def __exit__(self, *exc: Any) -> Any:
        result = self.tracer.hot(self.name, self.inner.__exit__, *exc)
        if exc[0] is None:
            self.tracer.counts[self.name + ".bytes"] += os.path.getsize(self.path)
        return result


class _TimedHandle:
    def __init__(self, tracer: Tracer, name: str, handle: Any):
        self._tracer, self._name, self._handle = tracer, name, handle

    def write(self, text: str) -> int:
        return self._tracer.hot(self._name, self._handle.write, text)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._handle, attr)
