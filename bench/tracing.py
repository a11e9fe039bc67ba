"""In-memory spans around persistick's public callables, for traced runs.

Nothing here touches the package source: the tracer swaps each callable
for a wrapper at the module attribute where its caller looks it up (for
example persistick.cli.parse_ticks, not persistick.ingest.parse_ticks)
and puts the original back on exit.  Spans hold name, start, end, parent
span, job id and one work count; per-layer metrics are derived from them
after the run.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
from time import perf_counter

import numpy as np

from persistick import cli, core, powerlaw, rolling, spectrum

# Span fields, by index.
NAME, START, END, PARENT, JOB, COUNT = range(6)

# Layer metric -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "ingest.parse_s": "s",
    "ingest.rows": "count",
    "ingest.rows_per_s": "1/s",
    "ingest.share": "ratio",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "core.pairs_view_s": "s",
    "core.pairs_viewed": "count",
    "core.decompose_s": "s",
    "core.decompose_calls": "count",
    "core.samples_in": "count",
    "core.pairs_out": "count",
    "rolling.self_s": "s",
    "rolling.windows": "count",
    "rolling.ok_ratio": "ratio",
    "rolling.redecompose_ratio": "ratio",
    "powerlaw.fit_s": "s",
    "powerlaw.fit_calls": "count",
    "powerlaw.distinct_sizes": "count",
    "powerlaw.insufficient_tail": "count",
    "spectrum.histogram_s": "s",
    "spectrum.spectrum_s": "s",
    "core.push_s": "s",
    "core.finish_s": "s",
    "core.finish_pairs_copied": "count",
    "core.burst_p50_ms": "ms",
    "core.burst_p99_ms": "ms",
    "runtime.gc_s": "s",
    "runtime.gc_gen2": "count",
    "trace.job_s": "s",
    "trace.overhead": "ratio",
}


class NullTracer:
    """Stand-in for untraced jobs: every hook is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Collects spans and counters for the jobs run inside job()."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[tuple[int, str], float] = {}
        self._open: list[int] = []
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._job, 0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[COUNT] = count
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def add(self, name: str, value: float) -> None:
        key = (self._job, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.add("runtime.gc_s", perf_counter() - self._gc_start)
        if info["generation"] == 2:
            self.add("runtime.gc_gen2", 1)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                n = count(args, result) if count else 0
                return result
            finally:
                self._end(idx, n)

        return wrapper

    def _wrap_fit(self, fn):
        def wrapper(data, *args, **kwargs):
            idx = self._begin("powerlaw.fit")
            try:
                return fn(data, *args, **kwargs)
            except powerlaw.InsufficientTailError:
                self.add("powerlaw.insufficient_tail", 1)
                raise
            finally:
                self._end(idx)
                # Counting candidates is the tracer's own work: give it a
                # span so it is charged to neither fit nor its caller.
                with self.span("trace.bookkeeping"):
                    self.add("powerlaw.distinct_sizes", _distinct_sizes(data))

        return wrapper

    def _patch(self, obj, attr: str, new) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Trace one job: install every wrapper, restore them afterwards."""
        self._job = job_id

        def decompose_count(args, result) -> int:
            self.add("core.pairs_out", result.pair_count)
            return len(args[0])

        def rolling_count(args, points) -> int:
            self.add("rolling.ok", sum(p.status == "ok" for p in points))
            self.add("rolling.series_len", len(args[0]))
            return len(points)

        decompose = self._wrap("core.decompose", core.decompose, decompose_count)
        self._patch(cli, "parse_ticks", self._wrap(
            "ingest.parse_ticks", cli.parse_ticks, lambda a, r: len(r)
        ))
        self._patch(cli, "decompose", decompose)
        self._patch(core, "decompose", decompose)
        self._patch(rolling, "decompose", decompose)
        self._patch(core.Decomposition, "pairs", property(self._wrap(
            "core.pairs", core.Decomposition.pairs.fget, lambda a, r: len(r)
        )))
        self._patch(core.Decomposer, "finish", self._wrap(
            "core.finish", core.Decomposer.finish, lambda a, r: r.pair_count
        ))
        fit = self._wrap_fit(powerlaw.fit)
        self._patch(powerlaw, "fit", fit)
        self._patch(rolling, "fit", fit)
        self._patch(rolling, "rolling_fit", self._wrap(
            "rolling.rolling_fit", rolling.rolling_fit, rolling_count
        ))
        self._patch(spectrum, "histogram", self._wrap("spectrum.histogram", spectrum.histogram))
        self._patch(spectrum, "spectrum", self._wrap("spectrum.spectrum", spectrum.spectrum))
        gc.callbacks.append(self._on_gc)
        try:
            with self.span("job"):
                yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            while self._patched:
                obj, attr, original = self._patched.pop()
                setattr(obj, attr, original)
            self._job = -1

    # -- reporting ---------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for name, start, end, parent, job, count in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "count": count,
                }) + "\n")

    def job_metrics(self, job_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced job, bursts excepted."""
        mine = [i for i, s in enumerate(self.spans) if s[JOB] == job_id]
        child_s: dict[int, float] = {}
        for i in mine:
            s = self.spans[i]
            if s[PARENT] >= 0:
                child_s[s[PARENT]] = child_s.get(s[PARENT], 0.0) + s[END] - s[START]

        def spans(name: str, parent: str | None = None) -> list[int]:
            return [
                i for i in mine
                if self.spans[i][NAME] == name
                and (parent is None or self.spans[self.spans[i][PARENT]][NAME] == parent)
            ]

        def seconds(name: str) -> float:
            return sum(self.spans[i][END] - self.spans[i][START] for i in spans(name))

        def self_seconds(name: str) -> float:
            # Siblings never overlap in one thread, so the part of a span
            # its children cover is the sum of their durations.
            return seconds(name) - sum(child_s.get(i, 0.0) for i in spans(name))

        def count(name: str, parent: str | None = None) -> int:
            return sum(self.spans[i][COUNT] for i in spans(name, parent))

        def counter(name: str) -> float:
            return self.counters.get((job_id, name), 0)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        job_s = seconds("job")
        parse_s = seconds("ingest.parse_ticks")
        rows = count("ingest.parse_ticks")
        windows = count("rolling.rolling_fit")
        return {
            "ingest.parse_s": parse_s,
            "ingest.rows": rows,
            "ingest.rows_per_s": ratio(rows, parse_s),
            "ingest.share": ratio(parse_s, job_s),
            "cli.self_s": self_seconds("cli.main"),
            "cli.bytes_written": counter("cli.bytes_written"),
            "core.pairs_view_s": seconds("core.pairs"),
            "core.pairs_viewed": count("core.pairs"),
            "core.decompose_s": seconds("core.decompose"),
            "core.decompose_calls": len(spans("core.decompose")),
            "core.samples_in": count("core.decompose"),
            "core.pairs_out": counter("core.pairs_out"),
            "rolling.self_s": self_seconds("rolling.rolling_fit"),
            "rolling.windows": windows,
            "rolling.ok_ratio": ratio(counter("rolling.ok"), windows),
            "rolling.redecompose_ratio": ratio(
                count("core.decompose", parent="rolling.rolling_fit"),
                counter("rolling.series_len"),
            ),
            "powerlaw.fit_s": seconds("powerlaw.fit"),
            "powerlaw.fit_calls": len(spans("powerlaw.fit")),
            "powerlaw.distinct_sizes": counter("powerlaw.distinct_sizes"),
            "powerlaw.insufficient_tail": counter("powerlaw.insufficient_tail"),
            "spectrum.histogram_s": seconds("spectrum.histogram"),
            "spectrum.spectrum_s": seconds("spectrum.spectrum"),
            "core.push_s": seconds("core.push"),
            "core.finish_s": seconds("core.finish"),
            "core.finish_pairs_copied": count("core.finish"),
            "runtime.gc_s": counter("runtime.gc_s"),
            "runtime.gc_gen2": counter("runtime.gc_gen2"),
            "trace.job_s": job_s,
        }


def _distinct_sizes(data) -> int:
    """Distinct sizes in whatever powerlaw.fit accepts: its cutoff candidates."""
    if isinstance(data, spectrum.SizeHistogram):
        return len(data.entries)
    sizes = data.sizes() if isinstance(data, core.Decomposition) else np.asarray(data)
    return int(np.unique(sizes).size)


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
