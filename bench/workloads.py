"""The three benchmark workloads: set-up, one timed job, and output checks.

Each workload is a closed loop with one caller: the next job starts only
after the previous one returned and was checked.  setup() is timed as
setup_s; prepare_checks() and check() run outside every timed region.
check() returns the problems found in the last job's outputs; an empty
list means the job passed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from time import perf_counter

import numpy as np
from persistick import cli, core, powerlaw, rolling, spectrum
from persistick.oracle import decomposition_digest

import gen
from tracing import NULL_TRACER

DAY_NS = 24 * 3600 * 10**9


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class QuotesCli:
    """persistick decompose on a generated bid/ask quote file, in process."""

    name = "quotes_cli"
    rows = 10**6

    def __init__(self, workdir: str, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.n = max(1000, round(self.rows * scale))
        self.input = os.path.join(workdir, "quotes.csv")
        self.out = os.path.join(workdir, "out")
        self.warm_input = os.path.join(workdir, "warm.csv")
        self.warm_out = os.path.join(workdir, "warm_out")
        for d in (self.out, self.warm_out):
            os.makedirs(d, exist_ok=True)

    def _argv(self, path: str, out: str) -> list[str]:
        return ["decompose", path, "--tick", gen.TICK, "--out", out]

    def setup(self) -> None:
        self.times, self.mids = gen.write_quotes(self.input, self.n, self.seed)
        gen.write_quotes(self.warm_input, self.n // 100, self.seed + 1)
        if cli.main(self._argv(self.warm_input, self.warm_out)) != 0:
            raise RuntimeError("warm-up run of persistick decompose failed")

    def prepare_checks(self) -> None:
        """Expected outputs from the generator's own ticks, not from ingest."""
        dec = core.decompose(self.mids, self.times)
        self.expected_pairs = np.array(
            [
                (p.minimum.time, p.minimum.value, p.maximum.time, p.maximum.value, p.size)
                for p in dec.pairs
            ],
            dtype=np.int64,
        ).reshape(-1, 5)
        top = [(e.time, e.value, "min" if e.kind < 0 else "max") for e in dec.top.extrema]
        top.append((dec.top.pending.time, dec.top.pending.value, "pending"))
        self.expected_top = ["time,value,kind"] + [f"{t},{v},{k}" for t, v, k in top]
        self.expected_summary = (dec.pair_count, dec.tv_total, dec.tv_top)

    def job(self, tracer) -> int:
        shutil.rmtree(self.out)
        os.mkdir(self.out)
        with tracer.span("cli.main"):
            code = cli.main(self._argv(self.input, self.out))
        if code != 0:
            raise RuntimeError(f"persistick decompose exited with code {code}")
        tracer.add("cli.bytes_written", sum(
            os.path.getsize(os.path.join(self.out, f)) for f in os.listdir(self.out)
        ))
        return self.n

    def _read(self, name: str) -> bytes:
        with open(os.path.join(self.out, name), "rb") as f:
            return f.read()

    def check(self) -> list[str]:
        problems = []
        self.outputs = {f: self._read(f) for f in ("pairs.csv", "top.csv", "summary.csv")}
        header, _, body = self.outputs["pairs.csv"].decode().partition("\n")
        pairs = np.array(body.replace(",", " ").split(), dtype=np.int64).reshape(-1, 5)
        if header != "t_min,v_min,t_max,v_max,size":
            problems.append(f"pairs.csv header is {header!r}")
        if not np.array_equal(pairs[:, 4], pairs[:, 3] - pairs[:, 1]):
            problems.append("pairs.csv: a size is not v_max - v_min")
        if not np.array_equal(pairs, self.expected_pairs):
            problems.append("pairs.csv differs from decompose of the generated ticks")
        summary = self.outputs["summary.csv"].decode().split("\n")
        count, tv_total, tv_top = (int(x) for x in summary[1].split(","))
        if tv_total != tv_top + 2 * int(pairs[:, 4].sum()):
            problems.append("summary.csv: tv_total != tv_top + sum(2 * size) over pairs.csv")
        if (count, tv_total, tv_top) != self.expected_summary:
            problems.append("summary.csv differs from the generated ticks' decomposition")
        if self.outputs["top.csv"].decode().splitlines() != self.expected_top:
            problems.append("top.csv differs from the generated ticks' decomposition")
        return problems

    def outputs_sha256(self) -> dict[str, str]:
        return {name: _sha256(data) for name, data in self.outputs.items()}


class WalkScaling:
    """A library session on an in-memory Gaussian walk, ending in rolling fits."""

    name = "walk_scaling"
    samples = 10**6
    config = rolling.RollingConfig(window=8 * gen.WEEK_NS, step=DAY_NS)

    def __init__(self, workdir: str, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.n = max(1000, round(self.samples * scale))

    def _session(self, values: np.ndarray, times: np.ndarray) -> dict:
        dec = core.decompose(values, times)
        hist = spectrum.histogram(dec)
        spec = spectrum.spectrum(hist)
        fitted = powerlaw.fit(hist)
        points = rolling.rolling_fit(values, times, self.config)
        return {
            "tv": (dec.tv_total, dec.tv_top, dec.pair_count, dec.pair_variation()),
            "histogram": hist,
            "spectrum": spec,
            "fit": fitted,
            "rolling": points,
        }

    def setup(self) -> None:
        self.times, self.values = gen.gauss_walk(self.n, self.seed)
        # Warm up on the prefix that holds three windows.
        m = int(np.searchsorted(self.times, self.times[0] + self.config.window + 2 * DAY_NS))
        self._session(self.values[:m], self.times[:m])

    def prepare_checks(self) -> None:
        span = int(self.times[-1] - self.times[0])
        self.expected_windows = (span - self.config.window) // self.config.step + 1

    def job(self, tracer) -> int:
        self.result = self._session(self.values, self.times)
        return self.n

    def _standalone(self, i: int) -> rolling.RollingPoint:
        end = int(self.times[0]) + self.config.window + i * self.config.step
        lo = int(np.searchsorted(self.times, end - self.config.window, side="left"))
        hi = int(np.searchsorted(self.times, end, side="right"))
        dec = core.decompose(self.values[lo:hi], self.times[lo:hi])
        try:
            fitted = powerlaw.fit(dec, min_tail=self.config.min_tail)
        except powerlaw.InsufficientTailError:
            return rolling.RollingPoint(end, None, dec.pair_count, "insufficient_tail")
        return rolling.RollingPoint(end, fitted, dec.pair_count, "ok")

    def check(self) -> list[str]:
        r = self.result
        problems = []
        tv_total, tv_top, _, pair_variation = r["tv"]
        if tv_total != tv_top + pair_variation:
            problems.append("tv_total != tv_top + sum(2 * size)")
        if r["spectrum"].total() != pair_variation:
            problems.append("spectrum total != variation carried by the pairs")
        points = r["rolling"]
        if len(points) != self.expected_windows:
            problems.append(f"{len(points)} windows, expected {self.expected_windows}")
        for i in sorted({0, self.expected_windows // 2, self.expected_windows - 1}):
            if i >= len(points) or points[i] != self._standalone(i):
                problems.append(f"window {i} differs from a standalone decompose + fit")
        return problems

    def outputs_sha256(self) -> dict[str, str]:
        r = self.result
        lines = [repr(r["tv"]), repr(sorted(r["histogram"].entries.items()))]
        lines.append(repr(r["spectrum"].points))
        lines.append(repr(r["fit"]))
        lines += [repr(p) for p in r["rolling"]]
        return {"session": _sha256("\n".join(lines).encode())}


class StreamTicks:
    """One Decomposer fed a plateau-heavy walk in bursts, snapshotting after each."""

    name = "stream_ticks"
    samples = 2 * 10**6
    burst = 2000

    def __init__(self, workdir: str, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.n = max(20 * self.burst, round(self.samples * scale))

    def setup(self) -> None:
        self.times, self.values = gen.plateau_walk(self.n, self.seed)
        self._feed(20 * self.burst, NULL_TRACER)

    def prepare_checks(self) -> None:
        self.expected_digest = decomposition_digest(core.decompose(self.values, self.times))
        steps = np.abs(np.diff(self.values))
        prefix = np.concatenate(([0], np.cumsum(steps)))
        ends = np.arange(self.burst, self.n + self.burst, self.burst).clip(max=self.n) - 1
        self.expected_tv = prefix[ends].tolist()

    def _feed(self, n: int, tracer) -> None:
        """Push the first n samples in bursts; snapshot and time each burst.

        The input stays in arrays and each burst is turned into Python
        ints as it arrives, so the input adds little to peak memory.
        """
        dec = core.Decomposer()
        push = dec.push
        self.latencies: list[float] = []
        self.tv_totals: list[int] = []
        self.final = None  # drop the previous job's snapshot before this job
        for a in range(0, n, self.burst):
            t0 = perf_counter()
            ts = self.times[a : a + self.burst].tolist()
            vs = self.values[a : a + self.burst].tolist()
            with tracer.span("core.push"):
                for sample in zip(ts, vs):
                    push(sample)
            self.final = dec.finish()
            self.latencies.append(perf_counter() - t0)
            self.tv_totals.append(self.final.tv_total)

    def job(self, tracer) -> int:
        self._feed(self.n, tracer)
        return self.n

    def check(self) -> list[str]:
        problems = []
        self.digest = decomposition_digest(self.final)
        if self.digest != self.expected_digest:
            problems.append("final snapshot digest differs from batch decompose")
        if self.tv_totals != self.expected_tv:
            problems.append("a snapshot's tv_total differs from the input's prefix variation")
        return problems

    def outputs_sha256(self) -> dict[str, str]:
        return {
            "final_digest": self.digest,
            "tv_totals": _sha256(repr(self.tv_totals).encode()),
        }


WORKLOADS = {w.name: w for w in (QuotesCli, WalkScaling, StreamTicks)}
