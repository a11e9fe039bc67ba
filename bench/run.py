"""Benchmark for persistick: three workloads, end-to-end and per-layer metrics.

Run one workload (the last stdout line is one JSON result):

    python3 bench/run.py --workload quotes_cli --seed 0 --seconds 30 --trace 0

or all of them, each in a fresh process, with a table of every metric:

    python3 bench/run.py

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  --trace 1 alternates traced and untraced jobs and reports
the per-layer metrics of the traced ones, plus the tracing overhead
against the untraced ones.  The package is imported from src/ of the
checkout this file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
PINS = BENCH_DIR / "pinned_sha256.json"
WORKLOAD_NAMES = ("quotes_cli", "walk_scaling", "stream_ticks")
# Output bytes are pinned for this seed at full size.
PINNED_SEED = 0
# setup_s is the median of this many set-ups in one run.
SETUPS = 3

END_TO_END_UNITS = {"samples_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """Set up, run jobs for about `seconds`, check each one, and report."""
    # Imported here because both need src/ on sys.path, which main() adds.
    from tracing import NULL_TRACER, PER_LAYER_UNITS, Tracer, median_metrics
    from workloads import WORKLOADS

    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](str(workdir), seed, scale)
        setup_s = []
        for _ in range(SETUPS):
            t0 = perf_counter()
            wl.setup()
            setup_s.append(perf_counter() - t0)
        peak_rss_mb = None
        pins = None
        if seed == PINNED_SEED and scale == 1.0:
            pins = json.loads(PINS.read_text())[name]

        tracer = Tracer() if trace else None
        jobs: list[dict] = []
        while True:
            traced = trace and len(jobs) % 2 == 0
            gc.collect()
            t0 = perf_counter()
            try:
                if traced:
                    with tracer.job(len(jobs)):
                        samples = wl.job(tracer)
                else:
                    samples = wl.job(NULL_TRACER)
                problems = None
            except Exception:
                problems = [traceback.format_exc()]
                samples = wl.n
            elapsed = perf_counter() - t0
            if peak_rss_mb is None:
                # Peak memory covers set-up and one job; expected outputs
                # are built only after it is read, so they do not count.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                wl.prepare_checks()
            if problems is None:
                try:
                    problems = wl.check()
                    if pins is not None and wl.outputs_sha256() != pins:
                        problems.append(f"output sha256 {wl.outputs_sha256()} != pinned {pins}")
                except Exception:
                    problems = [traceback.format_exc()]
            for p in problems:
                print(f"job {len(jobs)} failed: {p}", file=sys.stderr)
            jobs.append({
                "s": elapsed,
                "samples_per_s": samples / elapsed,
                "traced": traced,
                "failed": bool(problems),
                "bursts": getattr(wl, "latencies", []),
            })
            spent = sum(j["s"] for j in jobs)
            typical = statistics.median(j["s"] for j in jobs)
            if spent + typical / 2 > seconds and len(jobs) >= (2 if trace else 1):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(j["failed"] for j in jobs)
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed}
    untraced = [j for j in jobs if not j["traced"]]
    if trace:
        WORK_DIR.mkdir(exist_ok=True)
        tracer.write(str(WORK_DIR / f"spans-{name}-seed{seed}.jsonl"))
        traced_jobs = [i for i, j in enumerate(jobs) if j["traced"]]
        values = median_metrics([tracer.job_metrics(i) for i in traced_jobs])
        bursts = [b for i in traced_jobs for b in jobs[i]["bursts"]]
        values["core.burst_p50_ms"] = _percentile(bursts, 0.5) * 1e3 if bursts else 0.0
        values["core.burst_p99_ms"] = _percentile(bursts, 0.99) * 1e3 if bursts else 0.0
        values["trace.overhead"] = (
            values["trace.job_s"] / statistics.median(j["s"] for j in untraced) - 1
        )
        units = PER_LAYER_UNITS
    else:
        values = {
            "samples_per_s": statistics.median(j["samples_per_s"] for j in jobs),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }
        units = END_TO_END_UNITS
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    print(f"{name}: {len(jobs)} jobs, error_rate {failed / len(jobs):g} ({failed}/{len(jobs)})")
    print("  job_s " + " ".join(f"{j['s']:.3f}{'*' if j['traced'] else ''}" for j in jobs))
    for metric, m in result["metrics"].items():
        print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
    bursts = [b for j in untraced for b in j["bursts"]]
    if bursts:
        # Untraced burst latency of stream_ticks: shown here, not gated.
        for metric, q in (("burst_p50_ms", 0.5), ("burst_p99_ms", 0.99)):
            value = _percentile(bursts, q) * 1e3
            print(f"  {metric:28s} {value:14.6g} ms ({len(bursts)} bursts)")
    return result


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own fresh process and print one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark process exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size as a share of full size (tests)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "persistick" / "__init__.py").is_file():
        print(f"error: no persistick package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
