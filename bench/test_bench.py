"""Tests of the benchmark itself, at small input sizes.

Run with:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from persistick import cli, core, powerlaw, rolling, spectrum  # noqa: E402
from persistick.ingest import InstrumentSpec, parse_ticks  # noqa: E402
from tracing import Tracer  # noqa: E402

SCALE = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")


def _run(name: str, trace: bool = False) -> dict:
    return run.run_workload(name, seed=3, seconds=0.2, trace=trace, scale=SCALE)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_printed_metrics_match_benchmark_json(name, trace):
    proc = _run_cli(
        "--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", trace,
        "--scale", str(SCALE),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "quotes_cli", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs(tmp_path):
    a = gen.write_quotes(str(tmp_path / "a.csv"), 500, seed=9)
    b = gen.write_quotes(str(tmp_path / "b.csv"), 500, seed=9)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.array_equal(gen.plateau_walk(1000, 4)[1], gen.plateau_walk(1000, 4)[1])


def test_mid_ticks_round_half_to_even():
    bid = np.array([100, 100, 100, 105, 95, 99_995], dtype=np.int64)
    ask = np.array([110, 120, 130, 115, 105, 100_005], dtype=np.int64)
    expected = [
        round(Fraction(int(b + a), 2 * gen.UNITS_PER_TICK)) for b, a in zip(bid, ask)
    ]
    assert gen.mid_ticks(bid, ask).tolist() == expected
    # 210/20 = 10.5 -> 10 and 250/20 = 12.5 -> 12 exercise both tie directions.
    assert expected[0] == 10 and expected[2] == 12


def test_quote_file_matches_ground_truth(tmp_path):
    path = tmp_path / "q.csv"
    times, mids = gen.write_quotes(str(path), 3000, seed=2)
    with open(path) as f:
        samples = parse_ticks(f, InstrumentSpec(gen.TICK))
    assert [s.time for s in samples] == times.tolist()
    assert [s.value for s in samples] == mids.tolist()
    rows = [line.split(",") for line in path.read_text().splitlines()]
    units = np.array([[int(b.replace(".", "")), int(a.replace(".", ""))] for _, b, a in rows])
    ties = units.sum(axis=1) % (2 * gen.UNITS_PER_TICK) == gen.UNITS_PER_TICK
    assert ties.mean() > 0.02


def _swap_job(monkeypatch, name: str, corrupt) -> None:
    base = workloads.WORKLOADS[name]

    class Corrupted(base):
        def job(self, tracer):
            n = super().job(tracer)
            corrupt(self)
            return n

    monkeypatch.setitem(workloads.WORKLOADS, name, Corrupted)


def _flip_byte(wl) -> None:
    path = Path(wl.out) / "pairs.csv"
    data = bytearray(path.read_bytes())
    i = data.index(b"\n") + 25  # inside the first data row
    while not chr(data[i]).isdigit():
        i += 1
    data[i] = ord("0") + (data[i] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


def _wrong_window(wl) -> None:
    points = wl.result["rolling"]
    mid = len(points) // 2
    points[mid] = dataclasses.replace(points[mid], pair_count=points[mid].pair_count + 1)


def _drop_pair(wl) -> None:
    wl.final.pairs.pop()


@pytest.mark.parametrize(
    "name, corrupt",
    [("quotes_cli", _flip_byte), ("walk_scaling", _wrong_window), ("stream_ticks", _drop_pair)],
)
def test_corrupted_output_counts_as_error(monkeypatch, name, corrupt):
    _swap_job(monkeypatch, name, corrupt)
    result = _run(name)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_nonzero_exit_code_counts_as_error(monkeypatch):
    monkeypatch.setattr(workloads.QuotesCli, "_argv",
                        lambda self, path, out: ["decompose", path, "--tick", "0", "--out", out])
    monkeypatch.setattr(workloads.QuotesCli, "setup", lambda self: gen.write_quotes(
        self.input, self.n, self.seed))
    monkeypatch.setattr(workloads.QuotesCli, "prepare_checks", lambda self: None)
    result = _run("quotes_cli")
    assert result["failed"] == result["attempted"] >= 1


def _wrapped_callables() -> list:
    return [cli.parse_ticks, cli.decompose, core.decompose, rolling.decompose,
            core.Decomposition.__dict__["pairs"], core.Decomposer.finish,
            powerlaw.fit, rolling.fit, rolling.rolling_fit,
            spectrum.histogram, spectrum.spectrum]


def test_tracer_restores_every_wrapped_callable(tmp_path):
    before = _wrapped_callables()
    wl = workloads.WalkScaling(str(tmp_path), seed=1, scale=SCALE)
    wl.setup()
    tracer = Tracer()
    with tracer.job(0):
        assert _wrapped_callables() != before
        wl.job(tracer)
    assert _wrapped_callables() == before
    m = tracer.job_metrics(0)
    assert m["rolling.windows"] == len(wl.result["rolling"])
    assert m["core.decompose_calls"] == m["rolling.windows"] + 1
    assert m["powerlaw.fit_calls"] == m["rolling.windows"] + 1
    assert 0 < m["rolling.self_s"] < m["trace.job_s"]
