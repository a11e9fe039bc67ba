"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from persistick import cli
from persistick.cli import _parse_duration, _parse_xmin_range, main
from persistick.core import Sample, decompose
from persistick.ingest import InstrumentSpec, build_continuous, parse_ticks, RollRule
from persistick.oracle import gen_random_walk
from persistick.powerlaw import fit
from persistick.rolling import DAY_NS, WEEK_NS

REFERENCE_VALUES = [3, 6, 0, 7, 2, 5, 4, 8]


def write_reference_csv(path: Path) -> None:
    rows = [f"{t},1.{2000 + v:04d}" for t, v in enumerate(REFERENCE_VALUES)]
    path.write_text("\n".join(rows) + "\n")


def write_walk_csv(path: Path, n: int, seed: int, flat: int = 0) -> np.ndarray:
    _, v = gen_random_walk(n, seed=seed, kind="pm1")
    if flat:
        _, w = gen_random_walk(n, seed=seed + 1, kind="pm1", start=int(v[-1]))
        v = np.concatenate([v, np.full(flat, v[-1], dtype=np.int64), w])
    cents = 12345 + v
    rows = [
        f"{i * 10**9},{c // 100}.{c % 100:02d}" for i, c in enumerate(cents.tolist())
    ]
    path.write_text("\n".join(rows) + "\n")
    return v


def run(*argv: str) -> int:
    return main(list(argv))


class TestHelpers:
    def test_parse_duration(self):
        assert _parse_duration("8w") == 8 * WEEK_NS
        assert _parse_duration("56d") == 56 * DAY_NS
        assert _parse_duration("12h") == 12 * 3600 * 10**9
        assert _parse_duration("3600000000000ns") == 3_600_000_000_000
        assert _parse_duration("8") == 8 * WEEK_NS

    def test_parse_xmin_range(self):
        assert _parse_xmin_range("5:40") == (5, 40)


class TestDecompose:
    def test_csv_outputs(self, tmp_path):
        src = tmp_path / "quotes.csv"
        write_reference_csv(src)
        rc = run(
            "decompose", str(src),
            "--tick", "0.0001", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 0
        assert (tmp_path / "pairs.csv").read_text() == (
            "t_min,v_min,t_max,v_max,size\n"
            "6,12004,5,12005,1\n"
            "4,12002,3,12007,5\n"
        )
        assert (tmp_path / "top.csv").read_text() == (
            "time,value,kind\n"
            "0,12003,min\n"
            "1,12006,max\n"
            "2,12000,min\n"
            "7,12008,pending\n"
        )
        assert (tmp_path / "summary.csv").read_text() == (
            "pair_count,tv_total,tv_top\n2,29,17\n"
        )

    def test_failed_write_leaves_the_previous_set(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "quotes.csv"
        write_walk_csv(src, 500, seed=3)
        out = tmp_path / "out"
        out.mkdir()
        argv = ("decompose", str(src), "--tick", "0.01", "--columns", "time,price", "--out", str(out))
        assert run(*argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["pairs.csv", "summary.csv", "top.csv"]
        write_walk_csv(src, 700, seed=4)  # a new input, so every output would change
        real_open = open
        temps = []

        def fake_open(file, mode="r", *args, **kwargs):
            if mode == "x":  # a temp output file, not the input
                temps.append(file)
                if len(temps) == 2:  # top.csv, after pairs.csv was written
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        assert run(*argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not list(out.glob(".tmp-*"))
        monkeypatch.undo()
        assert run(*argv) == 0
        assert all((out / name).read_bytes() != data for name, data in before.items())

    def test_json_output(self, tmp_path):
        src = tmp_path / "quotes.csv"
        write_reference_csv(src)
        rc = run(
            "decompose", str(src), "--format", "json",
            "--tick", "0.0001", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 0
        doc = json.loads((tmp_path / "decompose.json").read_text())
        assert doc["summary"] == {"pair_count": 2, "tv_total": 29, "tv_top": 17}
        assert doc["pairs"][0] == {
            "t_min": 6, "v_min": 12004, "t_max": 5, "v_max": 12005, "size": 1,
        }
        assert [e["kind"] for e in doc["top"]["extrema"]] == ["min", "max", "min"]
        assert doc["top"]["pending"] == {"time": 7, "value": 12008}

    def test_json_bytes_equal_json_dumps(self, tmp_path):
        """The columnar JSON writer gives json.dumps' bytes for 0, 1 and many pairs."""
        series = {
            "empty": [],
            "none": [5, 6, 7],
            "one": [1, 5, 2, 6],
            "many": gen_random_walk(3_000, seed=4, kind="pm1")[1].tolist(),
        }
        for name, values in series.items():
            src = tmp_path / f"{name}.csv"
            src.write_text("".join(f"{t},{1000 + v}\n" for t, v in enumerate(values)))
            out = tmp_path / name
            out.mkdir()
            rc = run(
                "decompose", str(src), "--format", "json",
                "--tick", "1", "--columns", "time,price", "--out", str(out),
            )
            assert rc == 0
            dec = decompose(np.array(values, dtype=np.int64) + 1000)
            pending = dec.top.pending
            doc = {
                "pairs": [
                    {"t_min": p.minimum.time, "v_min": p.minimum.value,
                     "t_max": p.maximum.time, "v_max": p.maximum.value, "size": p.size}
                    for p in dec.pairs
                ],
                "top": {
                    "extrema": [
                        {"time": e.time, "value": e.value, "kind": "min" if e.kind < 0 else "max"}
                        for e in dec.top.extrema
                    ],
                    "pending": None if pending is None else {"time": pending.time, "value": pending.value},
                },
                "summary": {"pair_count": dec.pair_count, "tv_total": dec.tv_total, "tv_top": dec.tv_top},
            }
            want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
            assert (out / "decompose.json").read_text() == want, name
        assert len(doc["pairs"]) > 100

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        src = tmp_path / "quotes.csv"
        write_walk_csv(src, 2_000, seed=9)
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for out in (a, b):
            for fmt in ("csv", "json"):
                rc = run(
                    "decompose", str(src), "--format", fmt,
                    "--tick", "0.01", "--columns", "time,price", "--out", str(out),
                )
                assert rc == 0
        for name in ("pairs.csv", "top.csv", "summary.csv", "decompose.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_empty_input_succeeds_with_zero_summary(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        rc = run(
            "decompose", str(src),
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 0
        assert (tmp_path / "summary.csv").read_text() == (
            "pair_count,tv_total,tv_top\n0,0,0\n"
        )
        assert (tmp_path / "pairs.csv").read_text() == "t_min,v_min,t_max,v_max,size\n"
        assert (tmp_path / "top.csv").read_text() == "time,value,kind\n"

    # sha256 of decompose's outputs on the 1k-row fixture, as the
    # row-by-row Fraction parser and PersistentPair writer produced them.
    FIXTURE_SHA256 = {
        "pairs.csv": "1b58d7b5ab057e2f6bc1274ea2392b0d0138a6f564d20d11ed3cee51969e3778",
        "top.csv": "e373c3a212589de96dd3cf39b4beb29c8dca8044af43323f76f6707e2f8a221e",
        "summary.csv": "e19868770d51529f7f3932c891a4251b829c5e0c2504e5cf902b30fc7bd9138f",
        "decompose.json": "05893939f24e507831338be21129a03a35cd88dea40f5b9afab2f03eb361fcef",
    }

    def test_fixture_outputs_pinned(self, tmp_path):
        src = Path(__file__).parent / "data" / "quotes_1k.csv"
        for fmt in ("csv", "json"):
            argv = ["decompose", str(src), "--tick", "0.01", "--format", fmt]
            assert run(*argv, "--out", str(tmp_path)) == 0
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.FIXTURE_SHA256
        }
        assert got == self.FIXTURE_SHA256

    def test_pair_rows_written_in_slices_keep_their_bytes(self, tmp_path, monkeypatch):
        src = Path(__file__).parent / "data" / "quotes_1k.csv"
        names = ("pairs.csv", "top.csv", "summary.csv", "decompose.json")
        outputs = {}
        for rows in (None, 1, 3):
            if rows is not None:
                monkeypatch.setattr(cli, "_ROWS_PER_SLICE", rows)
            out = tmp_path / f"rows{rows}"
            out.mkdir()
            for fmt in ("csv", "json"):
                argv = ["decompose", str(src), "--tick", "0.01", "--format", fmt]
                assert run(*argv, "--out", str(out)) == 0
            outputs[rows] = [(out / name).read_bytes() for name in names]
        assert outputs[None][0].count(b"\n") > 4  # several slices of 3 rows
        assert outputs[1] == outputs[3] == outputs[None]

    def test_outputs_follow_the_umask(self, tmp_path):
        src = tmp_path / "quotes.csv"
        write_reference_csv(src)
        for mask in (0o022, 0o077):
            out = tmp_path / f"out{mask:o}"
            out.mkdir()
            old = os.umask(mask)
            try:
                rc = run(
                    "decompose", str(src),
                    "--tick", "0.0001", "--columns", "time,price", "--out", str(out),
                )
            finally:
                os.umask(old)
            assert rc == 0
            assert {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()} == dict.fromkeys(
                ("pairs.csv", "top.csv", "summary.csv"), 0o666 & ~mask
            )

    def test_module_entrypoint_smoke(self, tmp_path):
        src = tmp_path / "quotes.csv"
        write_reference_csv(src)
        proc = subprocess.run(
            [
                sys.executable, "-m", "persistick.cli",
                "decompose", str(src),
                "--tick", "0.0001", "--columns", "time,price", "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "summary.csv").exists()


class TestSpectrum:
    def test_rows_and_no_fit(self, tmp_path):
        src = tmp_path / "quotes.csv"
        write_reference_csv(src)
        for settings in ([], ["--min-tail", "1"], ["--xmin-range", "9:2"]):  # not read without a fit
            rc = run(
                "spectrum", str(src), "--no-fit", *settings,
                "--tick", "0.0001", "--columns", "time,price", "--out", str(tmp_path),
            )
            assert rc == 0
            assert (tmp_path / "spectrum.csv").read_text() == "m,n,S\n1,1,2\n5,1,10\n"
            assert not (tmp_path / "fit_overlay.csv").exists()

    def test_fit_overlay_written(self, tmp_path):
        src = tmp_path / "quotes.csv"
        write_walk_csv(src, 30_000, seed=12)
        rc = run(
            "spectrum", str(src),
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 0
        overlay = (tmp_path / "fit_overlay.csv").read_text().splitlines()
        assert overlay[0] == "m,S_model"
        ms = [int(line.split(",")[0]) for line in overlay[1:]]
        assert ms == list(range(ms[0], ms[0] + len(ms)))  # dense grid
        assert all(float(line.split(",")[1]) > 0 for line in overlay[1:])

    def test_small_input_fit_fails_but_spectrum_written(self, tmp_path, capsys):
        src = tmp_path / "quotes.csv"
        write_reference_csv(src)
        rc = run(
            "spectrum", str(src),
            "--tick", "0.0001", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 3
        assert (tmp_path / "spectrum.csv").exists()
        assert "error:" in capsys.readouterr().err


class TestFit:
    def test_json_matches_library(self, tmp_path):
        src = tmp_path / "quotes.csv"
        v = write_walk_csv(src, 30_000, seed=12)
        rc = run(
            "fit", str(src),
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        f = fit(decompose(12345 + v, np.arange(v.size, dtype=np.int64) * 10**9))
        assert doc["xmin"] == f.xmin
        assert doc["alpha"] == f.alpha
        assert doc["count_exponent"] == f.count_exponent
        assert doc["ks_distance"] == f.ks_distance
        assert doc["n_tail"] == f.n_tail
        assert doc["amplitude"] == f.amplitude
        want = {
            "xmin": f.xmin,
            "count_exponent": f.count_exponent,
            "alpha": f.alpha,
            "ks_distance": f.ks_distance,
            "n_tail": f.n_tail,
            "amplitude": f.amplitude,
        }
        text = (tmp_path / "fit.json").read_text()
        assert text == json.dumps(want, sort_keys=True, indent=2) + "\n"

    def test_csv_format(self, tmp_path):
        src = tmp_path / "quotes.csv"
        v = write_walk_csv(src, 30_000, seed=12)
        rc = run(
            "fit", str(src), "--format", "csv",
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "fit.csv").read_text().splitlines()
        assert lines[0] == "xmin,count_exponent,alpha,ks_distance,n_tail,amplitude"
        assert len(lines) == 2
        f = fit(decompose(12345 + v, np.arange(v.size, dtype=np.int64) * 10**9))
        cells = (f.xmin, f.count_exponent, f.alpha, f.ks_distance, f.n_tail, f.amplitude)
        assert lines[1] == ",".join(map(repr, cells))

    def test_xmin_range_flag(self, tmp_path):
        src = tmp_path / "quotes.csv"
        write_walk_csv(src, 30_000, seed=12)
        rc = run(
            "fit", str(src), "--xmin-range", "3:3",
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 0
        assert json.loads((tmp_path / "fit.json").read_text())["xmin"] == 3

    def test_insufficient_tail_exit_code(self, tmp_path, capsys):
        src = tmp_path / "quotes.csv"
        write_reference_csv(src)
        rc = run(
            "fit", str(src),
            "--tick", "0.0001", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 3
        assert not (tmp_path / "fit.json").exists()
        assert "error:" in capsys.readouterr().err


class TestRolling:
    def test_windows_and_insufficient_rows(self, tmp_path):
        src = tmp_path / "quotes.csv"
        write_walk_csv(src, 20_000, seed=21, flat=40_000)
        rc = run(
            "rolling", str(src),
            "--window", "20000000000000ns", "--step", "20000000000000ns",
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "rolling.csv").read_text().splitlines()
        assert lines[0] == "window_end,alpha,xmin,n_tail,status"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[4] == "ok"
        assert float(first[1]) > 1.0
        for line in lines[2:]:
            cells = line.split(",")
            assert cells[1:] == ["", "", "", "insufficient_tail"]


class TestContinuous:
    def test_matches_library_splice(self, tmp_path):
        day = 86_400 * 10**9
        r1 = 1709942400 * 10**9  # 2024-03-09T00:00:00Z
        r2 = 1718409600 * 10**9  # 2024-06-15T00:00:00Z

        def write_contract(name, rows):
            p = tmp_path / name
            p.write_text("\n".join(f"{t},{v // 100}.{v % 100:02d}" for t, v in rows) + "\n")
            return p

        a = write_contract(
            "h24.csv",
            [(r1 - 2 * day, 10000), (r1 - day, 10004), (r1, 10003), (r1 + day, 10999)],
        )
        b = write_contract(
            "m24.csv",
            [(r1 - day, 9000), (r1, 9993), (r1 + day, 9995), (r2, 9996), (r2 + day, 10999)],
        )
        c = write_contract(
            "u24.csv", [(r2, 10000), (r2 + day, 9998), (r2 + 2 * day, 10003)]
        )
        cal = tmp_path / "calendar.csv"
        cal.write_text("H24,2024-03-15\nM24,2024-06-21\nU24,2024-09-20\n")

        rc = run(
            "continuous",
            f"H24={a}", f"M24={b}", f"U24={c}",
            "--tick", "0.01", "--columns", "time,price",
            "--calendar", str(cal), "--out", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "continuous.csv").read_text().splitlines()
        assert lines[0] == "time,value_ticks"
        got = [Sample(int(t), int(v)) for t, v in (ln.split(",") for ln in lines[1:])]

        spec = InstrumentSpec("0.01")
        series = []
        for cid, path in (("H24", a), ("M24", b), ("U24", c)):
            with open(path) as f:
                series.append((cid, parse_ticks(f, spec, columns="time,price")))
        rule = RollRule(
            [
                ("H24", date(2024, 3, 15)),
                ("M24", date(2024, 6, 21)),
                ("U24", date(2024, 9, 20)),
            ]
        )
        assert got == build_continuous(series, rule)

    def test_bad_contract_argument(self, tmp_path, capsys):
        cal = tmp_path / "calendar.csv"
        cal.write_text("H24,2024-03-15\n")
        rc = run(
            "continuous", "H24-no-equals-sign",
            "--tick", "0.01", "--calendar", str(cal), "--out", str(tmp_path),
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: contract argument 'H24-no-equals-sign' must be ID=FILE\n"

    def test_no_quote_after_the_roll(self, tmp_path, capsys):
        r1 = 1709942400 * 10**9  # H24's roll, 2024-03-09T00:00:00Z
        a, b = tmp_path / "h24.csv", tmp_path / "m24.csv"
        a.write_text(f"{r1 - 10**9},1.00\n{r1},1.01\n")
        b.write_text(f"{r1 - 10**9},1.00\n")  # nothing at or after the roll
        cal = tmp_path / "calendar.csv"
        cal.write_text("H24,2024-03-15\nM24,2024-06-21\n")
        rc = run(
            "continuous", f"H24={a}", f"M24={b}",
            "--tick", "0.01", "--columns", "time,price",
            "--calendar", str(cal), "--out", str(tmp_path),
        )
        assert rc == 2
        assert "error: no splice reference: contract 'M24'" in capsys.readouterr().err
        assert not (tmp_path / "continuous.csv").exists()

    def test_contract_error_names_the_file(self, tmp_path, capsys):
        a, b = tmp_path / "h24.csv", tmp_path / "m24.csv"
        a.write_text("0,1.00\n1,1.01\n")
        b.write_text("0,1.00\n1,bad\n")
        cal = tmp_path / "calendar.csv"
        cal.write_text("H24,2024-03-15\nM24,2024-06-21\n")
        rc = run(
            "continuous", f"H24={a}", f"M24={b}",
            "--tick", "0.01", "--columns", "time,price",
            "--calendar", str(cal), "--out", str(tmp_path),
        )
        assert rc == 2
        assert f"error: {b}: line 2: bad price field" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["M24", "M24,2024-06-32", b"M24,2024-06-2\xff"])
    def test_calendar_error_names_the_file_and_line(self, tmp_path, capsys, line):
        src = tmp_path / "h24.csv"
        src.write_text("0,1.00\n")
        cal = tmp_path / "calendar.csv"
        line = line if isinstance(line, bytes) else line.encode()
        cal.write_bytes(b"H24,2024-03-15\n" + line + b"\n")
        rc = run(
            "continuous", f"H24={src}",
            "--tick", "0.01", "--columns", "time,price",
            "--calendar", str(cal), "--out", str(tmp_path),
        )
        assert rc == 2
        assert f"error: {cal}: line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("M24,2024-06-21\nH24,2024-03-15\n", "calendar must be sorted by expiry date"),
            ("H24,2024-03-15\nH24,2024-06-21\n", "contract 'H24' appears twice in the roll calendar"),
        ],
        ids=["unsorted", "repeated"],
    )
    def test_calendar_order_error_names_the_file(self, tmp_path, capsys, rows, message):
        src = tmp_path / "h24.csv"
        src.write_text("0,1.00\n")
        cal = tmp_path / "calendar.csv"
        cal.write_text(rows)
        rc = run(
            "continuous", f"H24={src}",
            "--tick", "0.01", "--columns", "time,price",
            "--calendar", str(cal), "--out", str(tmp_path),
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cal}: {message}\n"

    def test_missing_calendar_entry(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        src.write_text("0,1.00\n")
        cal = tmp_path / "calendar.csv"
        cal.write_text("H24,2024-03-15\n")
        rc = run(
            "continuous", f"Z99={src}",
            "--tick", "0.01", "--columns", "time,price",
            "--calendar", str(cal), "--out", str(tmp_path),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_unsorted_input(self, tmp_path, capsys):
        src = tmp_path / "quotes.csv"
        src.write_text("10,1.00\n5,1.01\n")
        rc = run(
            "decompose", str(src),
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_field_over_csv_limit(self, tmp_path, capsys):
        src = tmp_path / "quotes.csv"
        src.write_text(f"0,1.00\n1,1.{'0' * 200_000}\n")
        rc = run(
            "decompose", str(src),
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "error: line 2: unreadable row" in capsys.readouterr().err
        assert not (tmp_path / "pairs.csv").exists()

    @pytest.mark.parametrize("row", [b"1,1.0\xff1", b"1\xff,1.01"])
    def test_undecodable_byte_gives_its_line(self, tmp_path, capsys, row):
        src = tmp_path / "quotes.csv"
        src.write_bytes(b"0,1.00\n" + row + b"\n2,1.02\n")
        rc = run(
            "decompose", str(src),
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "error: line 2: bad " in capsys.readouterr().err
        assert not (tmp_path / "pairs.csv").exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = run(
            "decompose", str(tmp_path / "nope.csv"),
            "--tick", "0.01", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "spectrum", "rolling"])
    @pytest.mark.parametrize("prices", ["1.00 1.01 1.02", "1.03 1.06 1.00 1.07 1.02 1.05 1.04 1.08"])
    def test_min_tail_below_two(self, tmp_path, capsys, command, prices):
        # Bad input whether the file has no pairs to fit or two.
        prices = prices.split()
        src = tmp_path / "quotes.csv"
        src.write_text("".join(f"{i},{p}\n" for i, p in enumerate(prices)))
        geometry = ["--window", f"{len(prices) - 1}ns", "--step", "1ns"] if command == "rolling" else []
        rc = run(
            command, str(src), "--min-tail", "1", *geometry,
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "error: min_tail must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "spectrum", "rolling"])
    def test_reversed_xmin_range(self, tmp_path, capsys, command):
        src = tmp_path / "quotes.csv"
        src.write_text("".join(f"{i},{p}\n" for i, p in enumerate([1.03, 1.06, 1.00, 1.07])))
        geometry = ["--window", "3ns", "--step", "1ns"] if command == "rolling" else []
        rc = run(
            command, str(src), "--xmin-range", "10:5", *geometry,
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "error: xmin_range (10, 5) has LO above HI" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()
        assert not (tmp_path / "spectrum.csv").exists()
        assert not (tmp_path / "rolling.csv").exists()

    @pytest.mark.parametrize("command", ["rolling", "fit", "spectrum"])
    @pytest.mark.parametrize("flag", [["--min-tail", "1"], ["--xmin-range", "9:2"]])
    def test_rolling_checks_fit_settings_before_reading(self, tmp_path, capsys, flag, command):
        rc = run(
            command, str(tmp_path / "nope.csv"), *flag,
            "--tick", "0.01", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "min_tail" in err or "xmin_range" in err
        assert "nope.csv" not in err

    def test_bad_tick(self, tmp_path, capsys):
        src = tmp_path / "quotes.csv"
        src.write_text("0,1.00\n")
        rc = run(
            "decompose", str(src),
            "--tick", "0", "--columns", "time,price", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSelftest:
    def test_passes(self, capsys):
        rc = run("selftest")
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle equivalence: ok (40 walks)" in out
        assert "fit recovery: ok" in out

    def test_compares_pair_times(self, capsys, monkeypatch):
        # Same pair values, top values and variations; every time one later.
        sweep = cli.level_sweep_pairs
        monkeypatch.setattr(cli, "level_sweep_pairs", lambda v, t: sweep(v, [x + 1 for x in t]))
        assert run("selftest") == 1
        assert "oracle equivalence: FAIL" in capsys.readouterr().out
