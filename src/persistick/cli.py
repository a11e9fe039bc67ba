"""Command-line interface: parse, decompose, summarize, fit, roll, splice.

Outputs are plain delimited text or JSON, written atomically (temp file
then rename) into the chosen directory, and byte-identical for identical
inputs and flags.  Exit codes: 0 success, 2 bad input, 3 insufficient data
for a fit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import re
import secrets
import sys
from datetime import date
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Decomposer, Decomposition, _pair_segments, decompose
from .ingest import CalendarError, InstrumentSpec, RollRule, _contract_expiries, build_continuous
from .ingest import parse_ticks
from .oracle import decomposition_digest, gen_discrete_powerlaw, gen_random_walk, level_sweep_pairs
from .powerlaw import InsufficientTailError, _check_settings, fit, mle_count_exponent
from .rolling import DAY_NS, WEEK_NS, RollingConfig, RollingPoint, rolling_fit
from .spectrum import histogram, spectrum

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3

_HOUR_NS = 3600 * 10**9
# Input files are UTF-8 whatever the locale; an undecodable byte becomes a lone
# surrogate, which the ASCII-only row grammar rejects with its line number.
_TEXT = {"newline": "", "encoding": "utf-8", "errors": "surrogateescape"}
# The one expiry grammar of a calendar file, whatever date.fromisoformat takes.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _write_atomic(directory: str, files: dict[str, str | Iterable[str]]) -> None:
    """Write each named file's text, or its chunks in order, into directory as a set.

    Every file is first written to a temp file; only when all of them are
    written are they renamed into place.  On failure every temp file left
    is removed, so no mix of old and new files comes from a failed write.
    """
    tmps: list[str] = []
    try:
        for text in files.values():
            tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
            with open(tmp, "x") as f:
                tmps.append(tmp)
                f.writelines([text] if isinstance(text, str) else text)
        for tmp, name in zip(tmps, files):
            os.replace(tmp, os.path.join(directory, name))
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _parse_duration(text: str) -> int:
    """Duration to nanoseconds: 8w, 56d, 12h, 3600000000000ns, bare int = weeks."""
    s = text.strip().lower()
    for suffix, unit in (("ns", 1), ("w", WEEK_NS), ("d", DAY_NS), ("h", _HOUR_NS)):
        if s.endswith(suffix):
            return int(s[: -len(suffix)]) * unit
    return int(s) * WEEK_NS


def _parse_xmin_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _load_series(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    spec = InstrumentSpec(args.tick)
    with open(args.input, **_TEXT) as f:
        ticks = parse_ticks(f, spec, columns=args.columns, delimiter=args.delimiter)
    return ticks.times, ticks.values


_PAIR_FIELDS = ("t_min", "v_min", "t_max", "v_max", "size")
# One pair object as json.dumps(..., sort_keys=True, indent=2) lays it out
# inside the document's "pairs" list, after the separator from the previous.
_JSON_PAIR = (
    ',\n    {\n      "size": %d,\n      "t_max": %d,\n      "t_min": %d,\n'
    '      "v_max": %d,\n      "v_min": %d\n    }'
)
# Pair rows are formatted this many at a time, so only one slice of the
# columns is held as Python ints while the file is written.
_ROWS_PER_SLICE = 4096


def _format_rows(row: str, cols: Sequence[np.ndarray]) -> Iterator[str]:
    """row % cells for each row of the int64 columns, one slice of rows per chunk."""
    for a in range(0, len(cols[0]), _ROWS_PER_SLICE):
        cells = np.column_stack([c[a : a + _ROWS_PER_SLICE] for c in cols])
        yield (row * len(cells)) % tuple(cells.ravel().tolist())


def cmd_decompose(args: argparse.Namespace) -> int:
    t, v = _load_series(args)
    dec = decompose(v, t)
    summary = {
        "pair_count": dec.pair_count,
        "tv_total": dec.tv_total,
        "tv_top": dec.tv_top,
    }
    t_min, v_min, t_max, v_max = dec.pair_columns()
    size = v_max - v_min
    if args.format == "json":
        rest = {
            "top": {
                "extrema": [
                    {"time": e.time, "value": e.value, "kind": e.kind.name.lower()}
                    for e in dec.top.extrema
                ],
                "pending": (
                    None
                    if dec.top.pending is None
                    else {"time": dec.top.pending.time, "value": dec.top.pending.value}
                ),
            },
            "summary": summary,
        }
        # The same bytes as json.dumps of the whole document with sort_keys
        # and indent=2, but the pairs come from the columns in one format.
        rows = _format_rows(_JSON_PAIR, (size, t_max, t_min, v_max, v_min))
        first = next(rows, None)
        pairs = ["[]"] if first is None else itertools.chain(["[", first[1:]], rows, ["\n  ]"])
        tail = ",\n" + json.dumps(rest, sort_keys=True, indent=2)[2:] + "\n"
        _write_atomic(
            args.out, {"decompose.json": itertools.chain(['{\n  "pairs": '], pairs, [tail])}
        )
        return EXIT_OK
    pairs_text = itertools.chain(
        [",".join(_PAIR_FIELDS) + "\n"],
        _format_rows("%d,%d,%d,%d,%d\n", (t_min, v_min, t_max, v_max, size)),
    )
    top_rows = ["time,value,kind"]
    top_rows += [f"{e.time},{e.value},{e.kind.name.lower()}" for e in dec.top.extrema]
    if dec.top.pending is not None:
        top_rows.append(f"{dec.top.pending.time},{dec.top.pending.value},pending")
    _write_atomic(args.out, {
        "pairs.csv": pairs_text,
        "top.csv": "\n".join(top_rows) + "\n",
        "summary.csv": f"{','.join(summary)}\n{','.join(map(str, summary.values()))}\n",
    })
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    if not args.no_fit:
        _check_settings(args.min_tail, args.xmin_range)
    t, v = _load_series(args)
    dec = decompose(v, t)
    h = histogram(dec)
    rows = ["m,n,S"] + [f"{m},{n},{s}" for n, (m, s) in zip(h.counts.tolist(), spectrum(h).points)]
    files = {"spectrum.csv": "\n".join(rows) + "\n"}
    insufficient = None
    if not args.no_fit:
        try:
            f = fit(h, min_tail=args.min_tail, xmin_range=args.xmin_range)
        except InsufficientTailError as e:
            insufficient = e  # exit 3, yet the spectrum is still written
        else:
            grid = range(f.xmin, int(h.sizes[-1]) + 1)
            overlay = ["m,S_model"] + [f"{m},{f.amplitude * m ** -f.alpha!r}" for m in grid]
            files["fit_overlay.csv"] = "\n".join(overlay) + "\n"
    if "fit_overlay.csv" not in files:
        # An earlier run's overlay must not sit beside a spectrum it was not fitted to.
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.out, "fit_overlay.csv"))
    _write_atomic(args.out, files)
    if insufficient is not None:
        raise insufficient
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    _check_settings(args.min_tail, args.xmin_range)
    t, v = _load_series(args)
    f = fit(decompose(v, t), min_tail=args.min_tail, xmin_range=args.xmin_range)
    doc = dataclasses.asdict(f)
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = f"{','.join(doc)}\n{','.join(map(repr, doc.values()))}\n"
    _write_atomic(args.out, {f"fit.{args.format}": text})
    return EXIT_OK


def cmd_rolling(args: argparse.Namespace) -> int:
    cfg = RollingConfig(
        window=args.window,
        step=args.step,
        min_tail=args.min_tail,
        xmin_range=args.xmin_range,
    )
    t, v = _load_series(args)
    points = rolling_fit(v, t, cfg)
    rows = ["window_end,alpha,xmin,n_tail,status"]
    for p in points:
        if p.fit is None:
            rows.append(f"{p.window_end},,,,{p.status}")
        else:
            rows.append(
                f"{p.window_end},{p.fit.alpha!r},{p.fit.xmin},{p.fit.n_tail},{p.status}"
            )
    _write_atomic(args.out, {"rolling.csv": "\n".join(rows) + "\n"})
    return EXIT_OK


def cmd_continuous(args: argparse.Namespace) -> int:
    spec = InstrumentSpec(args.tick)
    calendar = []
    with open(args.calendar, **_TEXT) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            cid, _, expiry = line.partition(",")
            expiry = expiry.strip()
            try:
                if not _ISO_DATE.fullmatch(expiry):
                    raise ValueError(f"expiry {expiry!r} is not YYYY-MM-DD")
                calendar.append((cid.strip(), date.fromisoformat(expiry)))
            except ValueError as e:
                raise ValueError(f"{args.calendar}: line {ln}: {e}") from None
    try:
        rule = RollRule(
            calendar,
            days_before_expiry=args.days_before_expiry,
            eligible_months=args.months,
        )
    except CalendarError as e:
        raise CalendarError(f"{args.calendar}: {e}") from None
    contracts = []
    for item in args.contracts:
        cid, _, path = item.partition("=")
        if not path:
            raise ValueError(f"contract argument {item!r} must be ID=FILE")
        contracts.append((cid, path))
    # Every ID is checked against the calendar before any file is read.
    list(_contract_expiries((cid for cid, _ in contracts), rule))
    series = []
    for cid, path in contracts:
        with open(path, **_TEXT) as f:
            try:
                ticks = parse_ticks(f, spec, columns=args.columns, delimiter=args.delimiter)
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from None
        series.append((cid, ticks))
    cont = build_continuous(series, rule)
    rows = _format_rows("%d,%d\n", (cont.times, cont.values))
    _write_atomic(args.out, {"continuous.csv": itertools.chain(["time,value_ticks\n"], rows)})
    return EXIT_OK


def _same_decomposition(a: Decomposition, b: Decomposition) -> bool:
    """Pair for pair in emission order, with the same top and the same variations."""
    return (
        all(np.array_equal(x, y) for x, y in zip(a.pair_columns(), b.pair_columns()))
        and a.top == b.top
        and (a.tv_total, a.tv_top) == (b.tv_total, b.tv_top)
    )


def _segments_agree(t: np.ndarray, v: np.ndarray, starts: np.ndarray) -> bool:
    """The segmented kernel's sizes, tops and variations equal decompose of each segment alone."""
    seg = _pair_segments(v, starts)
    sizes, tops = seg.sizes(), seg.ev[seg.top]
    pc, tc = seg.pair_cuts, seg.top_cuts
    for k, (a, b) in enumerate(zip(starts.tolist(), [*starts[1:].tolist(), v.size])):
        part = decompose(v[a:b], t[a:b])
        if not (
            np.array_equal(sizes[pc[k] : pc[k + 1]], part.sizes())
            and tops[tc[k] : tc[k + 1]].tolist() == part.top.values()
            and seg.tv_total[k] == part.tv_total
        ):
            return False
    return True


def _windows_agree(
    t: np.ndarray, v: np.ndarray, cfg: RollingConfig, points: list[RollingPoint]
) -> bool:
    """Each rolling_fit point equals decompose + fit of its window alone."""
    for p in points:
        a = int(np.searchsorted(t, p.window_end - cfg.window, "left"))
        b = int(np.searchsorted(t, p.window_end, "right"))
        dec = decompose(v[a:b], t[a:b])
        try:
            f, status = fit(dec, min_tail=cfg.min_tail), "ok"
        except InsufficientTailError:
            f, status = None, "insufficient_tail"
        if p != RollingPoint(p.window_end, f, dec.pair_count, status):
            return False
    return True


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = stream_failures = segment_failures = 0
    rng_seeds = range(args.seed, args.seed + 40)
    for seed in rng_seeds:
        kind = "pm1" if seed % 2 == 0 else "gauss"
        zp = 0.3 if seed % 4 == 0 else 0.0
        t, v = gen_random_walk(1500, seed=seed, kind=kind, zero_prob=zp)
        dec = decompose(v, t)
        ora = level_sweep_pairs(v.tolist(), t.tolist())
        same = decomposition_digest(dec) == decomposition_digest(ora)
        if not (same and dec.tv_total == dec.tv_top + dec.pair_variation()):
            failures += 1
        stream = Decomposer()
        for sample in zip(t.tolist(), v.tolist()):
            stream.push(sample)
        if not _same_decomposition(dec, stream.finish()):
            stream_failures += 1
        # Cut at three seeded points; the repeated last one leaves an empty segment.
        cuts = np.sort(np.random.default_rng(seed).integers(0, v.size, size=3))
        if not _segments_agree(t, v, np.concatenate(([0], cuts, cuts[-1:]))):
            segment_failures += 1
    for what, n in (("oracle", failures), ("stream", stream_failures), ("segment", segment_failures)):
        print(f"{what} equivalence: {'ok' if n == 0 else 'FAIL'} ({len(rng_seeds)} walks)")

    sizes = gen_discrete_powerlaw(20_000, 3.0, 10, seed=args.seed)
    est = mle_count_exponent(sizes, 10)
    fit_ok = abs(est - 3.0) < 0.1
    print(f"fit recovery: {'ok' if fit_ok else 'FAIL'} (estimate {est:.3f} for 3.0)")

    # Overlapping windows, all fitted in one batch, each as if alone.
    t, v = gen_random_walk(20_000, seed=args.seed, kind="gauss", sigma=10.0, dt=10**9)
    cfg = RollingConfig(window=6_000 * 10**9, step=700 * 10**9)
    points = rolling_fit(v, t, cfg)
    windows_ok = _windows_agree(t, v, cfg, points)
    print(f"fit batch equivalence: {'ok' if windows_ok else 'FAIL'} ({len(points)} windows)")
    if failures or stream_failures or segment_failures or not (fit_ok and windows_ok):
        return 1
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persistick",
        description="Decompose tick series into persistent movements and fit their size scaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("input", help="delimited quote file")
        p.add_argument("--tick", required=True, help="tick size, e.g. 0.0001")
        p.add_argument("--columns", default="time,bid,ask", help="time,bid,ask or time,price")
        p.add_argument("--delimiter", default=",")
        p.add_argument("--out", default=".", help="output directory")

    def add_fit_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--min-tail", type=int, default=50, dest="min_tail")
        p.add_argument(
            "--xmin-range",
            type=_parse_xmin_range,
            default=None,
            dest="xmin_range",
            metavar="LO:HI",
        )

    p = sub.add_parser("decompose", help="emit pairs, top structure, and summary")
    add_io(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("spectrum", help="emit size spectrum and fitted overlay")
    add_io(p)
    add_fit_flags(p)
    p.add_argument("--no-fit", action="store_true", dest="no_fit")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fit", help="fit the movement-size power law")
    add_io(p)
    add_fit_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("rolling", help="windowed scaling estimates")
    add_io(p)
    add_fit_flags(p)
    p.add_argument("--window", type=_parse_duration, default=8 * WEEK_NS)
    p.add_argument("--step", type=_parse_duration, default=2 * WEEK_NS)
    p.set_defaults(func=cmd_rolling)

    p = sub.add_parser("continuous", help="splice contracts into a continuous series")
    p.add_argument("contracts", nargs="+", metavar="ID=FILE")
    add_io(p, with_input=False)
    p.add_argument("--calendar", required=True, help="file of contract_id,expiry_date")
    p.add_argument("--days-before-expiry", type=int, default=6, dest="days_before_expiry")
    p.add_argument(
        "--months",
        type=lambda s: frozenset(int(x) for x in s.split(",")),
        default=frozenset({3, 6, 9, 12}),
    )
    p.set_defaults(func=cmd_continuous)

    p = sub.add_parser("selftest", help="run built-in consistency checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The output directory is checked before any input is read.
        out = getattr(args, "out", None)
        if out is not None and not os.path.isdir(out):
            what = "is not a directory" if os.path.exists(out) else "does not exist"
            raise FileNotFoundError(f"output directory {out!r} {what}")
        return args.func(args)
    except InsufficientTailError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (OSError, ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
