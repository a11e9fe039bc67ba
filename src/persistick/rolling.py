"""Windowed scaling-exponent estimates over a long series.

A window's result equals a standalone decompose + fit of that sub-series,
yet each sample is decomposed once, not once per window.  The series is
cut at every window's first sample and one past its last, so each window
is a run of whole blocks, and each block is decomposed once.  A window's
movement sizes are the sizes found inside its blocks together with the
sizes from decomposing their top sequences, concatenated in time order.
This holds because a movement completed inside a block stays completed in
any longer series around it (the elder rule of 1-D persistence), and what
a block leaves open is exactly its top structure.  The merge is exact for
sizes, not for pair identities: across a cut, the tied-minimum rule can
change which minimum a pair reports.  The fit reads only sizes.

Cost: every sample once in its block, plus per window the concatenated
tops (a handful of values per block).  Every block's sizes are held at
once, O(pairs) memory: about 8 bytes per pair found inside a block.  Each
window's sizes are kept as a histogram, and every window is fitted in one
fit_many call: the cutoff candidates of all windows share one lockstep
likelihood search and one pruned KS pass, so the fit costs a few dozen
array passes in all rather than per window, and its elementwise work is
set by the windows' distinct sizes.  Windows that cannot support a fit
are marked, not dropped, keeping the output grid regular.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import _INT64_MAX, _as_times, decompose
from .powerlaw import DEFAULT_MIN_TAIL, PowerLawFit, _check_settings, fit_many
from .powerlaw import fit  # noqa: F401  # bench/tracing.py wraps rolling.fit
from .spectrum import histogram

__all__ = ["WEEK_NS", "DAY_NS", "RollingConfig", "RollingPoint", "rolling_fit"]

DAY_NS = 24 * 3600 * 10**9
WEEK_NS = 7 * DAY_NS


@dataclass(frozen=True)
class RollingConfig:
    """Window geometry (nanoseconds) plus fit settings, both checked when built."""

    window: int = 8 * WEEK_NS
    step: int = 2 * WEEK_NS
    min_tail: int = DEFAULT_MIN_TAIL
    xmin_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for name in ("window", "step"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise TypeError(f"{name} must be an integer number of nanoseconds") from None
        if self.step <= 0 or self.window <= 0:
            raise ValueError("window and step must be positive")
        if self.step > self.window:
            raise ValueError("step must not exceed window")
        _check_settings(self.min_tail, self.xmin_range)


@dataclass(frozen=True)
class RollingPoint:
    window_end: int
    fit: PowerLawFit | None
    pair_count: int
    status: str = field(default="ok")


class _Piece(NamedTuple):
    """What a window needs of one decomposed stretch of the series."""

    sizes: np.ndarray
    top_times: list[int]
    top_values: list[int]
    pair_variation: int


def _piece(values: np.ndarray, times: np.ndarray) -> _Piece:
    """Decompose a non-empty stretch of the series."""
    dec = decompose(values, times)
    top = dec.top
    return _Piece(
        dec.sizes(),
        [e.time for e in top.extrema] + [top.pending.time],
        [e.value for e in top.extrema] + [top.pending.value],
        dec.tv_total - dec.tv_top,
    )


def _merged_sizes(pieces: list[_Piece]) -> np.ndarray:
    """Movement sizes of the series that the consecutive pieces make up."""
    merged = decompose(
        np.array([x for p in pieces for x in p.top_values], dtype=np.int64),
        np.array([x for p in pieces for x in p.top_times], dtype=np.int64),
    )
    tv_total = merged.tv_total + sum(p.pair_variation for p in pieces)
    if tv_total > _INT64_MAX:
        raise ValueError(f"total variation {tv_total} is more than int64 holds")
    return np.concatenate([p.sizes for p in pieces] + [merged.sizes()])


def rolling_fit(
    values: Sequence[int] | np.ndarray,
    times: Sequence[int] | np.ndarray,
    cfg: RollingConfig | None = None,
) -> list[RollingPoint]:
    """Fit the size distribution inside each sliding window.

    Windows cover [end - window, end] with end advancing by step from the
    earliest time that fits a whole window; samples on the boundary belong
    to the window.  A window whose movements cannot satisfy the fit's tail
    requirement yields status "insufficient_tail" and fit None.  Times
    must be integers (TypeError) that never decrease (StreamOrderError); if
    batch decompose rejects a window, the earliest such window's standalone
    decompose error is raised.
    """
    if cfg is None:
        cfg = RollingConfig()
    t = np.asarray(times)
    v = np.asarray(values)
    if t.size != v.size:
        raise ValueError("times and values length mismatch")
    if t.size == 0:
        raise ValueError("empty series")
    t = _as_times(t)
    t0 = int(t[0])
    span = int(t[-1]) - t0
    if cfg.window > span:
        raise ValueError("window exceeds the series span")

    n_windows = (span - cfg.window) // cfg.step + 1
    starts = [t0 + i * cfg.step for i in range(n_windows)]
    ends = [start + cfg.window for start in starts]
    lo = np.searchsorted(t, starts, side="left")
    hi = np.searchsorted(t, ends, side="right")
    # Cut at every window's first and one-past-last sample, so each window
    # is a run of whole blocks; block k runs from cut k to cut k + 1.
    cuts = np.union1d(lo, hi)
    first = np.searchsorted(cuts, lo).tolist()
    past = np.searchsorted(cuts, hi).tolist()
    try:
        pieces = [_piece(v[a:b], t[a:b]) for a, b in zip(cuts.tolist(), cuts[1:].tolist())]
        # Held as histograms: a few hundred distinct sizes, not every movement.
        windows = [histogram(_merged_sizes(pieces[f:p])) for f, p in zip(first, past)]
    except ValueError:
        # A block, a merge or a summed variation left int64, so a window
        # does too.  Raise what the earliest such window's decompose raises.
        for a, b in zip(lo.tolist(), hi.tolist()):
            decompose(v[a:b], t[a:b])
        raise

    fits = fit_many(windows, min_tail=cfg.min_tail, xmin_range=cfg.xmin_range)
    return [
        RollingPoint(end, f, h.total_pairs, "insufficient_tail" if f is None else "ok")
        for end, h, f in zip(ends, windows, fits)
    ]
