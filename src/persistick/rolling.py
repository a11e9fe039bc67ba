"""Windowed scaling-exponent estimates over a long series.

A window's result equals a standalone decompose + fit of that sub-series,
yet each sample is decomposed about once, not once per window.  The series
is cut into blocks where a window starts and where a window's whole steps
end.  Each block is decomposed once.  A window is the run of blocks it
covers plus a remnant shorter than one step, and its movement sizes are
the sizes found inside those pieces together with the sizes from
decomposing their top sequences, concatenated in time order.  This holds
because a movement completed inside a piece stays completed in any longer
series around it (the elder rule of 1-D persistence), and what a piece
leaves open is exactly its top structure.  The merge is exact for sizes,
not for pair identities: across a cut, the tied-minimum rule can change
which minimum a pair reports.  The fit reads only sizes.

Cost: every sample once in its block, plus per window the remnant and
the concatenated tops (a handful of values per block).  Each window's
sizes are kept as a histogram, and every window is fitted in one
fit_many call: the cutoff candidates of all windows share one lockstep
likelihood search and one pruned KS pass, so the fit costs a few dozen
array passes in all rather than per window, and its elementwise work is
set by the windows' distinct sizes.  Windows that cannot support a fit
are marked, not dropped, keeping the output grid regular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import _INT64_MAX, _as_times, decompose
from .powerlaw import DEFAULT_MIN_TAIL, PowerLawFit, fit_many
from .powerlaw import fit  # noqa: F401  # bench/tracing.py wraps rolling.fit
from .spectrum import SizeHistogram, histogram

__all__ = ["WEEK_NS", "DAY_NS", "RollingConfig", "RollingPoint", "rolling_fit"]

DAY_NS = 24 * 3600 * 10**9
WEEK_NS = 7 * DAY_NS


@dataclass(frozen=True)
class RollingConfig:
    """Window geometry (nanoseconds) plus fit settings passed through."""

    window: int = 8 * WEEK_NS
    step: int = 2 * WEEK_NS
    min_tail: int = DEFAULT_MIN_TAIL
    xmin_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.step <= 0 or self.window <= 0:
            raise ValueError("window and step must be positive")
        if self.step > self.window:
            raise ValueError("step must not exceed window")


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
    must be integers (TypeError) that never decrease (StreamOrderError); a
    window that batch decompose rejects raises the same error its
    standalone decompose raises.
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

    step = cfg.step
    n_windows = (span - cfg.window) // step + 1
    q = cfg.window // step  # whole steps in a window
    # Block edges, in steps from t0: each window start i and each i + q,
    # where the window's whole steps end.  Block k runs from edge k to
    # edge k + 1; the last edge only closes a block.
    edges = np.union1d(np.arange(n_windows), np.arange(q, q + n_windows))
    cuts = np.searchsorted(t, [t0 + e * step for e in edges.tolist()]).tolist()
    first = np.searchsorted(edges, np.arange(n_windows)).tolist()
    past = np.searchsorted(edges, np.arange(q, q + n_windows)).tolist()
    blocks: dict[int, _Piece] = {}

    ends: list[int] = []
    windows: list[SizeHistogram] = []
    for i in range(n_windows):
        end = t0 + cfg.window + i * step
        lo, mid = cuts[first[i]], cuts[past[i]]
        hi = int(np.searchsorted(t, end, side="right"))
        try:
            pieces = []
            for k in range(first[i], past[i]):
                if cuts[k] == cuts[k + 1]:
                    continue
                if k not in blocks:
                    blocks[k] = _piece(v[cuts[k] : cuts[k + 1]], t[cuts[k] : cuts[k + 1]])
                pieces.append(blocks[k])
            if hi > mid:
                pieces.append(_piece(v[mid:hi], t[mid:hi]))
            sizes = _merged_sizes(pieces)
        except ValueError:
            # A piece, the merge or the summed variation left int64, so the
            # window does too.  Raise what its standalone decompose raises.
            decompose(v[lo:hi], t[lo:hi])
            raise
        blocks.pop(first[i], None)  # later windows start past this block
        ends.append(end)
        # Held as a histogram: a few hundred distinct sizes, not every movement.
        windows.append(histogram(sizes))

    fits = fit_many(windows, min_tail=cfg.min_tail, xmin_range=cfg.xmin_range)
    return [
        RollingPoint(end, f, h.total_pairs, "insufficient_tail" if f is None else "ok")
        for end, h, f in zip(ends, windows, fits)
    ]
