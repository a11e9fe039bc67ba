"""Windowed scaling-exponent estimates over a long series.

A window's result equals a standalone decompose + fit of that sub-series,
yet each sample is paired once, not once per window.  The series is cut
at every window's first sample and one past its last, so each window is a
run of whole blocks.  A window's movement sizes are the sizes found inside
its blocks together with the sizes from pairing their joined top
sequences.  This holds because a movement completed inside a block stays
completed in any longer series around it (the elder rule of 1-D
persistence), and what a block leaves open is exactly its top structure.
The merge is exact for sizes, not for pair identities: across a cut, the
tied-minimum rule can change which minimum a pair reports.  The fit reads
only sizes.

Cost: two calls of core._pair_segments, the kernel decompose runs too,
over a series cut into segments: one over the series with every block as
a segment, one over the joined tops (a handful of values per block) with
every window as a segment.  Each is under a dozen vectorised rainflow
rounds with the segment joins as barriers, then the stack loop over each
segment's residue: a few extrema per segment on a random walk, and all
of a closed spiral, which would need one round per swing.  Every block's
sizes are held at once, O(pairs) memory: about 8 bytes per pair found
inside a block.  Each window's sizes are built and reduced to a histogram
one window at a time, and every window is fitted in one fit_many call:
the cutoff candidates of all windows share one lockstep likelihood search
and one pruned KS pass, so the fit costs a few dozen array passes in all
rather than per window, and its elementwise work is set by the windows'
distinct sizes.  Windows that cannot support a fit are marked, not
dropped, keeping the output grid regular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import _as_index, _as_int64, _as_times, _check_variation, _exact_sum, _pair_segments
from .core import decompose
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
            message = f"{name} must be an integer number of nanoseconds"
            object.__setattr__(self, name, _as_index(getattr(self, name), message))
        if self.step <= 0 or self.window <= 0:
            raise ValueError("window and step must be positive")
        if self.step > self.window:
            raise ValueError("step must not exceed window")
        min_tail, xmin_range = _check_settings(self.min_tail, self.xmin_range)
        object.__setattr__(self, "min_tail", min_tail)
        object.__setattr__(self, "xmin_range", xmin_range)


@dataclass(frozen=True)
class RollingPoint:
    window_end: int
    fit: PowerLawFit | None
    pair_count: int
    status: str = field(default="ok")


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
    must be integers (TypeError) in the int64 range (ValueError) that never
    decrease (StreamOrderError).  If the values up to the last window's end
    fail the integer gate, or batch decompose rejects a window, the earliest
    such window's standalone decompose error is raised.
    """
    if cfg is None:
        cfg = RollingConfig()
    t = _as_times(times)
    if t.size != len(values):
        raise ValueError("times and values length mismatch")
    if t.size == 0:
        raise ValueError("empty series")
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
    first = np.searchsorted(cuts, lo)
    past = np.searchsorted(cuts, hi)
    try:
        # cuts[0] is 0, and as step <= window every sample before cuts[-1] is in a window.
        blocks = _pair_segments(_as_int64(values[: cuts[-1]], "values"), cuts[:-1])
        tops, tc = blocks.ev[blocks.top], blocks.top_cuts
        block_sizes, sc = blocks.sizes(), blocks.pair_cuts
        del blocks  # so the blocks' extrema are not held through the merges and the fit
        joined = [tops[a:b] for a, b in zip(tc[first], tc[past])]
        merges = _pair_segments(np.concatenate(joined), np.cumsum([0] + [j.size for j in joined[:-1]]))
        merge_sizes, mc = merges.sizes(), merges.pair_cuts
        # A window's variation is its joined tops' plus what its blocks' pairs carry.
        paired = [0, *accumulate(2 * _exact_sum(block_sizes[a:b]) for a, b in zip(sc, sc[1:]))]
        _check_variation(
            tv + paired[p] - paired[f] for tv, f, p in zip(merges.tv_total, first, past)
        )
    except (TypeError, ValueError):
        # A sample is no int64 integer, or a window's spread or variation is
        # beyond int64: raise what the earliest failing window's decompose does.
        for a, b in zip(lo.tolist(), hi.tolist()):
            decompose(values[a:b], t[a:b])
        raise

    # A window's sizes are its blocks' sizes plus those from joining their
    # tops, built and reduced to a histogram one window at a time.
    windows = [
        histogram(np.concatenate((block_sizes[sc[f] : sc[p]], merge_sizes[mc[w] : mc[w + 1]])))
        for w, (f, p) in enumerate(zip(first, past))
    ]
    fits = fit_many(windows, min_tail=cfg.min_tail, xmin_range=cfg.xmin_range)
    return [
        RollingPoint(end, f, h.total_pairs, "insufficient_tail" if f is None else "ok")
        for end, h, f in zip(ends, windows, fits)
    ]
