"""Movement-size histogram and the variation spectrum built from it.

Each completed pair of size m contributes exactly 2*m to the total
variation of its series, so the spectrum S(m) = 2 * count(m) * m measures
how much of the variation travels in movements of each size.  Summed over
all sizes it reproduces tv_total - tv_top exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Decomposition, PersistentPair, _as_int64

__all__ = ["SizeHistogram", "Spectrum", "histogram", "spectrum"]


@dataclass(frozen=True, eq=False)
class SizeHistogram:
    """Counts of completed movements by integer size, as two int64 arrays.

    sizes is strictly ascending and counts[i] > 0 is the number of
    movements of size sizes[i].  Two histograms are equal when both arrays
    are equal.
    """

    sizes: np.ndarray
    counts: np.ndarray

    @property
    def entries(self) -> dict[int, int]:
        """size -> count, as Python ints."""
        return dict(zip(self.sizes.tolist(), self.counts.tolist()))

    @property
    def total_pairs(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SizeHistogram):
            return NotImplemented
        return np.array_equal(self.sizes, other.sizes) and np.array_equal(self.counts, other.counts)


@dataclass(frozen=True)
class Spectrum:
    """(size, 2 * count * size) points, ascending in size."""

    points: list[tuple[int, int]]

    def total(self) -> int:
        return sum(s for _, s in self.points)


def histogram(
    data: SizeHistogram | Decomposition | Iterable[PersistentPair | int] | np.ndarray,
) -> SizeHistogram:
    """Count completed movements by size.

    Accepts a Decomposition, an iterable of pairs or of integer sizes, or
    an integer array of sizes; a SizeHistogram is returned as it is.
    Sizes outside int64 raise ValueError.
    """
    if isinstance(data, SizeHistogram):
        return data
    if isinstance(data, Decomposition):
        sizes = data.sizes()
    elif isinstance(data, np.ndarray):
        if data.size and data.dtype.kind not in "iu":
            raise TypeError("sizes must be integers")
        sizes = _as_int64(data, "a size")
    else:
        cells = [operator.index(p.size if isinstance(p, PersistentPair) else p) for p in data]
        sizes = _as_int64(np.array(cells, dtype=object), "a size")
    uniq, counts = np.unique(sizes, return_counts=True)
    return SizeHistogram(uniq, counts.astype(np.int64, copy=False))


def spectrum(h: SizeHistogram) -> Spectrum:
    """Variation spectrum of a histogram: S(m) = 2 * count(m) * m, in exact ints."""
    return Spectrum([(m, 2 * c * m) for m, c in zip(h.sizes.tolist(), h.counts.tolist())])
