"""Streaming decomposition of an integer tick series into persistent movements.

A price path alternates between local minima and maxima.  Whenever a
reversal (a dip on the way up, or a bounce on the way down) is fully
contained inside the surrounding move, that reversal is extracted as a
*persistent pair*: one minimum matched with one maximum.  What cannot be
extracted yet stays behind as the *top structure*.  The total variation of
the input splits exactly between the two:

    tv_total == tv_top + sum(2 * pair.size for all pairs)

All values are integer ticks, so every equality here is exact.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Kind",
    "Sample",
    "Extremum",
    "PersistentPair",
    "TopStructure",
    "Decomposition",
    "Decomposer",
    "StreamOrderError",
    "decompose",
]


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class StreamOrderError(ValueError):
    """Raised when sample times go backwards."""


class Kind(IntEnum):
    MIN = -1
    MAX = 1


class Sample(NamedTuple):
    time: int
    value: int


class Extremum(NamedTuple):
    time: int
    value: int
    kind: Kind


class PersistentPair(NamedTuple):
    minimum: Extremum
    maximum: Extremum

    @property
    def size(self) -> int:
        return self.maximum.value - self.minimum.value


@dataclass
class TopStructure:
    """Extrema not absorbed into any pair, plus the still-open last sample."""

    extrema: list[Extremum] = field(default_factory=list)
    pending: Sample | None = None

    def values(self) -> list[int]:
        vals = [e.value for e in self.extrema]
        if self.pending is not None:
            vals.append(self.pending.value)
        return vals

    def variation(self) -> int:
        """Total variation along the top values, exact."""
        vals = self.values()
        return sum(abs(b - a) for a, b in zip(vals, vals[1:]))


# Four columns (t_min, v_min, t_max, v_max) of consecutive pairs: int64, or
# object arrays of exact Python ints where a time, value or size leaves int64.
_Block = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_NO_PAIRS = np.zeros(0, dtype=np.int64)
_NO_PAIRS.flags.writeable = False  # shared by every empty block


def _block(t_min: list, v_min: list, t_max: list, v_max: list) -> _Block:
    """The pairs in four int lists as a new block, int64 if every time, value and size fits."""
    cols = (t_min, v_min, t_max, v_max)
    try:
        block = tuple(np.array(c, dtype=np.int64) for c in cols)
    except OverflowError:  # a time or value outside int64
        pass
    else:
        # Every pair has v_max > v_min, so a size beyond int64 wraps negative.
        if not (block[3] - block[1] < 0).any():
            return block
    return tuple(np.array(c, dtype=object) for c in cols)


def _as_int64(data: Sequence[int] | np.ndarray, what: str) -> np.ndarray:
    """data (an array, or a sequence of ints) as int64; TypeError unless all are integers.

    ValueError if one leaves int64.  numpy reads a list holding an int beyond
    int64 as float64 or object, so there each item decides via operator.index.
    """
    a = np.asarray(data)
    try:
        if a.dtype.kind in "fO":
            a = np.array([operator.index(x) for x in data], dtype=object)
        elif a.dtype.kind not in "iu":
            raise TypeError
        elif a.dtype.kind == "u" and a.size and int(a.max()) > _INT64_MAX:
            raise OverflowError
        return a.astype(np.int64, copy=False)
    except TypeError:
        raise TypeError(f"{what} must be integers") from None
    except OverflowError:
        raise ValueError(f"{what} must lie in the int64 range") from None


def _exact_sum(a: np.ndarray) -> int:
    """Sum of a non-negative integer array, exact: in int64 where a.size * max(a) fits."""
    if a.dtype == np.int64 and a.size * int(a.max(initial=0)) <= _INT64_MAX:
        return int(a.sum())
    return sum(a.tolist())


def _check_variation(tv_totals: Iterable[int]) -> None:
    """ValueError naming the first of the exact total variations that leaves int64."""
    for tv in tv_totals:
        if tv > _INT64_MAX:
            raise ValueError(f"total variation {tv} is more than int64 holds")


def _as_times(times: Sequence[int] | np.ndarray) -> np.ndarray:
    """Sample times as int64 (see _as_int64); StreamOrderError if they decrease."""
    t = _as_int64(times, "times")
    if bool(np.any(t[1:] < t[:-1])):
        raise StreamOrderError("sample times are not non-decreasing")
    return t


class Decomposition:
    """Result of a decomposition: completed pairs, top structure, variations.

    Pairs are held only as column blocks (t_min, v_min, t_max, v_max) in
    emission order, shared and never written.  A block is int64; only
    where one of its times, values or sizes leaves int64 does it hold
    object arrays of exact Python ints.  Batch decompose and the oracle
    give one block; a Decomposer snapshot shares the blocks its stream has
    already frozen.  PersistentPair objects are built only when .pairs is
    first read, so sizes(), pair_count and pair_columns() stay cheap.
    tv_top is top.variation(); tv_total is the caller's own count, so
    tv_total == tv_top + pair_variation() remains a check.
    """

    __slots__ = ("top", "tv_total", "tv_top", "_blocks", "_pairs", "_sizes")

    def __init__(self, blocks: list[_Block], top: TopStructure, tv_total: int) -> None:
        self._blocks = blocks
        self.top = top
        self.tv_total = tv_total
        self.tv_top = top.variation()
        self._pairs: list[PersistentPair] | None = None
        self._sizes: np.ndarray | None = None

    def _columns(self) -> _Block:
        return tuple(np.concatenate(c) for c in zip(*self._blocks))

    @property
    def pairs(self) -> list[PersistentPair]:
        if self._pairs is None:
            mn, mx = Kind.MIN, Kind.MAX
            self._pairs = [
                PersistentPair(Extremum(tl, vl, mn), Extremum(th, vh, mx))
                for tl, vl, th, vh in zip(*(c.tolist() for c in self._columns()))
            ]
        return self._pairs

    def pair_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(t_min, v_min, t_max, v_max) of all pairs as int64 arrays, in emission order.

        Reading them does not build the PersistentPair list.  ValueError if
        a time or value leaves int64.
        """
        return tuple(_as_int64(c, "pair times and values") for c in self._columns())

    @property
    def pair_count(self) -> int:
        return sum(len(b[0]) for b in self._blocks)

    def _size_column(self) -> np.ndarray:
        """Sizes in emission order: int64, or exact Python ints if a block holds them."""
        if self._sizes is None:
            self._sizes = np.concatenate([b[3] - b[1] for b in self._blocks])
        return self._sizes

    def sizes(self) -> np.ndarray:
        """Movement sizes of all pairs as int64, in emission order; ValueError if one leaves int64."""
        return _as_int64(self._size_column(), "pair sizes")

    def pair_variation(self) -> int:
        """Total variation captured by the pairs: sum of 2 * size, exact."""
        return 2 * _exact_sum(self._size_column())

    def __repr__(self) -> str:
        return (
            f"Decomposition(pairs={self.pair_count}, "
            f"top={len(self.top.extrema)}+pending, "
            f"tv_total={self.tv_total}, tv_top={self.tv_top})"
        )


class Decomposer:
    """Consumes samples one at a time and emits pairs as they complete.

    Repeated equal values collapse into the earliest sample of the run, so
    a flat stretch acts as a single point at its first timestamp.  finish()
    reports the state without closing the stream; pushing may continue
    afterwards.

    The open top structure is two int lists (times, values); extremum
    kinds alternate along it, so none is stored.  Completed pairs go to a
    chunk of four Python int lists, frozen by _block every _CHUNK pairs
    into a block of its own: int64 if its times, values and sizes fit,
    exact object arrays otherwise.  A snapshot shares the frozen blocks
    and freezes a copy of only the open chunk.
    """

    _CHUNK = 1 << 10  # pairs per frozen block

    def __init__(self) -> None:
        self._times: list[int] = []
        self._values: list[int] = []
        self._held_t = 0
        self._held_v: int | None = None
        self._dir = 0
        self._last_time: int | None = None
        self._tv_total = 0
        self._cols: tuple[list, list, list, list] = ([], [], [], [])
        self._blocks: list[_Block] = []

    def push(self, sample: Sample | tuple[int, int]) -> list[PersistentPair]:
        t, v = sample
        t = operator.index(t)
        v = operator.index(v)
        if self._last_time is not None and t < self._last_time:
            raise StreamOrderError(
                f"sample time {t} precedes previous time {self._last_time}"
            )
        self._last_time = t
        held_v = self._held_v
        if held_v is None:
            self._held_t = t
            self._held_v = v
            return []
        if v == held_v:
            return []
        # Pop completed reversals off the stack while v allows; innermost
        # (smallest) first.  When two minima tie in value the earlier one
        # joins the pair and the later survives in its place; tied maxima
        # need no special case, the pop below the newer one already leaves
        # the older in the top.
        st = self._times
        sv = self._values
        out = []
        if v > held_v:
            self._tv_total += v - held_v
            if self._dir != 1:
                st.append(self._held_t)
                sv.append(held_v)
                self._dir = 1
            self._held_t = t
            self._held_v = v
            while len(sv) >= 3:
                v1 = sv[-1]
                v3 = sv[-3]
                if v3 > v1 or v < sv[-2]:
                    break
                if v3 == v1:
                    out.append(self._record(st[-3], v3, st[-2], sv[-2]))
                    del st[-3:-1]
                    del sv[-3:-1]
                else:
                    out.append(self._record(st[-1], v1, st[-2], sv[-2]))
                    del st[-2:]
                    del sv[-2:]
        else:
            self._tv_total += held_v - v
            if self._dir != -1:
                st.append(self._held_t)
                sv.append(held_v)
                self._dir = -1
            self._held_t = t
            self._held_v = v
            while len(sv) >= 3:
                if sv[-3] < sv[-1] or v > sv[-2]:
                    break
                out.append(self._record(st[-2], sv[-2], st[-1], sv[-1]))
                del st[-2:]
                del sv[-2:]
        return out

    def _record(self, tl: int, vl: int, th: int, vh: int) -> PersistentPair:
        """Store one completed pair; return it as a transient PersistentPair."""
        t_min, v_min, t_max, v_max = cols = self._cols
        t_min.append(tl)
        v_min.append(vl)
        t_max.append(th)
        v_max.append(vh)
        if len(t_min) == self._CHUNK:
            self._blocks.append(_block(*cols))
            self._cols = ([], [], [], [])
        return PersistentPair(Extremum(tl, vl, Kind.MIN), Extremum(th, vh, Kind.MAX))

    def finish(self) -> Decomposition:
        pending = None if self._held_v is None else Sample(self._held_t, self._held_v)
        top = _top(self._times, self._values, self._dir > 0, pending)
        # The frozen blocks are shared; the open chunk is copied.
        return Decomposition(self._blocks + [_block(*self._cols)], top, self._tv_total)


def _top(times: list, values: list, rising: bool, pending: Sample | None) -> TopStructure:
    """The top structure of a stack of alternating extrema (int lists) and the pending sample.

    The top of the stack is the extremum of the last turn, a minimum while
    the series is rising; kinds alternate below it.
    """
    n = len(times)
    kinds = (Kind.MIN, Kind.MAX) if rising else (Kind.MAX, Kind.MIN)
    extrema = [
        Extremum(t, v, kinds[(n - i - 1) % 2]) for i, (t, v) in enumerate(zip(times, values))
    ]
    return TopStructure(extrema, pending)


def decompose(
    values: Sequence[int] | np.ndarray,
    times: Sequence[int] | np.ndarray | None = None,
) -> Decomposition:
    """Decompose a whole series at once.

    Equivalent to pushing every sample through a Decomposer and calling
    finish(): the same pairs in the same emission order, the same top and
    the same variations.  This is the one-segment case of _pair_segments:
    the flat-run collapse and extremum detection are vectorised, and so is
    most of the pairing.  Array rounds remove each swing smaller than the
    one before it and no larger than the one after, while a round removes
    at least 1/8 of the extrema left; the stack loop pairs only the
    residue.  Sorting the pairs by (confirming extremum, round), the
    residue's last, gives the emission order; see _pair_extrema.  A random
    walk takes about a dozen rounds and leaves a few dozen extrema to the
    loop; a closed spiral goes almost wholly to it.  Times are read only at
    the extrema.

    The arithmetic is int64, so values and times must lie in the int64
    range, as arrays or lists, and both the values' spread (max - min) and
    their total variation must fit in int64; other inputs raise ValueError
    rather than wrap.  Items that are not integers raise TypeError rather
    than truncate.
    """
    v = _as_int64(values, "values")
    t = None if times is None else _as_times(times)
    if t is not None and t.size != v.size:
        raise ValueError("times and values length mismatch")
    if v.size == 0:
        return Decomposition([(_NO_PAIRS,) * 4], TopStructure([], None), 0)
    seg = _pair_segments(v, np.zeros(1, dtype=np.intp))
    ev = seg.ev
    et = seg.ext if t is None else t[seg.ext]
    same, other = seg.same, seg.other
    lo = np.where(ev[same] < ev[other], same, other)
    hi = same + other - lo
    *stack, last = seg.top.tolist()
    pending = Sample(int(et[last]), int(ev[last]))
    rising = ev.size > 1 and bool(ev[-1] > ev[-2])
    top = _top(et[stack].tolist(), ev[stack].tolist(), rising, pending)
    return Decomposition([(et[lo], ev[lo], et[hi], ev[hi])], top, seg.tv_total[0])


class _Segments(NamedTuple):
    """What _pair_segments finds in each segment of a series.

    ext is the index into the series of each kept extremum and ev its
    value.  same, other and top index ext.  For each pair, same is its
    extremum of the confirming extremum's kind and other its other one;
    segment k's pairs are same[pair_cuts[k]:pair_cuts[k + 1]], in emission
    order.  Segment k's top is top[top_cuts[k]:top_cuts[k + 1]], in time
    order, the last one the pending sample.  tv_total is each segment's
    total variation, an exact Python int.
    """

    ext: np.ndarray
    ev: np.ndarray
    same: np.ndarray
    other: np.ndarray
    pair_cuts: np.ndarray
    top: np.ndarray
    top_cuts: np.ndarray
    tv_total: list[int]

    def sizes(self) -> np.ndarray:
        """Movement sizes in pair order, int64."""
        return np.abs(self.ev[self.same] - self.ev[self.other])


def _pair_segments(values: np.ndarray, starts: np.ndarray) -> _Segments:
    """decompose's pairs, top and total variation for each segment of an int64 series.

    Segment k is values[starts[k]:starts[k + 1]], the last one running to
    the end; starts[0] is 0, starts never decrease, and segments may be
    empty, though not all of them.  A segment's kept extrema are the
    earliest sample of each flat run that turns, and of its first and last
    runs.  ValueError where decompose of a segment would raise one: its
    spread or its total variation leaves int64.
    """
    n = values.size
    # The earliest sample of each flat run, and every segment's first.
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    first[starts[starts < n]] = True
    f = values[first]
    kept = np.add.reduceat(first, starts[np.diff(starts, append=n) > 0], dtype=np.intp)
    full = np.cumsum(kept) - kept  # where each non-empty segment starts in f
    hi = np.maximum.reduceat(f, full)
    lo = np.minimum.reduceat(f, full)
    wide = np.flatnonzero(hi - lo < 0)  # a spread beyond int64 wraps negative
    if wide.size:
        k = wide[0]
        raise ValueError(f"values span {int(hi[k]) - int(lo[k])}, more than int64 holds")
    # Keep the turning points and every segment's first and last.  A
    # comparison across a join decides only those kept anyway.
    rising = f[1:] > f[:-1]
    keep = np.ones(f.size, dtype=bool)
    np.not_equal(rising[1:], rising[:-1], out=keep[1:-1])
    del rising
    keep[full] = True
    keep[full[1:] - 1] = True
    ev = f[keep]
    del f  # so beside values at most one full-length array is live at once
    ext = np.flatnonzero(first)[keep]
    del first, keep
    cuts = np.append(np.searchsorted(ext, starts), ext.size)

    # Monotone between consecutive extrema, so the swings carry the whole
    # variation.  A swing across a join may wrap; it counts 0, as does the
    # one appended after the last extremum.
    d = np.abs(np.diff(ev, append=ev[-1:]))
    d[cuts[cuts > 0] - 1] = 0
    tv_total = [_exact_sum(d[a:b]) for a, b in zip(cuts, cuts[1:])]
    del d
    _check_variation(tv_total)
    return _Segments(ext, ev, *_pair_extrema(ev, cuts), tv_total)


# Pairing rounds run while each removes at least this share of the extrema
# left, so together they cost at most 8 passes over the extrema.  A series
# that peels slower (a closed spiral, one swing per round) goes to _sweep.
_ROUND_MIN_SHARE = 1 / 8


def _pair_extrema(ev: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each segment's pairs and top among alternating extrema ev, as Decomposer.push finds them.

    Segment k is ev[cuts[k]:cuts[k + 1]].  Returns index arrays into ev:
    for each pair, grouped by segment and in emission order, its extremum
    of the confirming extremum's kind and its other extremum, then where
    each segment's pairs start; each segment's top in time order, its last
    extremum included, then where each segment's top starts.

    Rounds first: the four-point rainflow rule (ASTM E1049-85).  With
    swings d[i] = |ev[i + 1] - ev[i]|, a round removes every interior swing
    with d[i - 1] > d[i] <= d[i + 1]; no two of them touch.  A swing across
    a join reads -1, so none beside it is removed, and it is never removed
    itself.  As the left side is strict, the stack automaton pops exactly
    (ev[i], ev[i + 1]) on reading ev[i + 2], before any other pop there and
    without the tied-minimum relabel.  Removing the pair changes no other
    pop: it only moves those that ev[i] confirmed to ev[i + 2], which
    reaches as far.  Rounds stop once one would remove under
    _ROUND_MIN_SHARE of the extrema left, and _sweep pairs each segment's
    residue.

    Then emission order.  Going back one round at a time, a pair's
    confirming extremum steps to the first extremum of the pair that
    round removed just before it, while that one reaches the pair's level
    too: its max for a rising confirmation, its min for a falling one, ties
    included.  The pairs then sort stably by (confirming index, round), the
    residue's last and in their own order.  A pair's confirming extremum
    lies in its own segment, so that sort also groups the pairs by segment.
    """
    pos = np.arange(ev.size)  # the index in ev of each extremum left
    e = ev
    joins = np.unique(cuts[(cuts > 0) & (cuts < ev.size)]) - 1  # swings across a join
    # Same, other and confirming index of each pair: per round, then per
    # segment's residue.
    found = ([], [], [])
    while True:
        d = np.abs(np.diff(e))
        d[joins] = -1
        mid = d[1:-1]
        closed = (d[:-2] > mid) & (mid <= d[2:])
        closed[joins[(joins > 0) & (joins <= closed.size)] - 1] = False
        j = np.flatnonzero(closed) + 1
        if not j.size or 2 * j.size < _ROUND_MIN_SHARE * e.size:
            break
        for col, x in zip(found, (j, j + 1, j + 2)):
            col.append(pos[x])
        keep = np.ones(e.size, dtype=bool)
        keep[j] = False
        keep[j + 1] = False
        pos = pos[keep]
        e = e[keep]
        joins -= 2 * np.searchsorted(j, joins)
    # Where each round's pairs start, and the residue's.
    bounds = np.cumsum([0] + [x.size for x in found[0]]).tolist()

    tops = []
    rc = np.searchsorted(pos, cuts).tolist()  # where each segment starts in the residue
    for a, b in zip(rc[:-1], rc[1:]):
        stack = []
        if b - a > 1:
            *pairs, stack = _sweep(e[a:b])
            for col, x in zip(found, pairs):
                col.append(pos[x + a])
        if b > a:
            stack.append(b - 1 - a)
        tops.append(np.array(stack, dtype=np.intp) + a)
    top = pos[np.concatenate(tops)]
    top_cuts = np.cumsum([0] + [x.size for x in tops])
    none = np.zeros(0, dtype=np.intp)
    same, other, at = (np.concatenate([none, *col]) for col in found)
    del found, pos, e  # so the ordering pass adds little to peak memory

    # Latest round first, step the confirming index of every pair found
    # after it down.  steps[c] is the first extremum of the pair that round
    # removed just before c, -1 if none.
    steps = np.full(ev.size, -1, dtype=np.intp)
    for a, b in reversed(list(zip(bounds[:-1], bounds[1:]))):
        steps[at[a:b]] = same[a:b]
        i = np.flatnonzero(steps[at[b:]] >= 0) + b
        while i.size:
            c = steps[at[i]]
            level = ev[same[i]]
            up = level > ev[other[i]]
            reach = np.where(up, ev[c] >= level, ev[c] <= level)
            i = i[reach]
            at[i] = c[reach]
            i = i[steps[at[i]] >= 0]
        steps[at[a:b]] = -1
    del steps
    # The pairs are in round order, the residue's last, and a stable sort
    # keeps that order at equal confirming indices.
    order = np.argsort(at, kind="stable")
    return same[order], other[order], np.searchsorted(at[order], cuts), top, top_cuts


def _sweep(ev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Decomposer.push's stack automaton over alternating extremum values ev.

    Returns index arrays into ev: for each pair in emission order, its
    extremum of the confirming extremum's kind, its other extremum and the
    confirming extremum; then the final stack, which is the top.

    The loop mirrors Decomposer.push but runs on bare ints: the stack of
    extremum indices carries a mirrored value stack.  The input becomes
    Python ints one block at a time, so they are never all held at once:
    one tolist() of the whole input was no faster and raised the peak
    memory by about a tenth.
    """
    stk: list[int] = []
    stv: list[int] = []
    same = array("q")
    other = array("q")
    at = array("q")
    d = 1 if ev[1] > ev[0] else -1
    prev = int(ev[0])
    block = 1 << 15
    for a in range(1, ev.size, block):
        for j, x in enumerate(ev[a : a + block].tolist(), a - 1):
            stk.append(j)
            stv.append(prev)
            prev = x
            if d > 0:
                while len(stv) >= 3:
                    v1 = stv[-1]
                    v3 = stv[-3]
                    if v3 > v1 or x < stv[-2]:
                        break
                    same.append(stk[-2])
                    at.append(j + 1)
                    if v3 == v1:
                        other.append(stk[-3])
                        del stk[-3:-1]
                        del stv[-3:-1]
                    else:
                        other.append(stk[-1])
                        del stk[-2:]
                        del stv[-2:]
            else:
                while len(stv) >= 3:
                    if stv[-3] < stv[-1] or x > stv[-2]:
                        break
                    same.append(stk[-2])
                    other.append(stk[-1])
                    at.append(j + 1)
                    del stk[-2:]
                    del stv[-2:]
            d = -d
    return (*(np.asarray(c, dtype=np.intp) for c in (same, other, at)), stk)
