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
    "total_variation",
]


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


def total_variation(samples: Iterable[Sample]) -> int:
    """Sum of absolute one-step changes of the sample values."""
    tv = 0
    prev = None
    for s in samples:
        v = s[1]
        if prev is not None:
            tv += abs(v - prev)
        prev = v
    return tv


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
    finish(), but the flat-run collapse and extremum detection are
    vectorised, which matters for million-sample inputs.  The arithmetic
    is int64, so values and times must lie in the int64 range, as arrays or
    lists, and both the values' spread (max - min) and their total variation
    must fit in int64; other inputs raise ValueError rather than wrap.  Items
    that are not integers raise TypeError rather than truncate.
    """
    v = _as_int64(values, "values")
    n = v.size
    t = np.arange(n, dtype=np.int64) if times is None else _as_times(times)
    if t.size != n:
        raise ValueError("times and values length mismatch")
    if n == 0:
        return Decomposition([(_NO_PAIRS,) * 4], TopStructure([], None), 0)
    lo, hi = int(v.min()), int(v.max())
    if hi - lo > _INT64_MAX:
        raise ValueError(f"values span {hi - lo}, more than int64 holds")

    dv = np.diff(v)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(dv, 0, out=keep[1:])
    v2 = v[keep]
    t2 = t[keep]
    dv2 = np.diff(v2)
    if v2.size == 1:
        top = TopStructure([], Sample(int(t2[0]), int(v2[0])))
        return Decomposition([(_NO_PAIRS,) * 4], top, 0)

    rising = dv2 > 0  # dv2 is never zero after the collapse
    turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    idx = np.concatenate(([0], turns, [v2.size - 1]))
    ev = v2[idx]
    et = t2[idx]
    # Only the extrema are used from here on.  Freeing the rest now keeps
    # the sweep and the pair gather below from adding to peak memory.
    del v, t, dv, keep, v2, t2, dv2, rising, turns, idx
    k = int(ev.size)
    # Monotone between consecutive extrema, so their differences carry the
    # whole variation.  Each step fits in int64 (the spread does).
    tv_total = _exact_sum(np.abs(np.diff(ev)))
    if tv_total > _INT64_MAX:
        raise ValueError(f"total variation {tv_total} is more than int64 holds")

    # The sweep below mirrors Decomposer.push but runs on bare ints: the
    # stack of extremum indices carries a mirrored value stack, and the
    # input is consumed in blocks so live Python ints stay cache-resident
    # even for multi-million-sample series.  Pairs materialise lazily.
    # Directions strictly alternate after the flat/turn reduction.
    stk: list[int] = []
    stv: list[int] = []
    emit_lo = array("q")
    emit_hi = array("q")
    d = 1 if ev[1] > ev[0] else -1
    prev = int(ev[0])
    block = 1 << 15
    for a in range(1, k, block):
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
                    if v3 == v1:
                        emit_lo.append(stk[-3])
                        emit_hi.append(stk[-2])
                        del stk[-3:-1]
                        del stv[-3:-1]
                    else:
                        emit_lo.append(stk[-1])
                        emit_hi.append(stk[-2])
                        del stk[-2:]
                        del stv[-2:]
            else:
                while len(stv) >= 3:
                    if stv[-3] < stv[-1] or x > stv[-2]:
                        break
                    emit_lo.append(stk[-2])
                    emit_hi.append(stk[-1])
                    del stk[-2:]
                    del stv[-2:]
            d = -d

    top_times = et[np.asarray(stk, dtype=np.intp)].tolist()
    top = _top(top_times, stv, bool(ev[-1] > ev[-2]), Sample(int(et[-1]), int(ev[-1])))
    il = np.asarray(emit_lo, dtype=np.intp)
    ih = np.asarray(emit_hi, dtype=np.intp)
    return Decomposition([(et[il], ev[il], et[ih], ev[ih])], top, tv_total)


class _Peeled(NamedTuple):
    """What _peel finds in each segment, grouped by segment.

    Segment k's sizes are sizes[size_cuts[k]:size_cuts[k + 1]] (in no
    particular order) and its top values tops[top_cuts[k]:top_cuts[k + 1]]
    (in time order, the last one the pending value).  tv_total and tv_top
    are exact Python ints, one per segment.
    """

    sizes: np.ndarray
    size_cuts: np.ndarray
    tops: np.ndarray
    top_cuts: np.ndarray
    tv_total: list[int]
    tv_top: list[int]


# Peeling rounds before the segments still reducible go to decompose.  A
# random walk needs about a dozen; a spiral needs one per swing.
_PEEL_ROUNDS = 48


def _segment_sums(x: np.ndarray, cuts: np.ndarray) -> list[int]:
    """Exact sums of the non-negative int64 x over each [cuts[k], cuts[k + 1])."""
    if x.size * int(x.max(initial=0)) <= _INT64_MAX:
        c = np.concatenate(([0], np.cumsum(x)))
        return (c[cuts[1:]] - c[cuts[:-1]]).tolist()
    return [_exact_sum(x[a:b]) for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())]


def _peel(values: np.ndarray, starts: np.ndarray) -> _Peeled:
    """decompose's sizes, top values and variations for each segment of an int64 series.

    Segment k is values[starts[k]:starts[k + 1]], the last one running to
    the end; starts[0] is 0, starts never decrease, and segments may be
    empty.  ValueError where decompose of a segment would raise one: its
    spread or its total variation leaves int64.

    The four-point rainflow rule (ASTM E1049-85) without a stack: between
    consecutive extrema, a swing no larger than either neighbour closes a
    movement of its size, and removing its two extrema joins the three
    swings into one.  Each round removes every such swing at once; in a
    run of equal swings it takes every other one, so no two removals
    touch.  A segment's first and last swings, whose neighbour lies across
    a join, are never removed.  The sizes found and the swings left do not
    depend on the order of removal, so after _PEEL_ROUNDS rounds the
    segments still reducible are finished by decompose.
    """
    starts = np.asarray(starts, dtype=np.intp)
    full = np.diff(starts, append=values.size) > 0
    # Work on the non-empty segments; segment k is the full_before[k]-th of them.
    full_before = np.concatenate(([0], np.cumsum(full)))
    first = np.zeros(values.size, dtype=bool)
    first[starts[full]] = True

    # Collapse flat runs; p holds where each segment starts.
    keep = first.copy()
    keep[1:] |= values[1:] != values[:-1]
    f = values[keep]
    first = first[keep]
    p = np.flatnonzero(first)
    hi = np.maximum.reduceat(f, p)
    lo = np.minimum.reduceat(f, p)
    wide = np.flatnonzero(hi - lo < 0)  # a spread beyond int64 wraps negative
    if wide.size:
        k = wide[0]
        raise ValueError(f"values span {int(hi[k]) - int(lo[k])}, more than int64 holds")
    # Keep the turning points and every segment's first and last sample.
    # A difference across a join may wrap; it decides only those kept ones.
    rising = f[1:] > f[:-1]
    keep = np.ones(f.size, dtype=bool)
    np.not_equal(rising[1:], rising[:-1], out=keep[1:-1])
    keep[p] = True
    keep[p[1:] - 1] = True
    e = f[keep]
    p = np.flatnonzero(first[keep])
    del keep, f, first, rising

    def cuts() -> np.ndarray:
        return np.append(p, e.size)[full_before]

    def swings() -> np.ndarray:
        """|e[i + 1] - e[i]|, 0 at each join: a wrapped difference is masked, never summed."""
        a = np.abs(np.diff(e))
        a[p[1:] - 1] = 0
        return a

    a = swings()
    tv_total = _segment_sums(np.append(a, 0), cuts())
    over = [tv for tv in tv_total if tv > _INT64_MAX]
    if over:
        raise ValueError(f"total variation {over[0]} is more than int64 holds")

    sizes, size_seg = [], []
    for peeled in range(_PEEL_ROUNDS + 1):
        joins = p[1:] - 1
        a[joins] = -1  # no swing beside a join is at most its neighbours
        mid = a[1:-1]
        closed = mid <= a[:-2]
        closed &= mid <= a[2:]
        closed[joins[(joins >= 1) & (joins <= closed.size)] - 1] = False
        run = closed[1:] & closed[:-1]
        if run.any():
            # Equal swings side by side: take the 1st, 3rd, ... of each run.
            i = np.arange(closed.size)
            begin = np.maximum.accumulate(np.where(closed & ~np.r_[False, run], i, 0))
            closed &= (i - begin) % 2 == 0
        j = np.flatnonzero(closed) + 1
        if not j.size:
            break
        seg_j = np.searchsorted(p, j, side="right") - 1
        if peeled == _PEEL_ROUNDS:
            # Finish the segments still reducible with the stack automaton.
            pieces = np.split(e, p[1:])
            for k in np.unique(seg_j).tolist():
                dec = decompose(pieces[k])
                sizes.append(dec.sizes())
                size_seg.append(np.full(dec.pair_count, k))
                pieces[k] = np.array(dec.top.values(), dtype=np.int64)
            e = np.concatenate(pieces)
            p = np.cumsum([0] + [x.size for x in pieces[:-1]])
            break
        sizes.append(a[j])
        size_seg.append(seg_j)
        keep = np.ones(e.size, dtype=bool)
        keep[j] = False
        keep[j + 1] = False
        e = e[keep]
        p -= 2 * np.searchsorted(j, p)
        a = np.abs(np.diff(e))

    size_seg = np.concatenate(size_seg) if size_seg else np.zeros(0, dtype=np.intp)
    order = np.argsort(size_seg, kind="stable")
    top_cuts = cuts()
    return _Peeled(
        np.concatenate(sizes)[order] if sizes else _NO_PAIRS,
        np.searchsorted(size_seg[order], np.arange(full_before[-1] + 1))[full_before],
        e,
        top_cuts,
        tv_total,
        _segment_sums(np.append(swings(), 0), top_cuts),
    )
