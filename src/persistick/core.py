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


def _as_int64(a: np.ndarray, what: str) -> np.ndarray:
    """An array of ints (integer or object dtype) as int64, or ValueError if one leaves int64."""
    try:
        if a.dtype.kind == "u" and a.size and int(a.max()) > _INT64_MAX:
            raise OverflowError
        return a.astype(np.int64, copy=False)
    except OverflowError:
        raise ValueError(f"{what} is outside the int64 range") from None


def _as_times(times: Sequence[int] | np.ndarray) -> np.ndarray:
    """Sample times as int64; TypeError unless integers, StreamOrderError if they decrease."""
    t = np.asarray(times)
    if t.dtype.kind not in "iu":
        raise TypeError("times must be integers")
    t = _as_int64(t, "a time")
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
        return tuple(_as_int64(c, "a pair time or value") for c in self._columns())

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
        return _as_int64(self._size_column(), "a pair size")

    def pair_variation(self) -> int:
        """Total variation captured by the pairs: sum of 2 * size, exact."""
        sizes = self._size_column()
        if sizes.dtype == np.int64 and sizes.size * int(sizes.max(initial=0)) <= _INT64_MAX:
            return 2 * int(sizes.sum())
        return 2 * sum(sizes.tolist())

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
    is int64, so values must lie in the int64 range and both their spread
    (max - min) and their total variation must fit in int64; other inputs
    raise ValueError rather than wrap.  Values and times of a non-integer
    dtype raise TypeError rather than truncate.
    """
    v = np.asarray(values)
    n = v.size
    if times is not None and np.asarray(times).size != n:
        raise ValueError("times and values length mismatch")
    if n == 0:
        return Decomposition([(_NO_PAIRS,) * 4], TopStructure([], None), 0)
    if v.dtype.kind not in "iu":
        raise TypeError("values must be integers (ticks)")
    lo, hi = int(v.min()), int(v.max())
    if hi > _INT64_MAX:
        raise ValueError(f"value {hi} is outside the int64 range")
    if hi - lo > _INT64_MAX:
        raise ValueError(f"values span {hi - lo}, more than int64 holds")
    v = v.astype(np.int64, copy=False)
    if times is None:
        t = np.arange(n, dtype=np.int64)
    else:
        t = _as_times(times)

    dv = np.diff(v)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(dv, 0, out=keep[1:])
    if bool(keep.all()):
        v2, t2, dv2 = v, t, dv  # no flat runs: skip the compaction copies
    else:
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
    # whole variation.  Each step fits in int64 (the spread does); the sum
    # is taken in Python ints only when int64 could overflow.
    if (k - 1) * (hi - lo) <= _INT64_MAX:
        tv_total = int(np.abs(np.diff(ev)).sum())
    else:
        tv_total = sum(np.abs(np.diff(ev)).tolist())
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
