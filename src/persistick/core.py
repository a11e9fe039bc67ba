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


class Decomposition:
    """Result of a decomposition: completed pairs, top structure, variations.

    The pair list can be deferred: batch decomposition of multi-million
    sample series stores bare index arrays and only builds PersistentPair
    objects when .pairs is first read.  sizes() and pair_count stay cheap
    either way.
    """

    __slots__ = ("top", "tv_total", "tv_top", "_pairs", "_deferred", "_sizes")

    def __init__(
        self,
        pairs: list[PersistentPair],
        top: TopStructure,
        tv_total: int,
        tv_top: int,
    ) -> None:
        self._pairs: list[PersistentPair] | None = pairs
        self.top = top
        self.tv_total = tv_total
        self.tv_top = tv_top
        self._deferred: tuple | None = None
        self._sizes: np.ndarray | None = None

    @classmethod
    def _from_indices(
        cls,
        et: np.ndarray | Sequence[int],
        ev: np.ndarray | Sequence[int],
        lo: Sequence[int],
        hi: Sequence[int],
        top: TopStructure,
        tv_total: int,
        tv_top: int,
    ) -> Decomposition:
        d = cls.__new__(cls)
        d._pairs = None
        d.top = top
        d.tv_total = tv_total
        d.tv_top = tv_top
        d._deferred = (et, ev, lo, hi)
        d._sizes = None
        return d

    @property
    def pairs(self) -> list[PersistentPair]:
        if self._pairs is None:
            mn, mx = Kind.MIN, Kind.MAX
            self._pairs = [
                PersistentPair(Extremum(tl, vl, mn), Extremum(th, vh, mx))
                for tl, vl, th, vh in zip(*(c.tolist() for c in self.pair_columns()))
            ]
            self._deferred = None
        return self._pairs

    def pair_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(t_min, v_min, t_max, v_max) of all pairs as int64 arrays, in emission order.

        Reading them does not build the PersistentPair list.
        """
        if self._pairs is None:
            et, ev, lo, hi = self._deferred
            ta = np.asarray(et, dtype=np.int64)
            va = np.asarray(ev, dtype=np.int64)
            il = np.asarray(lo, dtype=np.intp)
            ih = np.asarray(hi, dtype=np.intp)
            return ta[il], va[il], ta[ih], va[ih]
        cols = np.array(
            [(p.minimum.time, p.minimum.value, p.maximum.time, p.maximum.value)
             for p in self._pairs],
            dtype=np.int64,
        ).reshape(-1, 4)
        return tuple(np.ascontiguousarray(c) for c in cols.T)

    @property
    def pair_count(self) -> int:
        if self._pairs is not None:
            return len(self._pairs)
        return len(self._deferred[2])

    def sizes(self) -> np.ndarray:
        """Movement sizes of all pairs, in emission order."""
        if self._sizes is None:
            if self._pairs is None:
                _, ev, lo, hi = self._deferred
                arr = np.asarray(ev, dtype=np.int64)
                self._sizes = arr[np.asarray(hi, dtype=np.intp)] - arr[
                    np.asarray(lo, dtype=np.intp)
                ]
            else:
                self._sizes = np.fromiter(
                    (p.maximum.value - p.minimum.value for p in self._pairs),
                    dtype=np.int64,
                    count=len(self._pairs),
                )
        return self._sizes

    def pair_variation(self) -> int:
        """Total variation captured by the pairs: sum of 2 * size."""
        return 2 * int(self.sizes().sum())

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
    """

    def __init__(self) -> None:
        self._stack: list[Extremum] = []
        self._pairs: list[PersistentPair] = []
        self._held: tuple[int, int] | None = None
        self._dir = 0
        self._last_time: int | None = None
        self._tv_total = 0

    def push(self, sample: Sample | tuple[int, int]) -> list[PersistentPair]:
        t, v = sample
        t = operator.index(t)
        v = operator.index(v)
        if self._last_time is not None and t < self._last_time:
            raise StreamOrderError(
                f"sample time {t} precedes previous time {self._last_time}"
            )
        self._last_time = t
        if self._held is None:
            self._held = (t, v)
            return []
        held_t, held_v = self._held
        if v == held_v:
            return []
        self._tv_total += abs(v - held_v)
        d = 1 if v > held_v else -1
        if d != self._dir:
            kind = Kind.MIN if d > 0 else Kind.MAX
            self._stack.append(Extremum(held_t, held_v, kind))
            self._dir = d
        self._held = (t, v)
        emitted = _sweep(self._stack, d, v)
        self._pairs.extend(emitted)
        return emitted

    def finish(self) -> Decomposition:
        extrema = list(self._stack)
        pending = Sample(*self._held) if self._held is not None else None
        top = TopStructure(extrema, pending)
        vals = top.values()
        tv_top = sum(abs(b - a) for a, b in zip(vals, vals[1:]))
        return Decomposition(
            pairs=list(self._pairs),
            top=top,
            tv_total=self._tv_total,
            tv_top=tv_top,
        )


def _sweep(stack: list[Extremum], d: int, x: int) -> list[PersistentPair]:
    """Pop completed reversals off the stack while the current value x allows.

    Innermost (smallest) reversals complete first.  When two minima tie in
    value the earlier one joins the pair and the later survives in its
    place; tied maxima need no special case, the pop below the newer one
    already leaves the older in the top.
    """
    out: list[PersistentPair] = []
    if d > 0:
        while len(stack) >= 3:
            s1 = stack[-1]
            s2 = stack[-2]
            s3 = stack[-3]
            if s3.value > s1.value or x < s2.value:
                break
            if s3.value == s1.value:
                out.append(PersistentPair(minimum=s3, maximum=s2))
                del stack[-3:-1]
            else:
                out.append(PersistentPair(minimum=s1, maximum=s2))
                del stack[-2:]
    else:
        while len(stack) >= 3:
            s1 = stack[-1]
            s2 = stack[-2]
            s3 = stack[-3]
            if s3.value < s1.value or x > s2.value:
                break
            out.append(PersistentPair(minimum=s2, maximum=s1))
            del stack[-2:]
    return out


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
    raise ValueError rather than wrap.
    """
    v = np.asarray(values)
    n = v.size
    if times is not None and np.asarray(times).size != n:
        raise ValueError("times and values length mismatch")
    if n == 0:
        return Decomposition([], TopStructure([], None), 0, 0)
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
        t = np.asarray(times).astype(np.int64, copy=False)
        if n > 1 and bool(np.any(t[1:] < t[:-1])):
            raise StreamOrderError("sample times are not non-decreasing")

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
        return Decomposition([], top, 0, 0)

    rising = dv2 > 0  # dv2 is never zero after the collapse
    turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    idx = np.concatenate(([0], turns, [v2.size - 1]))
    ev = v2[idx]
    et = t2[idx]
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

    # The sweep below mirrors Decomposer/_sweep but runs on bare ints: the
    # stack of extremum indices carries a mirrored value stack, and the
    # input is consumed in blocks so live Python ints stay cache-resident
    # even for multi-million-sample series.  Pairs materialise lazily.
    # Directions strictly alternate after the flat/turn reduction.
    stk: list[int] = []
    stv: list[int] = []
    emit_lo = array("q")
    emit_hi = array("q")
    d0 = 1 if ev[1] > ev[0] else -1
    d = d0
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

    mn, mx = Kind.MIN, Kind.MAX
    top_times = et[np.asarray(stk, dtype=np.intp)].tolist() if stk else []
    extrema = [
        Extremum(tt, vv, mn if (d0 if j % 2 == 0 else -d0) > 0 else mx)
        for j, tt, vv in zip(stk, top_times, stv)
    ]
    top = TopStructure(extrema, Sample(int(et[-1]), int(ev[-1])))
    vals = top.values()
    tv_top = sum(abs(b - a) for a, b in zip(vals, vals[1:]))
    return Decomposition._from_indices(
        et, ev, emit_lo, emit_hi, top, tv_total, tv_top
    )
