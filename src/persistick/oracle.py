"""Reference implementations used to cross-check the streaming decomposer.

level_sweep_pairs rebuilds the decomposition by an explicit upward sweep
over value levels with component merging, a completely different route from
the stack automaton in core.  The two must agree on every input; tests
enforce that.  The module also holds the seeded series generators shared by
tests and the self-test command.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .core import (
    _NO_PAIRS,
    Decomposition,
    Extremum,
    Kind,
    Sample,
    StreamOrderError,
    TopStructure,
    _block,
)

__all__ = [
    "level_sweep_pairs",
    "gen_random_walk",
    "gen_discrete_powerlaw",
    "decomposition_digest",
]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


def level_sweep_pairs(
    values: Sequence[int],
    times: Sequence[int] | None = None,
) -> Decomposition:
    """Decompose by sweeping levels bottom-up and merging components.

    Every local minimum starts a component.  Raising the level past an
    interior local maximum joins the components on its two sides; the
    higher of their two lowest minima enters a pair with that maximum,
    provided the surrounding path confirms the reversal actually completed
    (a later sample gets back past the maximum, or for a left-side
    candidate, the preceding maximum dominates and a later sample gets back
    under the candidate).  On equal-value candidates the earliest one joins
    the pair.  Unconfirmed merges leave their extrema in the top structure.
    """
    vals = [int(v) for v in values]
    if times is None:
        tms: list[int] = list(range(len(vals)))
    else:
        tms = [int(t) for t in times]
        if len(tms) != len(vals):
            raise ValueError("times and values length mismatch")
        if any(b < a for a, b in zip(tms, tms[1:])):
            raise StreamOrderError("sample times are not non-decreasing")

    # Collapse runs of equal values onto their earliest sample.
    rv: list[int] = []
    rt: list[int] = []
    for t, v in zip(tms, vals):
        if rv and v == rv[-1]:
            continue
        rv.append(v)
        rt.append(t)

    if len(rv) < 2:
        pending = Sample(rt[0], rv[0]) if rv else None
        return Decomposition([(_NO_PAIRS,) * 4], TopStructure([], pending), 0)

    # Keep only turning points; the two endpoints always stay.
    ev: list[int] = [rv[0]]
    et: list[int] = [rt[0]]
    for i in range(1, len(rv) - 1):
        if (rv[i] - rv[i - 1] > 0) != (rv[i + 1] - rv[i] > 0):
            ev.append(rv[i])
            et.append(rt[i])
    ev.append(rv[-1])
    et.append(rt[-1])

    tv_total = sum(abs(b - a) for a, b in zip(rv, rv[1:]))
    k = len(ev)

    # Sup/inf of all samples strictly after each extremum.
    suffix_max = [_NEG_INF] * k
    suffix_min = [_POS_INF] * k
    for i in range(k - 2, -1, -1):
        suffix_max[i] = max(ev[i + 1], suffix_max[i + 1])
        suffix_min[i] = min(ev[i + 1], suffix_min[i + 1])

    prv = list(range(-1, k - 1))
    nxt = list(range(1, k + 1))
    nxt[-1] = -1
    removed = [False] * k

    def unlink(i: int) -> None:
        removed[i] = True
        a, b = prv[i], nxt[i]
        if a >= 0:
            nxt[a] = b
        if b >= 0:
            prv[b] = a

    is_max = [False] * k
    for i in range(k):
        ref = ev[i + 1] if i + 1 < k else ev[i - 1]
        is_max[i] = ev[i] > ref

    interior_maxima = [i for i in range(1, k - 1) if is_max[i]]
    interior_maxima.sort(key=lambda i: (ev[i], et[i]))

    pairs: list[tuple[int, int]] = []  # (minimum, maximum) extremum indices
    for m in interior_maxima:
        p = prv[m]
        n = nxt[m]
        mv = ev[m]
        pv = ev[p]
        nv = ev[n]
        if pv == nv:
            q = prv[p]
            if (q >= 0 and ev[q] >= mv) or suffix_max[n] >= mv:
                low = p
            else:
                continue
        elif pv < nv:
            if suffix_max[n] >= mv:
                low = n
            else:
                continue
        else:
            q = prv[p]
            if q >= 0 and ev[q] >= mv and suffix_min[m] <= pv:
                low = p
            else:
                continue
        pairs.append((low, m))
        unlink(low)
        unlink(m)

    survivors = [i for i in range(k) if not removed[i]]
    top_idx = survivors[:-1]
    last = survivors[-1]
    extrema = [
        Extremum(et[i], ev[i], Kind.MAX if is_max[i] else Kind.MIN)
        for i in top_idx
    ]
    top = TopStructure(extrema, Sample(et[last], ev[last]))
    lows, highs = [low for low, _ in pairs], [m for _, m in pairs]
    block = _block(
        [et[i] for i in lows], [ev[i] for i in lows], [et[i] for i in highs], [ev[i] for i in highs]
    )
    return Decomposition([block], top, tv_total)


def gen_random_walk(
    n: int,
    seed: int,
    kind: str = "pm1",
    sigma: float = 3.0,
    zero_prob: float = 0.0,
    start: int = 0,
    t0: int = 0,
    dt: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded integer random walk; returns (times, values) arrays.

    kind "pm1" steps by -1/+1 (optionally 0 with probability zero_prob);
    kind "gauss" steps by a rounded normal with standard deviation sigma.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if kind == "pm1":
        if not 0.0 <= zero_prob < 1.0:
            raise ValueError("zero_prob must be in [0, 1)")
        half = (1.0 - zero_prob) / 2.0
        steps = rng.choice(
            np.array([-1, 0, 1], dtype=np.int64),
            size=n - 1,
            p=[half, zero_prob, half],
        )
    elif kind == "gauss":
        steps = np.rint(rng.normal(0.0, sigma, size=n - 1)).astype(np.int64)
    else:
        raise ValueError(f"unknown walk kind: {kind!r}")
    values = np.empty(n, dtype=np.int64)
    values[0] = start
    np.cumsum(steps, out=values[1:])
    values[1:] += start
    times = t0 + dt * np.arange(n, dtype=np.int64)
    return times, values


def gen_discrete_powerlaw(
    n: int,
    exponent: float,
    xmin: int,
    seed: int,
    cap: int = 10**6,
) -> np.ndarray:
    """Draw n integer sizes with P(m) proportional to m**-exponent.

    Support runs from xmin to cap inclusive; the tail mass beyond cap is
    folded back by renormalisation.  Exponents at or below 1 have no
    normalisable distribution and are rejected.
    """
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    if xmin < 1:
        raise ValueError("xmin must be at least 1")
    if cap < xmin:
        raise ValueError("cap must be at least xmin")
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(seed)
    support = np.arange(xmin, cap + 1, dtype=np.float64)
    weights = support ** (-float(exponent))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="left")
    return (xmin + idx).astype(np.int64)


def decomposition_digest(d: Decomposition) -> str:
    """Stable hash of a decomposition, for golden-file comparisons."""
    h = hashlib.sha256()
    for pair in sorted(
        d.pairs,
        key=lambda p: (p.minimum.value, p.maximum.value, p.minimum.time, p.maximum.time),
    ):
        h.update(
            f"{pair.minimum.time},{pair.minimum.value},"
            f"{pair.maximum.time},{pair.maximum.value};".encode()
        )
    h.update(b"|top|")
    for e in d.top.extrema:
        h.update(f"{e.time},{e.value},{int(e.kind)};".encode())
    if d.top.pending is not None:
        h.update(f"pending:{d.top.pending.time},{d.top.pending.value};".encode())
    h.update(f"|tv|{d.tv_total},{d.tv_top}".encode())
    return h.hexdigest()
