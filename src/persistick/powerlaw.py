"""Discrete power-law fitting of movement sizes.

Sizes are integer ticks, so the model is the discrete power law
P(m) = m**-b / zeta(b, xmin) for m >= xmin, with the Hurwitz zeta as
normalizer.  The exponent is estimated by maximum likelihood on a
bracketed interval, the cutoff xmin by minimizing the Kolmogorov-Smirnov
distance over candidate cutoffs (Clauset, Shalizi & Newman, "Power-law
distributions in empirical data", 2009).  The reported spectrum exponent
alpha is the count exponent minus one: multiplying a count law
m**-(alpha+1) by the per-movement variation 2m leaves a spectrum law
proportional to m**-alpha.

fit_many fits many size sets at once, and fit is fit_many of one set.
Every candidate cutoff of every set is handled in two array passes, and
each result is bit-identical to fitting its set alone, candidate by
candidate.

The likelihood maxima come from a lockstep copy of Brent's bounded search
as scipy 1.17's ``minimize_scalar(method="bounded")`` implements it: each
candidate keeps its own search state, every step is taken by all
unfinished candidates together, and the likelihood of all of them is one
``zeta`` call.  A step reads only its own candidate's state, with the same
constants, the same comparisons and the same floating-point operations in
the same order as the scalar routine, so each exponent is bit-identical to
a separate scalar search.  The searches all start together, so the shared
evaluation count, and the cap on it, mean the same for every candidate
whichever sets share the batch.  Their first two evaluations stand at
the same exponent for every candidate, so there ``zeta`` is taken once per
distinct cutoff; it is elementwise, so the bits are those of one value
per candidate.  The suffix counts and log-sums that feed the searches are
built set by set, since a float cumulative sum across sets would round
differently.

The KS distance of a candidate is the largest gap between empirical and
model tail CDFs over its tail points, so the largest gap over any prefix
of the tail is an exact lower bound on it.  Candidates whose bound lies
strictly above a distance already measured in full in their set cannot
be its minimum and are dropped; every gap that is computed uses the same
expression as a full pass, so the winner and its distance are the ones a
full pass gives, earliest on ties.  Each pass evaluates ``zeta`` over the
concatenated tail prefixes and takes segmented maxima.  How soon the
others drop depends on the first candidate measured in full, the lead.
Every eighth set is led by its lowest short-prefix bound; the sets between
are led first by the cutoff that won in the nearest of those, since
nearby sets such as overlapping windows often share a winner, and then
need only the shortest prefixes.  A lead changes only the work, never the
result, since whatever it is, every candidate kept is measured in full
and every one dropped lies above a distance so measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import zeta

from .core import Decomposition, _as_index
from .spectrum import SizeHistogram, histogram

__all__ = [
    "PowerLawFit",
    "InsufficientTailError",
    "mle_count_exponent",
    "ks_distance",
    "fit",
    "fit_many",
]

_BRACKET = (1.01, 6.0)
DEFAULT_MIN_TAIL = 50

# Brent's bounded search, with scipy's constants and tolerance.
_MAXFUN = 500
_XATOL = 1e-9
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
# Elements per batch of the concatenated KS tails, to bound memory.
_KS_BLOCK = 1 << 18
# Tail points per candidate in the first KS pass, before any is dropped:
# enough for the lowest bound to pick a good lead.
_KS_PROBE = 8
# The same where a neighbour's cutoff leads: its distance is measured
# before the probe, so the shortest prefixes already drop most.
_KS_LED_PROBE = 2
# Every _KS_STRIDE-th set is searched first; each set between is led by
# the cutoff that won in the nearest of them.
_KS_STRIDE = 8
# Elements per generated stretch of the amplitude's grid.
_SUM_CHUNK = 1 << 16


class InsufficientTailError(ValueError):
    """No cutoff candidate leaves enough tail samples to fit."""


@dataclass(frozen=True)
class PowerLawFit:
    xmin: int
    count_exponent: float
    alpha: float
    ks_distance: float
    n_tail: int
    amplitude: float


class _Candidates(NamedTuple):
    """One size set's cutoff candidates, and where its result goes."""

    slot: int
    ms: np.ndarray
    cs: np.ndarray
    n_suffix: np.ndarray
    logsum_suffix: np.ndarray
    cand: np.ndarray


def _mle_exponents(xmin: np.ndarray, n: np.ndarray, log_sum: np.ndarray) -> np.ndarray:
    """Maximum-likelihood exponents of many tails, one search each, in lockstep.

    Tail k has n[k] sizes >= xmin[k] whose logs sum to log_sum[k].  Each
    search minimizes n * ln zeta(b, xmin) + b * log_sum over the bracket
    exactly as scipy's _minimize_scalar_bounded does for one tail.  A tail
    whose search hits the evaluation cap or meets a NaN gets the
    closed-form continuous estimate, clamped to the bracket.
    """
    xmin, n, log_sum = (np.asarray(x, dtype=np.float64) for x in (xmin, n, log_sum))
    cutoffs, which = np.unique(xmin, return_inverse=True)

    def neg_ll(b: np.ndarray, k: np.ndarray) -> np.ndarray:
        if k.size > cutoffs.size and (b == b[0]).all():
            # One shared exponent: zeta is elementwise, so once per cutoff gives the same bits.
            log_z = np.log(zeta(b[:1], cutoffs))[which[k]]
        else:
            log_z = np.log(zeta(b, xmin[k]))
        return n[k] * log_z + b * log_sum[k]

    lo, hi = _BRACKET
    size = xmin.size
    k = np.arange(size)  # the candidates still searching
    a, b = np.full(size, lo), np.full(size, hi)
    xf = np.full(size, lo + _GOLDEN_MEAN * (hi - lo))
    nfc, fulc = xf.copy(), xf.copy()
    rat, e = np.zeros(size), np.zeros(size)
    fx = neg_ll(xf, k)
    fnfc, ffulc = fx.copy(), fx.copy()
    fu = np.full(size, np.inf)
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    num = 1
    best, failed = np.empty(size), np.zeros(size, dtype=bool)
    while k.size:
        run = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
        if not run.all():
            done = ~run
            best[k[done]] = xf[done]
            failed[k[done]] = np.isnan(xf[done]) | np.isnan(fx[done]) | np.isnan(fu[done])
            k, a, b, xf, fx, nfc, fnfc, fulc, ffulc, fu, rat, e, xm, tol1, tol2 = (
                s[run] for s in (k, a, b, xf, fx, nfc, fnfc, fulc, ffulc, fu, rat, e, xm, tol1, tol2)
            )
            if not k.size:
                break

        # A parabola through the three best points, where it is acceptable.
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = (
            (np.abs(e) > tol1)
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * (a - xf))
            & (p < q * (b - xf))
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            rat_p = (p + 0.0) / q  # used only where parabolic, so q > 0
        x = xf + rat_p
        d = xm - xf
        rat_p = np.where(((x - a) < tol2) | ((b - x) < tol2), tol1 * (np.sign(d) + (d == 0)), rat_p)
        # Otherwise a golden-section step into the larger part.
        e_golden = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(parabolic, rat, e_golden)
        rat = np.where(parabolic, rat_p, _GOLDEN_MEAN * e_golden)

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = neg_ll(x, k)
        num += 1

        better = fu <= fx
        a = np.where(better, np.where(x >= xf, xf, a), np.where(x < xf, x, a))
        b = np.where(better, np.where(x >= xf, b, xf), np.where(x < xf, b, x))
        second = ~better & ((fu <= fnfc) | (nfc == xf))
        third = ~better & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        shift = better | second
        fulc = np.where(shift, nfc, np.where(third, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(third, fu, ffulc))
        nfc = np.where(better, xf, np.where(second, x, nfc))
        fnfc = np.where(better, fx, np.where(second, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            best[k] = xf
            failed[k] = True
            break

    if failed.any():
        # Closed-form continuous approximation as the fallback estimate.
        n_f, log_sum_f = n[failed], log_sum[failed]
        approx = 1.0 + n_f / (log_sum_f - n_f * np.log(xmin[failed] - 0.5))
        best[failed] = np.minimum(np.maximum(approx, lo), hi)
    return best


def _tail(sizes: Sequence[int] | np.ndarray, xmin: int) -> SizeHistogram:
    """histogram(sizes), or ValueError unless it holds two or more sizes, all >= xmin >= 1."""
    h = histogram(sizes)
    if h.total_pairs < 2:
        raise ValueError("need at least two sizes")
    if xmin < 1:
        raise ValueError("xmin must be at least 1")
    if int(h.sizes[0]) < xmin:
        raise ValueError("all sizes must be >= xmin")
    return h


def mle_count_exponent(sizes: Sequence[int] | np.ndarray, xmin: int) -> float:
    """Maximum-likelihood exponent of the count law for sizes >= xmin."""
    h = _tail(sizes, xmin)
    if h.sizes.size < 2:
        raise ValueError("exponent is unidentifiable when all sizes are equal")
    log_sum = float(np.dot(h.counts, np.log(h.sizes)))
    return float(_mle_exponents([xmin], [h.total_pairs], [log_sum])[0])


def _ks_gaps(
    ms: np.ndarray,
    cum: np.ndarray,
    first: np.ndarray,
    stop: np.ndarray,
    below: np.ndarray,
    total: np.ndarray,
    exponent: np.ndarray,
    norm: np.ndarray,
) -> np.ndarray:
    """Largest gap between empirical and model tail CDFs of tail k over ms[first[k]:stop[k]].

    cum holds the running count of the sizes with a leading 0.  Tail k
    starts after below[k] of them, its set ends after total[k], and its law
    is exponent[k] with norm[k] = zeta(exponent[k], xmin).  Every stretch is
    non-empty.  The stretches are concatenated, whole stretches up to
    _KS_BLOCK elements at a time, and each maximum is a segmented maximum.
    """
    lens = stop - first
    ends = np.cumsum(lens)
    out = np.empty(first.size)
    lo = 0
    while lo < first.size:
        # At least one stretch per batch, then whole stretches up to the block size.
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _KS_BLOCK, "right")))
        m = lens[lo:hi]
        seg = ends[lo:hi] - m - base
        j = np.arange(int(ends[hi - 1]) - base) + np.repeat(first[lo:hi] - seg, m)
        tail_below = np.repeat(below[lo:hi], m)
        ecdf = (cum[j + 1] - tail_below) / np.repeat(total[lo:hi] - below[lo:hi], m)
        model = 1.0 - zeta(np.repeat(exponent[lo:hi], m), ms[j] + 1) / np.repeat(norm[lo:hi], m)
        out[lo:hi] = np.maximum.reduceat(np.abs(ecdf - model), seg)
        lo = hi
    return out


def _ks_distances(
    ms: np.ndarray, cs: np.ndarray, starts: np.ndarray, stops: np.ndarray, exponent: np.ndarray
) -> np.ndarray:
    """KS distance of each candidate, or inf where it cannot be its set's minimum.

    Candidate k fits the tail ms[starts[k]:stops[k]] of the concatenated
    size sets; the candidates of one set are consecutive and share stops.
    A distance is a maximum over tail points, so the maximum over any
    prefix is an exact lower bound on it.  Every candidate gets a bound
    from a short prefix; the candidate of lowest bound in each set is then
    measured in full, and candidates whose bound lies strictly above their
    set's best full distance are dropped.  The others double their
    prefixes per pass until each is measured in full.  A NaN bound or NaN
    best distance drops nothing.

    The sets are searched in two rounds.  Round 1 takes every
    _KS_STRIDE-th set, from set 0, with prefixes of _KS_PROBE points.
    Round 2 takes the rest.  It first measures in full each set's
    candidate whose cutoff won in the nearest round-1 set, since nearby
    sets such as overlapping windows often share a winner; a set without
    that cutoff has no such lead.  Its prefixes are then _KS_LED_PROBE
    points, and the lead's distance counts as a bound, so the lowest bound
    is measured in full next only where a prefix lies below it.  A lead
    decides only how soon the others are dropped, not the result: every
    kept candidate is measured in full by the same expression and a
    dropped one lies above a distance so measured, so the set's minimum,
    earliest on ties, is the one a full pass gives whichever candidate
    leads.
    """
    cum = np.concatenate(([0], np.cumsum(cs)))
    below, total = cum[starts], cum[stops]
    norm = zeta(exponent, ms[starts])
    length = stops - starts
    heads = np.flatnonzero(np.r_[True, stops[1:] != stops[:-1]])
    group = np.repeat(np.arange(heads.size), np.diff(np.r_[heads, stops.size]))
    bound = np.full(starts.size, -np.inf)
    done = np.zeros_like(length)
    alive = np.ones(starts.size, dtype=bool)

    def grow(k: np.ndarray, new: np.ndarray) -> None:
        i = starts[k]
        gaps = _ks_gaps(ms, cum, i + done[k], i + new, below[k], total[k], exponent[k], norm[k])
        bound[k] = np.maximum(bound[k], gaps)
        done[k] = new

    def lowest(k: np.ndarray) -> np.ndarray:
        """The candidate of lowest bound in each set among k, earliest on ties."""
        k = k[np.lexsort((bound[k], group[k]))]
        return k[np.diff(group[k], prepend=-1) != 0]

    def search(sets: np.ndarray, lead: np.ndarray, probe: int) -> None:
        """Measure in full or drop every candidate of the marked sets, lead first."""
        mine = sets[group]
        grow(lead, length[lead])
        k = np.flatnonzero(mine & (done == 0))
        grow(k, np.minimum(length[k], probe))
        k = lowest(np.flatnonzero(mine))
        k = k[done[k] < length[k]]
        grow(k, length[k])
        while True:
            complete = done == length
            best = np.minimum.reduceat(np.where(complete, bound, np.inf), heads)
            alive[mine] &= ~(bound[mine] > best[group[mine]])
            k = np.flatnonzero(mine & alive & ~complete)
            if not k.size:
                return
            grow(k, np.minimum(length[k], 2 * done[k]))

    first = np.arange(heads.size) % _KS_STRIDE == 0
    search(first, np.empty(0, dtype=np.intp), _KS_PROBE)
    # A round-1 set's lowest bound is its winner: a dropped bound lies above it.
    won = ms[starts[lowest(np.flatnonzero(first[group]))]]
    nearest = np.minimum((group + _KS_STRIDE // 2) // _KS_STRIDE, won.size - 1)
    search(~first, np.flatnonzero(~first[group] & (ms[starts] == won[nearest])), _KS_LED_PROBE)
    return np.where(alive, bound, np.inf)


def ks_distance(
    sizes: Sequence[int] | np.ndarray, xmin: int, exponent: float
) -> float:
    """Max gap between empirical and model tail CDFs at observed sizes."""
    h = _tail(sizes, xmin)
    ms, cs = h.sizes, h.counts
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    cum = np.concatenate(([0], np.cumsum(cs)))
    b = np.array([exponent])
    norm = zeta(b, np.array([xmin]))
    gaps = _ks_gaps(ms, cum, np.array([0]), np.array([ms.size]), cum[:1], cum[-1:], b, norm)
    return float(gaps[0])


def _grid_power_sum(lo: int, n: int, alpha: float) -> float:
    """np.sum(np.arange(lo, lo + n, dtype=np.float64) ** -alpha), a chunk at a time.

    numpy sums a contiguous float64 array pairwise: a stretch of more than
    128 elements is split after n // 2 elements rounded down to a multiple
    of 8, and a stretch's sum depends on its elements alone.  Replaying
    those splits down to stretches of at most _SUM_CHUNK elements, each
    summed by np.sum, gives the same bits in memory bounded by the chunk
    rather than by the largest size.
    """
    if n <= _SUM_CHUNK:
        return float(np.sum(np.arange(lo, lo + n, dtype=np.float64) ** -alpha))
    half = n // 2
    half -= half % 8
    return _grid_power_sum(lo, half, alpha) + _grid_power_sum(lo + half, n - half, alpha)


def _check_settings(
    min_tail: int, xmin_range: tuple[int, int] | None
) -> tuple[int, tuple[int, int] | None]:
    """min_tail and xmin_range as ints.

    TypeError unless they are integers; ValueError unless min_tail is at
    least 2 and a given xmin_range is two bounds (LO, HI) with LO <= HI.
    """
    min_tail = _as_index(min_tail, f"min_tail must be an integer, not {type(min_tail).__name__}")
    if min_tail < 2:
        raise ValueError("min_tail must be at least 2")
    if xmin_range is not None:
        message = f"xmin_range bounds must be integers, got {xmin_range!r}"
        if not isinstance(xmin_range, Iterable):
            raise TypeError(message)
        xmin_range = tuple(_as_index(x, message) for x in xmin_range)
        if len(xmin_range) != 2:
            raise ValueError(f"xmin_range must be two bounds (LO, HI), got {xmin_range!r}")
        if xmin_range[0] > xmin_range[1]:
            raise ValueError(f"xmin_range {xmin_range} has LO above HI")
    return min_tail, xmin_range


def _fit_sets(
    size_sets: Iterable[SizeHistogram | Decomposition | Iterable[int] | np.ndarray],
    min_tail: int,
    xmin_range: tuple[int, int] | None,
) -> list[PowerLawFit | InsufficientTailError]:
    """Fit every set, or say why a set has no cutoff candidate; see fit."""
    min_tail, xmin_range = _check_settings(min_tail, xmin_range)
    out: list = []
    sets: list[_Candidates] = []
    for data in size_sets:
        h = histogram(data)
        ms, cs = h.sizes, h.counts
        if ms.size == 0:
            out.append(InsufficientTailError("empty size distribution"))
            continue
        if int(ms[0]) < 1:
            raise ValueError(f"sizes must be at least 1, got {int(ms[0])}")

        n_suffix = np.cumsum(cs[::-1])[::-1]
        logsum_suffix = np.cumsum((cs * np.log(ms))[::-1])[::-1]
        usable = n_suffix >= min_tail
        usable[-1] = False  # a tail needs two distinct sizes
        if not usable.any():
            out.append(InsufficientTailError(
                f"no cutoff candidate leaves at least {min_tail} tail samples"
            ))
            continue
        if xmin_range is not None:
            usable &= [xmin_range[0] <= m <= xmin_range[1] for m in ms.tolist()]
            if not usable.any():
                out.append(InsufficientTailError(
                    f"no cutoff candidate with at least {min_tail} tail samples"
                    f" lies in xmin_range {xmin_range}"
                ))
                continue
        sets.append(_Candidates(len(out), ms, cs, n_suffix, logsum_suffix, np.flatnonzero(usable)))
        out.append(None)  # filled in below
    if not sets:
        return out

    # Every candidate of every set: one lockstep search and one pruned KS pass.
    offsets = np.cumsum([0] + [s.ms.size for s in sets])
    ms_all = np.concatenate([s.ms for s in sets])
    starts = np.concatenate([s.cand + o for s, o in zip(sets, offsets)])
    stops = np.repeat(offsets[1:], [s.cand.size for s in sets])
    b_all = _mle_exponents(
        ms_all[starts],
        np.concatenate([s.n_suffix[s.cand] for s in sets]),
        np.concatenate([s.logsum_suffix[s.cand] for s in sets]),
    )
    d_all = _ks_distances(ms_all, np.concatenate([s.cs for s in sets]), starts, stops, b_all)

    first = 0
    for s in sets:
        last = first + s.cand.size
        k = first + int(np.argmin(d_all[first:last]))  # the earliest of equal distances
        i = int(s.cand[k - first])
        first = last
        ms, cs = s.ms, s.cs
        xmin, b = int(ms[i]), float(b_all[k])
        alpha = b - 1.0
        emp_tail_variation = float(np.dot(2 * cs[i:], ms[i:]))
        model_sum = _grid_power_sum(xmin, int(ms[-1]) - xmin + 1, alpha)
        out[s.slot] = PowerLawFit(
            xmin=xmin,
            count_exponent=b,
            alpha=alpha,
            ks_distance=float(d_all[k]),
            n_tail=int(s.n_suffix[i]),
            amplitude=emp_tail_variation / model_sum,
        )
    return out


def fit_many(
    size_sets: Iterable[SizeHistogram | Decomposition | Iterable[int] | np.ndarray],
    *,
    min_tail: int = DEFAULT_MIN_TAIL,
    xmin_range: tuple[int, int] | None = None,
) -> list[PowerLawFit | None]:
    """fit of each size set, with None where fit raises InsufficientTailError.

    All cutoff candidates of all sets are fitted together, and each result
    is bit-identical to fitting its set alone.
    """
    return [
        None if isinstance(f, InsufficientTailError) else f
        for f in _fit_sets(size_sets, min_tail, xmin_range)
    ]


def fit(
    data: SizeHistogram | Decomposition | Iterable[int] | np.ndarray,
    *,
    min_tail: int = DEFAULT_MIN_TAIL,
    xmin_range: tuple[int, int] | None = None,
) -> PowerLawFit:
    """Select the cutoff and exponent for a movement-size distribution.

    Sizes must be at least 1, min_tail at least 2, and a given xmin_range
    (LO, HI) must have LO <= HI; ValueError otherwise, with the settings
    checked before any size.  min_tail and the xmin_range bounds must be
    integers (TypeError).  Every observed size is a cutoff candidate,
    subject to the candidate tail holding at least min_tail samples (and
    at least two distinct sizes) and to the optional inclusive xmin_range.
    Each candidate gets its own maximum-likelihood exponent; the candidate
    with the smallest Kolmogorov-Smirnov distance wins, earliest on ties.
    The amplitude scales the spectrum law so the model variation over the
    fitted range equals the empirical variation of the tail.
    """
    (f,) = _fit_sets([data], min_tail, xmin_range)
    if isinstance(f, InsufficientTailError):
        raise f
    return f
