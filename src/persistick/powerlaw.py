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

Every candidate cutoff of one fit is handled in two array passes.  The
likelihood maxima come from a lockstep copy of Brent's bounded search as
scipy 1.17's ``minimize_scalar(method="bounded")`` implements it: each
candidate keeps its own search state, every step is taken by all unfinished
candidates together, and the likelihood of all of them is one ``zeta``
call.  A step reads only its own candidate's state, with the same constants,
the same comparisons and the same floating-point operations in the same
order as the scalar routine, so each exponent is bit-identical to a
separate scalar search.  The KS distances are one ``zeta`` call over the
concatenated tails and a segmented maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import zeta

from .core import Decomposition
from .spectrum import SizeHistogram

__all__ = [
    "PowerLawFit",
    "InsufficientTailError",
    "mle_count_exponent",
    "ks_distance",
    "fit",
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


def _as_sizes_counts(
    data: SizeHistogram | Decomposition | Iterable[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(data, SizeHistogram):
        return data.sizes(), data.counts()
    if isinstance(data, Decomposition):
        arr = data.sizes()
    else:
        arr = np.asarray(list(data) if not isinstance(data, np.ndarray) else data)
        if arr.size and arr.dtype.kind not in "iu":
            raise TypeError("sizes must be integers")
        arr = arr.astype(np.int64, copy=False)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    uniq, counts = np.unique(arr, return_counts=True)
    return uniq.astype(np.int64), counts.astype(np.int64)


def _mle_exponents(xmin: np.ndarray, n: np.ndarray, log_sum: np.ndarray) -> np.ndarray:
    """Maximum-likelihood exponents of many tails, one search each, in lockstep.

    Tail k has n[k] sizes >= xmin[k] whose logs sum to log_sum[k].  Each
    search minimizes n * ln zeta(b, xmin) + b * log_sum over the bracket
    exactly as scipy's _minimize_scalar_bounded does for one tail.  A tail
    whose search hits the evaluation cap or meets a NaN gets the
    closed-form continuous estimate, clamped to the bracket.
    """
    xmin, n, log_sum = (np.asarray(x, dtype=np.float64) for x in (xmin, n, log_sum))

    def neg_ll(b: np.ndarray, k: np.ndarray) -> np.ndarray:
        return n[k] * np.log(zeta(b, xmin[k])) + b * log_sum[k]

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


def mle_count_exponent(sizes: Sequence[int] | np.ndarray, xmin: int) -> float:
    """Maximum-likelihood exponent of the count law for sizes >= xmin."""
    ms, cs = _as_sizes_counts(sizes)
    if int(cs.sum()) < 2:
        raise ValueError("need at least two sizes to estimate an exponent")
    if xmin < 1:
        raise ValueError("xmin must be at least 1")
    if int(ms[0]) < xmin:
        raise ValueError("all sizes must be >= xmin")
    if ms.size < 2:
        raise ValueError("exponent is unidentifiable when all sizes are equal")
    n = int(cs.sum())
    log_sum = float(np.dot(cs, np.log(ms)))
    return float(_mle_exponents([xmin], [n], [log_sum])[0])


def _ks_distances(
    ms: np.ndarray, cs: np.ndarray, starts: np.ndarray, xmin: np.ndarray, exponent: np.ndarray
) -> np.ndarray:
    """KS distance of each tail ms[starts[k]:] against its law (exponent[k], xmin[k]).

    The tails are concatenated, a bounded number of elements at a time, and
    each tail's maximum gap is a segmented maximum over its stretch.
    """
    cum = np.cumsum(cs)
    lens = ms.size - starts
    out = np.empty(starts.size)
    first = 0
    while first < starts.size:
        # At least one tail per batch, then whole tails up to the block size.
        last = first + max(1, int(np.searchsorted(np.cumsum(lens[first:]), _KS_BLOCK, "right")))
        i, m = starts[first:last], lens[first:last]
        seg = np.cumsum(m) - m
        j = np.arange(int(m.sum())) - np.repeat(seg - i, m)
        below = np.where(i > 0, cum[i - 1], 0)
        ecdf = (cum[j] - np.repeat(below, m)) / np.repeat(cum[-1] - below, m)
        norm = zeta(exponent[first:last], xmin[first:last])
        model = 1.0 - zeta(np.repeat(exponent[first:last], m), ms[j] + 1) / np.repeat(norm, m)
        out[first:last] = np.maximum.reduceat(np.abs(ecdf - model), seg)
        first = last
    return out


def ks_distance(
    sizes: Sequence[int] | np.ndarray, xmin: int, exponent: float
) -> float:
    """Max gap between empirical and model tail CDFs at observed sizes."""
    ms, cs = _as_sizes_counts(sizes)
    if int(cs.sum()) < 2:
        raise ValueError("need at least two sizes to measure a distance")
    if int(ms[0]) < xmin:
        raise ValueError("all sizes must be >= xmin")
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    return float(_ks_distances(ms, cs, np.array([0]), np.array([xmin]), np.array([exponent]))[0])


def fit(
    data: SizeHistogram | Decomposition | Iterable[int] | np.ndarray,
    *,
    min_tail: int = DEFAULT_MIN_TAIL,
    xmin_range: tuple[int, int] | None = None,
) -> PowerLawFit:
    """Select the cutoff and exponent for a movement-size distribution.

    Sizes must be at least 1 (ValueError otherwise).  Every observed size
    is a cutoff candidate, subject to the candidate tail holding at least
    min_tail samples (and at least two distinct sizes) and to the optional
    inclusive xmin_range.  Each candidate gets its own maximum-likelihood
    exponent; the candidate with the smallest Kolmogorov-Smirnov distance
    wins, earliest on ties.  The amplitude scales the spectrum law so the
    model variation over the fitted range equals the empirical variation
    of the tail.
    """
    ms, cs = _as_sizes_counts(data)
    if ms.size == 0:
        raise InsufficientTailError("empty size distribution")
    if min_tail < 2:
        raise ValueError("min_tail must be at least 2")
    if int(ms[0]) < 1:
        raise ValueError(f"sizes must be at least 1, got {int(ms[0])}")

    n_suffix = np.cumsum(cs[::-1])[::-1]
    logsum_suffix = np.cumsum((cs * np.log(ms))[::-1])[::-1]
    usable = n_suffix >= min_tail
    usable[-1] = False  # a tail needs two distinct sizes
    if not usable.any():
        raise InsufficientTailError(
            f"no cutoff candidate leaves at least {min_tail} tail samples"
        )
    if xmin_range is not None:
        usable &= [xmin_range[0] <= m <= xmin_range[1] for m in ms.tolist()]
        if not usable.any():
            raise InsufficientTailError(
                f"no cutoff candidate with at least {min_tail} tail samples"
                f" lies in xmin_range {tuple(xmin_range)}"
            )
    cand = np.flatnonzero(usable)

    b_all = _mle_exponents(ms[cand], n_suffix[cand], logsum_suffix[cand])
    d_all = _ks_distances(ms, cs, cand, ms[cand], b_all)
    k = int(np.argmin(d_all))  # the earliest of equal distances
    xmin, b, d, n_tail = int(ms[cand[k]]), float(b_all[k]), float(d_all[k]), int(n_suffix[cand[k]])

    alpha = b - 1.0
    mask = ms >= xmin
    emp_tail_variation = float(np.dot(2 * cs[mask], ms[mask]))
    grid = np.arange(xmin, int(ms[-1]) + 1, dtype=np.float64)
    model_sum = float(np.sum(grid**-alpha))
    amplitude = emp_tail_variation / model_sum
    return PowerLawFit(
        xmin=xmin,
        count_exponent=b,
        alpha=alpha,
        ks_distance=d,
        n_tail=n_tail,
        amplitude=amplitude,
    )
