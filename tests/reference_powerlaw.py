"""Reference power-law fit: one scalar bounded search and one KS pass per cutoff.

This is the per-candidate loop that powerlaw.fit replaces with array
passes over all candidates.  It calls scipy's minimize_scalar directly, so
the tests can require the package's fits to be bit-identical to it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from persistick.powerlaw import _BRACKET, InsufficientTailError, PowerLawFit, _as_sizes_counts


def mle_from_counts(xmin: int, n: int, log_sum: float, maxiter: int = 500) -> float:
    def neg_ll(b: float) -> float:
        return n * float(np.log(zeta(b, xmin))) + b * log_sum

    res = minimize_scalar(
        neg_ll, bounds=_BRACKET, method="bounded", options={"xatol": 1e-9, "maxiter": maxiter}
    )
    if res.success:
        return float(res.x)
    approx = 1.0 + n / (log_sum - n * np.log(xmin - 0.5))
    return float(min(max(approx, _BRACKET[0]), _BRACKET[1]))


def mle_count_exponent(sizes, xmin: int, maxiter: int = 500) -> float:
    """Valid inputs only: the package checks them."""
    ms, cs = _as_sizes_counts(sizes)
    return mle_from_counts(xmin, int(cs.sum()), float(np.dot(cs, np.log(ms))), maxiter)


def ks_from_counts(ms: np.ndarray, cs: np.ndarray, xmin: int, exponent: float) -> float:
    n = int(cs.sum())
    ecdf = np.cumsum(cs) / n
    norm = float(zeta(exponent, xmin))
    model = 1.0 - zeta(exponent, ms + 1) / norm
    return float(np.max(np.abs(ecdf - model)))


def fit(data, *, min_tail: int = 50, xmin_range=None, maxiter: int = 500) -> PowerLawFit:
    ms, cs = _as_sizes_counts(data)
    if ms.size == 0:
        raise InsufficientTailError("empty size distribution")

    n_suffix = np.cumsum(cs[::-1])[::-1]
    logs = np.log(ms)
    logsum_suffix = np.cumsum((cs * logs)[::-1])[::-1]

    best = None
    best_fit = None
    for i in range(ms.size):
        xmin = int(ms[i])
        if xmin_range is not None and not xmin_range[0] <= xmin <= xmin_range[1]:
            continue
        n_tail = int(n_suffix[i])
        if n_tail < min_tail:
            continue
        if ms.size - i < 2:
            continue
        b = mle_from_counts(xmin, n_tail, float(logsum_suffix[i]), maxiter)
        d = ks_from_counts(ms[i:], cs[i:], xmin, b)
        if best is None or d < best[0]:
            best = (d, xmin)
            best_fit = (xmin, b, d, n_tail)
    if best_fit is None:
        raise InsufficientTailError("no cutoff candidate")

    xmin, b, d, n_tail = best_fit
    alpha = b - 1.0
    mask = ms >= xmin
    emp_tail_variation = float(np.dot(2 * cs[mask], ms[mask]))
    grid = np.arange(xmin, int(ms[-1]) + 1, dtype=np.float64)
    model_sum = float(np.sum(grid**-alpha))
    return PowerLawFit(
        xmin=xmin,
        count_exponent=float(b),
        alpha=float(alpha),
        ks_distance=float(d),
        n_tail=n_tail,
        amplitude=emp_tail_variation / model_sum,
    )
