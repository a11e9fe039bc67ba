"""Reference power-law fit: one scalar bounded search and one KS pass per cutoff.

This is the per-candidate loop that powerlaw.fit_many replaces with array
passes over all candidates of all sets.  Its bounded search is a frozen
copy of scipy 1.17.1's scalar routine, minimize_scalar(method="bounded"),
so the tests can require the package's fits to be bit-identical to it
whichever scipy is installed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy import sqrt
from scipy.special import zeta

from persistick.powerlaw import _BRACKET, InsufficientTailError, PowerLawFit, _as_sizes_counts


class BoundedResult(NamedTuple):
    x: float
    fun: float
    status: int  # 0 converged, 1 evaluation cap reached, 2 NaN met
    nfev: int


# is_finite_scalar and _minimize_scalar_bounded below are copied from scipy 1.17.1,
# the module scipy.optimize._optimize, without its option checks and printing, and
# returning a BoundedResult in place of an OptimizeResult.  Its licence:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
#
# The module it comes from also carries this notice:
#
# ******NOTICE***************
# optimize.py module by Travis E. Oliphant
#
# You may copy and use this module as you see fit with no
# guarantee implied provided you keep this notice in all copies.
# *****END NOTICE************


def is_finite_scalar(x):
    """Test whether `x` is either a finite scalar or a finite array scalar.

    """
    return np.size(x) == 1 and np.isfinite(x)


def _minimize_scalar_bounded(func, bounds, args=(), xatol=1e-5, maxiter=500):
    maxfun = maxiter
    # Test bounds are of correct form
    if len(bounds) != 2:
        raise ValueError('bounds must have two elements.')
    x1, x2 = bounds

    if not (is_finite_scalar(x1) and is_finite_scalar(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")

    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")

    flag = 0

    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x, *args)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while (np.abs(xf - xm) > (tol2 - 0.5 * (b - a))):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if ((np.abs(p) < np.abs(0.5*q*r)) and (p > q*(a - xf)) and
                    (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:      # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean*e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x, *args)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            flag = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        flag = 2

    return BoundedResult(x=xf, fun=fx, status=flag, nfev=num)


def neg_log_likelihood(xmin: int, n: int, log_sum: float):
    def neg_ll(b: float) -> float:
        return n * float(np.log(zeta(b, xmin))) + b * log_sum

    return neg_ll


def mle_from_counts(xmin: int, n: int, log_sum: float, maxiter: int = 500) -> float:
    res = _minimize_scalar_bounded(
        neg_log_likelihood(xmin, n, log_sum), _BRACKET, xatol=1e-9, maxiter=maxiter
    )
    if res.status == 0:
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
