"""Small numerical utilities: Lambert W, running sup, normal/Kolmogorov distributions, quadrature."""

from __future__ import annotations

import math

import numpy as np

_INV_E = math.exp(-1.0)


def lambert_w(x: float, branch: int = 0) -> float:
    """Real Lambert W, solving w * exp(w) = x by Newton iteration.

    branch=0 is the principal branch (x >= -1/e), branch=-1 the lower
    branch (-1/e <= x < 0).  Residual |w e^w - x| is driven below
    1e-12 max(1, |x|), in at most 80 Halley steps.
    """
    if branch not in (0, -1):
        raise ValueError("branch must be 0 or -1")
    if x < -_INV_E - 1e-15:
        raise ValueError(f"lambert_w: argument {x} below -1/e")
    if branch == -1 and x >= 0.0:
        raise ValueError("lambert_w: branch -1 needs x in [-1/e, 0)")
    x = max(x, -_INV_E)

    # branch-appropriate seeds
    if branch == 0:
        if x > math.e:
            lx = math.log(x)
            w = lx - math.log(lx)
        elif x > -0.25:
            w = x / (1.0 + x) if x > -0.5 else x
            w = math.log1p(x) if x > -0.9 else w
        else:
            w = -1.0 + math.sqrt(2.0 * (math.e * x + 1.0))
    else:
        if x > -0.25:
            lx = math.log(-x)
            w = lx - math.log(-lx)
        else:
            w = -1.0 - math.sqrt(2.0 * (math.e * x + 1.0))
        w = min(w, -1.0)

    scale = max(1.0, abs(x))
    for _ in range(80):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-12 * scale:
            return w
        d = ew * (w + 1.0)
        if d == 0.0:
            w += 1e-12 if branch == 0 else -1e-12
            continue
        # Halley step: robust near the branch point
        step = f / (d - f * (w + 2.0) / (2.0 * (w + 1.0)) if w != -1.0 else d)
        w -= step
        if branch == -1 and w > -1.0:
            w = -1.0 - 1e-12
    ew = math.exp(w)
    if abs(w * ew - x) > 1e-8 * scale:
        raise RuntimeError(f"lambert_w failed to converge for x={x}, branch={branch}")
    return w


def running_sup_from_right(values: np.ndarray) -> np.ndarray:
    """``out[i] = max(values[i:])``: the running maximum taken from the right."""
    return np.maximum.accumulate(values[::-1])[::-1]


def normal_cdf(x):
    """Standard normal distribution function via erf."""
    xs = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + np.vectorize(math.erf)(xs / math.sqrt(2.0)))
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution, 2*sum (-1)^{k-1} exp(-2k^2 x^2) over k <= 101."""
    if x <= 0.0:
        return 1.0
    s = 0.0
    for k in range(1, 102):
        term = math.exp(-2.0 * k * k * x * x)
        s += term if k % 2 == 1 else -term
        if term < 1e-18:
            break
    return min(1.0, max(0.0, 2.0 * s))


def kolmogorov_critical(alpha: float) -> float:
    """Quantile c with P(sup-statistic > c) = alpha, asymptotic regime."""
    lo, hi = 1e-3, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ks_statistic(samples, cdf=normal_cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic sup |F_n - F|."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("ks_statistic: empty sample")
    cs = np.asarray([cdf(v) for v in xs])
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - cs)
    d_minus = np.max(cs - (grid - 1.0 / n))
    return float(max(d_plus, d_minus))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature of ``f`` on [a, b], halving intervals at most 48 times."""
    if b <= a:
        return 0.0

    def simpson(lo, flo, hi, fhi, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, hi, fhi, fmid, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = f(lmid)
        frmid = f(rmid)
        left = simpson(lo, flo, mid, fmid, flmid)
        right = simpson(mid, fmid, hi, fhi, frmid)
        if depth >= 48 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, flo, mid, fmid, flmid, left, 0.5 * eps, depth + 1) + recurse(
            mid, fmid, hi, fhi, frmid, right, 0.5 * eps, depth + 1
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, fa, b, fb, fm)
    return recurse(a, fa, b, fb, fm, whole, tol, 0)
