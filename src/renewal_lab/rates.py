"""Quantitative convergence-rate machinery around subcritical fixed points.

Implements the contraction factor tau, the decay envelopes Lambda(t; t0, tau)
selected by the decay classes of the source term xi and of the kernel tail H,
their explicit constants and start times (including the Lambert-W thresholds),
the k-step iteration bound, and least-squares rate fits against solved
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .model import SUBCRITICAL, DecayClass, FiringFunction, FixedPointReport, MemoryKernel
from .special import lambert_w
from .volterra import Trajectory

_E = math.e


class TauOutOfRangeError(Exception):
    """tau(eps0) >= 1; carries the largest admissible eps0."""

    def __init__(self, tau: float, eps0_star: float):
        super().__init__(f"tau = {tau:.6g} >= 1; any eps0 < {eps0_star:.6g} is admissible")
        self.tau = tau
        self.eps0_star = eps0_star


class WindowTooNoisyError(Exception):
    """Too few usable points above the solver noise floor for a rate fit."""


@dataclass(frozen=True)
class RateContext:
    """Everything the rate bounds need around one subcritical fixed point."""

    ell: float
    tau0: float
    lambda_sup: float
    tau: float
    t0: float
    norm_l1: float
    xi_decay: DecayClass
    h_decay: DecayClass

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must lie in [0, 1), got {self.tau}")
        if self.tau + 1e-12 < self.tau0:
            raise ValueError("tau cannot be smaller than tau0")


def _tau_terms(phi: FiringFunction, h: MemoryKernel, ell: float, lambda_sup: float) -> tuple:
    """(d1, bulk) with tau(eps0) = ||h||_1 (d1 + eps0 bulk), as written out in ``tau_of_eps0``."""
    d1 = abs(float(phi.d1(h.kappa * ell)))
    bulk = 0.5 * phi.d2_sup * (1.0 + 2.0 * ell + lambda_sup + h.norm_l1)
    return d1, bulk


def tau_of_eps0(phi: FiringFunction, h: MemoryKernel, ell: float, lambda_sup: float, eps0: float) -> float:
    """tau(eps0) = ||h||_1 (|Phi'(kappa ell)| + eps0 ||Phi''||_inf/2 (1 + 2 ell + ||lambda||_inf + ||h||_1))."""
    d1, bulk = _tau_terms(phi, h, ell, lambda_sup)
    return h.norm_l1 * (d1 + eps0 * bulk)


def build_rate_context(
    report: FixedPointReport,
    phi: FiringFunction,
    h: MemoryKernel,
    lambda_sup: float,
    eps0: float,
    t0: float,
    xi_decay: DecayClass,
    h_decay: Optional[DecayClass] = None,
) -> RateContext:
    """Assemble a RateContext; rejects eps0 so large that tau(eps0) >= 1.

    The rejection carries the threshold eps0* solving tau(eps0*) = 1.
    """
    if report.stability.kind != SUBCRITICAL:
        raise ValueError(f"rate context requires a subcritical fixed point, got {report.stability.kind}")
    if eps0 <= 0:
        raise ValueError("eps0 must be > 0")
    if lambda_sup < report.ell:
        raise ValueError("lambda_sup must dominate the fixed point")
    if t0 < 0:
        raise ValueError("t0 must be >= 0")
    h_decay = h_decay if h_decay is not None else h.decay
    tau = tau_of_eps0(phi, h, report.ell, lambda_sup, eps0)
    if tau >= 1.0:
        d1, bulk = _tau_terms(phi, h, report.ell, lambda_sup)
        eps0_star = (1.0 / h.norm_l1 - d1) / bulk if bulk > 0 else math.inf
        raise TauOutOfRangeError(tau, eps0_star)
    return RateContext(
        ell=report.ell,
        tau0=report.tau0,
        lambda_sup=lambda_sup,
        tau=tau,
        t0=t0,
        norm_l1=h.norm_l1,
        xi_decay=xi_decay,
        h_decay=h_decay,
    )


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

STRETCHED_EXP = "stretched-exp"
POLY_LOG = "poly-log"
PURE_EXP = "pure-exp"
POLY_PURE = "poly"
POLY_LOG_MAX = "poly-log-max"


@dataclass(frozen=True)
class Envelope:
    """A decay envelope |lambda_t - ell| <= C * Lambda(t) valid for t >= sigma_t0."""

    shape: str
    params: dict
    C: float
    sigma_t0: float
    case: str

    def shape_value(self, t):
        t = np.asarray(t, dtype=float)
        if self.shape == STRETCHED_EXP:
            return np.exp(-self.params["rate"] * np.sqrt(np.maximum(t, 0.0)))
        if self.shape == PURE_EXP:
            return np.exp(-self.params["rate"] * t)
        if self.shape == POLY_PURE:
            tt = np.maximum(t, 1e-300)
            return tt ** (-self.params["power"])
        if self.shape == POLY_LOG:
            b = self.params["power"]
            tt = np.maximum(t, 1.0 + 1e-12)
            return np.log(tt) ** b * tt ** (-b)
        if self.shape == POLY_LOG_MAX:
            a, b = self.params["a"], self.params["b"]
            tt = np.maximum(t, 1.0 + 1e-12)
            return np.maximum(tt ** (-a), np.log(tt) ** b * tt ** (-b))
        raise ValueError(f"unknown shape {self.shape!r}")

    def evaluate(self, t):
        return self.C * self.shape_value(t)

    def to_dict(self) -> dict:
        return {
            "shape": self.shape,
            "params": dict(self.params),
            "C": self.C,
            "sigma_t0": self.sigma_t0,
            "case": self.case,
        }


def _c1_constant(a: float, tau: float, A: float) -> float:
    """Constant in the polynomial-source partial-sum bound."""
    l1t = math.log(1.0 / tau)
    term1 = tau ** (a / math.log(tau) + 1.0) / l1t * (a / (_E * l1t)) ** a
    term2 = (1.0 + a + a * (2.0 * (a + 1.0) / (_E * l1t)) ** (2.0 * (a + 1.0))) / l1t
    return A * (1.0 + term1 + term2)


def _tail_coefficient(ctx: RateContext) -> float:
    """tau (L + 2 ell) / (||h||_1 (1 - tau)), the factor of the kernel tail H_M in every bound."""
    return ctx.tau * (ctx.lambda_sup + 2.0 * ctx.ell) / (ctx.norm_l1 * (1.0 - ctx.tau))


def _c2_constant(ctx: RateContext, A: float) -> float:
    """max of the tail coefficient and the geometric coefficient (exponential/compact xi)."""
    tail = _tail_coefficient(ctx)
    geo = A * ctx.tau**2 / (2.0 * ctx.norm_l1) + ctx.lambda_sup + ctx.ell
    return max(tail, geo)


def _c3_constant(ctx: RateContext, a: float, A: float) -> float:
    tail = _tail_coefficient(ctx)
    if ctx.tau > 0:
        lead = ctx.tau * _c1_constant(a, ctx.tau, A) / ctx.norm_l1
    else:
        lead = 0.0
    return max(lead, tail, ctx.lambda_sup + ctx.ell)


def _log_threshold(c: float) -> float:
    """Largest solution of T = c log T (1.0 when the constraint is vacuous)."""
    if c < _E:
        return 1.0
    return -c * lambert_w(-1.0 / c, branch=-1)


def _sqrtlog_threshold(c: float) -> float:
    """Largest solution of (log T)^2 = T / c (1.0 when vacuous)."""
    if c < _E * _E / 4.0:
        return 1.0
    w = lambert_w(-1.0 / (2.0 * math.sqrt(c)), branch=-1)
    return 4.0 * c * w * w


def _powerlog_threshold(a: float, b: float) -> float:
    """Largest T with (a/b) log T = T^(1 - a/b), for a < b (1.0 when vacuous)."""
    arg = 1.0 - b / a
    if arg < -1.0 / _E:
        return 1.0
    w = lambert_w(arg, branch=-1)
    return math.exp(-(b / (b - a)) * w)


def predict_envelope(ctx: RateContext) -> Envelope:
    """Select the decay envelope for the (xi-decay, H-decay) pair.

    Shapes, constants C and start times sigma(t0) follow the explicit
    case-by-case bounds; Lambert-W thresholds use the lower branch (the larger
    crossing), and a threshold whose defining equation has no real crossing is
    vacuous.  Start times of log-polynomial shapes are floored at e so every
    envelope is nonincreasing on its domain of validity.
    """
    xd, hd = ctx.xi_decay, ctx.h_decay
    if ctx.tau <= 0.0:
        raise ValueError("envelope prediction needs tau > 0")
    tau, t0 = ctx.tau, ctx.t0
    l1t = math.log(1.0 / tau)
    case = f"{xd.kind}-{hd.kind}"

    if xd.kind == "exponential":
        A, a = xd.constant, xd.rate
        if hd.kind == "exponential":
            B, b = hd.constant, hd.rate
            sigma = b * l1t * max(t0**2, (math.log(2.0 / tau) / a) ** 2)
            return Envelope(STRETCHED_EXP, {"rate": math.sqrt(b * l1t)}, _c2_constant(ctx, A) * (B + 1.0), sigma, case)
        if hd.kind == "polynomial":
            b = hd.rate
            c = b * l1t * max(t0, math.log(2.0 / tau) / a**2)
            sigma = max(_log_threshold(c), _E)
            return Envelope(POLY_LOG, {"power": b}, 2.0 * _c2_constant(ctx, A), sigma, case)
        s_h = hd.horizon
        sigma = max(s_h, t0)
        return Envelope(PURE_EXP, {"rate": l1t / max(s_h, t0, 1e-300)}, 2.0 * _c2_constant(ctx, A), sigma, case)

    if xd.kind == "polynomial":
        A, a = xd.constant, xd.rate
        c3 = 3.0 * _c3_constant(ctx, a, A)
        if hd.kind == "exponential":
            b = hd.rate
            c = a**2 / (b * l1t)
            sigma = max(math.exp(t0 * b / a), _sqrtlog_threshold(c))
            return Envelope(POLY_PURE, {"power": a}, c3, sigma, case)
        if hd.kind == "polynomial":
            b = hd.rate
            if b <= a:
                sigma = max(_log_threshold(t0 * b / l1t), _E)
            else:
                sigma = max((t0 * b / l1t) ** (b / a) if t0 > 0 else 1.0, _powerlog_threshold(a, b), _E)
            return Envelope(POLY_LOG_MAX, {"a": a, "b": b}, c3, sigma, case)
        sigma = max(hd.horizon, t0)
        return Envelope(POLY_PURE, {"power": a}, c3, sigma, case)

    # compactly supported xi: the source sum drops out for M >= S_xi/2
    s_xi = xd.horizon
    t0_eff = max(t0, 0.5 * s_xi)
    if hd.kind == "exponential":
        B, b = hd.constant, hd.rate
        sigma = b * l1t * t0_eff**2
        return Envelope(STRETCHED_EXP, {"rate": math.sqrt(b * l1t)}, _c2_constant(ctx, 0.0) * (B + 1.0), sigma, case)
    if hd.kind == "polynomial":
        b = hd.rate
        sigma = max(_log_threshold(b * l1t * t0_eff), _E)
        return Envelope(POLY_LOG, {"power": b}, 2.0 * _c2_constant(ctx, 0.0), sigma, case)
    s_h = hd.horizon
    scale = max(s_xi, s_h, t0)
    return Envelope(PURE_EXP, {"rate": l1t / max(scale, 1e-300)}, 2.0 * _c2_constant(ctx, 0.0), max(scale, 1e-300), case)


def calibrate_envelope(env: Envelope, traj: Trajectory, ell: float) -> Envelope:
    """Replace C so the envelope touches |lambda - ell| at the first grid point past sigma_t0.

    The explicit constants are conservative upper bounds; empirical
    verification calibrates the level from the trajectory and checks the shape
    on the remainder.
    """
    mask = traj.ts >= env.sigma_t0
    if not np.any(mask):
        raise ValueError("trajectory does not reach sigma_t0")
    idx = int(np.argmax(mask))
    val = abs(traj.lam[idx] - ell)
    shape = float(env.shape_value(traj.ts[idx]))
    if shape <= 0:
        raise ValueError("degenerate envelope value at calibration point")
    return replace(env, C=max(val / shape, 1e-300))


def verify_envelope(traj: Trajectory, ell: float, env: Envelope, slack: float = 1.0):
    """Check |lambda_t - ell| <= slack * C * Lambda(t) for all grid t >= sigma_t0.

    Returns (ok, worst_ratio).
    """
    if slack < 1.0:
        raise ValueError("slack must be >= 1")
    if traj.t_end < env.sigma_t0:
        raise ValueError("trajectory must cover [sigma_t0, t_end]")
    mask = traj.ts >= env.sigma_t0
    vals = np.abs(traj.lam[mask] - ell)
    bounds = slack * env.evaluate(traj.ts[mask])
    ratio = vals / np.maximum(bounds, 1e-300)
    worst = float(np.max(ratio))
    return worst <= 1.0 + 1e-9, worst


# ---------------------------------------------------------------------------
# iteration bound
# ---------------------------------------------------------------------------


def iteration_bound(ctx: RateContext, xi_sup_fn: Callable, h_tail_fn: Callable, k: int, M: float) -> float:
    """k-step contraction bound on |lambda_{(k+1)M} - ell|.

    (tau/||h||_1) sum_{j<k} tau^j v_{(k+1-j)M} + tau(L+2 ell)/(||h||_1(1-tau)) H_M
    + tau^k (L + ell),  with L the a-priori sup bound on lambda.  Valid for any
    k >= 1 and M >= t0; nonincreasing in both arguments.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if M < ctx.t0:
        raise ValueError(f"M = {M} must be >= t0 = {ctx.t0}")
    tau = ctx.tau
    s = 0.0
    for j in range(k):
        s += tau**j * float(xi_sup_fn((k + 1 - j) * M))
    lead = tau / ctx.norm_l1 * s
    mid = _tail_coefficient(ctx) * float(h_tail_fn(M))
    geo = tau**k * (ctx.lambda_sup + ctx.ell)
    return lead + mid + geo


# ---------------------------------------------------------------------------
# empirical rate fits
# ---------------------------------------------------------------------------

LOG_VS_SQRT_T = "log-vs-sqrt-t"
LOG_VS_LOG_T = "log-vs-log-t"
LOG_VS_T = "log-vs-t"


@dataclass(frozen=True)
class RateFit:
    model: str
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_empirical_rate(traj: Trajectory, ell: float, window, model: str) -> RateFit:
    """Least-squares fit of log|lambda_t - ell| against sqrt(t), log(t) or t.

    Points with |lambda_t - ell| <= 10 * inner_tol are excluded (solver noise);
    fewer than 20 usable points raises WindowTooNoisyError.
    """
    t_lo, t_hi = window
    noise = 10.0 * float(traj.metadata.get("inner_tol", 1e-12))
    mask = (traj.ts >= t_lo) & (traj.ts <= t_hi)
    err = np.abs(traj.lam[mask] - ell)
    ts = traj.ts[mask]
    keep = err > noise
    if model in (LOG_VS_LOG_T, LOG_VS_SQRT_T):
        keep &= ts > 0
    ts, err = ts[keep], err[keep]
    if ts.size < 20:
        raise WindowTooNoisyError(f"only {ts.size} usable points in window [{t_lo}, {t_hi}]")
    if model == LOG_VS_SQRT_T:
        xs = np.sqrt(ts)
    elif model == LOG_VS_LOG_T:
        xs = np.log(ts)
    elif model == LOG_VS_T:
        xs = ts
    else:
        raise ValueError(f"unknown fit model {model!r}")
    ys = np.log(err)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(model=model, slope=float(slope), intercept=float(intercept), r_squared=r2, n_points=int(ts.size))


# ---------------------------------------------------------------------------
# Erlang cascade linearisation
# ---------------------------------------------------------------------------


def oscillatory_mode(n: int, alpha: float, tau0: float):
    """(mu, nu): real and imaginary part of the k = 1 cascade eigenvalue."""
    lam1 = alpha * (tau0 ** (1.0 / (n + 1)) * np.exp(2j * np.pi / (n + 1)) - 1.0)
    return float(lam1.real), float(lam1.imag)


def stable_manifold_ic(ell: float, tau0: float) -> np.ndarray:
    """Initial cascade state ell (1,1,1) + eps w1 with eps = 1e-2 ell and w1 = (1, tau0^{1/3}, -2 tau0^{2/3}).

    For the order-2 cascade at unit rate in the supercritical regime, this is
    the linearised initial condition on the oscillatory stable plane.
    """
    if tau0 <= 1.0:
        raise ValueError("stable-manifold construction needs tau0 > 1")
    eps = 1e-2 * ell
    w1 = np.array([1.0, tau0 ** (1.0 / 3.0), -2.0 * tau0 ** (2.0 / 3.0)])
    return ell * np.ones(3) + eps * w1
