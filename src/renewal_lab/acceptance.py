"""The acceptance suite: every headline quantitative claim as a pass/fail check.

Each criterion body returns ``(passed, detail)`` with the measured numbers in
``detail``; ``_criterion`` registers it in ``CRITERIA``, times it and wraps the
pair into a CriterionResult, and ``run_all`` executes them in order.
Tolerances are fixed here and mirror the statements they verify; randomised
suites use fixed seeds.
"""

from __future__ import annotations

import math
import time
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import model
from .hawkes import HawkesConfig, clt_experiment, coupling_experiment
from .model import DecayClass
from .rates import (
    LOG_VS_LOG_T,
    LOG_VS_T,
    build_rate_context,
    fit_empirical_rate,
    iteration_bound,
    oscillatory_mode,
    stable_manifold_ic,
)
from .volterra import (
    ALL_NONNEG,
    CONVERGED,
    DIVERGENT,
    NON_DECREASING,
    SolverConfig,
    check_monotone,
    compare_solutions,
    compute_rho,
    entry_time,
    equilibrium_locked_source,
    limit_diagnostic,
    solve_erlang_cascade,
    solve_nre,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def bistable_fixture():
    """Reference bistable fixture: sigmoid firing with an order-2 Erlang kernel."""
    h = model.make_erlang_kernel(2, 3.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0)
    reports = model.find_fixed_points(phi, h)
    return phi, h, reports


@functools.lru_cache(maxsize=None)
def affine_fixture():
    """Linear-case fixture: Phi = 1 + x with h = 0.5 e^{-t} (ell = 2, tau0 = 0.5)."""
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    phi = model.make_affine_phi(1.0)
    report = model.find_fixed_points(phi, h)[0]
    return phi, h, report


@functools.lru_cache(maxsize=None)
def _affine_empty_traj(t_end: float):
    phi, h, _ = affine_fixture()
    return solve_nre(phi, h, model.make_source_empty(), SolverConfig(t_end=t_end, dt=1e-3))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

#: criterion number -> ``run(threads) -> CriterionResult``
CRITERIA: dict[int, Callable] = {}


def _criterion(number: int, name: str) -> Callable:
    """Register a body returning ``(passed, detail)`` as criterion ``number``, timed as a whole."""

    def register(body: Callable) -> Callable:
        @functools.wraps(body)
        def run(threads: int) -> CriterionResult:
            t0 = time.time()
            passed, detail = body(threads)
            return CriterionResult(number, name, bool(passed), detail, time.time() - t0)

        CRITERIA[number] = run
        return run

    return register


@_criterion(1, "linear-subcritical-limit")
def criterion_01(threads: int) -> tuple:
    """Linear subcritical limit: lambda_t -> mu / (1 - ||h||_1)."""
    traj = _affine_empty_traj(30.0)
    err = abs(float(traj.lam[-1]) - 2.0)
    return err <= 1e-3, f"|lambda(30) - 2| = {err:.3e} (tol 1e-3)"


@_criterion(2, "equilibrium-invariance")
def criterion_02(threads: int) -> tuple:
    """Equilibrium sources keep the solution constant on [0, 50] to 1e-6."""
    phi, h, reports = bistable_fixture()
    cfg = SolverConfig(t_end=50.0, dt=1e-3)
    worst = 0.0
    for rep in reports:
        xi = equilibrium_locked_source(phi, h, rep.ell, cfg)
        traj = solve_nre(phi, h, xi, cfg)
        worst = max(worst, float(np.max(np.abs(traj.lam - rep.ell))))
    return worst <= 1e-6, f"worst sup deviation {worst:.3e} (tol 1e-6)"


@_criterion(3, "sigmoid-fixed-points")
def criterion_03(threads: int) -> tuple:
    """Three sigmoid fixed points at the reference locations, stable/unstable/stable."""
    phi, h, reports = bistable_fixture()
    targets = (0.5212, 1.0, 1.4788)
    kinds = (model.SUBCRITICAL, model.SUPERCRITICAL, model.SUBCRITICAL)
    ok = len(reports) == 3
    errs = []
    if ok:
        for rep, tgt, kind in zip(reports, targets, kinds):
            errs.append(abs(rep.ell - tgt))
            ok &= abs(rep.ell - tgt) <= 1e-3 and rep.stability.kind == kind
    detail = f"roots {[round(r.ell, 6) for r in reports]}, errors {[f'{e:.2e}' for e in errs]}"
    return ok, detail


@_criterion(4, "basins-of-attraction")
def criterion_04(threads: int) -> tuple:
    """Tail-source starts below/above the unstable point land on the matching stable root."""
    phi, h, reports = bistable_fixture()
    low, high = reports[0].ell, reports[2].ell
    cfg = SolverConfig(t_end=80.0, dt=1e-3)
    ok = True
    details = []
    for ell0 in (0.2, 0.5, 0.8, 0.95, 1.05, 1.2, 1.5, 2.0):
        traj = solve_nre(phi, h, model.make_source_tail(h, ell0), cfg)
        diag = limit_diagnostic(traj, reports, window=10.0)
        target = low if ell0 < 1.0 else high
        good = diag.kind == CONVERGED and diag.ell == target and diag.residual <= 1e-2
        ok &= good
        details.append(f"{ell0}->{'-' if diag.ell == low else '+' if diag.ell == high else '?'}")
    return ok, " ".join(details)


@_criterion(5, "empty-source-convergence")
def criterion_05(threads: int) -> tuple:
    """Empty source: strictly nondecreasing solution converging to the lowest root."""
    phi, h, reports = bistable_fixture()
    traj = solve_nre(phi, h, model.make_source_empty(), SolverConfig(t_end=30.0, dt=1e-3))
    mono = check_monotone(traj, NON_DECREASING, tol=1e-8)
    diag = limit_diagnostic(traj, reports, window=5.0)
    strict = bool(np.all(np.diff(traj.lam[traj.ts <= 10.0]) > 0))
    ok = mono and strict and diag.kind == CONVERGED and diag.ell == reports[0].ell
    return ok, f"nondecreasing={mono} strict(early)={strict} limit={diag.ell}"


@_criterion(6, "lower-order-source-crossing")
def criterion_06(threads: int) -> tuple:
    """Erlang-polynomial source of full vs lower order: crossing the unstable point."""
    phi, h, reports = bistable_fixture()
    cfg = SolverConfig(t_end=80.0, dt=1e-3)
    outcomes = []
    for c, target in (((1.4, 1.4, 1.4), reports[2].ell), ((1.4, 1.4, 0.0), reports[0].ell)):
        xi = model.make_source_erlang_polynomial(2, 3.0, c)
        traj = solve_nre(phi, h, xi, cfg)
        diag = limit_diagnostic(traj, reports, window=10.0)
        outcomes.append((diag.kind == CONVERGED and diag.ell == target, diag.ell))
    ok = all(o for o, _ in outcomes)
    return ok, f"L=2 -> {outcomes[0][1]}, L=1 -> {outcomes[1][1]}"


@_criterion(7, "supercritical-instability")
def criterion_07(threads: int) -> tuple:
    """One-sided perturbations of the unstable equilibrium source escape and settle."""
    phi, h, reports = bistable_fixture()
    lu = reports[1]
    cfg = SolverConfig(t_end=40.0, dt=1e-3)
    ok = True
    details = []
    for amp, target in ((0.02, reports[2].ell), (-0.02, reports[0].ell)):
        xi = model.add_exponential_perturbation(model.make_source_equilibrium(h, lu.ell), amp, 1.0)
        traj = solve_nre(phi, h, xi, cfg)
        exited = bool(np.any(np.abs(traj.lam - lu.ell) > 0.1))
        diag = limit_diagnostic(traj, reports, window=5.0)
        ok &= exited and diag.kind == CONVERGED and diag.ell == target
        details.append(f"{amp:+}: exit={exited} -> {diag.ell}")
    return ok, "; ".join(details)


@_criterion(8, "divergent-closed-form-domination")
def criterion_08(threads: int) -> tuple:
    """The divergent example dominates its closed-form lower trajectory."""
    a = 2.0
    phi = model.make_divergence_example_phi()
    h = model.make_scaled_exponential_kernel(1.0, 1.0)
    xi = model.make_source_divergence_example(a)
    reports = model.find_fixed_points(phi, h)
    traj = solve_nre(phi, h, xi, SolverConfig(t_end=200.0, dt=5e-4))
    y = model.divergence_lower_envelope(traj.ts, a)
    min_gap = float(np.min(traj.x - y))
    lam_end = float(traj.lam[-1])
    diag = limit_diagnostic(traj, reports, window=20.0)
    ok = min_gap >= -1e-3 and lam_end > 0.5 * float(y[-1]) and diag.kind == DIVERGENT
    return ok, f"min(x - y) = {min_gap:.3e}, lambda(200) = {lam_end:.2f} > {0.5 * float(y[-1]):.2f}, verdict {diag.kind}"


@_criterion(9, "erlang-cascade-cross-validation")
def criterion_09(threads: int) -> tuple:
    """Marching solver vs ODE cascade agree to 1e-4 across five scenarios."""
    phi, h, _ = bistable_fixture()
    cfg = SolverConfig(t_end=20.0, dt=1e-3)
    worst = 0.0
    for c in ((1.4, 1.4, 1.4), (1.4, 1.4, 0.0), (0.0, 0.0, 0.0), (0.8, 0.3, 0.1), (2.0, 1.0, 0.5)):
        tr_march = solve_nre(phi, h, model.make_source_erlang_polynomial(2, 3.0, c), cfg)
        tr_casc = solve_erlang_cascade(phi, 2, 3.0, c, cfg)
        worst = max(worst, float(np.max(np.abs(tr_march.lam - tr_casc.lam))))
    return worst <= 1e-4, f"worst sup error {worst:.3e} (tol 1e-4)"


@_criterion(10, "stable-manifold-oscillation")
def criterion_10(threads: int) -> tuple:
    """Oscillatory approach from the linearised stable plane of a supercritical point."""
    # S-shaped firing with flat second and third derivative at the fixed point,
    # so the off-plane contamination enters only at fifth order in epsilon
    phi = model.make_cubic_sigmoid_phi(0.5, 1.0, 8.0, 1.0)
    ell = 1.0
    tau0 = phi.derivative(ell, 1)  # = 2, supercritical for the unit-mass Erlang kernel
    ic = stable_manifold_ic(ell, tau0)
    mu, nu = oscillatory_mode(2, 1.0, tau0)
    period = 2.0 * math.pi / abs(nu)
    traj = solve_erlang_cascade(phi, 2, 1.0, ic, SolverConfig(t_end=2.2 * period, dt=1e-3))
    dev = traj.lam - ell
    in_two = traj.ts <= 2.0 * period
    sgn = np.sign(dev[in_two])
    changes = int(np.sum(sgn[:-1] * sgn[1:] < 0))
    env1 = float(np.max(np.abs(dev[traj.ts <= period])))
    env2 = float(np.max(np.abs(dev[(traj.ts > period) & (traj.ts <= 2.0 * period)])))
    ok = changes >= 2 and env2 < env1 and tau0 > 1.0
    return ok, f"tau0={tau0:g}, sign changes={changes}, envelope {env1:.3e} -> {env2:.3e}"


@_criterion(11, "envelope-rate-verification")
def criterion_11(threads: int) -> tuple:
    """Fitted decay rates dominate the predicted envelopes (one-sided)."""
    # compact kernel + compact source: exponential decay at rate log(1/tau)/(S v t0)
    support = 1.0
    xs = np.linspace(0.0, support, 2001)
    h = model.make_compact_kernel(15.0 * xs**2 * (support - xs) ** 2, support)
    phi = model.make_affine_phi(1.0)
    rep = model.find_fixed_points(phi, h)[0]
    xi = model.make_source_tail(h, 1.0)
    traj = solve_nre(phi, h, xi, SolverConfig(t_end=16.0, dt=5e-4))
    t0_entry = entry_time(traj, rep.ell, 0.1)
    ctx = build_rate_context(
        rep, phi, h, lambda_sup=1.05 * traj.sup_lambda(), eps0=0.1, t0=t0_entry, xi_decay=xi.decay, h_decay=h.decay
    )
    required_a = -0.75 * math.log(1.0 / ctx.tau) / max(support, t0_entry)
    fit_a = fit_empirical_rate(traj, rep.ell, (1.0, 8.0), LOG_VS_T)
    ok_a = fit_a.slope <= required_a

    # polynomial source (a = 1) + exponential kernel tail: log-log slope <= -0.9
    phi_b, h_b, rep_b = affine_fixture()
    norm = h_b.norm_l1
    chi = lambda t: norm / (1.0 + np.asarray(t, dtype=float))
    chi_p = lambda t: -norm / (1.0 + np.asarray(t, dtype=float)) ** 2
    xi_b = model.make_source_chi_perturbed(h_b, phi_b, 1.0, chi, chi_p, DecayClass.polynomial(1.0, norm))
    traj_b = solve_nre(phi_b, h_b, xi_b, SolverConfig(t_end=400.0, dt=1e-3))
    fit_b = fit_empirical_rate(traj_b, rep_b.ell, (40.0, 380.0), LOG_VS_LOG_T)
    ok_b = fit_b.slope <= -0.9
    return ok_a and ok_b, f"compact: slope {fit_a.slope:.3f} <= {required_a:.3f}; poly: slope {fit_b.slope:.3f} <= -0.9"


@_criterion(12, "iteration-bound-dominance")
def criterion_12(threads: int) -> tuple:
    """The k-step iteration bound dominates the observed error on a (k, M) grid."""
    phi, h, rep = affine_fixture()
    traj = _affine_empty_traj(160.0)
    eps0 = 0.1
    t_entry = entry_time(traj, rep.ell, eps0)
    ctx = build_rate_context(
        rep, phi, h,
        lambda_sup=1.05 * traj.sup_lambda(),
        eps0=eps0, t0=t_entry,
        xi_decay=DecayClass.compact(horizon=0.0), h_decay=h.decay,
    )
    h_tail = lambda m: float(h.tail(m))
    worst_margin = math.inf
    ok = True
    for k in range(1, 11):
        for j in range(10):
            m_val = t_entry + float(j)
            bound = iteration_bound(ctx, ctx.xi_decay.envelope, h_tail, k, m_val)
            actual = abs(float(traj.lam_at((k + 1) * m_val)) - rep.ell)
            worst_margin = min(worst_margin, bound - actual)
            ok &= actual <= bound
    return ok, f"10x10 grid, min(bound - error) = {worst_margin:.3e}"


@_criterion(13, "coupling-scaling")
def criterion_13(threads: int) -> tuple:
    """Coupling distance scales like 1/sqrt(N) below the explicit constant."""
    phi, h, _ = affine_fixture()
    xi = model.make_source_empty()
    cfg = HawkesConfig(n_particles=100, t_end=20.0, seed=2024, replicas=100)
    res = coupling_experiment(phi, h, xi, cfg, n_values=(100, 400, 1600), threads=threads)
    below = all(m <= b for m, b in zip(res.mean_sup_diff, res.bound_values))
    slope_ok = abs(res.slope + 0.5) <= 0.15
    return (
        below and slope_ok and res.counters["breaches"] == 0,
        f"means {tuple(round(m, 4) for m in res.mean_sup_diff)} vs bounds "
        f"{tuple(round(b, 4) for b in res.bound_values)}, slope {res.slope:.3f}, "
        f"dominator breaches {res.counters['breaches']}"
    )


@_criterion(14, "estimator-clt")
def criterion_14(threads: int) -> tuple:
    """Estimator fluctuations are asymptotically normal at desk scale."""
    phi, h, _ = affine_fixture()
    ell = 2.0
    xi = model.make_source_equilibrium(h, ell)  # keeps m_t = ell * t exactly
    cfg = HawkesConfig(n_particles=2000, t_end=100.0, seed=7, replicas=200, track_coupled=False)
    res = clt_experiment(phi, h, xi, cfg, ell=ell, threads=threads)
    ok = abs(res.mean) <= 0.2 and abs(res.variance - 1.0) <= 0.3 and res.ks_distance < res.ks_critical_1pct
    return (
        ok and res.counters["breaches"] == 0,
        f"mean {res.mean:+.4f} (tol 0.2), var {res.variance:.4f} (tol 1+-0.3), "
        f"KS {res.ks_distance:.4f} < {res.ks_critical_1pct:.4f}, dominator breaches {res.counters['breaches']}"
    )


def _random_kernel(rng) -> "model.MemoryKernel":
    kind = rng.integers(0, 3)
    if kind == 0:
        return model.make_erlang_kernel(int(rng.integers(0, 4)), float(rng.uniform(0.5, 3.0)))
    if kind == 1:
        return model.make_scaled_exponential_kernel(float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.5, 2.0)))
    support = float(rng.uniform(0.4, 1.5))
    xs = np.linspace(0.0, support, 501)
    vals = rng.uniform(0.2, 1.0) * xs * (support - xs) + rng.uniform(0.0, 0.3)
    return model.make_compact_kernel(vals, support)


@_criterion(15, "comparison-and-monotonicity-suites")
def criterion_15(threads: int) -> tuple:
    """Randomised comparison and monotonicity property suites (20 instances each)."""
    rng = np.random.default_rng(321)
    cfg = SolverConfig(t_end=8.0, dt=1e-3)
    comparison_violations = 0
    for _ in range(20):
        base = float(rng.uniform(0.2, 0.8))
        gain = float(rng.uniform(0.5, 1.5))
        slope = float(rng.uniform(2.0, 8.0))
        center = float(rng.uniform(0.5, 1.5))
        lift = float(rng.uniform(0.05, 0.3))
        phi1 = model.make_sigmoid_phi(base, gain, slope, center)
        phi2 = model.make_sigmoid_phi(base + lift, gain, slope, center)
        h = _random_kernel(rng)
        xi = model.make_source_tail(h, float(rng.uniform(0.0, 1.0)))
        tr1 = solve_nre(phi1, h, xi, cfg)
        tr2 = solve_nre(phi2, h, xi, cfg)
        if not compare_solutions(tr1, tr2, tol=1e-6):
            comparison_violations += 1

    monotone_violations = 0
    tested = 0
    while tested < 20:
        phi = model.make_sigmoid_phi(
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(0.5, 1.5)),
            float(rng.uniform(2.0, 8.0)),
            float(rng.uniform(0.5, 1.5)),
        )
        h = _random_kernel(rng)
        ell0 = float(rng.uniform(0.0, 0.8))
        xi = model.make_source_tail(h, ell0)
        rho = compute_rho(h, xi, phi, np.linspace(0.0, 8.0, 4001))
        if rho.summary != ALL_NONNEG or rho.strict_delta <= 0.0:
            continue  # hypothesis of the monotonicity statement not met; redraw
        tested += 1
        traj = solve_nre(phi, h, xi, cfg)
        if not check_monotone(traj, NON_DECREASING, tol=1e-8 * traj.sup_lambda()):
            monotone_violations += 1
    ok = comparison_violations == 0 and monotone_violations == 0
    return ok, f"comparison violations {comparison_violations}/20, monotonicity violations {monotone_violations}/20"


def run_all(only: Optional[list] = None, threads: int = 1) -> list:
    numbers = sorted(CRITERIA) if only is None else sorted(only)
    unknown = [n for n in numbers if n not in CRITERIA]
    if unknown:
        raise ValueError(f"--only: no criterion {', '.join(map(str, unknown))}; the criteria are {min(CRITERIA)}-{max(CRITERIA)}")
    return [CRITERIA[n](threads=threads) for n in numbers]
