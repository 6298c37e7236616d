import math

import numpy as np
import pytest

from renewal_lab.model import DecayClass
from renewal_lab.rates import (
    LOG_VS_SQRT_T,
    LOG_VS_T,
    RateContext,
    TauOutOfRangeError,
    WindowTooNoisyError,
    build_rate_context,
    calibrate_envelope,
    fit_empirical_rate,
    iteration_bound,
    oscillatory_mode,
    predict_envelope,
    stable_manifold_ic,
    tau_of_eps0,
    verify_envelope,
)
from renewal_lab.volterra import SolverConfig, entry_time, equilibrium_locked_source, solve_nre


# ---------------------------------------------------------------------------
# tau and the rate context
# ---------------------------------------------------------------------------


def test_tau_affine_equals_tau0_for_any_eps0(affine):
    phi, h, rep = affine
    for eps0 in (1e-4, 0.1, 5.0):
        assert tau_of_eps0(phi, h, rep.ell, 2.0, eps0) == pytest.approx(0.5)


def test_tau_affine_increasing_and_limits(bistable):
    phi, h, reports = bistable
    rep = reports[2]
    taus = [tau_of_eps0(phi, h, rep.ell, 1.5, e) for e in (0.02, 0.01, 0.005, 1e-6)]
    assert all(a > b for a, b in zip(taus, taus[1:]))  # increasing in eps0
    assert taus[-1] == pytest.approx(rep.tau0, abs=1e-4)  # -> tau0 as eps0 -> 0
    # affine in eps0: second difference vanishes
    e = np.array([0.01, 0.02, 0.03])
    t = np.array([tau_of_eps0(phi, h, rep.ell, 1.5, v) for v in e])
    assert abs(t[2] - 2 * t[1] + t[0]) < 1e-12


def test_rate_context_rejects_large_eps0(bistable):
    """At eps0 = 0.05 the inflated contraction factor exceeds one for this fixture."""
    phi, h, reports = bistable
    rep = reports[2]
    # direct evaluation of the formula with ||Phi''||_inf = 64/(6 sqrt 3)
    bulk = 0.5 * 64.0 / (6.0 * math.sqrt(3.0)) * (1.0 + 2.0 * rep.ell + 1.5 + 1.0)
    expected_tau = rep.tau0 + 0.05 * bulk
    assert expected_tau > 1.0
    with pytest.raises(TauOutOfRangeError) as exc:
        build_rate_context(rep, phi, h, lambda_sup=1.5, eps0=0.05, t0=0.0,
                           xi_decay=DecayClass.exponential(1.0, 1.0))
    assert exc.value.tau == pytest.approx(expected_tau, rel=1e-9)
    assert 0.0 < exc.value.eps0_star < 0.05
    # just below the threshold the context builds and tau < 1
    ctx = build_rate_context(rep, phi, h, lambda_sup=1.5, eps0=0.9 * exc.value.eps0_star, t0=0.0,
                             xi_decay=DecayClass.exponential(1.0, 1.0))
    assert ctx.tau < 1.0


def test_rate_context_requires_subcritical(bistable):
    phi, h, reports = bistable
    with pytest.raises(ValueError):
        build_rate_context(reports[1], phi, h, lambda_sup=1.5, eps0=0.01, t0=0.0,
                           xi_decay=DecayClass.exponential(1.0, 1.0))


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def _ctx(xi_decay, h_decay, tau=0.5, t0=1.0):
    return RateContext(ell=2.0, tau0=tau, lambda_sup=2.0, tau=tau, t0=t0,
                       norm_l1=0.5, xi_decay=xi_decay, h_decay=h_decay)


E = DecayClass.exponential
P = DecayClass.polynomial
B = DecayClass.compact


def test_envelope_exp_exp_value():
    env = predict_envelope(_ctx(E(1.0, 1.0), E(1.0, 0.5)))
    assert env.shape == "stretched-exp"
    # displayed formula at t = 16, tau = 1/2, b = 1
    assert float(env.shape_value(16.0)) == pytest.approx(math.exp(-math.sqrt(math.log(2.0)) * 4.0), rel=1e-12)
    assert env.case == "exponential-exponential"


def test_envelope_poly_compact_start_time():
    env = predict_envelope(_ctx(P(1.5, 1.0), B(2.0), t0=0.7))
    assert env.shape == "poly"
    assert env.params["power"] == 1.5
    assert env.sigma_t0 == 2.0  # S_h v t0


def test_envelope_exp_compact_rate():
    env = predict_envelope(_ctx(E(1.0, 1.0), B(3.0), t0=1.0))
    assert env.shape == "pure-exp"
    assert env.params["rate"] == pytest.approx(math.log(2.0) / 3.0)  # log(1/tau)/(S_h v t0)


def test_envelope_compact_compact_rate():
    env = predict_envelope(_ctx(B(1.0), B(0.5), t0=0.2))
    assert env.params["rate"] == pytest.approx(math.log(2.0) / 1.0)  # S_xi v S_h v t0 = 1


def test_envelope_poly_poly_is_pointwise_max():
    env = predict_envelope(_ctx(P(1.0, 1.0), P(2.0, 1.0)))
    assert env.shape == "poly-log-max"
    ts = np.array([3.0, 10.0, 100.0])
    a, b = 1.0, 2.0
    expected = np.maximum(ts**-a, np.log(ts) ** b * ts**-b)
    assert np.allclose(env.shape_value(ts), expected)


@pytest.mark.parametrize(
    "xi_decay,h_decay",
    [
        (E(1.0, 1.0), E(1.0, 0.5)),
        (E(1.0, 1.0), P(1.2, 1.0)),
        (E(1.0, 1.0), B(2.0)),
        (P(1.0, 1.0), E(1.0, 1.0)),
        (P(1.0, 1.0), P(0.8, 1.0)),
        (P(1.0, 1.0), P(2.0, 1.0)),
        (P(1.0, 1.0), B(1.0)),
        (B(1.5), E(1.0, 1.0)),
        (B(1.5), P(1.2, 1.0)),
        (B(1.5), B(0.5)),
    ],
)
def test_envelope_nonincreasing_past_start(xi_decay, h_decay):
    env = predict_envelope(_ctx(xi_decay, h_decay))
    assert env.C > 0
    ts = np.linspace(env.sigma_t0, env.sigma_t0 + 100.0, 1000)
    vals = env.evaluate(ts)
    assert np.all(np.diff(vals) <= 1e-15 * vals[0])


def test_verify_envelope_cases(affine, affine_empty_traj):
    phi, h, rep = affine
    traj = affine_empty_traj
    t0 = entry_time(traj, rep.ell, 0.1)
    ctx = build_rate_context(rep, phi, h, lambda_sup=1.05 * traj.sup_lambda(), eps0=0.1, t0=t0,
                             xi_decay=DecayClass.exponential(rate=1.0, constant=1e-6), h_decay=h.decay)
    env = predict_envelope(ctx)
    cal = calibrate_envelope(env, traj, rep.ell)
    ok, worst = verify_envelope(traj, rep.ell, cal, slack=1.0)
    assert ok and worst <= 1.0 + 1e-9
    # an equilibrium trajectory sits below any valid envelope
    cfgc = SolverConfig(t_end=float(traj.ts[-1]), dt=traj.dt)
    const = solve_nre(phi, h, equilibrium_locked_source(phi, h, rep.ell, cfgc), cfgc)
    ok2, _ = verify_envelope(const, rep.ell, cal, slack=1.0)
    assert ok2
    # a trajectory pinned away from ell fails any decaying envelope
    off = solve_nre(phi, h, equilibrium_locked_source(phi, h, rep.ell, cfgc), cfgc)
    ok3, _ = verify_envelope(off, rep.ell + 0.5, cal, slack=1.0)
    assert not ok3


# ---------------------------------------------------------------------------
# iteration bound
# ---------------------------------------------------------------------------


def test_iteration_bound_zero_tau():
    ctx = RateContext(ell=1.0, tau0=0.0, lambda_sup=1.0, tau=0.0, t0=0.0,
                      norm_l1=0.5, xi_decay=B(0.0), h_decay=E(1.0, 0.5))
    assert iteration_bound(ctx, lambda t: 0.0, lambda m: 0.5 * math.exp(-m), k=3, M=1.0) == 0.0


def test_iteration_bound_monotone_in_k_and_M(affine, affine_empty_traj):
    phi, h, rep = affine
    traj = affine_empty_traj
    t0 = entry_time(traj, rep.ell, 0.1)
    ctx = build_rate_context(rep, phi, h, lambda_sup=2.1, eps0=0.1, t0=t0,
                             xi_decay=DecayClass.exponential(1.0, 1.0), h_decay=h.decay)
    v = DecayClass.exponential(1.0, 1.0).envelope
    ht = lambda m: float(h.tail(m))
    for k in range(1, 8):
        for dm in range(5):
            m = t0 + dm
            b = iteration_bound(ctx, v, ht, k, m)
            assert iteration_bound(ctx, v, ht, k + 1, m) <= b + 1e-15
            assert iteration_bound(ctx, v, ht, k, m + 0.5) <= b + 1e-15
    with pytest.raises(ValueError):
        iteration_bound(ctx, v, ht, 0, t0)
    with pytest.raises(ValueError):
        iteration_bound(ctx, v, ht, 1, 0.5 * t0)


def test_partial_sum_lemma_bounds():
    """The geometric partial sums obey their closed-form bounds."""
    tau, A = 0.5, 2.0
    # exponential: sum_j tau^j v_{(k+1-j)M} <= A tau^k e^{-aM} / (tau e^{aM} - 1)
    a = 1.0
    for k in (1, 3, 8):
        for M in (1.5, 3.0):
            if math.exp(-a * M) >= tau:
                continue
            s = sum(tau**j * A * math.exp(-a * (k + 1 - j) * M) for j in range(k))
            bound = A * tau**k * math.exp(-a * M) / (tau * math.exp(a * M) - 1.0)
            assert s <= bound * (1.0 + 1e-12)
    # polynomial: sum <= C1 M^-a k^-a with the explicit constant
    from renewal_lab.rates import _c1_constant

    a = 1.5
    for k in (2, 5, 20, 100):
        for M in (2.0, 8.0):
            s = sum(tau**j * A * ((k + 1 - j) * M) ** (-a) for j in range(k))
            c1 = _c1_constant(a, tau, A)
            assert s <= c1 * M**-a * k**-a * (1.0 + 1e-12)


def test_decay_envelope_is_a_nonincreasing_sup_tail():
    """``DecayClass.envelope`` is the sup tail v_t = sup_{s >= t} |xi_s| the iteration bound reads."""
    ts = np.array([0.0, 1e-3, 0.5, 1.0, 2.0, 40.0])
    for decay in (DecayClass.exponential(0.7, 2.0), DecayClass.polynomial(1.5, 2.0), DecayClass.compact(1.0)):
        v = decay.envelope(ts)
        assert np.all(v[1:] <= v[:-1])
    # the closed forms of each class, bit for bit at t > 0
    assert np.array_equal(DecayClass.exponential(0.7, 2.0).envelope(ts), 2.0 * np.exp(-0.7 * ts))
    assert np.array_equal(DecayClass.polynomial(1.5, 2.0).envelope(ts[1:]), 2.0 * ts[1:] ** -1.5)
    assert DecayClass.compact(1.0).envelope(np.array([0.5, 1.5])).tolist() == [math.inf, 0.0]
    # C t^-a is unbounded as t -> 0
    assert DecayClass.polynomial(1.5, 2.0).envelope(0.0) == math.inf


# ---------------------------------------------------------------------------
# empirical fits
# ---------------------------------------------------------------------------


def test_fit_recovers_known_exponential_rate(affine, affine_empty_traj):
    _, _, rep = affine
    fit = fit_empirical_rate(affine_empty_traj, rep.ell, (1.0, 20.0), LOG_VS_T)
    assert fit.slope == pytest.approx(-0.5, abs=1e-3)  # lambda - 2 = -e^{-t/2}
    assert fit.r_squared > 0.999999


def test_fit_window_too_noisy_on_equilibrium(affine):
    phi, h, rep = affine
    cfg = SolverConfig(t_end=10.0, dt=1e-3)
    traj = solve_nre(phi, h, equilibrium_locked_source(phi, h, rep.ell, cfg), cfg)
    with pytest.raises(WindowTooNoisyError):
        fit_empirical_rate(traj, rep.ell, (1.0, 9.0), LOG_VS_T)


def test_fit_model_selection(affine, affine_empty_traj):
    _, _, rep = affine
    with pytest.raises(ValueError):
        fit_empirical_rate(affine_empty_traj, rep.ell, (1.0, 20.0), "quartic")
    fit = fit_empirical_rate(affine_empty_traj, rep.ell, (1.0, 20.0), LOG_VS_SQRT_T)
    assert fit.model == LOG_VS_SQRT_T and fit.n_points >= 20


# ---------------------------------------------------------------------------
# cascade linearisation
# ---------------------------------------------------------------------------


def _companion(n, alpha, dphi):
    """The cascade's Jacobian at a constant equilibrium, for a numerical eigensolve (the oracle)."""
    J = -np.eye(n + 1)
    for i in range(n):
        J[i, i + 1] = 1.0
    J[n, 0] += dphi
    return alpha * J


def test_jacobian_eigenvalues_reference():
    eig = np.sort_complex(np.linalg.eigvals(_companion(2, 1.0, 8.0)))
    expected = np.sort_complex(np.array([1.0 + 0j, -2.0 + 1j * math.sqrt(3.0), -2.0 - 1j * math.sqrt(3.0)]))
    assert np.allclose(eig, expected, atol=1e-12)
    assert np.allclose(oscillatory_mode(2, 1.0, 8.0), (-2.0, math.sqrt(3.0)), rtol=0.0, atol=1e-12)


def test_jacobian_single_mode():
    """Order 0 has one mode, and the k = 1 mode is that mode."""
    mu, nu = oscillatory_mode(0, 2.0, 0.25)
    assert mu == pytest.approx(2.0 * (0.25 - 1.0))
    assert abs(nu) < 1e-15


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("dphi", [0.25, 1.0, 8.0])
def test_jacobian_closed_form_vs_numeric(n, alpha, dphi):
    """oscillatory_mode's closed form is an eigenvalue of the numerically solved Jacobian."""
    mode = complex(*oscillatory_mode(n, alpha, dphi))
    numeric = np.linalg.eigvals(_companion(n, alpha, dphi))
    assert np.min(np.abs(numeric - mode)) <= 1e-10 * max(1.0, alpha * dphi)


def test_stability_criterion_via_real_parts(bistable):
    """A fixed point is classified subcritical exactly when every cascade mode decays."""
    _, _, reports = bistable  # the order-2 Erlang kernel at rate 3 has mass 1, so Phi'(ell) = tau0
    assert [rep.stability.kind for rep in reports] == ["subcritical", "supercritical", "subcritical"]
    for rep in reports:
        spectrum = np.linalg.eigvals(_companion(2, 3.0, rep.tau0))
        assert (np.max(spectrum.real) < 0) == (rep.stability.kind == "subcritical")


def test_stable_manifold_ic():
    # eps = 1e-2 ell: at ell = 0 the state is the exact equilibrium
    assert np.array_equal(stable_manifold_ic(0.0, 2.0), np.zeros(3))
    ic = stable_manifold_ic(1.0, 2.0)
    w1 = (ic - 1.0) / 1e-2
    assert w1[0] > 0 and w1[1] > 0 and w1[2] < 0  # sign pattern (+, +, -)
    assert np.allclose(w1, [1.0, 2.0 ** (1.0 / 3.0), -2.0 * 2.0 ** (2.0 / 3.0)])
    with pytest.raises(ValueError):
        stable_manifold_ic(1.0, 0.9)


def test_linearised_flow_decays_with_oscillation():
    """Integrate Y' = J Y from eps*w1: damped oscillation (independent oracle)."""
    tau0 = 2.0
    J = _companion(2, 1.0, tau0)
    y = (stable_manifold_ic(1.0, tau0) - 1.0) / 1e-2  # pure w1
    dt = 1e-3
    mu, nu = oscillatory_mode(2, 1.0, tau0)
    steps = int(2.0 * 2.0 * math.pi / abs(nu) / dt)
    first = []
    for i in range(steps):
        k1 = J @ y
        k2 = J @ (y + 0.5 * dt * k1)
        k3 = J @ (y + 0.5 * dt * k2)
        k4 = J @ (y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        first.append(y[0])
    first = np.asarray(first)
    sgn = np.sign(first)
    changes = int(np.sum(sgn[:-1] * sgn[1:] < 0))
    assert changes >= 3  # oscillates
    assert np.max(np.abs(first[steps // 2 :])) < 1e-2 * np.max(np.abs(first))  # decays
    # and the decay rate matches the predicted mode
    assert mu == pytest.approx(-1.0 - 2.0 ** (1.0 / 3.0) / 2.0)
    assert nu == pytest.approx(math.sqrt(3.0) * 2.0 ** (1.0 / 3.0) / 2.0)
