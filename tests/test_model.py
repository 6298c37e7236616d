import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brentq
from renewal_lab import model
from renewal_lab.model import (
    DecayClass,
    FiringFunction,
    NoFixedPointError,
    TangencyWarning,
)


# ---------------------------------------------------------------------------
# decay classes
# ---------------------------------------------------------------------------


def test_decay_class_validation():
    with pytest.raises(ValueError):
        DecayClass.exponential(rate=-1.0, constant=1.0)
    with pytest.raises(ValueError):
        DecayClass.polynomial(rate=1.0, constant=0.0)
    with pytest.raises(ValueError):
        DecayClass.compact(horizon=-0.1)
    with pytest.raises(ValueError):
        DecayClass("weird")
    assert DecayClass.compact(0.0).horizon == 0.0


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_erlang_order_zero_is_plain_exponential():
    h = model.make_erlang_kernel(0, 1.0)
    ts = np.linspace(0.0, 20.0, 64)
    assert np.allclose(h(ts), np.exp(-ts))
    assert h.norm_l1 == 1.0
    assert np.allclose(h.tail(ts), np.exp(-ts))


def test_erlang_normalisation_and_zero_at_origin():
    h = model.make_erlang_kernel(2, 3.0)
    assert h.norm_l1 == 1.0
    assert h(0.0) == 0.0
    assert h.structure.order == 2 and h.structure.alpha == 3.0


def test_erlang_rejects_bad_rate():
    with pytest.raises(ValueError):
        model.make_erlang_kernel(2, 0.0)
    with pytest.raises(ValueError):
        model.make_erlang_kernel(-1, 1.0)


@given(st.integers(min_value=0, max_value=5), st.floats(min_value=0.3, max_value=5.0))
@settings(max_examples=30, deadline=None)
def test_erlang_tail_invariants(n, alpha):
    h = model.make_erlang_kernel(n, alpha)
    ts = np.linspace(0.0, 30.0 / alpha, 400)
    tail = h.tail(ts)
    assert tail[0] == pytest.approx(h.norm_l1, abs=1e-12)  # H_0 = ||h||_1
    assert np.all(np.diff(tail) <= 1e-15)  # nonincreasing
    assert tail[-1] < 1e-6  # -> 0
    # numeric trapezoid + closed-form tail reproduces the L1 norm
    grid = np.linspace(0.0, 60.0 / alpha, 200001)
    num = np.trapezoid(np.abs(h(grid)), grid) + h.tail(grid[-1])
    assert num == pytest.approx(h.norm_l1, abs=1e-8)
    # decay class is a genuine envelope for the tail
    assert np.all(tail <= h.decay.envelope(ts) * (1 + 1e-9))


def test_scaled_exponential_examples():
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    assert h.norm_l1 == pytest.approx(0.5)
    assert h.kappa == pytest.approx(0.5)
    h1 = model.make_scaled_exponential_kernel(1.0, 1.0)
    assert np.allclose(h1(np.array([0.0, 1.0])), [1.0, math.exp(-1.0)])
    hneg = model.make_scaled_exponential_kernel(-0.3, 2.0)
    assert hneg.kappa == pytest.approx(-0.15)
    assert hneg.norm_l1 == pytest.approx(0.15)
    assert not hneg.nonneg
    assert abs(hneg.kappa) <= hneg.norm_l1
    with pytest.raises(ValueError):
        model.make_scaled_exponential_kernel(1.0, -2.0)


def test_compact_kernel_box_and_triangle():
    box = model.make_compact_kernel(np.ones(501), 0.5)
    assert box.norm_l1 == pytest.approx(0.5, abs=1e-12)
    assert box.tail(0.25) == pytest.approx(0.25, abs=1e-12)
    unit_box = model.make_compact_kernel(np.ones(501), 1.0)
    assert unit_box.tail(2.0) == 0.0
    tri = model.make_compact_kernel(1.0 - np.linspace(0, 1, 501), 1.0)
    assert tri.norm_l1 == pytest.approx(0.5, abs=1e-6)
    assert tri.decay.kind == "compact" and tri.decay.horizon == 1.0
    assert box(0.7) == 0.0 and box(-0.1) == 0.0


def test_compact_kernel_rejects_bad_tables():
    with pytest.raises(ValueError):
        model.make_compact_kernel([], 1.0)
    with pytest.raises(ValueError):
        model.make_compact_kernel([0.5, -0.1], 1.0)
    with pytest.raises(ValueError):
        model.make_compact_kernel([1.0], 0.0)


def test_nonneg_kernel_kappa_equals_l1(bistable):
    _, h, _ = bistable
    assert h.kappa == pytest.approx(h.norm_l1, abs=1e-12)


# ---------------------------------------------------------------------------
# firing functions
# ---------------------------------------------------------------------------


def test_sigmoid_reference_values():
    phi = model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0)
    assert float(phi(1.0)) == 1.0  # midpoint
    assert float(phi.d1(1.0)) == pytest.approx(2.0)  # gain*slope/4
    assert float(phi(60.0)) == pytest.approx(1.5)  # base + gain
    assert phi.lip == pytest.approx(2.0)
    assert phi.d2_sup == pytest.approx(64.0 / (6.0 * math.sqrt(3.0)))


@pytest.mark.parametrize(
    "factory",
    [
        lambda: model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0),
        lambda: model.make_sigmoid_phi(0.1, 2.0, 3.0, 0.5),
        lambda: model.make_cubic_sigmoid_phi(0.5, 1.0, 8.0, 1.0),
        lambda: model.make_divergence_example_phi(),
    ],
)
def test_derivatives_match_finite_differences(factory):
    phi = factory()
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.0, 3.0, size=100)
    step = 1e-5
    fd1 = (phi.evaluator(xs + step) - phi.evaluator(xs - step)) / (2 * step)
    fd2 = (np.asarray(phi.d1(xs + step)) - np.asarray(phi.d1(xs - step))) / (2 * step)
    scale1 = np.maximum(np.abs(fd1), 1e-4)
    scale2 = np.maximum(np.abs(fd2), 1e-4)
    assert np.max(np.abs(np.asarray(phi.d1(xs)) - fd1) / scale1) < 1e-4
    assert np.max(np.abs(np.asarray(phi.d2(xs)) - fd2) / scale2) < 1e-4


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.3, max_value=2.0),
    st.floats(min_value=1.0, max_value=10.0),
    st.floats(min_value=-1.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_sigmoid_nonneg_and_lipschitz(base, gain, slope, center):
    phi = model.make_sigmoid_phi(base, gain, slope, center)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-5, 5, size=60)
    ys = rng.uniform(-5, 5, size=60)
    vx, vy = np.asarray(phi(xs)), np.asarray(phi(ys))
    assert np.all(vx >= 0)
    assert np.all(np.abs(vx - vy) <= phi.lip * np.abs(xs - ys) * (1 + 1e-9) + 1e-15)


@pytest.mark.parametrize("make", [model.make_sigmoid_phi, model.make_cubic_sigmoid_phi])
def test_logistic_scalar_is_base_far_below_the_center(make):
    phi = make(0.5, 1.0, 8.0, 1.0)
    for x in (-100.0, -1e3, -1e6):
        assert phi.scalar(x) == float(phi(x)) == 0.5


def test_scalar_falls_back_to_the_vector_evaluator(bistable):
    _, h, _ = bistable
    tail = model.make_source_tail(h, 0.4)
    bare = replace(tail, scalar_fn=None)
    assert bare.scalar(0.3) == float(tail(0.3))
    assert model.add_exponential_perturbation(bare, 0.02).scalar_fn(0.3) == float(tail(0.3)) + 0.02 * math.exp(-0.3)


def test_affine_phi():
    phi = model.make_affine_phi(1.0)
    assert float(phi(0.0)) == 1.0
    assert float(phi.d1(5.0)) == 1.0
    assert float(phi(-3.0)) == 0.0  # clipped to stay nonnegative
    assert float(phi(2.0)) == 3.0
    assert phi.derivative(0.0, 4) == 0.0
    with pytest.raises(ValueError):
        model.make_affine_phi(-0.5)


def test_divergence_example_phi():
    phi = model.make_divergence_example_phi()
    assert float(phi(0.0)) == pytest.approx(math.sqrt(2.0) - 1.0)
    # Phi(x)/x -> 1
    assert float(phi(5e4)) / 5e4 == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        phi(-2.5)
    assert phi.lip > 1.0  # strong subcriticality fails with a unit-mass kernel


def test_cubic_sigmoid_flat_center():
    phi = model.make_cubic_sigmoid_phi(0.5, 1.0, 8.0, 1.0)
    assert float(phi(1.0)) == 1.0
    assert float(phi.d1(1.0)) == pytest.approx(2.0)
    assert float(phi.d2(1.0)) == 0.0
    # third derivative vanishes too (finite differences on d2)
    fd3 = (float(phi.d2(1.0 + 1e-4)) - float(phi.d2(1.0 - 1e-4))) / 2e-4
    assert abs(fd3) < 1e-4


def test_higher_derivative_fallback():
    cubic = FiringFunction(
        d1=lambda x: 3.0 * np.asarray(x, float) ** 2,
        d2=lambda x: 6.0 * np.asarray(x, float),
        lip=12.0,
        d2_sup=12.0,
        nondecreasing=True,
        scalar=lambda x: x**3,
    )
    assert cubic.derivative(0.5, 3) == pytest.approx(6.0, abs=1e-6)
    assert abs(cubic.derivative(0.5, 4)) < 1e-5


# ---------------------------------------------------------------------------
# source terms
# ---------------------------------------------------------------------------


def test_empty_source():
    xi = model.make_source_empty()
    assert float(xi(0.0)) == 0.0
    assert float(xi(10.0)) == 0.0
    assert xi.sup_bound == 0.0
    assert xi.decay.kind == "compact" and xi.decay.horizon == 0.0


def test_equilibrium_source_exponential_closed_form():
    h = model.make_scaled_exponential_kernel(1.0, 1.0)
    xi = model.make_source_equilibrium(h, 2.0)
    ts = np.linspace(0.0, 10.0, 41)
    assert np.allclose(xi(ts), 2.0 * np.exp(-ts), atol=1e-14)
    assert np.allclose(xi.derivative(ts), -2.0 * np.exp(-ts), atol=1e-14)


def test_equilibrium_source_zero_level_is_empty():
    h = model.make_erlang_kernel(1, 2.0)
    xi = model.make_source_equilibrium(h, 0.0)
    assert float(xi(3.0)) == 0.0 and xi.sup_bound == 0.0


def test_equilibrium_source_full_mass_at_zero(bistable):
    _, h, _ = bistable
    xi = model.make_source_equilibrium(h, 1.0)
    assert float(xi(0.0)) == pytest.approx(h.kappa * 1.0, abs=1e-10)


@given(st.floats(min_value=0.1, max_value=3.0), st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_equilibrium_source_value_at_zero_is_kappa_ell(ell, n):
    h = model.make_erlang_kernel(n, 1.5)
    xi = model.make_source_equilibrium(h, ell)
    assert float(xi(0.0)) == pytest.approx(h.kappa * ell, abs=1e-10)
    # vanishes at infinity along a grid
    ts = np.linspace(0.0, 80.0, 200)
    assert abs(float(xi(ts[-1]))) < 1e-8


def _partial_sum_scalar(n, alpha, kscale, scale):
    """The scalar source evaluator as first written: one loop for every order."""
    inv_fact = [1.0 / math.factorial(k) for k in range(n + 1)]

    def scalar_fn(t):
        if t <= 0.0:
            return scale * kscale
        at = alpha * t
        acc = 0.0
        for k in range(n, -1, -1):
            acc += at**k * inv_fact[k]
        return scale * kscale * math.exp(-at) * acc

    return scalar_fn


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_equilibrium_scalar_source_matches_partial_sum_bit_for_bit(n):
    ts = [-math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-12, 1e-3, 0.37, 1.0, 2.5, 17.0, 60.0, 700.0, 800.0, 1e6,
          math.inf, math.nan]
    kernels = [model.make_erlang_kernel(n, 1.5), model.make_erlang_kernel(n, 0.3)]
    if n == 0:
        kernels.append(model.make_scaled_exponential_kernel(0.7, 2.0))
    for h in kernels:
        s = h.structure
        for ell in (0.25, 1.0, 2.0, 3.7):
            slow = _partial_sum_scalar(s.order, s.alpha, s.scale, ell)
            for amp, rate in ((0.0, 1.0), (0.3, 1.0), (-0.05, 2.5)):
                for make in (model.make_source_equilibrium, model.make_source_tail):
                    xi = make(h, ell)
                    if amp:
                        xi = model.add_exponential_perturbation(xi, amp, rate)
                        ref = lambda t: slow(t) + amp * math.exp(-rate * t)
                    else:
                        ref = slow
                    fast = xi.scalar_fn
                    for t in ts:
                        assert fast(t).hex() == ref(t).hex(), (h.label, make.__name__, ell, amp, t)


def test_tail_source_and_rho_identity(bistable):
    phi, h, reports = bistable
    from renewal_lab.volterra import compute_rho

    grid = np.linspace(0.0, 10.0, 2001)

    def rho(xi):
        return np.asarray(xi.derivative(grid)) + np.asarray(h(grid)) * phi.scalar(float(xi(0.0)))

    # rho = xi' + h Phi(xi_0) = (Phi(||h||_1 ell0) - ell0) h(t), negative wherever h > 0
    ell0 = 0.6
    xi = model.make_source_tail(h, ell0)
    lift = phi.scalar(h.norm_l1 * ell0) - ell0
    assert lift < 0.0
    assert np.allclose(rho(xi), lift * np.asarray(h(grid)), atol=1e-12)
    report = compute_rho(h, xi, phi, grid)
    assert (report.summary, report.strict_delta) == ("all-nonpos", 10.0)
    # at a fixed point the tail source is the equilibrium source and rho = 0
    ell = reports[0].ell
    xi_eq = model.make_source_tail(h, ell)
    assert np.max(np.abs(rho(xi_eq))) < 1e-12
    report0 = compute_rho(h, xi_eq, phi, grid)
    assert (report0.summary, report0.strict_delta) == ("all-nonneg", 0.0)
    # ell0 = 0 gives the empty source
    assert float(model.make_source_tail(h, 0.0)(5.0)) == 0.0


def test_chi_perturbed_source(bistable):
    phi, h, reports = bistable
    ts = np.linspace(0.0, 20.0, 101)
    # chi equal to the kernel tail reduces to the plain tail source
    chi = lambda t: h.signed_tail(t)
    chi_p = lambda t: -np.asarray(h(t), dtype=float)
    xi = model.make_source_chi_perturbed(h, phi, 0.7, chi, chi_p, h.decay)
    tail = model.make_source_tail(h, 0.7)
    assert np.max(np.abs(xi(ts) - tail(ts))) < 1e-12
    # xi(0) = ||h||_1 ell0
    assert float(xi(0.0)) == pytest.approx(h.norm_l1 * 0.7, abs=1e-12)
    # at the fixed point the construction collapses onto the equilibrium source
    ell = reports[2].ell
    xi_eq = model.make_source_chi_perturbed(h, phi, ell, chi, chi_p, h.decay)
    eq = model.make_source_equilibrium(h, ell)
    assert np.max(np.abs(xi_eq(ts) - eq(ts))) < 1e-9
    # chi(0) mismatch rejected
    with pytest.raises(ValueError):
        model.make_source_chi_perturbed(h, phi, 0.7, lambda t: 0.5 * chi(t), chi_p, h.decay)


def test_erlang_polynomial_source(bistable):
    _, h, _ = bistable
    ts = np.linspace(0.0, 15.0, 301)
    # constant coefficients reproduce the equilibrium source
    xi = model.make_source_erlang_polynomial(2, 3.0, [1.4, 1.4, 1.4])
    eq = model.make_source_equilibrium(h, 1.4)
    assert np.max(np.abs(xi(ts) - eq(ts))) < 1e-12
    # truncated coefficients give the tail source of the lower-order kernel
    xi_l = model.make_source_erlang_polynomial(2, 3.0, [1.4, 1.4, 0.0])
    h1 = model.make_erlang_kernel(1, 3.0)
    tail1 = model.make_source_tail(h1, 1.4)
    assert np.max(np.abs(xi_l(ts) - tail1(ts))) < 1e-12
    # zero coefficients: the empty source
    xi0 = model.make_source_erlang_polynomial(2, 3.0, [0.0, 0.0, 0.0])
    assert np.max(np.abs(xi0(ts))) == 0.0
    with pytest.raises(ValueError):
        model.make_source_erlang_polynomial(2, 3.0, [1.0, 2.0])
    # derivative consistency
    step = 1e-6
    fd = (xi(ts + step) - xi(ts - step)) / (2 * step)
    assert np.max(np.abs(xi.derivative(ts) - fd)) < 1e-6


def test_exponential_perturbation_wrapper(bistable):
    _, h, _ = bistable
    base = model.make_source_equilibrium(h, 1.0)
    xi = model.add_exponential_perturbation(base, 0.02, 1.0)
    ts = np.linspace(0.0, 10.0, 41)
    assert np.allclose(xi(ts), base(ts) + 0.02 * np.exp(-ts), atol=1e-14)
    assert xi.sup_bound == pytest.approx(base.sup_bound + 0.02)


@pytest.mark.parametrize(
    "make",
    [
        lambda h, phi: model.make_source_chi_perturbed(
            h, phi, 0.7, lambda t: h.norm_l1 / (1.0 + np.asarray(t, float)), lambda t: -h.norm_l1 / (1.0 + np.asarray(t, float)) ** 2,
            DecayClass.polynomial(1.0, h.norm_l1),
        ),
        lambda h, phi: model.add_exponential_perturbation(model.make_source_tail(h, 0.4), -0.05, 2.0),
        lambda h, phi: model.add_exponential_perturbation(model.make_source_empty(), 0.3, 0.5),
    ],
)
def test_combined_decay_classes_are_envelopes(bistable, make):
    """The declared decay class must dominate |xi| pointwise."""
    phi, h, _ = bistable
    xi = make(h, phi)
    ts = np.linspace(1e-3, 60.0, 901)
    assert np.all(np.abs(np.asarray(xi(ts))) <= xi.decay.envelope(ts) * (1.0 + 1e-9))


def test_divergence_source():
    a_star = model.divergence_a_star()
    assert 0.0 < a_star < 2.0
    xi = model.make_source_divergence_example(2.0)
    # starting value equals Psi(a), by direct evaluation of the formula
    psi2 = math.log(math.exp(-4.0) / 2.0 * (0.25 + 1.0) + 1.0) + 4.0
    assert float(xi(0.0)) == pytest.approx(psi2, abs=1e-12)
    assert psi2 == pytest.approx(4.011382250024294, abs=1e-12)
    # the defining identity xi + xi' = a / sqrt(1 + t)
    ts = np.linspace(0.0, 60.0, 61)
    resid = np.asarray(xi(ts)) + np.asarray(xi.derivative(ts)) - 2.0 / np.sqrt(1.0 + ts)
    assert np.max(np.abs(resid)) < 1e-9
    # grid evaluator agrees with the pointwise quadrature evaluator
    grid = np.linspace(0.0, 30.0, 3001)
    assert np.max(np.abs(xi.on_grid(grid) - np.asarray(xi(grid)))) < 1e-9
    # vanishes at infinity
    assert float(xi(2000.0)) < 0.1
    with pytest.raises(ValueError):
        model.make_source_divergence_example(0.5 * a_star)


# ---------------------------------------------------------------------------
# fixed points and classification
# ---------------------------------------------------------------------------


def test_bistable_fixed_points_against_independent_oracle(bistable):
    phi, h, reports = bistable
    assert len(reports) == 3
    g = lambda x: float(phi(x)) - x
    oracle = [brentq(g, 0.3, 0.8), brentq(g, 0.9, 1.1), brentq(g, 1.2, 1.8)]
    for rep, ell in zip(reports, oracle):
        assert rep.ell == pytest.approx(ell, abs=1e-10)
    assert [r.stability.kind for r in reports] == ["subcritical", "supercritical", "subcritical"]
    assert [round(r.ell, 4) for r in reports] == [0.5212, 1.0, 1.4788]
    assert reports[1].tau0 == pytest.approx(2.0, abs=1e-9)


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=0.5, max_value=3.0),
)
# kappa = 0.972: the root 108 lies past the bracket where g first keeps one sign, so only the proven bound finds it
@example(3.0, 0.546875, 0.5625)
@settings(max_examples=30, deadline=None)
def test_affine_fixed_point_closed_form(mu, c, alpha):
    h = model.make_scaled_exponential_kernel(c, alpha)
    phi = model.make_affine_phi(mu)
    norm = c / alpha
    if norm >= 0.995:
        return
    reports = model.find_fixed_points(phi, h)
    assert len(reports) == 1
    assert reports[0].ell == pytest.approx(mu / (1.0 - norm), abs=1e-10)
    assert reports[0].tau0 == pytest.approx(norm, abs=1e-12)
    assert reports[0].stability.kind == "subcritical"


def _scalar_g_on_grid(phi, kappa, ells):
    """The grid scan one point at a time, as ``find_fixed_points`` first made it."""
    return np.array([float(phi(kappa * v)) - v for v in ells])


def _fixed_points_or_error(phi, h):
    try:
        return model.find_fixed_points(phi, h)
    except NoFixedPointError as err:
        return str(err)


def test_vectorised_grid_scan_matches_the_scalar_scan(monkeypatch):
    """One vector evaluation per scan gives the scalar scan's values of g, hence its brackets and roots."""
    rng = np.random.default_rng(11)
    cases = [
        (model.make_cubic_sigmoid_phi(1.12302, 4.73156, 0.708527, 1.31399), model.make_erlang_kernel(1, 1.0)),
        (model.make_divergence_example_phi(), model.make_erlang_kernel(2, 2.0)),
        (model.make_constant_phi(0.7), model.make_scaled_exponential_kernel(0.5, 1.0)),
        (model.make_affine_phi(1.0), model.make_scaled_exponential_kernel(1.0, 1.0)),  # no root
    ]
    for _ in range(12):
        phi = model.make_sigmoid_phi(*rng.uniform([0.0, 0.2, 0.5, -1.0], [2.0, 5.0, 10.0, 4.0]))
        cases.append((phi, model.make_erlang_kernel(int(rng.integers(0, 4)), float(rng.uniform(0.5, 4.0)))))
    xs = np.linspace(0.0, 50.0, 4097)
    for phi, h in cases:
        got = model._g_on_grid(phi, h.kappa, xs)
        want = _scalar_g_on_grid(phi, h.kappa, xs)
        assert np.array_equal(got, want), phi.label
    reports = [_fixed_points_or_error(phi, h) for phi, h in cases]
    assert isinstance(reports[3], str) and max(len(r) for r in reports if isinstance(r, list)) == 3
    monkeypatch.setattr(model, "_g_on_grid", _scalar_g_on_grid)
    assert reports == [_fixed_points_or_error(phi, h) for phi, h in cases]


def test_no_fixed_point_regime():
    h = model.make_scaled_exponential_kernel(1.0, 1.0)  # ||h||_1 = 1
    phi = FiringFunction(
        d1=lambda x: 1.0 / (1.0 + np.exp(-np.asarray(x, float))),
        d2=lambda x: np.exp(-np.asarray(x, float)) / (1.0 + np.exp(-np.asarray(x, float))) ** 2,
        lip=1.0,
        d2_sup=0.25,
        nondecreasing=True,
        scalar=lambda x: float(np.logaddexp(0.0, x)),
    )
    with pytest.raises(NoFixedPointError):
        model.find_fixed_points(phi, h)


def _taylor_phi(ell, coeffs):
    """Phi(x) = x + sum_k coeffs[k] (x - ell)^k, with analytic derivatives."""

    def scalar(x):
        return x + sum(c * (x - ell) ** k for k, c in coeffs.items())

    def deriv(x, k):
        u = x - ell
        val = (1.0 if k == 1 else 0.0)
        for kk, c in coeffs.items():
            if kk >= k:
                val += c * math.factorial(kk) / math.factorial(kk - k) * u ** (kk - k)
        return val

    return FiringFunction(
        d1=lambda x: np.vectorize(lambda v: deriv(v, 1))(x),
        d2=lambda x: np.vectorize(lambda v: deriv(v, 2))(x),
        lip=10.0,
        d2_sup=10.0,
        nondecreasing=True,
        scalar=scalar,
        derivative_fn=deriv,
    )


def test_classify_critical_constructed_cases():
    h = model.make_erlang_kernel(1, 1.0)  # ||h||_1 = 1
    ell = 1.3
    up = model.classify_critical(_taylor_phi(ell, {2: 1.0}), h, ell)
    assert (up.p, up.sign_of_phi_p, up.above, up.below) == (2, 1, "unstable", "stable")
    down = model.classify_critical(_taylor_phi(ell, {2: -1.0}), h, ell)
    assert (down.above, down.below) == ("stable", "unstable")  # stability from above
    odd = model.classify_critical(_taylor_phi(ell, {3: -1.0}), h, ell)
    assert (odd.p, odd.sign_of_phi_p, odd.above, odd.below) == (3, -1, "stable", "stable")
    odd_up = model.classify_critical(_taylor_phi(ell, {3: 1.0}), h, ell)
    assert (odd_up.above, odd_up.below) == ("unstable", "unstable")
    degenerate = model.classify_critical(_taylor_phi(ell, {}), h, ell)
    assert degenerate.kind == "degenerate"


def test_tangency_warning():
    h = model.make_erlang_kernel(0, 1.0)
    ell = 1.0
    phi = _taylor_phi(ell, {2: 0.5})  # Phi(x) = x + 0.5 (x-1)^2 touches the diagonal at 1
    with pytest.warns(TangencyWarning):
        model.find_fixed_points(phi, h, l_max=4.0)


def test_signed_kernel_classification_caveat():
    h = model.make_scaled_exponential_kernel(-0.5, 1.0)
    phi = model.make_affine_phi(1.0)  # ell = mu/(1 - kappa) = 2/3, tau0 = 0.5
    reports = model.find_fixed_points(phi, h)
    assert reports[0].ell == pytest.approx(1.0 / 1.5)
    assert reports[0].stability.kind == "subcritical"
    steep = model.make_sigmoid_phi(0.1, 4.0, 8.0, -0.3)
    reps = model.find_fixed_points(steep, h)
    for rep in reps:
        if rep.stability.kind != "subcritical":
            assert "signed" in rep.stability.note
