"""The generated loops give the bits of a call to Phi and to the source.

``simulate_hawkes`` and ``solve_nre`` run loops generated per convolution state
or history shape.  Where Phi or the source carries a formula, the loop may
evaluate it in place; a plain function is called.  Wrapping ``scalar`` /
``scalar_fn`` in a lambda hides any formula, so the wrapped run is the call
form of the same equation, and every output bit must be equal.
"""

import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_lab import model
from renewal_lab.hawkes import HawkesConfig, simulate_hawkes
from renewal_lab.volterra import LEFT_RECTANGLE, TRAPEZOID, NonConvergenceError, SolverConfig, solve_nre


def _called(phi, xi):
    """phi and xi with their scalar evaluators behind a plain lambda: the loops must call them."""
    f, g = phi.scalar, xi.scalar
    return replace(phi, scalar=lambda x: f(x)), replace(xi, scalar_fn=lambda t: g(t))


def _run(phi, h, xi, cfg):
    run = simulate_hawkes(phi, h, xi, cfg)
    coupled = None if run.coupled_events is None else [e.tobytes() for e in run.coupled_events]
    return [e.tobytes() for e in run.events], coupled, run.metadata


def _solve(phi, h, xi, cfg):
    try:
        traj = solve_nre(phi, h, xi, cfg)
    except NonConvergenceError as err:
        return err.step, err.t, err.residual
    return traj.ts.tobytes(), traj.lam.tobytes(), traj.x.tobytes(), traj.divergent, traj.metadata


_UNIT = st.floats(min_value=0.0, max_value=1.0)
# every Phi maker whose scalar is one expression; slope and gain keep |Phi|_Lip >= 1/4
PHIS = st.one_of(
    st.builds(model.make_affine_phi, st.floats(min_value=0.0, max_value=2.0)),
    st.builds(model.make_sigmoid_phi, _UNIT, st.floats(0.5, 2.0), st.floats(2.0, 8.0), st.floats(-1.0, 2.0)),
    st.builds(model.make_cubic_sigmoid_phi, _UNIT, st.floats(0.5, 2.0), st.floats(2.0, 8.0), st.floats(-1.0, 2.0)),
    st.builds(model.make_constant_phi, st.floats(min_value=0.1, max_value=3.0)),
)
SOURCES = st.sampled_from(["empty", "tail", "equilibrium", "tail+", "equilibrium-"])


def _source(kind: str, h, ell: float, amp: float):
    if kind == "empty":
        return model.make_source_empty()
    base, sign = kind.rstrip("+-"), kind[len(kind.rstrip("+-")):]
    xi = (model.make_source_tail if base == "tail" else model.make_source_equilibrium)(h, ell)
    if sign:
        xi = model.add_exponential_perturbation(xi, amp if sign == "+" else -amp, 1.0 + amp)
    return xi


@given(
    phi=PHIS,
    order=st.integers(min_value=0, max_value=3),
    alpha=st.floats(min_value=0.5, max_value=4.0),
    source=SOURCES,
    ell=st.floats(min_value=0.1, max_value=2.0),
    amp=st.floats(min_value=0.05, max_value=1.0),
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32),
    coupled=st.booleans(),
    xi_perturbation=st.sampled_from([0.0, 0.7]),
)
@settings(max_examples=40, deadline=None)
def test_thinning_with_formulas_equals_the_call_slot(phi, order, alpha, source, ell, amp, n, seed, coupled,
                                                     xi_perturbation):
    h = model.make_erlang_kernel(order, alpha)
    xi = _source(source, h, ell, amp)
    cfg = HawkesConfig(n_particles=n, t_end=3.0, seed=seed, track_coupled=coupled, xi_perturbation=xi_perturbation,
                       subcritical_override=True)
    called_phi, called_xi = _called(phi, xi)
    assert _run(phi, h, xi, cfg) == _run(called_phi, h, called_xi, cfg)


# step kind -> (kernel, solver config): the order-1 kernel has h(0) = 0, so no step is implicit; the order-0
# kernel's end weight beta = dt h(0) / 2 is 0.005 (implicit) or 4, past 1 / |Phi|_Lip (damped, |Phi|_Lip >= 1/4)
STEPS = {
    "explicit": (model.make_erlang_kernel(1, 2.0), SolverConfig(t_end=3.0, dt=1e-2)),
    "explicit-left": (model.make_scaled_exponential_kernel(0.5, 1.0), SolverConfig(t_end=3.0, dt=1e-2,
                                                                                   quadrature=LEFT_RECTANGLE)),
    "implicit": (model.make_scaled_exponential_kernel(1.0, 2.0), SolverConfig(t_end=3.0, dt=1e-2)),
    "damped": (model.make_scaled_exponential_kernel(8.0, 1.0), SolverConfig(t_end=20.0, dt=1.0)),
}


@pytest.mark.parametrize("step", sorted(STEPS))
@given(phi=PHIS, ell0=st.floats(min_value=0.0, max_value=2.0, allow_subnormal=False))
@settings(max_examples=25, deadline=None)
def test_marching_with_a_formula_equals_the_call_slot(step, phi, ell0):
    h, cfg = STEPS[step]
    xi = model.make_source_tail(h, ell0)
    assert _solve(phi, h, xi, cfg) == _solve(_called(phi, xi)[0], h, xi, cfg)


def test_a_replaced_phi_reaches_both_loops():
    """``replace(phi, scalar=...)`` swaps the formula the loops read, whether the new one is a formula or not."""
    h = model.make_erlang_kernel(1, 2.0)
    xi = model.make_source_tail(h, 0.5)
    phi = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    cfg = HawkesConfig(n_particles=20, t_end=3.0, seed=4, subcritical_override=True)
    scfg = SolverConfig(t_end=3.0, dt=1e-2)
    base_run, base_traj = _run(phi, h, xi, cfg), _solve(phi, h, xi, scfg)
    f = phi.scalar
    for scalar in (lambda x: 2.0 * f(x), model.make_affine_phi(0.3).scalar):
        new = replace(phi, scalar=scalar)
        run, traj = _run(new, h, xi, cfg), _solve(new, h, xi, scfg)
        assert run[0] != base_run[0] and run[1] != base_run[1]
        assert traj[1] != base_traj[1]
        called = _called(new, xi)[0]
        assert (run, traj) == (_run(called, h, xi, cfg), _solve(called, h, xi, scfg))


def test_a_replaced_source_reaches_the_sweep():
    """``replace(xi, scalar_fn=...)`` changes the thinning; the march reads the source on its grid, not the scalar."""
    h = model.make_erlang_kernel(2, 3.0)
    phi = model.make_affine_phi(1.0)
    xi = model.make_source_equilibrium(h, 1.0)
    cfg = HawkesConfig(n_particles=20, t_end=3.0, seed=9, track_coupled=False, subcritical_override=True)
    scfg = SolverConfig(t_end=3.0, dt=1e-2)
    base_run, base_traj = _run(phi, h, xi, cfg), _solve(phi, h, xi, scfg)
    g = xi.scalar
    for scalar_fn in (lambda t: g(t) + 1.0, model.make_source_equilibrium(h, 2.0).scalar_fn):
        new = replace(xi, scalar_fn=scalar_fn)
        run = _run(phi, h, new, cfg)
        assert run[0] != base_run[0]
        assert run == _run(phi, h, _called(phi, new)[1], cfg)
        assert _solve(phi, h, new, scfg) == base_traj


def test_two_sigmoids_in_one_process_keep_their_constants():
    """Formulas of one text share their compiled loops, not their constants: each run equals its call form."""
    h = model.make_erlang_kernel(0, 2.0)
    xi = model.make_source_tail(h, 0.8)
    a = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    b = model.make_sigmoid_phi(0.2, 1.5, 3.0, 0.5)
    cfg = HawkesConfig(n_particles=30, t_end=3.0, seed=11, subcritical_override=True)
    scfg = SolverConfig(t_end=3.0, dt=1e-2)
    got = [(_run(phi, h, xi, cfg), _solve(phi, h, xi, scfg)) for phi in (a, b, a)]
    want = [(_run(phi, h, xi, cfg), _solve(phi, h, xi, scfg)) for phi in (_called(p, xi)[0] for p in (a, b))]
    assert got == [want[0], want[1], want[0]]
    assert got[0][0][0] != got[1][0][0] and got[0][1][1] != got[1][1][1]


def _calls(fn, codes):
    """fn() and the number of Python calls it made to each code object in codes."""
    counts = dict.fromkeys(codes, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, [counts[code] for code in codes]


@pytest.mark.parametrize("make_phi", [model.make_affine_phi, model.make_sigmoid_phi, model.make_cubic_sigmoid_phi])
def test_the_loops_call_no_formula_per_candidate_or_step(make_phi):
    """Phi and the source are called for the dominator and the bound cap, never per candidate or marching step."""
    phi = make_phi(0.5) if make_phi is model.make_affine_phi else make_phi(0.5, 1.0, 2.0, 1.0)
    h = model.make_erlang_kernel(0, 3.0)
    xi = model.add_exponential_perturbation(model.make_source_tail(h, 1.4), -0.3)
    cfg = HawkesConfig(n_particles=100, t_end=3.0, seed=2, track_coupled=False, subcritical_override=True)
    codes = (phi.scalar.__code__, xi.scalar.__code__)
    run, inlined = _calls(lambda: simulate_hawkes(phi, h, xi, cfg), codes)
    called_phi, called_xi = _called(phi, xi)
    _, called = _calls(lambda: simulate_hawkes(called_phi, h, called_xi, cfg), codes)
    candidates = run.metadata["candidates"]
    assert candidates > 100
    assert [c - i for c, i in zip(called, inlined)] == [candidates, candidates]
    for quadrature in (TRAPEZOID, LEFT_RECTANGLE):  # the implicit and the explicit step
        traj, (phi_calls,) = _calls(lambda: solve_nre(phi, h, xi, SolverConfig(t_end=3.0, dt=1e-2,
                                                                               quadrature=quadrature)), codes[:1])
        assert traj.ts.size == 301 and phi_calls == 0
