import functools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewal_lab import hawkes, model
from renewal_lab.hawkes import (
    _bound_cap,
    _ErlangState,
    HawkesConfig,
    HawkesRun,
    clt_experiment,
    coupling_experiment,
    estimator_path,
    path_sup_difference,
    run_replicas,
    simulate_hawkes,
)
from renewal_lab.special import kolmogorov_critical, ks_statistic
from renewal_lab.volterra import SolverConfig, solve_nre
from test_hawkes_reference import intensity_path


@pytest.fixture(scope="module")
def affine_system():
    phi = model.make_affine_phi(1.0)
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    xi = model.make_source_empty()
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=20.0, dt=1e-3))
    return phi, h, xi, limit


def test_config_validation():
    with pytest.raises(ValueError):
        HawkesConfig(n_particles=0, t_end=1.0, seed=1)
    with pytest.raises(ValueError):
        HawkesConfig(n_particles=1, t_end=1.0, seed=1, thinning_margin=1.0)


def test_requires_strong_subcriticality(affine_system):
    phi, _, xi, _ = affine_system
    h_super = model.make_scaled_exponential_kernel(1.5, 1.0)
    cfg = HawkesConfig(n_particles=2, t_end=1.0, seed=1, track_coupled=False)
    with pytest.raises(ValueError):
        simulate_hawkes(phi, h_super, xi, cfg)
    # override allows exploratory runs
    run = simulate_hawkes(phi, h_super, xi,
                          HawkesConfig(n_particles=2, t_end=1.0, seed=1, track_coupled=False,
                                       subcritical_override=True))
    assert run.metadata["t_end"] == 1.0


def test_constant_phi_is_homogeneous_poisson():
    """Degenerate thinning check: interevent gaps are Exponential(c)."""
    phi = model.make_constant_phi(1.0)
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    cfg = HawkesConfig(n_particles=1, t_end=10500.0, seed=42, track_coupled=False)
    run = simulate_hawkes(phi, h, model.make_source_empty(), cfg)
    gaps = np.diff(np.concatenate([[0.0], run.events[0]]))
    assert gaps.size > 10_000
    d = ks_statistic(gaps, cdf=lambda x: 1.0 - math.exp(-x) if x > 0 else 0.0)
    assert d < kolmogorov_critical(0.01) / math.sqrt(gaps.size)


def test_constant_phi_mean_count():
    """Mean count over replicas within 3 sigma of c * t."""
    phi = model.make_constant_phi(0.7)
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    cfg = HawkesConfig(n_particles=1, t_end=10.0, seed=9, replicas=500, track_coupled=False)
    counts = [
        simulate_hawkes(phi, h, model.make_source_empty(), cfg, replica=r).events[0].size
        for r in range(cfg.replicas)
    ]
    mean = np.mean(counts)
    sigma = math.sqrt(7.0 / 500)
    assert abs(mean - 7.0) <= 3.0 * sigma


def test_determinism(affine_system):
    phi, h, xi, limit = affine_system
    cfg = HawkesConfig(n_particles=5, t_end=30.0, seed=77)
    a = simulate_hawkes(phi, h, xi, cfg, limit=limit)
    b = simulate_hawkes(phi, h, xi, cfg, limit=limit)
    for ea, eb in zip(a.events, b.events):
        assert np.array_equal(ea, eb)
    for ea, eb in zip(a.coupled_events, b.coupled_events):
        assert np.array_equal(ea, eb)


def test_constant_phi_labels_give_every_particle_a_poisson_process():
    """The superposed stream's labels split it into N homogeneous Poisson(c) processes."""
    c, t_end = 0.8, 2500.0
    phi = model.make_constant_phi(c)
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    cfg = HawkesConfig(n_particles=5, t_end=t_end, seed=23, track_coupled=False)
    run = simulate_hawkes(phi, h, model.make_source_empty(), cfg)
    for ev in run.events:
        assert abs(ev.size - c * t_end) <= 4.0 * math.sqrt(c * t_end)
        gaps = np.diff(np.concatenate([[0.0], ev]))
        d = ks_statistic(gaps, cdf=lambda x: 1.0 - math.exp(-c * x) if x > 0 else 0.0)
        assert d < kolmogorov_critical(0.01) / math.sqrt(gaps.size)


def test_seed_changes_output(affine_system):
    phi, h, xi, _ = affine_system
    a = simulate_hawkes(phi, h, xi, HawkesConfig(n_particles=2, t_end=20.0, seed=1, track_coupled=False))
    b = simulate_hawkes(phi, h, xi, HawkesConfig(n_particles=2, t_end=20.0, seed=2, track_coupled=False))
    assert not np.array_equal(a.events[0], b.events[0])


def test_estimator_path(affine_system):
    phi, h, xi, limit = affine_system
    run = simulate_hawkes(phi, h, xi, HawkesConfig(n_particles=400, t_end=20.0, seed=3, track_coupled=False))
    first = run.events[0][0]
    vals = estimator_path(run, [0.5 * first, 10.0, 20.0])
    assert vals[0] == 0.0  # before the first event
    assert vals[2] == run.events[0].size / 20.0
    # the estimator approaches ell = 2 at late times (single particle, loose band)
    assert abs(vals[2] - 2.0) < 1.0
    with pytest.raises(ValueError):
        estimator_path(run, [25.0])


def test_estimator_converges_constant_rate():
    phi = model.make_constant_phi(2.0)
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    run = simulate_hawkes(phi, h, model.make_source_empty(),
                          HawkesConfig(n_particles=1, t_end=5000.0, seed=10, track_coupled=False))
    val = estimator_path(run, [5000.0])[0]
    assert val == pytest.approx(2.0, abs=3.0 * math.sqrt(2.0 / 5000.0))


def test_path_sup_difference_cancels_shared_jumps():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 2.0, 3.0])
    assert path_sup_difference(a, b) == 0
    assert path_sup_difference(a, np.array([1.0, 2.0])) == 1
    assert path_sup_difference(a, np.array([])) == 3
    assert path_sup_difference(np.array([1.0]), np.array([0.5, 0.6])) == 2


def test_mean_intensity_tracks_limit(affine_system):
    """Propagation of chaos: the common intensity path stays in a CLT-scale band."""
    phi, h, xi, _ = affine_system
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=10.0, dt=1e-3))
    cfg = HawkesConfig(n_particles=2000, t_end=10.0, seed=21, track_coupled=False)
    run = simulate_hawkes(phi, h, xi, cfg)
    grid = np.arange(41) * 0.25
    lam_emp = intensity_path(run, phi, h, xi, grid)
    lam_ref = limit.lam_at(grid)
    # fluctuation scale of the mean-field potential is ||h||_2 sqrt(||lambda||_inf / N),
    # amplified by 1/(1 - ||h||_1 |Phi|_Lip) = 2; 5 sigma band
    band = 5.0 * h.norm_l2 * math.sqrt(2.0 / cfg.n_particles) * 2.0
    assert float(np.max(np.abs(lam_emp - lam_ref))) <= band


def test_intensity_path_closed_form():
    """Phi(xi_N(t) + (1/N) sum_{e < t} h(t - e)) for hand-made events, exponential h and a perturbed source."""
    phi = model.make_affine_phi(1.0)
    h = model.make_scaled_exponential_kernel(0.5, 2.0)
    events = [np.array([0.5, 1.0]), np.array([1.0, 2.0])]
    run = HawkesRun(events=events, coupled_events=None,
                    metadata={"n_particles": 2, "xi_perturbation_applied": 0.3})
    got = intensity_path(run, phi, h, model.make_source_empty(), [0.0, 0.75, 1.0, 1.5, 3.0])

    def expected(t, past):
        return 1.0 + 0.3 * math.exp(-t) + sum(0.5 * math.exp(-2.0 * (t - e)) for e in past) / 2

    # at t = 1 the two events at 1 are not yet in the sum: the left limit
    want = [expected(0.0, []), expected(0.75, [0.5]), expected(1.0, [0.5]),
            expected(1.5, [0.5, 1.0, 1.0]), expected(3.0, [0.5, 1.0, 1.0, 2.0])]
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_coupling_slope_small_scale(affine_system):
    phi, h, xi, limit = affine_system
    cfg = HawkesConfig(n_particles=50, t_end=15.0, seed=31, replicas=30)
    res = coupling_experiment(phi, h, xi, cfg, n_values=(50, 200, 800), threads=1)
    assert all(m <= b for m, b in zip(res.mean_sup_diff, res.bound_values))
    assert -0.8 < res.slope < -0.2
    # (C_xi + sqrt(||lambda||_inf) ||h||_2) / (1 - ||h||_1 |Phi|_Lip) = 1 as t -> inf
    assert res.c_tilde == pytest.approx(1.0, abs=1e-3)


def test_coupling_needs_two_distinct_sizes(affine_system):
    phi, h, xi, _ = affine_system
    cfg = HawkesConfig(n_particles=5, t_end=2.0, seed=31, replicas=3)
    for sizes in ((5,), (5, 5)):
        with pytest.raises(ValueError, match="coupling_sizes"):
            coupling_experiment(phi, h, xi, cfg, n_values=sizes, threads=1)


@pytest.mark.parametrize("sizes", [["100"], ["100", "100"], ["0", "100"]])
def test_coupling_script_rejects_bad_sizes_naming_the_option(sizes):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "coupling_scaling.py"), "--sizes", *sizes],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "--sizes" in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr


def test_erlang_upper_bound_sums_left_to_right():
    """The dominator bound of an Erlang state is summed left to right, not compensated (math.fsum,
    or builtin sum from Python 3.12 on): the bound sets lam_bar and with it every candidate time.
    The kernel's scale enters the components at each jump (h0 = scale alpha), not the bound."""
    state = _ErlangState(2, 3.0, 1.5)
    assert state.h0 == 4.5
    peaks = [2.0**2 * math.exp(-2.0) / 2.0, math.exp(-1.0)]
    state.s = [1.0, 1e-16, 1e-16]
    plain = (peaks[0] * 1.0 + peaks[1] * 1e-16) + 1e-16
    assert plain != math.fsum([peaks[0], peaks[1] * 1e-16, 1e-16])  # the inputs tell the two sums apart
    seen = []
    # one candidate at the state's own time, which leaves the state as it is (a = 0: e^{-a} = 1,
    # p_1 = p_2 = 0), is rejected, and is due a refresh check, which reads the bound
    sweep = hawkes._sweep(_ErlangState, state.shape, None, None)
    sweep(state, c_list=[1.0], c_thrs=[math.inf], t=1.0, weight=0.5,
          phi_s=lambda x: 0.0, xi_s=lambda t: 0.0, lam_bar=1.0, lam_over=1.0, cap=0.0, xs_chunk=0.0,
          margin=1.5, next_check=0.0, raw_bound=lambda t, ub: seen.append(ub) or 1.0)
    assert seen == [plain]
    assert state.s == [1.0, 1e-16, 1e-16]


def test_state_steps_only_for_judged_candidates(monkeypatch):
    """The Erlang state takes one step, one ``math.exp``, per judged candidate, none for the candidates a
    chunk prepares past a reschedule: the reschedule-heavy golden shape judges 2,688 over 138 reschedules.
    The kernel's own equilibrium source rides in the state, so it costs no ``math.exp`` of its own, per
    candidate or in the dominator's bound on it."""
    phi = model.make_affine_phi(1.0)
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    cfg = HawkesConfig(n_particles=2, t_end=400.0, seed=5, track_coupled=False, thinning_margin=1.05)
    exp = math.exp
    calls = 0

    def counting(x):
        nonlocal calls
        calls += 1
        return exp(x)

    monkeypatch.setattr(math, "exp", counting)
    run = simulate_hawkes(phi, h, model.make_source_empty(), cfg)
    assert run.metadata["reschedules"] > 100
    assert calls == run.metadata["candidates"] == 2688
    xi = model.make_source_equilibrium(h, 2.0)
    calls = 0
    run = simulate_hawkes(phi, h, xi, cfg)
    assert calls == run.metadata["candidates"] > 100


def _free_decay(state: _ErlangState, times: list) -> list:
    """Y at each of the increasing times, the state stepped there by the sweep's own advance with no event."""
    seen = []
    sweep = hawkes._sweep(_ErlangState, state.shape, None, None)
    sweep(state, c_list=times, c_thrs=[math.inf] * len(times), t=0.0, weight=1.0,
          phi_s=lambda x: seen.append(x) or 0.0, xi_s=lambda t: 0.0, lam_bar=1.0, lam_over=1.0, cap=math.inf,
          xs_chunk=0.0, margin=1.5, next_check=math.inf, raw_bound=lambda t, ub: 1.0)
    return seen


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("alpha", [0.3, 1.0, 3.0, 7.5])
def test_a_cascade_started_state_is_the_tail_source(order, alpha):
    """The state ``_cascade_start`` reads from a source's constants, stepped by the sweep's advance, gives the source
    at the top, to a relative 1e-12 at dense times: the kernel's own tail source, every component at its level, and
    Erlang-polynomial sources of the kernel's (order, alpha) with random nonnegative coefficients, some of them 0."""
    h = model.make_erlang_kernel(order, alpha)
    rng = np.random.default_rng([order, int(10 * alpha)])
    coeffs = [rng.uniform(0.0, 3.0, order + 1) * (rng.random(order + 1) < 0.7) for _ in range(3)]
    sources = [model.make_source_tail(h, 1.7), *(model.make_source_erlang_polynomial(order, alpha, c) for c in coeffs)]
    starts = [[1.7] * (order + 1), *(c[::-1].tolist() for c in coeffs)]
    times = np.linspace(0.0, (order + 30.0) / alpha, 1001)[1:].tolist()
    for xi, start in zip(sources, starts):
        state = _ErlangState(order, alpha, 1.0)
        state.s = hawkes._cascade_start(h, xi)
        assert state.s == start, xi.label
        np.testing.assert_allclose(_free_decay(state, times), [xi.scalar(t) for t in times], rtol=1e-12, atol=0.0,
                                   err_msg=xi.label)


def test_only_the_kernels_own_tail_formula_starts_the_state():
    """The kernel's own tail sources and the Erlang-polynomial sources of its (order, alpha) with no negative
    coefficient start the state, the top component at c q_0; a perturbed source, another kernel's tail, a negative
    coefficient, another alpha or order, and a table kernel keep the called path."""
    h = model.make_erlang_kernel(2, 3.0)
    xi = model.make_source_equilibrium(h, 1.2)
    assert hawkes._cascade_start(h, xi) == [1.2, 1.2, 1.2]
    assert hawkes._cascade_start(h, model.make_source_erlang_polynomial(2, 3.0, [1.4, 1.4, 0.0])) == [0.0, 1.4, 1.4]
    k = model.make_scaled_exponential_kernel(0.5, 2.0)  # scale c / alpha = 0.25
    assert hawkes._cascade_start(k, model.make_source_equilibrium(k, 3.0)) == [0.75]
    assert hawkes._cascade_start(k, model.make_source_erlang_polynomial(0, 2.0, [0.6])) == [0.6]
    for other in (
        model.add_exponential_perturbation(xi, 0.1),
        model.make_source_equilibrium(model.make_erlang_kernel(2, 2.0), 1.2),
        model.make_source_equilibrium(model.make_erlang_kernel(1, 3.0), 1.2),
        model.make_source_erlang_polynomial(2, 3.0, [1.4, -0.1, 1.4]),
        model.make_source_erlang_polynomial(2, 2.5, [1.4, 1.4, 0.0]),
        model.make_source_erlang_polynomial(3, 3.0, [1.4, 1.4, 0.0, 0.0]),
        model.add_exponential_perturbation(model.make_source_erlang_polynomial(2, 3.0, [1.4, 1.4, 0.0]), 0.1),
        model.make_source_empty(),
    ):
        assert hawkes._cascade_start(h, other) is None, other.label
    assert hawkes._cascade_start(k, model.make_source_erlang_polynomial(0, 2.0, [-0.6])) is None
    assert hawkes._cascade_start(model.make_compact_kernel([1.0, 0.5], 1.0), xi) is None


def test_an_erlang_polynomial_source_rides_in_the_state(monkeypatch):
    """An Erlang-polynomial source of the kernel's own (order, alpha) starts the state, so the run takes one
    ``math.exp`` per candidate, the state's step, besides the order's two peaks of the first bound, and never
    evaluates the source's grid (the called path took an ``np.exp`` per candidate)."""
    phi = model.make_affine_phi(0.5)
    h = model.make_erlang_kernel(2, 3.0)
    xi = model.make_source_erlang_polynomial(2, 3.0, (1.4, 1.4, 0.0))
    cfg = HawkesConfig(n_particles=50, t_end=10.0, seed=5, track_coupled=False, subcritical_override=True)
    simulate_hawkes(phi, h, xi, cfg)  # compiles the sweep
    exp, np_exp = math.exp, np.exp
    calls = {"math": 0, "np": 0}

    def counting(name, fn):
        def wrapped(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(math, "exp", counting("math", exp))
    monkeypatch.setattr(np, "exp", counting("np", np_exp))
    run = simulate_hawkes(phi, h, xi, cfg)
    assert run.metadata["breaches"] == 0
    assert calls == {"math": run.metadata["candidates"] + 2, "np": 0}
    assert run.metadata["candidates"] > 1000


def test_no_state_holds_minus_zero():
    """The sweep adds the empty source as nothing, which keeps the bits of adding 0.0 only while Y is never -0.0:
    a cascade start c q_k = -0.0 passes c q_k >= 0 and starts its component at +0.0, and a table's -0.0 sample, read
    at its knot by one event (a one-term np.dot keeps the sign), gives +0.0."""
    h = model.make_erlang_kernel(2, 3.0)
    xi = replace(model.make_source_equilibrium(h, 1.0), scalar=model._erlang_formula(-0.0, 3.0, [1.0, 1.0, 1.0]))
    poly = model.make_source_erlang_polynomial(2, 3.0, [1.0, -0.0, 2.0])
    for source, want in ((xi, [0.0, 0.0, 0.0]), (poly, [2.0, 0.0, 1.0])):
        start = hawkes._cascade_start(h, source)
        assert start == want and [math.copysign(1.0, v) for v in start] == [1.0, 1.0, 1.0]
    state = hawkes._GeneralState(model.make_compact_kernel([1.0, -0.0, 1.0], 1.0))
    state.advance(0.0)
    state.jump(0.5)
    y = state.advance(0.5)
    assert y == 0.0 and math.copysign(1.0, y) == 1.0


@given(
    order=st.integers(0, 6),
    comps=st.lists(st.floats(0.0, 10.0), min_size=7, max_size=7),
    alpha=st.floats(0.2, 8.0),
)
@settings(max_examples=60, deadline=None)
@example(order=2, comps=[1.0] * 7, alpha=3.0)
def test_erlang_bound_is_at_least_the_free_decay(order, comps, alpha):
    """min(peak sum, largest component) bounds Y over a dense future grid, within the relative 1e-12 by
    which a breach is judged; a refresh check reads that bound with the bits of ``upper_bound``."""
    state = _ErlangState(order, alpha, 1.0)
    state.s = comps[: order + 1]
    bound = state.upper_bound()
    assert bound <= max(state.s)
    seen = []
    sweep = hawkes._sweep(_ErlangState, state.shape, None, None)
    sweep(state, c_list=[0.0], c_thrs=[math.inf], t=0.0, weight=1.0, phi_s=lambda x: 0.0, xi_s=lambda t: 0.0,
          lam_bar=1.0, lam_over=1.0, cap=0.0, xs_chunk=0.0, margin=1.5, next_check=0.0,
          raw_bound=lambda t, ub: seen.append(ub) or 1.0)
    assert seen == [bound]
    times = np.linspace(0.0, (order + 30.0) / alpha, 2001)[1:].tolist()
    assert max(_free_decay(state, times)) <= bound * (1.0 + 1e-12)


def _recorded_sweeps(monkeypatch) -> list:
    """The list to which every sweep ``simulate_hawkes`` runs from now on appends what it returns."""
    chunks = []
    compile_sweep = hawkes._sweep

    def recording(*key):
        sweep = compile_sweep(*key)

        def record(*args, **kw):
            out = sweep(*args, **kw)
            chunks.append(out)
            return out

        return record

    monkeypatch.setattr(hawkes, "_sweep", recording)
    return chunks


def test_breach_rebuilds_the_dominator_at_an_accepted_candidate(monkeypatch):
    """A falling Phi declared nondecreasing makes the dominator bound wrong; the sweep catches each
    breach at an acceptance (u lam_bar <= lam_bar < the breach level) and rebuilds lam_bar there."""
    phi = model.FiringFunction(
        lip=1.0, d2_sup=0.0, nondecreasing=True, scalar=model._formula("x", "max(3.0 - x, 0.1)", max=max),
    )
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    chunks = _recorded_sweeps(monkeypatch)
    cfg = HawkesConfig(n_particles=50, t_end=5.0, seed=3, track_coupled=False)
    run = simulate_hawkes(phi, h, model.make_source_tail(h, 8.0), cfg)
    assert run.metadata["breaches"] > 0
    assert run.metadata["reschedules"] >= run.metadata["breaches"]
    assert sum(c[2] for c in chunks) == run.metadata["breaches"]
    # a breach ends its chunk: the last judged candidate breached, and it was accepted (not rejected)
    for done, new_bar, breaches, _, rejected in chunks:
        if breaches:
            assert breaches == 1 and new_bar > 0.0 and done - 1 not in rejected
    for ev in run.events:
        assert np.all(np.diff(ev) >= 0.0)
        assert ev.size == 0 or (ev[0] >= 0.0 and ev[-1] <= cfg.t_end)


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("coupled", [False, True])
def test_the_sweeps_reject_what_the_run_does_not_accept(monkeypatch, order, coupled):
    """The chunks' rejected indices, summed over the chunks, are the candidates the run did not accept."""
    h = model.make_erlang_kernel(order, 3.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    chunks = _recorded_sweeps(monkeypatch)
    cfg = HawkesConfig(n_particles=100, t_end=5.0, seed=17, track_coupled=coupled, thinning_margin=1.05)
    run = simulate_hawkes(phi, h, model.make_source_tail(h, 1.4), cfg)
    rejected = sum(len(c[4]) for c in chunks)
    assert 0 < rejected == run.metadata["candidates"] - sum(e.size for e in run.events)
    assert len(chunks) > 1
    for done, *_, chunk_rejected in chunks:
        assert chunk_rejected == sorted(set(chunk_rejected)) and all(0 <= k < done for k in chunk_rejected)


def test_clt_requires_enough_replicas(affine_system):
    phi, h, xi, _ = affine_system
    cfg = HawkesConfig(n_particles=10, t_end=5.0, seed=1, replicas=10, track_coupled=False)
    with pytest.raises(ValueError):
        clt_experiment(phi, h, xi, cfg, ell=2.0)


def test_clt_rejects_slow_decay(affine_system):
    phi, h, _, _ = affine_system
    norm = h.norm_l1
    slow = model.make_source_chi_perturbed(
        h, phi, 1.0,
        lambda t: norm / (1.0 + np.asarray(t, float)) ** 0.3,
        lambda t: -0.3 * norm / (1.0 + np.asarray(t, float)) ** 1.3,
        model.DecayClass.polynomial(0.3, norm),
    )
    cfg = HawkesConfig(n_particles=100, t_end=5.0, seed=1, replicas=100, track_coupled=False)
    with pytest.raises(ValueError, match="1/2"):
        clt_experiment(phi, h, slow, cfg, ell=2.0)


def test_clt_warns_on_large_t_over_n(affine_system):
    phi, h, _, _ = affine_system
    xi = model.make_source_equilibrium(h, 2.0)
    cfg = HawkesConfig(n_particles=50, t_end=20.0, seed=1, replicas=100, track_coupled=False)
    with pytest.warns(UserWarning):
        clt_experiment(phi, h, xi, cfg, ell=2.0)


def test_clt_bias_term_from_limit_equation(affine_system):
    """I2 = sqrt(t)(m_t/t - ell) matches the closed form of the linear fixture."""
    phi, h, xi, _ = affine_system
    cfg = HawkesConfig(n_particles=400, t_end=40.0, seed=13, replicas=100, track_coupled=False)
    res = clt_experiment(phi, h, xi, cfg, ell=2.0)
    # m_t = 2t - 2(1 - e^{-t/2}) for lambda = 2 - e^{-t/2}
    expected = -2.0 * (1.0 - math.exp(-20.0)) / math.sqrt(40.0)
    assert res.i2_term == pytest.approx(expected, abs=1e-4)
    assert res.t_over_n == pytest.approx(0.1)


def test_perturbed_source_mode(affine_system):
    phi, h, _, _ = affine_system
    xi = model.make_source_equilibrium(h, 2.0)
    cfg = HawkesConfig(n_particles=100, t_end=10.0, seed=55, track_coupled=False, xi_perturbation=1.0)
    run = simulate_hawkes(phi, h, xi, cfg)
    applied = run.metadata["xi_perturbation_applied"]
    assert abs(applied) == pytest.approx(1.0 / math.sqrt(100))
    # different replicas may flip the perturbation sign but stay reproducible
    again = simulate_hawkes(phi, h, xi, cfg)
    assert again.metadata["xi_perturbation_applied"] == applied


def test_run_replicas_parallel_matches_serial(affine_system):
    phi, h, xi, _ = affine_system
    cfg = HawkesConfig(n_particles=20, t_end=10.0, seed=8, track_coupled=False)

    def one(replica):
        run = simulate_hawkes(phi, h, xi, cfg, replica=replica)
        return sum(e.size for e in run.events)

    serial = run_replicas(one, 6, threads=1)
    parallel = run_replicas(one, 6, threads=2)
    assert serial == parallel


def test_run_replicas_releases_the_worker_context():
    """A pooled call leaves no closure behind, on success and on failure."""

    def fail(replica):
        raise RuntimeError(f"replica {replica}")

    assert run_replicas(abs, 3, threads=2) == [0, 1, 2]
    assert hawkes._MP_CTX == {}
    with pytest.raises(RuntimeError, match="replica"):
        run_replicas(fail, 3, threads=2)
    assert hawkes._MP_CTX == {}


_PHI_MAKERS = {
    "affine": lambda: model.make_affine_phi(1.0),
    "sigmoid": lambda: model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0),
    "cubic_sigmoid": lambda: model.make_cubic_sigmoid_phi(0.2, 2.0, 3.0, 0.5),
    "constant": lambda: model.make_constant_phi(1.3),
}


@pytest.mark.parametrize("name", sorted(_PHI_MAKERS))
@given(
    lam_bar=st.floats(min_value=1e-6, max_value=50.0),
    x0=st.floats(min_value=-2.0, max_value=3.0),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_bound_cap_bounds_phi_below_it(name, lam_bar, x0, fractions):
    """Every x up to the cap has Phi(x) <= lam_bar: the skipped bound check cannot fire."""
    phi_s = _PHI_MAKERS[name]().scalar
    cap = _bound_cap(phi_s, lam_bar, x0)
    if cap == -math.inf:
        assert phi_s(x0) > lam_bar * (1.0 - 1e-12)
        return
    assert cap >= x0
    xs = [cap, float(np.nextafter(cap, -math.inf)), *(x0 - 5.0 + f * (cap - x0 + 5.0) for f in fractions)]
    assert all(phi_s(x) <= lam_bar for x in xs if x <= cap)


def test_bound_checks_skip_most_acceptances():
    """On the clt shape the post-acceptance bound is rarely evaluated, with no breach."""
    phi = model.make_affine_phi(1.0)
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    xi = model.make_source_equilibrium(h, 2.0)
    cfg = HawkesConfig(n_particles=500, t_end=10.0, seed=17, track_coupled=False)
    run = simulate_hawkes(phi, h, xi, cfg)
    accepted = sum(e.size for e in run.events)
    assert run.metadata["breaches"] == 0
    assert accepted > 5000
    assert run.metadata["bound_checks"] < 0.05 * accepted


def test_erlang_kernel_hawkes_runs(bistable):
    """Delayed-excitation kernels exercise the Erlang state bound."""
    phi, h, _ = bistable
    xi = model.make_source_tail(h, 0.5)
    cfg = HawkesConfig(n_particles=200, t_end=10.0, seed=6, track_coupled=False, subcritical_override=True)
    run = simulate_hawkes(phi, h, xi, cfg)
    assert sum(e.size for e in run.events) > 0
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=10.0, dt=1e-3))
    # the empirical intensity stays in a wide band around the limit
    grid = np.arange(21) * 0.5
    assert float(np.max(np.abs(intensity_path(run, phi, h, xi, grid) - limit.lam_at(grid)))) < 0.2


def test_general_kernel_path_poisson():
    """Kernels without analytic structure go through the O(events) fallback."""
    xs = np.linspace(0.0, 1.0, 301)
    h = model.make_compact_kernel(0.4 * np.ones_like(xs), 1.0)
    phi = model.make_affine_phi(1.0)
    xi = model.make_source_empty()
    cfg = HawkesConfig(n_particles=50, t_end=20.0, seed=12, track_coupled=False)
    run = simulate_hawkes(phi, h, xi, cfg)
    total = sum(e.size for e in run.events)
    # mean intensity settles near mu/(1 - ||h||_1) = 1/0.6
    expect = 50 * 20.0 / 0.6
    assert abs(total - expect) < 6.0 * math.sqrt(expect)


def _erlang_or_compact_kernel(kind: int, rate: float):
    if kind < 3:
        return model.make_erlang_kernel(kind, rate)
    if kind == 3:
        return model.make_scaled_exponential_kernel(0.5 * rate, rate)
    return model.make_compact_kernel([0.0, 0.9, 0.2, 0.5, 0.0, 0.3, 0.1], 1.0 / rate)


@functools.lru_cache(maxsize=None)
def _divergence_source():
    return model.make_source_divergence_example(2.0)


#: every source maker thinning takes, from drawn parameters: name -> make(kernel, level, coefficients)
_SOURCE_MAKERS = {
    "empty": lambda h, ell, c: model.make_source_empty(),
    "equilibrium": lambda h, ell, c: model.make_source_equilibrium(h, ell),
    "tail": lambda h, ell, c: model.make_source_tail(h, ell),
    "chi_kernel_tail": lambda h, ell, c: model.make_source_chi_perturbed(
        h, model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0), ell, h.signed_tail,
        lambda t: -np.asarray(h.evaluator(t), dtype=float), h.decay),
    "chi_poly": lambda h, ell, c: model.make_source_chi_perturbed(
        h, model.make_affine_phi(abs(c[0])), ell, lambda t: h.norm_l1 / (1.0 + np.asarray(t, dtype=float)) ** 2,
        lambda t: -2.0 * h.norm_l1 / (1.0 + np.asarray(t, dtype=float)) ** 3, model.DecayClass.polynomial(2.0, h.norm_l1)),
    "erlang_poly": lambda h, ell, c: model.make_source_erlang_polynomial(len(c) - 1, 1.0 + ell, c),
    "perturbed": lambda h, ell, c: model.add_exponential_perturbation(model.make_source_tail(h, ell), c[0], 1.0 + ell),
    "divergence": lambda h, ell, c: _divergence_source(),
}


@pytest.mark.parametrize("name", sorted(_SOURCE_MAKERS))
@given(
    kind=st.integers(0, 4),
    rate=st.floats(0.5, 5.0),
    ell=st.floats(0.0, 3.0),
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
# subnormal levels: at 5e-324 the decay constants of the scaled exponential kernel's tail and of chi_poly's chi
# underflowed to 0, and the Erlang(1, 5) source rounded above its grid-time value (xi(5.7505) = 2.161e-320 over a
# bound of 2.1605e-320); the Erlang-polynomial source with c = (1, 1, 1) and alpha = 2.25 had xi'(1e-9) = 4.4e-16
# over a rise of 0
@example(kind=3, rate=1.0, ell=5e-324, coeffs=[0.0], seed=0)
@example(kind=1, rate=5.0, ell=2.225073858507203e-309, coeffs=[0.0], seed=0)
@example(kind=0, rate=1.0, ell=1.25, coeffs=[1.0, 1.0, 1.0], seed=0)
def test_source_sup_bounds_the_source_at_dense_offsets(name, kind, rate, ell, coeffs, seed):
    """The source's grid bound is at least xi between grid times, and xi' never exceeds its rise.

    The comparison allows the relative 1e-12 by which a breach is judged: a
    computed source may round a few ulp above the exact one, as an Erlang
    tail does just after t = 0, where it is flat.
    """
    xi = _SOURCE_MAKERS[name](_erlang_or_compact_kernel(kind, rate), ell, coeffs)
    dt, t_end = 0.01, 1.0 if name == "divergence" else 6.0
    bound = hawkes._source_sup(xi, dt, t_end)
    rng = np.random.default_rng(seed)
    ts = np.concatenate([rng.uniform(0.0, t_end, 100 if name == "divergence" else 4000), dt * np.arange(10) + 1e-9])
    for t in ts.tolist():
        b = bound[min(int(t / dt), bound.size - 1)]
        assert xi.scalar(t) <= b + 1e-12 * abs(b), t
    if math.isfinite(xi.rise):
        assert float(np.max(xi.derivative(ts))) <= xi.rise


@given(
    values=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12),
    support=st.floats(0.05, 400.0),
    offsets=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
# np.interp's rounded subnormal slope put h just below the last knot 12 smallest subnormals above that knot's value
@example(values=[0.0, 0.0, 2.225073858507e-311], support=17.0, offsets=[0.9999999999999999])
def test_table_envelope_bounds_the_kernel_from_each_offset_on(values, support, offsets):
    """The state's bound on one past event is at least h at every later offset, at every later knot and just
    below it, where a rising cell's interpolated value may round above the knot's."""
    h = model.make_compact_kernel(values, support)
    knots = h.knots[0]
    for f in offsets:
        x = f * support
        state = hawkes._GeneralState(h)
        state.advance(0.0)
        state.jump(1.0)
        state.advance(x)
        near = np.concatenate([knots, np.nextafter(knots, -math.inf)])
        later = np.concatenate([x + (support - x) * np.linspace(0.0, 1.0, 2001), near[near >= x]])
        assert state.upper_bound() >= float(np.max(h(later))), x
