import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    intensity_path,
    path_sup_difference,
    run_replicas,
    simulate_hawkes,
)
from renewal_lab.special import kolmogorov_critical, ks_statistic
from renewal_lab.volterra import SolverConfig, solve_nre


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
    # one candidate that leaves the state as it is (e^{-a} = 1, p_1 = p_2 = 0),
    # is rejected, and is due a refresh check, which reads the bound
    sweep = hawkes._sweep(_ErlangState, state.shape, None, None)
    sweep(state, c_list=[1.0], c_thrs=[math.inf], c_steps=[[1.0], [0.0], [0.0]], weight=0.5,
          phi_s=lambda x: 0.0, xi_s=lambda t: 0.0, lam_bar=1.0, lam_over=1.0, cap=0.0, xs_chunk=0.0,
          margin=1.5, next_check=0.0, raw_bound=lambda t, ub: seen.append(ub) or 1.0)
    assert seen == [plain]
    assert state.s == [1.0, 1e-16, 1e-16]


def test_breach_rebuilds_the_dominator_at_an_accepted_candidate(monkeypatch):
    """A falling Phi declared nondecreasing makes the dominator bound wrong; the sweep catches each
    breach at an acceptance (u lam_bar <= lam_bar < the breach level) and rebuilds lam_bar there."""
    phi = model.FiringFunction(
        d1=lambda x: np.where(np.asarray(x, float) < 2.9, -1.0, 0.0),
        d2=lambda x: np.zeros_like(np.asarray(x, float)),
        lip=1.0, d2_sup=0.0, nondecreasing=True, scalar=lambda x: max(3.0 - x, 0.1),
    )
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
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
    cfg = HawkesConfig(n_particles=50, t_end=5.0, seed=3, track_coupled=False)
    run = simulate_hawkes(phi, h, model.make_source_tail(h, 8.0), cfg)
    assert run.metadata["breaches"] > 0
    assert run.metadata["reschedules"] >= run.metadata["breaches"]
    assert sum(c[2] for c in chunks) == run.metadata["breaches"]
    # a breach ends its chunk: the last judged candidate breached, and it was accepted
    for done, new_bar, breaches, _, accepted in chunks:
        if breaches:
            assert breaches == 1 and new_bar > 0.0 and accepted[-1] == done - 1
    for ev in run.events:
        assert np.all(np.diff(ev) >= 0.0)
        assert ev.size == 0 or (ev[0] >= 0.0 and ev[-1] <= cfg.t_end)


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
