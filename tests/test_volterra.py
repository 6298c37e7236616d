import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renewal_lab import model
from renewal_lab.volterra import (
    ALL_NONNEG,
    LEFT_RECTANGLE,
    NON_DECREASING,
    NON_INCREASING,
    SolverConfig,
    check_monotone,
    compare_solutions,
    compute_rho,
    entry_time,
    equilibrium_locked_source,
    limit_diagnostic,
    read_trajectory_csv,
    solve_erlang_cascade,
    solve_nre,
)
from test_volterra_reference import solve_picard


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=0.0005, dt=1e-3)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, quadrature="midpoint")
    for key in ("inner_max_iter", "inner_tol"):
        with pytest.raises(ValueError, match=key):
            SolverConfig(t_end=1.0, **{key: 0})
    cfg = SolverConfig(t_end=2.0, dt=0.5)
    assert cfg.n_steps == 4
    assert np.allclose(cfg.grid(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_linear_limit(affine):
    phi, h, rep = affine
    traj = solve_nre(phi, h, model.make_source_empty(), SolverConfig(t_end=30.0, dt=1e-3))
    assert abs(traj.lam[-1] - 2.0) <= 1e-3
    # closed form lambda_t = 2 - exp(-t/2) for this fixture
    exact = 2.0 - np.exp(-0.5 * traj.ts)
    assert np.max(np.abs(traj.lam - exact)) < 1e-6
    assert traj.lam[0] == float(phi(0.0))  # lambda_0 = Phi(xi(0))
    assert np.all(traj.lam >= 0)
    assert np.allclose(traj.lam, np.asarray(phi(traj.x)))  # lambda = Phi(x) by construction


def test_convergence_order_trapezoid(bistable):
    phi, h, _ = bistable
    xi = model.make_source_tail(h, 0.8)
    ref = solve_nre(phi, h, xi, SolverConfig(t_end=5.0, dt=2.5e-4))
    errs = []
    dts = [4e-3, 2e-3, 1e-3]
    for dt in dts:
        tr = solve_nre(phi, h, xi, SolverConfig(t_end=5.0, dt=dt))
        common = np.arange(0.0, 5.0 + 1e-12, 4e-3)
        errs.append(np.max(np.abs(tr.lam_at(common) - ref.lam_at(common))))
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert order >= 1.8


def test_left_rectangle_validator(bistable):
    phi, h, _ = bistable
    xi = model.make_source_tail(h, 0.8)
    tr_t = solve_nre(phi, h, xi, SolverConfig(t_end=5.0, dt=1e-3))
    tr_l = solve_nre(phi, h, xi, SolverConfig(t_end=5.0, dt=1e-3, quadrature=LEFT_RECTANGLE))
    # first-order scheme agrees to O(dt) and serves as an independent check
    assert np.max(np.abs(tr_t.lam - tr_l.lam)) < 5e-3


def test_picard_matches_marching(affine):
    phi, h, _ = affine
    xi = model.make_source_tail(h, 0.5)
    cfg = SolverConfig(t_end=5.0, dt=1e-3)
    marching = solve_nre(phi, h, xi, cfg)
    picard = solve_picard(phi, h, xi, cfg)
    assert np.max(np.abs(marching.lam - picard.lam)) < 1e-8


def test_dense_history_path_matches_structured(affine):
    """The generic dot-product history must agree with the exponential recursion."""
    phi, h, _ = affine
    from dataclasses import replace

    h_dense = replace(h, structure=None, decay=model.DecayClass.exponential(rate=1.0, constant=0.5))
    xi = model.make_source_tail(h, 0.5)
    cfg = SolverConfig(t_end=5.0, dt=1e-3)
    fast = solve_nre(phi, h, xi, cfg)
    dense = solve_nre(phi, h_dense, xi, cfg)
    assert np.max(np.abs(fast.lam - dense.lam)) < 1e-12


def test_equilibrium_invariance_locked(bistable):
    phi, h, reports = bistable
    cfg = SolverConfig(t_end=50.0, dt=1e-3)
    for rep in reports:
        xi = equilibrium_locked_source(phi, h, rep.ell, cfg)
        traj = solve_nre(phi, h, xi, cfg)
        assert np.max(np.abs(traj.lam - rep.ell)) <= 1e-6


def test_locked_source_matches_analytic_tail(bistable):
    phi, h, reports = bistable
    cfg = SolverConfig(t_end=20.0, dt=1e-3)
    locked = equilibrium_locked_source(phi, h, reports[0].ell, cfg)
    analytic = model.make_source_equilibrium(h, reports[0].ell)
    # off the solver grid the locked source is the analytic tail
    ts = np.linspace(0.0, 20.0, 333)
    assert np.max(np.abs(locked(ts) - analytic(ts))) == 0.0
    # on the grid it deviates only at rounding level
    grid = cfg.grid()
    assert np.max(np.abs(locked.on_grid(grid) - analytic.on_grid(grid))) < 1e-7


def test_zero_perturbation_of_a_locked_source_keeps_its_grid_values(bistable):
    """A perturbation adds to the grid values of the source it wraps, not to its analytic tail, so
    at amplitude 0 the locked source still holds the unstable root on its grid."""
    phi, h, reports = bistable
    cfg = SolverConfig(t_end=40.0, dt=1e-3)
    unstable = reports[1]
    assert unstable.stability.kind == "supercritical"
    locked = equilibrium_locked_source(phi, h, unstable.ell, cfg)
    wrapped = model.add_exponential_perturbation(locked, 0.0)
    assert np.array_equal(wrapped.on_grid(cfg.grid()), locked.on_grid(cfg.grid()))
    held = solve_nre(phi, h, locked, cfg).lam
    assert np.all(held == unstable.ell)
    assert np.array_equal(solve_nre(phi, h, wrapped, cfg).lam, held)


def test_equilibrium_analytic_source_at_stable_root(bistable):
    phi, h, reports = bistable
    cfg = SolverConfig(t_end=30.0, dt=1e-3)
    xi = model.make_source_equilibrium(h, reports[0].ell)
    traj = solve_nre(phi, h, xi, cfg)
    assert np.max(np.abs(traj.lam - reports[0].ell)) < 1e-6


def test_erlang_cascade_constant_equilibrium(bistable):
    phi, h, reports = bistable
    ell = reports[1].ell  # even the unstable one: the cascade is exactly stationary
    traj = solve_erlang_cascade(phi, 2, 3.0, [ell] * 3, SolverConfig(t_end=40.0, dt=1e-3))
    assert np.max(np.abs(traj.lam - ell)) < 1e-11


def test_cascade_cross_validation(bistable):
    phi, h, _ = bistable
    cfg = SolverConfig(t_end=20.0, dt=1e-3)
    c = (1.4, 1.4, 1.4)
    tr_m = solve_nre(phi, h, model.make_source_erlang_polynomial(2, 3.0, c), cfg)
    tr_c = solve_erlang_cascade(phi, 2, 3.0, c, cfg)
    assert np.max(np.abs(tr_m.lam - tr_c.lam)) <= 1e-4


def test_cascade_empty_source_matches_marching(bistable):
    phi, h, _ = bistable
    cfg = SolverConfig(t_end=20.0, dt=1e-3)
    tr_m = solve_nre(phi, h, model.make_source_empty(), cfg)
    tr_c = solve_erlang_cascade(phi, 2, 3.0, [0.0, 0.0, 0.0], cfg)
    assert np.max(np.abs(tr_m.lam - tr_c.lam)) <= 1e-4


def test_monotone_checks(bistable):
    phi, h, reports = bistable
    cfg = SolverConfig(t_end=20.0, dt=1e-3)
    rising = solve_nre(phi, h, model.make_source_empty(), cfg)
    assert check_monotone(rising, NON_DECREASING, tol=1e-8)
    assert not check_monotone(rising, NON_INCREASING, tol=1e-8)
    # constant trajectory passes both directions
    const = solve_nre(phi, h, equilibrium_locked_source(phi, h, reports[0].ell, cfg), cfg)
    assert check_monotone(const, NON_DECREASING, tol=1e-8)
    assert check_monotone(const, NON_INCREASING, tol=1e-8)
    # a start above every fixed point decays monotonically
    falling = solve_nre(phi, h, model.make_source_tail(h, 2.5), cfg)
    assert check_monotone(falling, NON_INCREASING, tol=1e-8)


def test_compute_rho_empty_source(bistable):
    phi, h, _ = bistable
    grid = np.linspace(0.0, 10.0, 2001)
    rho = compute_rho(h, model.make_source_empty(), phi, grid)
    assert rho.summary == ALL_NONNEG  # rho = h(t) Phi(0) >= 0
    assert rho.strict_delta > 0.0  # strictly positive on an initial window


def test_comparison_dominance(bistable):
    phi1, h, _ = bistable
    phi2 = model.make_sigmoid_phi(0.6, 1.0, 8.0, 1.0)  # pointwise above phi1
    cfg = SolverConfig(t_end=8.0, dt=1e-3)
    xi = model.make_source_empty()
    tr1 = solve_nre(phi1, h, xi, cfg)
    tr2 = solve_nre(phi2, h, xi, cfg)
    assert compare_solutions(tr1, tr2, tol=1e-6)
    # equal firing functions give the same solution: dominated with no slack at all
    tr1b = solve_nre(phi1, h, xi, cfg)
    assert compare_solutions(tr1, tr1b, tol=0.0)


def test_comparison_requires_common_grid(bistable):
    phi, h, _ = bistable
    xi = model.make_source_empty()
    tr1 = solve_nre(phi, h, xi, SolverConfig(t_end=4.0, dt=1e-3))
    tr2 = solve_nre(phi, h, xi, SolverConfig(t_end=4.0, dt=2e-3))
    with pytest.raises(ValueError):
        compare_solutions(tr1, tr2, tol=1e-6)


def test_crossing_script_prints_the_verdict_of_a_run_without_a_limit(tmp_path):
    """At t = 20 the lower-order run is still undecided: the script prints that, not a limit of None."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "crossing_portrait.py"), "--t-end", "20", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lower order (L=1): -> undecided" in proc.stdout.splitlines()
    assert (tmp_path / "crossing_portrait.svg").exists()


@pytest.mark.parametrize("script", ["basin_portrait.py", "crossing_portrait.py"])
def test_portrait_scripts_reject_a_run_shorter_than_the_limit_window(tmp_path, script):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script), "--t-end", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "--t-end" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_divergence_potential_dominates_closed_form():
    phi = model.make_divergence_example_phi()
    h = model.make_scaled_exponential_kernel(1.0, 1.0)
    xi = model.make_source_divergence_example(2.0)
    traj = solve_nre(phi, h, xi, SolverConfig(t_end=50.0, dt=1e-3))
    y = model.divergence_lower_envelope(traj.ts, 2.0)
    assert np.min(traj.x - y) >= -1e-3


def test_limit_diagnostic_verdicts(bistable):
    phi, h, reports = bistable
    cfg = SolverConfig(t_end=60.0, dt=1e-3)
    low = solve_nre(phi, h, model.make_source_tail(h, 0.5), cfg)
    diag = limit_diagnostic(low, reports, window=10.0)
    assert diag.kind == "converged" and diag.ell == reports[0].ell
    high = solve_nre(phi, h, model.make_source_tail(h, 1.4), cfg)
    diag = limit_diagnostic(high, reports, window=10.0)
    assert diag.kind == "converged" and diag.ell == reports[2].ell
    # a short run that has not settled anywhere stays undecided
    short = solve_nre(phi, h, model.make_source_tail(h, 0.5), SolverConfig(t_end=2.0, dt=1e-3))
    assert limit_diagnostic(short, reports, window=1.0).kind == "undecided"
    with pytest.raises(ValueError):
        limit_diagnostic(low, reports, window=120.0)


def test_overflow_guard_flags_divergence():
    # supercritical linear equation: ||h||_1 = 2 > 1, explosion in finite time
    h = model.make_scaled_exponential_kernel(2.0, 1.0)
    phi = model.make_affine_phi(1.0)
    traj = solve_nre(phi, h, model.make_source_empty(), SolverConfig(t_end=80.0, dt=1e-3))
    assert traj.divergent
    assert traj.ts.size < 80001
    assert limit_diagnostic(traj, [], window=5.0).kind == "divergent"


def test_entry_time(affine, affine_empty_traj):
    _, _, rep = affine
    t0 = entry_time(affine_empty_traj, rep.ell, 0.1)
    assert t0 == pytest.approx(2.0 * math.log(10.0), abs=2e-3)
    assert entry_time(affine_empty_traj, rep.ell, 5.0) == 0.0


def test_csv_round_trip(tmp_path, affine):
    phi, h, _ = affine
    traj = solve_nre(phi, h, model.make_source_empty(), SolverConfig(t_end=1.0, dt=1e-2))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,lambda,x"
    back = read_trajectory_csv(path)
    assert np.array_equal(back.ts, traj.ts)
    assert np.array_equal(back.lam, traj.lam)
    assert np.array_equal(back.x, traj.x)


def test_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)
