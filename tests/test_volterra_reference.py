"""The marching solver, the locked source, the RK4 cascade and the CSV writer against reference loops.

The reference loops below are the straightforward numpy-scalar forms of the
solver's step loops.  The solver runs them on Python floats with the Erlang
recurrence written out; every operation and its order are the same, so every
output bit must be equal.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_lab import model
from renewal_lab.volterra import (
    _CSV_CHUNK,
    LEFT_RECTANGLE,
    OVERFLOW_THRESHOLD,
    TRAPEZOID,
    NonConvergenceError,
    SolverConfig,
    Trajectory,
    equilibrium_locked_source,
    read_trajectory_csv,
    solve_erlang_cascade,
    solve_nre,
    write_csv,
)

# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


class _RefErlangHistory:
    def __init__(self, form, cfg, ts, lam):
        self.order = form.order
        self.alpha = form.alpha
        self.scale = form.scale
        self.dt = cfg.dt
        self.trapezoid = cfg.quadrature == TRAPEZOID
        self.lam = lam
        self.ts = ts
        k = self.order
        ad = form.alpha * cfg.dt
        decay = math.exp(-ad)
        self.coeffs = [[decay * ad ** (kk - i) / math.factorial(kk - i) for i in range(kk + 1)] for kk in range(k + 1)]
        self.T = [0.0] * (k + 1)
        self._decayed = None
        self.h0 = self.scale * self.alpha if k == 0 else 0.0
        self._hcoeff = self.scale * form.alpha ** (k + 1) / math.factorial(k)
        self.beta = 0.5 * cfg.dt * self.h0 if self.trapezoid else 0.0

    def _h_at(self, t):
        return self._hcoeff * math.exp(-self.alpha * t) * t**self.order if t > 0 else self.h0

    def explicit_part(self, n):
        if n == 0:
            self._decayed = None
            return 0.0, 0.0
        dec = [sum(self.coeffs[k][i] * self.T[i] for i in range(k + 1)) for k in range(self.order + 1)]
        self._decayed = dec
        pre = self.scale * dec[self.order]
        if self.trapezoid:
            pre -= 0.5 * self.dt * self._h_at(self.ts[n]) * self.lam[0]
        return pre, self.beta

    def commit(self, n, lam_n):
        if n == 0:
            self.T = [0.0] * (self.order + 1)
        else:
            self.T = list(self._decayed)
        self.T[0] += self.dt * self.alpha * lam_n


class _RefDotHistory:
    def __init__(self, h, cfg, ts, lam, window):
        self.dt = cfg.dt
        self.trapezoid = cfg.quadrature == TRAPEZOID
        self.lam = lam
        self.hg = np.asarray(h.evaluator(ts), dtype=float)
        self.hrev = self.hg[::-1].copy()
        self.N = ts.size - 1
        self.window = window
        self.beta = 0.5 * cfg.dt * self.hg[0] if self.trapezoid else 0.0

    def explicit_part(self, n):
        if n == 0:
            return 0.0, 0.0
        j0 = max(1, n - self.window)
        acc = float(np.dot(self.lam[j0:n], self.hrev[self.N - n + j0 : self.N]))
        pre = self.dt * acc
        if n <= self.window:
            w0 = (0.5 * self.dt) if self.trapezoid else self.dt
            pre += w0 * self.hg[n] * self.lam[0]
        return pre, self.beta

    def commit(self, n, lam_n):
        self.lam[n] = lam_n


def _ref_make_history(h, cfg, ts, lam):
    if h.structure is not None:
        return _RefErlangHistory(h.structure, cfg, ts, lam)
    if h.decay.kind == "compact":
        return _RefDotHistory(h, cfg, ts, lam, int(math.ceil(h.decay.horizon / cfg.dt)) + 1)
    return _RefDotHistory(h, cfg, ts, lam, ts.size)


def ref_solve_nre(phi, h, xi, cfg):
    ts = cfg.grid()
    n_pts = ts.size
    xi_vals = xi.on_grid(ts)
    lam = np.zeros(n_pts)
    xarr = np.zeros(n_pts)
    hist = _ref_make_history(h, cfg, ts, lam)
    phi_s = phi.scalar
    damped = abs(hist.beta) * phi.lip >= 1.0

    inner_total = 0
    inner_max = 0
    divergent = False
    cut = n_pts
    lam_prev = 0.0

    for n in range(n_pts):
        pre, beta = hist.explicit_part(n)
        base = xi_vals[n] + pre
        if beta == 0.0:
            xn = base
            ln = phi_s(xn)
        else:
            lam_c = lam_prev
            converged = nan = False
            for it in range(cfg.inner_max_iter):
                nxt = phi_s(base + beta * lam_c)
                if abs(nxt - lam_c) <= cfg.inner_tol * max(1.0, abs(nxt)):
                    lam_c = nxt
                    converged = True
                    inner_total += it + 1
                    inner_max = max(inner_max, it + 1)
                    break
                if math.isnan(nxt):
                    nan = True
                    break
                lam_c = 0.5 * (lam_c + nxt) if damped else nxt
            if nan:
                # a NaN Phi cuts the run in every step kind, as the explicit step's overflow check does
                divergent = True
                cut = n
                break
            if not converged:
                raise NonConvergenceError(n, float(ts[n]), abs(phi_s(base + beta * lam_c) - lam_c))
            xn = base + beta * lam_c
            ln = phi_s(xn)
        if not math.isfinite(ln) or ln > OVERFLOW_THRESHOLD or abs(xn) > OVERFLOW_THRESHOLD:
            divergent = True
            cut = n
            break
        lam[n] = ln
        xarr[n] = xn
        hist.commit(n, ln)
        lam_prev = ln

    meta = {"inner_iterations_total": inner_total, "inner_iterations_max": inner_max}
    return Trajectory(ts=ts[:cut], lam=lam[:cut], x=xarr[:cut], divergent=divergent, metadata=meta)


def _even_mantissa(x):
    import struct

    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    if bits & 1:
        return math.nextafter(x, 0.0)
    return x


def ref_locked_values(phi, h, ell, cfg):
    ts = cfg.grid()
    n_pts = ts.size
    lam = np.zeros(n_pts)
    hist = _ref_make_history(h, cfg, ts, lam)
    phi_s = phi.scalar
    target_x = _even_mantissa(float(h.kappa) * float(ell))
    lam_star = phi_s(target_x)

    xi_vals = np.empty(n_pts)
    for n in range(n_pts):
        pre, beta = hist.explicit_part(n)
        w = beta * lam_star
        cand0 = (target_x - w) - pre
        step = math.ulp(max(abs(target_x), abs(pre), abs(w), abs(cand0), 1e-300))
        cand = None
        for k in range(64):
            for sgn in (0,) if k == 0 else (1, -1):
                trial = cand0 + sgn * k * step
                if (trial + pre) + w == target_x:
                    cand = trial
                    break
            if cand is not None:
                break
        if cand is None:
            raise RuntimeError("failed to lock equilibrium source on the grid")
        xi_vals[n] = cand
        lam[n] = lam_star
        hist.commit(n, lam_star)
    return xi_vals


def ref_solve_erlang_cascade(phi, n, alpha, c, cfg):
    c = np.asarray(c, dtype=float)
    ts = cfg.grid()
    phi_s = phi.scalar
    a = alpha

    def deriv(state):
        out = np.empty_like(state)
        out[:-1] = a * (state[1:] - state[:-1])
        out[-1] = a * (phi_s(state[0]) - state[-1])
        return out

    n_pts = ts.size
    x0_path = np.empty(n_pts)
    y = c.copy()
    dt = cfg.dt
    divergent = False
    cut = n_pts
    for i in range(n_pts):
        x0_path[i] = y[0]
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > OVERFLOW_THRESHOLD:
            divergent = True
            cut = i
            break
        if i == n_pts - 1:
            break
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    x0_path = x0_path[:cut]
    lam = np.array([phi_s(v) for v in x0_path])
    return Trajectory(ts=ts[:cut], lam=lam, x=x0_path, divergent=divergent)


def ref_to_csv(traj, path):
    with open(path, "w") as fh:
        fh.write("t,lambda,x\n")
        for t, l, xv in zip(traj.ts, traj.lam, traj.x):
            fh.write(f"{t:.17g},{l:.17g},{xv:.17g}\n")


# ---------------------------------------------------------------------------
# bit-for-bit comparisons
# ---------------------------------------------------------------------------


def _assert_same(got, want):
    assert np.array_equal(got.ts, want.ts)
    assert np.array_equal(got.lam, want.lam)
    assert np.array_equal(got.x, want.x)
    assert got.divergent == want.divergent


def _assert_same_solve(phi, h, xi, cfg):
    got = solve_nre(phi, h, xi, cfg)
    want = ref_solve_nre(phi, h, xi, cfg)
    _assert_same(got, want)
    for key in ("inner_iterations_total", "inner_iterations_max"):
        assert got.metadata[key] == want.metadata[key]
    return got


@pytest.mark.parametrize("quadrature", [TRAPEZOID, LEFT_RECTANGLE])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_erlang_marching_matches_reference(bistable, order, quadrature):
    phi = bistable[0]
    h = model.make_erlang_kernel(order, 3.0)
    xi = model.make_source_tail(h, 0.8)
    traj = _assert_same_solve(phi, h, xi, SolverConfig(t_end=6.0, dt=1e-3, quadrature=quadrature))
    assert traj.metadata["history"] == "ErlangHistory"
    implicit = order == 0 and quadrature == TRAPEZOID
    assert (traj.metadata["inner_iterations_total"] > 0) == implicit


def test_erlang_polynomial_source_matches_reference(bistable):
    phi, h, _ = bistable
    _assert_same_solve(phi, h, model.make_source_erlang_polynomial(2, 3.0, (1.4, 0.3, -0.2)), SolverConfig(t_end=5.0))


def test_damped_implicit_step_matches_reference(bistable):
    # |beta| Lip = 0.5 * dt * h(0) * Lip = 0.5 * 0.4 * 3 * 2 >= 1 switches the inner iteration to damping
    phi = bistable[0]
    h = model.make_erlang_kernel(0, 3.0)
    for ell0 in (0.2, 1.4):
        traj = _assert_same_solve(phi, h, model.make_source_tail(h, ell0), SolverConfig(t_end=20.0, dt=0.4))
        assert traj.metadata["inner_iterations_max"] > 30


def test_non_convergence_matches_reference(bistable):
    phi = bistable[0]
    h = model.make_erlang_kernel(0, 3.0)
    cfg = SolverConfig(t_end=2.0, dt=1e-2, inner_max_iter=1)
    with pytest.raises(NonConvergenceError) as got:
        solve_nre(phi, h, model.make_source_tail(h, 0.8), cfg)
    with pytest.raises(NonConvergenceError) as want:
        ref_solve_nre(phi, h, model.make_source_tail(h, 0.8), cfg)
    assert (got.value.step, got.value.t, got.value.residual) == (want.value.step, want.value.t, want.value.residual)


def test_divergence_cut_matches_reference():
    phi = model.make_divergence_example_phi()
    h = model.make_scaled_exponential_kernel(1.0, 1.0)
    _assert_same_solve(phi, h, model.make_source_divergence_example(2.0), SolverConfig(t_end=20.0, dt=1e-3))
    # supercritical linear equation: cut at the overflow threshold
    h2 = model.make_scaled_exponential_kernel(2.0, 1.0)
    traj = _assert_same_solve(model.make_affine_phi(1.0), h2, model.make_source_empty(), SolverConfig(t_end=40.0, dt=1e-3))
    assert traj.divergent and traj.ts.size < 40001


@pytest.mark.parametrize("quadrature", [TRAPEZOID, LEFT_RECTANGLE])
def test_dot_histories_match_reference(bistable, quadrature):
    phi, h, _ = bistable
    cfg = SolverConfig(t_end=4.0, dt=2e-3, quadrature=quadrature)
    xs = np.linspace(0.0, 2.0, 401)
    compact = model.make_compact_kernel(1.5 * xs**2 * (2.0 - xs) ** 2 / (2.0**5 / 30.0), 2.0)
    traj = _assert_same_solve(phi, compact, model.make_source_tail(h, 0.8), cfg)
    assert traj.metadata["history"] == "DotHistory"
    dense = replace(h, structure=None)
    _assert_same_solve(phi, dense, model.make_source_tail(h, 0.8), cfg)
    # an implicit dense step: h(0) > 0
    h0 = model.make_erlang_kernel(0, 3.0)
    _assert_same_solve(phi, replace(h0, structure=None), model.make_source_tail(h0, 0.8), cfg)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_locked_source_matches_reference(order):
    phi = model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0)
    h = model.make_erlang_kernel(order, 3.0)
    cfg = SolverConfig(t_end=10.0, dt=1e-3)
    for rep in model.find_fixed_points(phi, h):
        try:
            want = ref_locked_values(phi, h, rep.ell, cfg)
        except RuntimeError:
            # the center root of the order-0 kernel is not reachable on the grid: both fail
            with pytest.raises(RuntimeError, match="failed to lock"):
                equilibrium_locked_source(phi, h, rep.ell, cfg)
            continue
        xi = equilibrium_locked_source(phi, h, rep.ell, cfg)
        assert np.array_equal(xi.on_grid(cfg.grid()), want)
        _assert_same_solve(phi, h, xi, cfg)


def test_locked_source_dense_matches_reference(bistable):
    phi, h, reports = bistable
    dense = replace(h, structure=None)
    cfg = SolverConfig(t_end=2.0, dt=2e-3)
    xi = equilibrium_locked_source(phi, dense, reports[1].ell, cfg)
    assert np.array_equal(xi.on_grid(cfg.grid()), ref_locked_values(phi, dense, reports[1].ell, cfg))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_cascade_matches_reference(bistable, order):
    phi = bistable[0]
    c = [1.4 - 0.3 * k for k in range(order + 1)]
    cfg = SolverConfig(t_end=8.0, dt=1e-3)
    _assert_same(solve_erlang_cascade(phi, order, 3.0, c, cfg), ref_solve_erlang_cascade(phi, order, 3.0, c, cfg))


def test_divergent_cascade_matches_reference():
    # Phi(x) = 2 + 8x drives the order-1 cascade past the overflow threshold
    phi = model.make_affine_phi(1.0)
    phi2 = replace(phi, scalar=lambda x: 2.0 + 8.0 * x, lip=8.0)
    cfg = SolverConfig(t_end=40.0, dt=1e-2)
    got = solve_erlang_cascade(phi2, 1, 1.0, [0.5, 0.5], cfg)
    _assert_same(got, ref_solve_erlang_cascade(phi2, 1, 1.0, [0.5, 0.5], cfg))
    assert got.divergent


def test_to_csv_bytes_match_reference(tmp_path, bistable):
    phi, h, _ = bistable
    traj = solve_nre(phi, h, model.make_source_tail(h, 0.8), SolverConfig(t_end=20.0, dt=1e-3))
    traj.to_csv(tmp_path / "got.csv")
    ref_to_csv(traj, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    short = Trajectory(ts=traj.ts[:3], lam=traj.lam[:3], x=-traj.x[:3])
    short.to_csv(tmp_path / "got3.csv")
    ref_to_csv(short, tmp_path / "want3.csv")
    assert (tmp_path / "got3.csv").read_bytes() == (tmp_path / "want3.csv").read_bytes()


#: values the formatting turns on: signed zeros, non-finite values, the smallest subnormal, powers of ten
#: and their neighbours, the exact ties 2**50 + 0.25 and 2**50 + 0.75, and the ends of the float range
_CSV_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
              1e-5, 1e-4, 1e16, 1e17, 1e22, 1e23, -1e100, 1.7976931348623157e308, 2.0**50 + 0.25,
              2.0**50 + 0.75, 0.1, 1.0, 9.5, 100.5, 123456789012345678.0, 1e-290, 1e290]
_CSV_EDGES += [math.nextafter(v, d) for v in (1e-5, 1e16, 1e17, 1e22, 1e23, 1.0) for d in (0.0, math.inf)]
#: int64 values at and beyond 2**53, where the float conversion of '%.17g' rounds
_CSV_INTS = [0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 10**17 - 1, 10**17, 10**17 + 1, 2**63 - 1, -(2**63)]


def _per_value_csv(header, *columns):
    rows = zip(*(col.tolist() for col in columns))
    return "".join([header + "\n", *(",".join("%.17g" % v for v in row) + "\n" for row in rows)]).encode()


def _assert_reads_back(path, *columns):
    traj = read_trajectory_csv(path)
    for got, col in zip((traj.ts, traj.lam, traj.x), columns):
        want = col.astype(float)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@given(
    bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40),
    size=st.sampled_from([1, 2, 3, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 5]),
    kinds=st.lists(st.sampled_from(["bits", "wide", "edges", "ints", "grid"]), min_size=3, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_write_csv_equals_per_value_format(tmp_path_factory, bits, size, kinds, seed):
    """``write_csv`` writes every value as ``'%.17g' % value``, and the file reads back bit-exactly."""
    rng = np.random.default_rng(seed)
    drawn = np.array(bits, dtype=np.uint64).view(np.float64)

    def column(kind):
        if kind == "bits":
            col = rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False).view(np.float64)
            at = rng.integers(0, size, size=drawn.size)
            col[at] = drawn
            return col
        if kind == "wide":
            return rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-320.0, 308.0, size=size)
        if kind == "edges":
            return rng.choice(np.array(_CSV_EDGES + drawn.tolist()), size=size)
        if kind == "ints":
            return np.concatenate([np.array(_CSV_INTS, dtype=np.int64), rng.integers(-(2**63), 2**63 - 1, size=size)])[:size]
        return 1e-3 * np.arange(size) + rng.integers(0, 3) * rng.standard_normal()

    columns = [column(kind) for kind in kinds]
    path = tmp_path_factory.mktemp("csv") / "got.csv"
    write_csv(path, "t,lambda,x", *columns)
    assert path.read_bytes() == _per_value_csv("t,lambda,x", *columns)
    _assert_reads_back(path, *columns)


def test_write_csv_rounds_exact_ties_to_even(tmp_path):
    col = np.array([2.0**50 + 0.25, 2.0**50 + 0.75, -(2.0**50 + 0.25)])
    write_csv(tmp_path / "ties.csv", "v", col)
    assert (tmp_path / "ties.csv").read_text() == "v\n1125899906842624.2\n1125899906842624.8\n-1125899906842624.2\n"


# ---------------------------------------------------------------------------
# the numerical guards at their edges, and the metadata the benchmark reads
# ---------------------------------------------------------------------------


def _assert_same_error(phi, h, xi, cfg):
    with pytest.raises(NonConvergenceError) as got:
        solve_nre(phi, h, xi, cfg)
    with pytest.raises(NonConvergenceError) as want:
        ref_solve_nre(phi, h, xi, cfg)
    assert (got.value.step, got.value.t, got.value.residual) == (want.value.step, want.value.t, want.value.residual)
    return got.value


@pytest.mark.parametrize("structured", [True, False], ids=["erlang", "dense"])
def test_overflow_at_step_zero_matches_reference(structured):
    # xi(0) = 2e12 puts x_0 past the overflow threshold before any history exists
    h = model.make_erlang_kernel(0, 3.0)
    h = h if structured else replace(h, structure=None)
    xi = model.make_source_erlang_polynomial(0, 3.0, (2e12,))
    traj = _assert_same_solve(model.make_affine_phi(1.0), h, xi, SolverConfig(t_end=1.0, dt=1e-2))
    assert traj.divergent and traj.ts.size == 0
    assert traj.metadata["divergent_at"] == 0.0


@pytest.mark.parametrize("structured", [True, False], ids=["erlang", "dense"])
def test_nan_phi_mid_run_matches_reference(structured):
    # the supercritical linear equation grows; Phi turns NaN once x passes 5, which cuts the run in the
    # explicit step (left rectangle) and in the implicit one (trapezoid, h(0) = 2), though there the affine
    # clip maps the NaN back to 0.0 on the next inner iteration
    affine = model.make_affine_phi(1.0)
    phi = replace(affine, scalar=lambda x: math.nan if x > 5.0 else affine.scalar(x))
    h = model.make_scaled_exponential_kernel(2.0, 1.0)
    h = h if structured else replace(h, structure=None)
    # the last stored points: t = 1.27 and t = 1.25
    for quadrature, kept in ((LEFT_RECTANGLE, 128), (TRAPEZOID, 126)):
        cfg = SolverConfig(t_end=10.0, dt=1e-2, quadrature=quadrature)
        traj = _assert_same_solve(phi, h, model.make_source_empty(), cfg)
        assert traj.divergent and traj.ts.size == kept
        assert traj.metadata["divergent_at"] == traj.ts[-1]


def test_damped_step_with_one_inner_iteration_matches_reference(bistable):
    # the damped order-0 trapezoid step of test_damped_implicit_step_matches_reference, capped at one iteration
    phi = bistable[0]
    h = model.make_erlang_kernel(0, 3.0)
    err = _assert_same_error(phi, h, model.make_source_tail(h, 0.2), SolverConfig(t_end=20.0, dt=0.4, inner_max_iter=1))
    assert err.step == 1


def test_dense_implicit_non_convergence_matches_reference(bistable):
    phi = bistable[0]
    h0 = model.make_erlang_kernel(0, 3.0)
    cfg = SolverConfig(t_end=4.0, dt=2e-3, inner_max_iter=1)
    err = _assert_same_error(phi, replace(h0, structure=None), model.make_source_tail(h0, 0.8), cfg)
    assert err.step == 1


@pytest.mark.parametrize("kind", ["erlang", "windowed", "dense", "divergent"])
def test_solve_metadata_is_pinned(bistable, kind):
    """Every key and value of ``Trajectory.metadata``: the benchmark reads the history kind and inner counts."""
    phi, h, _ = bistable
    xi = model.make_source_tail(h, 0.8)
    cfg = SolverConfig(t_end=2.0, dt=2e-3)
    history = "DotHistory"
    if kind == "erlang":
        h, history = model.make_erlang_kernel(0, 3.0), "ErlangHistory"
        xi = model.make_source_tail(h, 0.8)
    elif kind == "windowed":
        xs = np.linspace(0.0, 1.0, 201)
        h = model.make_compact_kernel(30.0 * xs**2 * (1.0 - xs) ** 2, 1.0)
    elif kind == "dense":
        h = replace(h, structure=None)
    else:
        phi, h, history = model.make_affine_phi(1.0), model.make_scaled_exponential_kernel(2.0, 1.0), "ErlangHistory"
        xi, cfg = model.make_source_empty(), SolverConfig(t_end=40.0, dt=1e-2, quadrature=LEFT_RECTANGLE)
    got = solve_nre(phi, h, xi, cfg)
    want = ref_solve_nre(phi, h, xi, cfg)
    expected = {
        "method": f"marching-{cfg.quadrature}",
        "dt": cfg.dt,
        "inner_tol": 1e-12,
        "inner_iterations_total": want.metadata["inner_iterations_total"],
        "inner_iterations_max": want.metadata["inner_iterations_max"],
        "history": history,
        "phi": phi.label,
        "kernel": h.label,
        "source": xi.label,
    }
    if kind == "divergent":
        expected["divergent_at"] = float(want.ts[-1])
    assert list(got.metadata) == list(expected)
    assert got.metadata == expected
    assert (got.metadata["inner_iterations_total"] > 0) == (kind == "erlang")


_PHI_MAKERS = {
    "sigmoid": lambda: model.make_sigmoid_phi(0.5, 1.0, 6.0, 1.0),
    "cubic-sigmoid": lambda: model.make_cubic_sigmoid_phi(0.5, 1.0, 6.0, 1.0),
    "affine": lambda: model.make_affine_phi(0.5),
    "constant": lambda: model.make_constant_phi(0.7),
    "divergence-example": model.make_divergence_example_phi,
}


@functools.lru_cache(maxsize=None)
def _phi_of(maker):
    """One Phi of each maker, built on first use: some scan a grid for their bounds."""
    return _PHI_MAKERS[maker]()


@given(
    order=st.integers(min_value=0, max_value=5),
    alpha=st.floats(min_value=0.25, max_value=6.0),
    dt=st.sampled_from([1e-3, 4e-3, 2e-2, 0.1, 0.5]),
    quadrature=st.sampled_from([TRAPEZOID, LEFT_RECTANGLE]),
    maker=st.sampled_from(sorted(_PHI_MAKERS)),
    ell0=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_erlang_marching_matches_reference_for_random_shapes(order, alpha, dt, quadrature, maker, ell0):
    """Each Erlang order has its own written-out step: every order 0-5 equals the reference loop to the bit."""
    phi = _phi_of(maker)
    h = model.make_erlang_kernel(order, alpha)
    xi = model.make_source_tail(h, ell0)
    cfg = SolverConfig(t_end=2.0, dt=dt, quadrature=quadrature)
    try:
        want = ref_solve_nre(phi, h, xi, cfg)
    except NonConvergenceError:
        _assert_same_error(phi, h, xi, cfg)
        return
    _assert_same_solve(phi, h, xi, cfg)
    assert want.divergent or want.ts.size == cfg.n_steps + 1


@given(
    order=st.integers(min_value=0, max_value=4),
    alpha=st.floats(min_value=0.25, max_value=6.0),
    dt=st.sampled_from([1e-3, 2e-2, 0.1]),
    maker=st.sampled_from(sorted(_PHI_MAKERS)),
    c0=st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_cascade_matches_reference_for_random_shapes(order, alpha, dt, maker, c0):
    """Each order and Phi formula has its own written-out RK4 loop: every one equals the reference to the bit."""
    phi = _phi_of(maker)
    c = [c0 - 0.25 * k for k in range(order + 1)]
    cfg = SolverConfig(t_end=2.0, dt=dt)
    _assert_same(solve_erlang_cascade(phi, order, alpha, c, cfg), ref_solve_erlang_cascade(phi, order, alpha, c, cfg))


def test_nan_phi_cuts_the_cascade_as_the_reference_does():
    # Phi turns NaN once x_0 passes 5: a stage state past 5 puts a NaN in the next state, which cuts the run
    affine = model.make_affine_phi(1.0)
    phi = replace(affine, scalar=lambda x: math.nan if x > 5.0 else 2.0 + 8.0 * x, lip=8.0)
    cfg = SolverConfig(t_end=40.0, dt=1e-2)
    got = solve_erlang_cascade(phi, 1, 1.0, [0.5, 0.5], cfg)
    _assert_same(got, ref_solve_erlang_cascade(phi, 1, 1.0, [0.5, 0.5], cfg))
    assert got.divergent and got.x[-1] <= 5.0 and np.all(np.isfinite(got.lam))
