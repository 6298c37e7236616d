"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload is a fixed list of operations built from the seed.  An operation
calls the public API of ``renewal_lab`` (``call``) and is then checked outside
the timed interval (``check``), which returns a digest of its outputs and the
counters the program already reports in its metadata.

* ``march``: deterministic solver operations from the families of acceptance
  criteria 1-12 and 15: Erlang recursion, implicit step, windowed and dense dot
  product, ODE cascade, grid-locked sources, fixed points and rate bounds.
* ``thinning``: replicas of ``simulate_hawkes`` of two kinds, ``clt`` (the
  uncoupled shape of criterion 14) and ``couple`` (the coupled shape of
  criterion 13, followed by ``path_sup_difference`` over all particles).
* ``cli``: ``lab.main`` on the bundled scenarios that finish in seconds, plus
  seed-drawn variants of the tail-source ``solve`` scenarios.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from renewal_lab import hawkes, lab, model, rates, volterra


class WrongOutput(Exception):
    """The operation returned, but its output failed a check."""


class UnexpectedExit(Exception):
    """A command returned an exit code other than the expected one."""


@dataclass
class Op:
    name: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (digest bytes, counters dict)


@dataclass
class Inputs:
    """The operations of one workload, with what set-up measured on the way."""

    tmp: Path
    ops: list = field(default_factory=list)
    limit_solve_s: float = 0.0
    fanout_model: Optional[tuple] = None  # (phi, h, xi, cfg) of the clt replicas


def build(workload: str, seed: int, tmp: Path) -> Inputs:
    inputs = Inputs(tmp)
    inputs.ops = OPS_BY_WORKLOAD[workload](seed, inputs)
    return inputs


def _sha(*chunks) -> bytes:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.digest()


# ---------------------------------------------------------------------------
# march
# ---------------------------------------------------------------------------


def _check_traj(phi, traj, what: str):
    lam = traj.lam
    if lam.size == 0 or not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise WrongOutput(f"{what}: lambda is not finite and nonnegative")
    if not np.allclose(lam, np.asarray(phi.evaluator(traj.x), dtype=float), rtol=1e-12, atol=1e-14):
        raise WrongOutput(f"{what}: lambda != Phi(x) on the grid")


def _solver_counters(traj) -> dict:
    """Steps per accumulator kind and inner iterations, from Trajectory.metadata."""
    meta = traj.metadata
    steps = int(traj.ts.size)
    if meta.get("method") == "erlang-cascade-rk4":
        return {"steps.cascade": steps}
    inner = int(meta.get("inner_iterations_total", 0))
    if inner > 0:
        return {"steps.implicit": steps, "inner_iterations": inner}
    kind = "erlang" if meta.get("history") == "ErlangHistory" else "dot"
    return {f"steps.{kind}": steps}


def _merge(*dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def _random_sigmoid(rng):
    return model.make_sigmoid_phi(
        float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.8, 1.2)), float(rng.uniform(4.0, 8.0)), float(rng.uniform(0.8, 1.2))
    )


def _random_cubic_sigmoid(rng):
    return model.make_cubic_sigmoid_phi(
        float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.8, 1.2)), float(rng.uniform(2.0, 6.0)), float(rng.uniform(0.8, 1.2))
    )


def _solve_op(name, phi, h, xi, cfg, reports=None, window=None) -> Op:
    """solve_nre, followed by limit_diagnostic when fixed points are known."""

    def call():
        traj = volterra.solve_nre(phi, h, xi, cfg)
        diag = volterra.limit_diagnostic(traj, reports, window=window) if reports is not None else None
        return traj, diag

    def check(res):
        traj, diag = res
        _check_traj(phi, traj, name)
        if traj.divergent:
            raise WrongOutput(f"{name}: unexpected divergence")
        verdict = diag.kind.encode() if diag is not None else b""
        return _sha(traj.lam, traj.x, verdict), _solver_counters(traj)

    return Op(name, "solve", call, check)


def _cascade_op(name, phi, n, alpha, c, cfg) -> Op:
    """Marching solve with an Erlang-polynomial source, paired with the ODE cascade."""
    h = model.make_erlang_kernel(n, alpha)
    xi = model.make_source_erlang_polynomial(n, alpha, c)

    def call():
        return volterra.solve_nre(phi, h, xi, cfg), volterra.solve_erlang_cascade(phi, n, alpha, c, cfg)

    def check(res):
        march, casc = res
        _check_traj(phi, march, name)
        _check_traj(phi, casc, name + " cascade")
        if march.lam.shape != casc.lam.shape:
            raise WrongOutput(f"{name}: marching and cascade grids differ")
        err = float(np.max(np.abs(march.lam - casc.lam)))
        if err > 1e-4:
            raise WrongOutput(f"{name}: marching vs cascade sup error {err:.3e} > 1e-4")
        return _sha(march.lam, casc.lam), _merge(_solver_counters(march), _solver_counters(casc))

    return Op(name, "cascade", call, check)


def _locked_op(name, phi, h, ell, cfg) -> Op:
    def call():
        xi = volterra.equilibrium_locked_source(phi, h, ell, cfg)
        return volterra.solve_nre(phi, h, xi, cfg)

    def check(traj):
        _check_traj(phi, traj, name)
        dev = float(np.max(np.abs(traj.lam - ell)))
        if dev > 1e-6:
            raise WrongOutput(f"{name}: locked source drifted {dev:.3e} > 1e-6 from ell")
        return _sha(traj.lam), _merge(_solver_counters(traj), {"steps.locked": int(traj.ts.size)})

    return Op(name, "locked", call, check)


def _fixed_point_op(name, phi, h) -> Op:
    def call():
        return model.find_fixed_points(phi, h)

    def check(reports):
        ells = np.array([r.ell for r in reports])
        for r in reports:
            resid = abs(float(phi(h.kappa * r.ell)) - r.ell)
            if resid > 1e-9 * max(1.0, r.ell):
                raise WrongOutput(f"{name}: ell = {r.ell:.12g} misses Phi(kappa ell) by {resid:.3e}")
        return _sha(ells), {"fixed_points": len(reports)}

    return Op(name, "fixed_points", call, check)


def _rates_op(name, rng) -> Op:
    """Criteria 11-12: rate context, envelope, empirical fit and k-step bounds."""
    alpha = float(rng.uniform(0.5, 1.5))
    h = model.make_scaled_exponential_kernel(alpha * float(rng.uniform(0.3, 0.6)), alpha)
    phi = model.make_affine_phi(float(rng.uniform(0.5, 1.5)))
    xi = model.make_source_empty()
    cfg = volterra.SolverConfig(t_end=20.0, dt=1e-3)
    v_xi = lambda t: 0.0
    h_tail = lambda m: float(h.tail(m))

    def call():
        traj = volterra.solve_nre(phi, h, xi, cfg)
        rep = model.find_fixed_points(phi, h)[0]
        t0 = volterra.entry_time(traj, rep.ell, 0.1)
        ctx = rates.build_rate_context(
            rep, phi, h, lambda_sup=1.05 * traj.sup_lambda(), eps0=0.1, t0=t0,
            xi_decay=model.DecayClass.compact(horizon=0.0), h_decay=h.decay,
        )
        env = rates.predict_envelope(ctx)
        fit = rates.fit_empirical_rate(traj, rep.ell, (1.0, 15.0), rates.LOG_VS_T)
        bounds = [rates.iteration_bound(ctx, v_xi, h_tail, k, t0 + float(j)) for k in range(1, 11) for j in range(10)]
        return traj, rep, env, fit, bounds

    def check(res):
        traj, rep, env, fit, bounds = res
        _check_traj(phi, traj, name)
        nums = np.array([rep.ell, env.C, env.sigma_t0, fit.slope, fit.intercept, *bounds], dtype=float)
        if not np.all(np.isfinite(nums)):
            raise WrongOutput(f"{name}: non-finite rate output")
        if fit.slope >= 0:
            raise WrongOutput(f"{name}: fitted decay slope {fit.slope:.3g} is not negative")
        return _sha(traj.lam, nums, env.shape.encode()), _solver_counters(traj)

    return Op(name, "rates", call, check)


def march_ops(seed: int, inputs: Inputs) -> list:
    rng = np.random.default_rng([seed, 1])
    ops = []
    cfg10 = volterra.SolverConfig(t_end=10.0, dt=1e-3)
    for k in (1, 2, 3):
        # Erlang recursion, sigmoid firing, tail source (criteria 4 and 15)
        h = model.make_erlang_kernel(k, float(rng.uniform(1.0, 3.0)))
        phi = _random_sigmoid(rng)
        reports = model.find_fixed_points(phi, h)
        xi = model.make_source_tail(h, float(rng.uniform(0.2, 2.0)))
        ops.append(_solve_op(f"erlang{k}-sigmoid-tail", phi, h, xi, cfg10, reports, window=2.0))
        # Erlang recursion, cubic-sigmoid firing, empty source (criterion 5)
        h = model.make_erlang_kernel(k, float(rng.uniform(1.0, 3.0)))
        ops.append(_solve_op(f"erlang{k}-cubic-empty", _random_cubic_sigmoid(rng), h, model.make_source_empty(), cfg10))
    for i, phi_kind in enumerate(("affine", "affine", "sigmoid")):
        # scaled exponential: h(0) != 0 forces the implicit step (criteria 1 and 12)
        alpha = float(rng.uniform(0.5, 2.0))
        h = model.make_scaled_exponential_kernel(alpha * float(rng.uniform(0.3, 0.7)), alpha)
        phi = model.make_affine_phi(float(rng.uniform(0.5, 1.5))) if phi_kind == "affine" else _random_sigmoid(rng)
        xi = model.make_source_empty() if i == 0 else model.make_source_tail(h, float(rng.uniform(0.2, 2.0)))
        ops.append(_solve_op(f"exp-{phi_kind}-{'empty' if i == 0 else 'tail'}", phi, h, xi, cfg10))
    for profile in ("bump", "parabola"):
        # compact tables with h(0) = 0: windowed dot product, explicit step (criterion 11)
        support = float(rng.uniform(0.5, 1.5))
        mass = float(rng.uniform(0.3, 0.7))
        xs = np.linspace(0.0, support, 2001)
        shape = xs**2 * (support - xs) ** 2 if profile == "bump" else xs * (support - xs)
        h = model.make_compact_kernel(mass * shape / np.trapezoid(shape, xs), support)
        phi = model.make_affine_phi(float(rng.uniform(0.5, 1.5))) if profile == "bump" else _random_sigmoid(rng)
        xi = model.make_source_tail(h, float(rng.uniform(0.2, 1.5)))
        ops.append(_solve_op(f"compact-{profile}-tail", phi, h, xi, volterra.SolverConfig(t_end=8.0, dt=1e-3)))
    # one short dense dot-product solve: an Erlang kernel with its structure removed
    h = model.make_erlang_kernel(int(rng.integers(1, 3)), float(rng.uniform(1.0, 3.0)))
    xi = model.make_source_tail(h, float(rng.uniform(0.2, 1.5)))
    ops.append(_solve_op("dense-sigmoid-tail", _random_sigmoid(rng), replace(h, structure=None), xi,
                         volterra.SolverConfig(t_end=3.0, dt=1e-3)))
    for n in (1, 2, 3):
        # Erlang-polynomial source: marching vs cascade (criteria 6 and 9)
        c = rng.uniform(0.0, 2.0, size=n + 1)
        ops.append(_cascade_op(f"cascade{n}", _random_sigmoid(rng), n, float(rng.uniform(1.5, 3.0)), c,
                               volterra.SolverConfig(t_end=4.0, dt=1e-3)))
    # grid-locked equilibrium sources at the unstable and one stable root (criterion 2)
    h = model.make_erlang_kernel(2, float(rng.uniform(2.0, 4.0)))
    phi = model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0)
    roots = model.find_fixed_points(phi, h)
    cfg5 = volterra.SolverConfig(t_end=5.0, dt=1e-3)
    ops.append(_locked_op("locked-unstable", phi, h, roots[1].ell, cfg5))
    ops.append(_locked_op("locked-stable", phi, h, roots[int(rng.choice([0, 2]))].ell, cfg5))
    # fixed points and their classification, around the bistable reference sigmoid (criterion 3)
    phi = model.make_sigmoid_phi(
        float(rng.uniform(0.4, 0.6)), float(rng.uniform(0.9, 1.1)), float(rng.uniform(6.0, 10.0)), float(rng.uniform(0.9, 1.1))
    )
    ops.append(_fixed_point_op("fixed-points-sigmoid", phi,
                               model.make_erlang_kernel(int(rng.integers(0, 4)), float(rng.uniform(0.5, 3.0)))))
    alpha = float(rng.uniform(0.5, 2.0))
    ops.append(_fixed_point_op("fixed-points-cubic", _random_cubic_sigmoid(rng),
                               model.make_scaled_exponential_kernel(alpha * float(rng.uniform(0.5, 1.0)), alpha)))
    ops.append(_rates_op("rates-affine", rng))
    return ops


# ---------------------------------------------------------------------------
# thinning
# ---------------------------------------------------------------------------

CLT_PER_PASS = 6
COUPLE_SIZES = (100, 400, 1600)


def _check_events(name, per_particle, t_end):
    for ev in per_particle:
        if ev.size and (ev[0] < 0.0 or ev[-1] > t_end or np.any(np.diff(ev) < 0.0)):
            raise WrongOutput(f"{name}: events not sorted within [0, t_end]")


def _events_digest(per_particle) -> bytes:
    sizes = np.array([e.size for e in per_particle], dtype=np.int64)
    return _sha(sizes, np.concatenate(per_particle) if sizes.sum() else b"")


def _hawkes_counters(kind: str, run) -> dict:
    meta = run.metadata
    out = {
        f"{kind}.candidates": meta["candidates"],
        f"{kind}.accepted": int(sum(e.size for e in run.events)),
        f"{kind}.reschedules": meta["reschedules"],
        f"{kind}.breaches": meta["breaches"],
    }
    if run.coupled_events is not None:
        out[f"{kind}.coupled_accepted"] = int(sum(e.size for e in run.coupled_events))
    return out


def _clt_op(replica, phi, h, xi, cfg, ell) -> Op:
    name = f"clt-r{replica}"

    def call():
        return hawkes.simulate_hawkes(phi, h, xi, cfg, replica=replica)

    def check(run):
        if run.metadata["breaches"] != 0:
            raise WrongOutput(f"{name}: {run.metadata['breaches']} dominator breaches")
        _check_events(name, run.events, cfg.t_end)
        pooled = sum(e.size for e in run.events) / (cfg.n_particles * cfg.t_end)
        if abs(pooled - ell) > 0.1:
            raise WrongOutput(f"{name}: pooled rate {pooled:.4f} is not close to ell = {ell}")
        return _events_digest(run.events), _hawkes_counters("clt", run)

    return Op(name, "clt", call, check)


def _couple_op(n, phi, h, xi, cfg, limit, bound) -> Op:
    name = f"couple-n{n}"
    sub = replace(cfg, n_particles=n)

    def call():
        run = hawkes.simulate_hawkes(phi, h, xi, sub, limit=limit)
        diffs = [hawkes.path_sup_difference(run.events[i], run.coupled_events[i]) for i in range(n)]
        return run, diffs

    def check(res):
        run, diffs = res
        if run.metadata["breaches"] != 0:
            raise WrongOutput(f"{name}: {run.metadata['breaches']} dominator breaches")
        _check_events(name, run.events, sub.t_end)
        _check_events(name + " coupled", run.coupled_events, sub.t_end)
        mean = float(np.mean(diffs))
        if mean > bound * sub.t_end / math.sqrt(n):
            raise WrongOutput(f"{name}: mean sup difference {mean:.3f} above C t / sqrt(N)")
        digest = _sha(_events_digest(run.events), _events_digest(run.coupled_events), np.asarray(diffs, dtype=np.int64))
        return digest, _merge(_hawkes_counters("couple", run), {"couple.psd_calls": n})

    return Op(name, "couple", call, check)


def thinning_ops(seed: int, inputs: Inputs) -> list:
    # clt: Phi = 1 + x, h = 0.5 e^{-t}, equilibrium source ell = 2, uncoupled (criterion 14)
    h_c = model.make_scaled_exponential_kernel(0.5, 1.0)
    phi_c = model.make_affine_phi(1.0)
    xi_c = model.make_source_equilibrium(h_c, 2.0)
    cfg_c = hawkes.HawkesConfig(n_particles=2000, t_end=10.0, seed=seed, track_coupled=False)
    # couple: the Erlang-2 model at |Phi|_Lip ||h||_1 = 0.5, tail source (criterion 13)
    h_k = model.make_erlang_kernel(2, 3.0)
    phi_k = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    xi_k = model.make_source_tail(h_k, 1.4)
    cfg_k = hawkes.HawkesConfig(n_particles=COUPLE_SIZES[0], t_end=20.0, seed=seed, track_coupled=True)
    t0 = time.perf_counter()
    limit = volterra.solve_nre(phi_k, h_k, xi_k, volterra.SolverConfig(t_end=cfg_k.t_end, dt=1e-3))
    inputs.limit_solve_s = time.perf_counter() - t0
    inputs.fanout_model = (phi_c, h_c, xi_c, cfg_c)
    bound = hawkes.coupling_constant(phi_k, h_k, limit.sup_lambda())
    clt = [_clt_op(r, phi_c, h_c, xi_c, cfg_c, 2.0) for r in range(CLT_PER_PASS)]
    couple = [_couple_op(n, phi_k, h_k, xi_k, cfg_k, limit, bound) for n in COUPLE_SIZES]
    # interleave the kinds so that a slow phase of the machine hits both
    ops = []
    for i, op in enumerate(clt):
        ops.append(op)
        if i < len(couple):
            ops.append(couple[i])
    return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

SCENARIOS = Path(lab.__file__).resolve().parent / "scenarios"
VARIANTS_PER_SIDE = 3
SOLVE_SCENARIOS = {
    "bistable_basin_lower": 0,
    "bistable_basin_upper": 0,
    "divergence_a2": 2,
    "empty_source": 0,
    "equilibrium_locked": 0,
    "erlang_crossing_lower_order": 0,
}


def _parse_outputs(files) -> None:
    """Raise WrongOutput unless every file the command wrote parses."""
    for path in files:
        try:
            if path.suffix == ".json":
                with open(path) as fh:
                    json.load(fh)
            elif path.suffix == ".csv":
                with open(path) as fh:
                    header = fh.readline().strip().split(",")
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
                if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
                    raise ValueError("bad shape or non-finite values")
            elif path.suffix == ".svg":
                ET.parse(path)
        except (ValueError, OSError, ET.ParseError) as exc:
            raise WrongOutput(f"{path.name} does not parse: {exc}") from exc


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _cli_op(name, argv, out: Path, expected: int, keep_outputs: bool = False) -> Op:
    def call():
        _remove(out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return lab.main(argv), sink.getvalue()

    def check(res):
        code, text = res
        if code != expected:
            last = text.strip().splitlines()[-1] if text.strip() else ""
            raise UnexpectedExit(f"{name}: exit code {code}, expected {expected}: {last}")
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        _parse_outputs(files)
        chunks = [str(code).encode()]
        written = rows = 0
        for path in files:
            data = path.read_bytes()
            written += len(data)
            if path.suffix == ".csv":
                rows += data.count(b"\n") - 1
            chunks += [path.name.encode(), data]
        if not keep_outputs:
            _remove(out)
        return _sha(*chunks), {"bytes_written": written, "rows_written": rows}

    return Op(name, argv[0], call, check)


def cli_ops(seed: int, inputs: Inputs) -> list:
    tmp = inputs.tmp
    rng = np.random.default_rng([seed, 3])
    common = ["--seed", str(seed)]
    ops = []
    for scen, code in SOLVE_SCENARIOS.items():
        out = tmp / scen
        ops.append(_cli_op(f"solve:{scen}", ["solve", "--config", str(SCENARIOS / f"{scen}.json"), "--out", str(out), *common],
                           out, code, keep_outputs=scen == "bistable_basin_lower"))
        if scen == "bistable_basin_lower":
            csv = out / "trajectory.csv"
            svg = tmp / "plot.svg"
            ops.append(_cli_op("plot:bistable_basin_lower", ["plot", "--csv", str(csv), "--out", str(svg)], svg, 0))
    # seed-drawn variants of the two tail-source solve scenarios, on each side of the unstable root;
    # with them most commands are solves of one size, so the latency percentiles fall inside one group
    for i in range(VARIANTS_PER_SIDE):
        for scen, lo, hi in (("bistable_basin_lower", 0.2, 0.9), ("bistable_basin_upper", 1.1, 2.0)):
            cfg = lab.load_config(SCENARIOS / f"{scen}.json")
            cfg["source"]["ell0"] = round(float(rng.uniform(lo, hi)), 6)
            cfg["scenario"] += f"-variant{i}"
            path = tmp / f"{scen}_variant{i}.json"
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            out = tmp / f"{scen}_variant{i}"
            ops.append(_cli_op(f"solve:{scen}_variant{i}", ["solve", "--config", str(path), "--out", str(out), *common],
                               out, 0))
    out = tmp / "equilibria"
    ops.append(_cli_op("equilibria:bistable_equilibria",
                       ["equilibria", "--config", str(SCENARIOS / "bistable_equilibria.json"), "--out", str(out), *common], out, 0))
    for scen in ("envelope_compact", "envelope_polyxi"):
        out = tmp / scen
        ops.append(_cli_op(f"envelope:{scen}", ["envelope", "--config", str(SCENARIOS / f"{scen}.json"), "--out", str(out), *common],
                           out, 0))
    out = tmp / "hawkes_small"
    ops.append(_cli_op("hawkes:hawkes_small", ["hawkes", "--config", str(SCENARIOS / "hawkes_small.json"), "--out", str(out), *common],
                       out, 0))
    return ops


OPS_BY_WORKLOAD = {"march": march_ops, "thinning": thinning_ops, "cli": cli_ops}
