"""Command-line experiment runner.

JSON-configured scenarios build model objects by name, run the requested
analysis and write CSV/JSON (and optional SVG) outputs.  Subcommands:

    solve | equilibria | envelope | hawkes | clt | couple | plot | suite

Exit codes: 0 success, 2 mathematically meaningful divergence (solve), 1 error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import model
from .hawkes import (
    HawkesConfig,
    _sum_counters,
    clt_experiment,
    coupling_experiment,
    estimator_path,
    resolve_threads,
    run_replicas,
    simulate_hawkes,
)
from .model import DecayClass, NoFixedPointError
from .rates import (
    LOG_VS_LOG_T,
    LOG_VS_SQRT_T,
    LOG_VS_T,
    TauOutOfRangeError,
    WindowTooNoisyError,
    build_rate_context,
    calibrate_envelope,
    fit_empirical_rate,
    predict_envelope,
    verify_envelope,
)
from .volterra import (
    NonConvergenceError,
    SolverConfig,
    entry_time,
    equilibrium_locked_source,
    limit_diagnostic,
    read_trajectory_csv,
    solve_nre,
    write_csv,
)


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the offending path."""


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _get(spec: dict, key: str, default, cast, path: str):
    """``cast(spec[key])``, or ``cast(default)`` when the key is absent.

    A value the cast rejects, or a float it returns (alone or in a list) that
    is not finite, is a ConfigError naming ``path.key``; a default of None
    makes a key required.
    """
    try:
        value = cast(spec.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}: {exc if key in spec else 'missing'}") from None
    for v in value if isinstance(value, list) else (value,):
        _require(not isinstance(v, float) or math.isfinite(v), f"{path}.{key}", f"not a finite number: {v}")
    return value


def _read(spec: dict, path: str, *keys, also=()) -> list:
    """``_get`` of each ``(key, default, cast)`` of ``keys``, in order; a key of the object ``spec``
    that is neither among ``keys`` nor in ``also`` (read by the caller) is a ConfigError naming it."""
    _require(isinstance(spec, dict), path, "expected an object")
    known = {key for key, _, _ in keys}.union(also)
    for key in spec:
        _require(key in known, f"{path}.{key}", "unknown key")
    return [_get(spec, key, default, cast, path) for key, default, cast in keys]


_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _strict(kind: type):
    """The cast to ``kind`` that takes only a JSON value of that kind: true and false are no numbers,
    and an integer is also a float, so ``int(2.5)``, ``int(True)`` and ``float("3.0")`` never run."""
    accepts = (int, float) if kind is float else kind

    def cast(value):
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepts):
            raise TypeError(f"expected {_KINDS[kind]}, got {value!r}")
        return kind(value)

    return cast


# the cast of each declared type of a config field, by name (the config modules postpone annotations)
_CASTS = {kind.__name__: _strict(kind) for kind in _KINDS}
_bool, _int, _float, _str, _object = _CASTS.values()


def _list_of(cast):
    def convert(value):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return [cast(v) for v in value]

    return convert


def _config(cls, spec: dict, path: str, *extra, also=(), **fixed):
    """A ``cls`` with the ``fixed`` fields, each other field read from ``spec`` by the cast of its
    declared type (absent: the field's default, or missing when it has none), then the values of
    the ``extra`` reads of ``spec``."""
    free = [f for f in fields(cls) if f.name not in fixed]
    keys = [(f.name, None if f.default is MISSING else f.default, _CASTS[f.type]) for f in free]
    values = _read(spec, path, *keys, *extra, also=also)
    return cls(**fixed, **{f.name: v for f, v in zip(free, values)}), *values[len(free):]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_kernel(spec: dict):
    _require(isinstance(spec, dict) and "type" in spec, "kernel", "needs a 'type'")
    kind = spec["type"]
    if kind == "erlang":
        return model.make_erlang_kernel(*_read(spec, "kernel", ("n", 1, _int), ("alpha", 1.0, _float), also=("type",)))
    if kind == "exponential":
        return model.make_scaled_exponential_kernel(*_read(spec, "kernel", ("c", 1.0, _float), ("alpha", 1.0, _float), also=("type",)))
    if kind != "compact":
        raise ConfigError(f"kernel.type: unknown kernel type {kind!r}")
    profile = _get(spec, "profile", "table", _str, "kernel")
    support = _get(spec, "support", 1.0, _float, "kernel")
    _require(support > 0, "kernel.support", "must be > 0")
    also = ("type", "profile", "support")
    if profile == "table":
        samples, = _read(spec, "kernel", ("samples", None, _list_of(_float)), also=also)
        _require(samples and min(samples) >= 0, "kernel.samples", f"must be a nonempty list of values >= 0, got {samples}")
        return model.make_compact_kernel(samples, support)
    _require(profile in ("bump", "box", "triangle"), "kernel.profile", f"unknown profile {profile!r}")
    size = ("mass", 0.5, _float) if profile == "bump" else ("height", 1.0, _float)
    size, res = _read(spec, "kernel", size, ("resolution", 2001, _int), also=also)
    _require(res >= 2, "kernel.resolution", f"must be >= 2, got {res}")
    xs = np.linspace(0.0, support, res)
    if profile == "bump":
        vals = xs**2 * (support - xs) ** 2
        vals *= size / (support**5 / 30.0)
    else:
        vals = np.full(res, size) if profile == "box" else size * (1.0 - xs / support)
    return model.make_compact_kernel(vals, support)


def build_phi(spec: dict):
    _require(isinstance(spec, dict) and "type" in spec, "phi", "needs a 'type'")
    kind = spec["type"]
    if kind in ("sigmoid", "cubic_sigmoid"):
        make = model.make_sigmoid_phi if kind == "sigmoid" else model.make_cubic_sigmoid_phi
        keys = (("base", 0.5), ("gain", 1.0), ("slope", 8.0), ("center", 1.0))
        return make(*_read(spec, "phi", *((k, d, _float) for k, d in keys), also=("type",)))
    if kind == "affine":
        return model.make_affine_phi(*_read(spec, "phi", ("mu", 1.0, _float), also=("type",)))
    if kind == "constant":
        return model.make_constant_phi(*_read(spec, "phi", ("value", 1.0, _float), also=("type",)))
    if kind == "divergence_example":
        return model.make_divergence_example_phi(*_read(spec, "phi", also=("type",)))
    raise ConfigError(f"phi.type: unknown firing-function type {kind!r}")


def build_source(spec: dict, h, phi, solver_cfg: Optional[SolverConfig] = None):
    _require(isinstance(spec, dict) and "type" in spec, "source", "needs a 'type'")
    kind = spec["type"]

    read_keys = []

    def read(*keys):
        read_keys.extend(key for key, _, _ in keys)
        return _read(spec, "source", *keys, also=("type", "perturbation"))

    # a maker's ValueError names no key: ell0 = 5e-324 underflows the decay constant of a tail source
    try:
        if kind == "empty":
            src = model.make_source_empty(*read())
        elif kind == "equilibrium":
            src = model.make_source_equilibrium(h, *read(("ell", None, _float)))
        elif kind == "locked_equilibrium":
            _require(solver_cfg is not None, "source", "locked equilibrium source needs a solver block")
            ell, = read(("ell", None, _float))
            try:
                src = equilibrium_locked_source(phi, h, ell, solver_cfg)
            except RuntimeError as exc:
                raise ConfigError(f"source.ell: {exc}") from exc
        elif kind == "tail":
            src = model.make_source_tail(h, *read(("ell0", None, _float)))
        elif kind == "chi_perturbed":
            ell0, chi_spec = read(("ell0", None, _float), ("chi", {"type": "kernel_tail"}, _object))
            chi_kind = chi_spec.get("type")
            if chi_kind == "kernel_tail":
                _read(chi_spec, "source.chi", also=("type",))
                chi = lambda t: h.signed_tail(t)
                chi_p = lambda t: -np.asarray(h.evaluator(t), dtype=float)
                decay = h.decay
            elif chi_kind == "poly":
                a, = _read(chi_spec, "source.chi", ("a", 1.0, _float), also=("type",))
                norm = h.norm_l1
                chi = lambda t: norm / (1.0 + np.asarray(t, dtype=float)) ** a
                chi_p = lambda t: -a * norm / (1.0 + np.asarray(t, dtype=float)) ** (a + 1.0)
                decay = DecayClass.polynomial(rate=a, constant=norm)
            else:
                raise ConfigError(f"source.chi.type: unknown chi type {chi_kind!r}")
            src = model.make_source_chi_perturbed(h, phi, ell0, chi, chi_p, decay)
        elif kind == "erlang_poly":
            src = model.make_source_erlang_polynomial(*read(("n", None, _int), ("alpha", None, _float), ("c", None, _list_of(_float))))
        elif kind == "divergence_example":
            src = model.make_source_divergence_example(*read(("a", 2.0, _float)))
        else:
            raise ConfigError(f"source.type: unknown source type {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"source.{', source.'.join(read_keys) or 'type'}: {exc}") from exc
    pert = spec.get("perturbation")
    if pert is not None:
        amplitude, rate = _read(pert, "source.perturbation", ("amplitude", None, _float), ("rate", 1.0, _float))
        _require(rate > 0, "source.perturbation.rate", f"must be > 0, got {rate}")
        src = model.add_exponential_perturbation(src, amplitude, rate)
    return src


def build_solver(spec: dict) -> SolverConfig:
    return _config(SolverConfig, spec, "solver")[0]


# the top-level keys some command reads; each command accepts only its own
_TOP_KEYS = ("scenario", "seed", "kernel", "phi", "source", "solver", "limit_window", "rates", "hawkes")


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})")
    _read(cfg, "config", also=_TOP_KEYS)
    return cfg


# ---------------------------------------------------------------------------
# stability / report serialisation
# ---------------------------------------------------------------------------


def _stability_dict(st) -> dict:
    out = {"kind": st.kind}
    if st.p is not None:
        out.update(p=st.p, sign_of_phi_p=st.sign_of_phi_p, above=st.above, below=st.below)
    if st.note:
        out["note"] = st.note
    return out


def _report_dict(r) -> dict:
    return {
        "ell": r.ell,
        "kappa_ell": r.kappa_ell,
        "tau0": r.tau0,
        "residual": r.residual,
        "stability": _stability_dict(r.stability),
    }


def _write_json(path, obj):
    """Strict JSON: a float that is not finite is written as null, never as NaN or Infinity."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(strict, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _model(cfg: dict, *blocks, also=()) -> list:
    """The kernel and Phi of ``cfg``, then its ``(name, default)`` blocks as objects; a top-level key
    that is none of these, ``scenario``, ``seed`` or ``also`` (read by the caller) is a ConfigError."""
    keys = [(name, default, _object) for name, default in (("kernel", None), ("phi", None), *blocks)]
    kspec, pspec, *rest = _read(cfg, "config", *keys, also=("scenario", "seed", *also))
    return [build_kernel(kspec), build_phi(pspec), *rest]


_EMPTY = {"type": "empty"}


def _nre_inputs(cfg: dict, *blocks):
    """The solver config, kernel, Phi, source and limit-diagnostic window of solve and envelope, then ``blocks``."""
    h, phi, sspec, solver_spec, *rest = _model(cfg, ("source", _EMPTY), ("solver", {}), *blocks, also=("limit_window",))
    solver = build_solver(solver_spec)
    xi = build_source(sspec, h, phi, solver)
    window = _get(cfg, "limit_window", min(10.0, 0.25 * solver.t_end), _float, "config")
    return solver, h, phi, xi, window, *rest


def cmd_solve(cfg: dict, out: Path, seed: int, threads: int) -> int:
    solver, h, phi, xi, window = _nre_inputs(cfg)
    traj = solve_nre(phi, h, xi, solver)
    traj.to_csv(out / "trajectory.csv")
    try:
        reports = model.find_fixed_points(phi, h)
    except NoFixedPointError:
        reports = []
    diag = limit_diagnostic(traj, reports, window=window)
    _write_json(
        out / "limit.json",
        {
            "scenario": cfg.get("scenario", ""),
            "verdict": diag.kind,
            "ell": diag.ell,
            "residual": diag.residual,
            "tail_oscillation": diag.tail_oscillation,
            "tail_slope": diag.tail_slope,
            "fixed_points": [_report_dict(r) for r in reports],
            "divergent": traj.divergent,
            "config": cfg,
            "seed": seed,
        },
    )
    print(f"solve: {cfg.get('scenario', '?')} -> {diag.kind}" + (f" (ell={diag.ell:.6g})" if diag.ell else ""))
    return 2 if diag.kind == "divergent" else 0


def cmd_equilibria(cfg: dict, out: Path, seed: int, threads: int) -> int:
    h, phi = _model(cfg)
    try:
        reports = model.find_fixed_points(phi, h)
        payload = [_report_dict(r) for r in reports]
    except NoFixedPointError as exc:
        payload = {"empty": True, "message": str(exc)}
    _write_json(out / "fixed_points.json", {"scenario": cfg.get("scenario", ""), "fixed_points": payload, "config": cfg})
    print(f"equilibria: wrote {out / 'fixed_points.json'}")
    return 0


_FIT_MODELS = {"log-vs-t": LOG_VS_T, "log-vs-log-t": LOG_VS_LOG_T, "log-vs-sqrt-t": LOG_VS_SQRT_T}


def cmd_envelope(cfg: dict, out: Path, seed: int, threads: int) -> int:
    solver, h, phi, xi, window, rspec = _nre_inputs(cfg, ("rates", {}))
    eps0, headroom, slack, fit_name, calibrate = _read(
        rspec, "rates", ("eps0", 0.1, _float), ("lambda_sup_headroom", 1.05, _float), ("slack", 1.0, _float),
        ("fit_model", "log-vs-t", _str), ("calibrate", True, _bool), also=("window",),
    )
    fit_model = _FIT_MODELS.get(fit_name)
    _require(fit_model is not None, "rates.fit_model", f"expected one of {', '.join(_FIT_MODELS)}")
    fit_window = tuple(_get(rspec, "window", None, _list_of(_float), "rates")) if "window" in rspec else None
    _require(fit_window is None or len(fit_window) == 2, "rates.window", f"expected [t_lo, t_hi], got {fit_window}")
    traj = solve_nre(phi, h, xi, solver)
    traj.to_csv(out / "trajectory.csv")
    reports = model.find_fixed_points(phi, h)
    diag = limit_diagnostic(traj, reports, window=window)
    if diag.kind != "converged":
        raise RuntimeError(f"trajectory did not converge (verdict {diag.kind}); no rate analysis possible")
    report = next(r for r in reports if r.ell == diag.ell)
    t0 = entry_time(traj, report.ell, eps0)
    ctx = build_rate_context(
        report, phi, h,
        lambda_sup=headroom * traj.sup_lambda(),
        eps0=eps0, t0=t0,
        xi_decay=xi.decay, h_decay=h.decay,
    )
    env = predict_envelope(ctx)
    env_used = calibrate_envelope(env, traj, report.ell) if calibrate else env
    ok, worst = verify_envelope(traj, report.ell, env_used, slack=slack)
    fit_payload = None
    if fit_window is not None:
        fit = fit_empirical_rate(traj, report.ell, fit_window, fit_model)
        fit_payload = {"model": fit.model, "slope": fit.slope, "intercept": fit.intercept,
                       "r_squared": fit.r_squared, "n_points": fit.n_points}
    _write_json(
        out / "envelope.json",
        {
            "scenario": cfg.get("scenario", ""),
            "ell": report.ell,
            "tau0": report.tau0,
            "tau": ctx.tau,
            "t0": t0,
            "envelope": env.to_dict(),
            "calibrated_C": env_used.C,
            "verified": bool(ok),
            "worst_ratio": worst,
            "fit": fit_payload,
            "config": cfg,
        },
    )
    mask = traj.ts >= env_used.sigma_t0
    ts = traj.ts[mask]
    write_csv(out / "fit.csv", "t,abs_error,bound", ts, np.abs(traj.lam[mask] - report.ell), env_used.evaluate(ts))
    print(f"envelope: case {env.case}, verified={ok}, worst ratio {worst:.3g}")
    return 0


def _hawkes_inputs(cfg: dict, seed: int, *extra, also=(), **fixed):
    """The kernel, Phi, source, hawkes block and HawkesConfig of hawkes, clt and couple, then the
    values of the ``extra`` reads of the hawkes block; the command sets the ``fixed`` fields."""
    h, phi, sspec, hspec = _model(cfg, ("source", _EMPTY), ("hawkes", {}))
    hcfg, *values = _config(HawkesConfig, hspec, "hawkes", *extra, also=also, seed=seed, **fixed)
    return h, phi, build_source(sspec, h, phi), hspec, hcfg, *values


def cmd_hawkes(cfg: dict, out: Path, seed: int, threads: int) -> int:
    # the particle system alone: nothing here reads a coupled limit process
    h, phi, xi, hspec, hcfg = _hawkes_inputs(cfg, seed, also=("checkpoints",), track_coupled=False)
    checkpoints = _get(hspec, "checkpoints", [0.25 * hcfg.t_end, 0.5 * hcfg.t_end, hcfg.t_end], _list_of(_float), "hawkes")
    runs = run_replicas(lambda r: simulate_hawkes(phi, h, xi, hcfg, replica=r), hcfg.replicas, threads)
    sizes = np.array([[ev.size for ev in run.events] for run in runs])
    write_csv(
        out / "events.csv",
        "replica,particle,event_time",
        np.repeat(np.arange(hcfg.replicas), sizes.sum(axis=1)),
        np.repeat(np.tile(np.arange(hcfg.n_particles), hcfg.replicas), sizes.ravel()),
        np.concatenate([ev for run in runs for ev in run.events]),
    )
    est = estimator_path(runs[0], checkpoints)
    total = int(sizes.sum())
    _write_json(
        out / "summary.json",
        {
            "scenario": cfg.get("scenario", ""),
            "total_events": total,
            "estimator_checkpoints": checkpoints,
            "estimator_values": [float(v) for v in est],
            **_sum_counters([run.metadata for run in runs]),
            "config": cfg,
            "seed": seed,
        },
    )
    print(f"hawkes: {total} events over {hcfg.replicas} replica(s)")
    return 0


def cmd_clt(cfg: dict, out: Path, seed: int, threads: int) -> int:
    h, phi, xi, _, hcfg, ell = _hawkes_inputs(cfg, seed, ("ell", None, _float), track_coupled=False)
    res = clt_experiment(phi, h, xi, hcfg, ell=ell, threads=threads)
    write_csv(out / "samples.csv", "replica,standardized", np.arange(res.samples.size), res.samples)
    _write_json(
        out / "summary.json",
        {
            "scenario": cfg.get("scenario", ""),
            "mean": res.mean,
            "variance": res.variance,
            "ks_distance": res.ks_distance,
            "ks_critical_1pct": res.ks_critical_1pct,
            "t_over_n": res.t_over_n,
            "i2_term": res.i2_term,
            "m_t_over_t": res.m_t_over_t,
            **res.counters,
            "config": cfg,
            "seed": seed,
        },
    )
    print(f"clt: mean={res.mean:.4f} var={res.variance:.4f} KS={res.ks_distance:.4f} (crit {res.ks_critical_1pct:.4f})")
    return 0


def cmd_couple(cfg: dict, out: Path, seed: int, threads: int) -> int:
    # n_particles: coupling_experiment sets it to each of the coupling sizes
    read_sizes = ("coupling_sizes", [100, 400, 1600], _list_of(_int))
    h, phi, xi, _, hcfg, sizes = _hawkes_inputs(cfg, seed, read_sizes, n_particles=1, track_coupled=True)
    res = coupling_experiment(phi, h, xi, hcfg, n_values=sizes, threads=threads)
    _write_json(
        out / "summary.json",
        {
            "scenario": cfg.get("scenario", ""),
            "n_values": list(res.n_values),
            "mean_sup_diff": list(res.mean_sup_diff),
            "bound_values": list(res.bound_values),
            "c_tilde": res.c_tilde,
            "slope": res.slope,
            "replicas": res.replicas,
            **res.counters,
            "config": cfg,
            "seed": seed,
        },
    )
    print(f"couple: means {tuple(round(m, 4) for m in res.mean_sup_diff)}, slope {res.slope:.3f}")
    return 0


# ---------------------------------------------------------------------------
# deterministic SVG plots
# ---------------------------------------------------------------------------

_PALETTE = ("#c0392b", "#2471a3", "#1e8449", "#7d3c98", "#b7950b", "#2c3e50")


def _ticks(lo: float, hi: float):
    """Round tick values over [lo, hi], at the 1-2-2.5-5 step nearest above a fifth of the range."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


def render_svg(series, path, title="", xlabel="t", ylabel="", log_y=False):
    """Write a fixed-viewbox, timestamp-free SVG line plot (diffable output)."""
    width, height = 860, 540
    ml, mr, mt, mb = 70, 20, 40, 50
    xs_all = np.concatenate([np.asarray(s["xs"], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s["ys"], dtype=float) for s in series])
    if log_y:
        ys_all = ys_all[ys_all > 0]
        if ys_all.size == 0:
            raise ValueError("log-scale plot needs positive values")
    x_lo, x_hi = float(np.min(xs_all)), float(np.max(xs_all))
    y_lo, y_hi = float(np.min(ys_all)), float(np.max(ys_all))
    if log_y:
        y_lo, y_hi = math.log10(y_lo), math.log10(y_hi)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        if log_y:
            y = math.log10(max(y, 10.0 ** (y_lo)))
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.6g}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{width/2:.6g}" y="{height-10}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="18" y="{height/2:.6g}" text-anchor="middle" font-size="13" transform="rotate(-90 18 {height/2:.6g})">{ylabel}</text>',
        f'<rect x="{ml}" y="{mt}" width="{width-ml-mr}" height="{height-mt-mb}" fill="none" stroke="#333"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.6g}" y1="{height-mb}" x2="{px(tx):.6g}" y2="{height-mb+5}" stroke="#333"/>')
        parts.append(f'<text x="{px(tx):.6g}" y="{height-mb+20}" text-anchor="middle" font-size="11">{tx:.6g}</text>')
    for ty in _ticks(y_lo, y_hi):
        yy = height - mb - (ty - y_lo) / (y_hi - y_lo) * (height - mt - mb)
        label = f"1e{ty:.6g}" if log_y else f"{ty:.6g}"
        parts.append(f'<line x1="{ml-5}" y1="{yy:.6g}" x2="{ml}" y2="{yy:.6g}" stroke="#333"/>')
        parts.append(f'<text x="{ml-8}" y="{yy+4:.6g}" text-anchor="end" font-size="11">{label}</text>')
    for k, s in enumerate(series):
        xs = np.asarray(s["xs"], dtype=float)
        ys = np.asarray(s["ys"], dtype=float)
        if log_y:
            keep = ys > 0
            xs, ys = xs[keep], ys[keep]
        stride = max(1, xs.size // 2000)
        pts = " ".join(f"{px(x):.6g},{py(y):.6g}" for x, y in zip(xs[::stride], ys[::stride]))
        color = s.get("color", _PALETTE[k % len(_PALETTE)])
        dash = ' stroke-dasharray="6 4"' if s.get("dashed") else ""
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="{pts}"/>')
        if s.get("label"):
            yleg = mt + 18 + 16 * k
            parts.append(f'<line x1="{width-190}" y1="{yleg-4}" x2="{width-160}" y2="{yleg-4}" stroke="{color}" stroke-width="2"{dash}/>')
            parts.append(f'<text x="{width-154}" y="{yleg}" font-size="12">{s["label"]}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def cmd_plot(args) -> int:
    if not args.csv:
        raise ConfigError("plot: no input CSV files given")
    series = []
    for path in args.csv:
        traj = read_trajectory_csv(path)
        col = args.column
        if col == "lambda":
            ys = traj.lam
        elif col == "x":
            ys = traj.x
        else:
            raise ConfigError(f"plot: unknown column {col!r} (expected 'lambda' or 'x')")
        series.append({"xs": traj.ts, "ys": ys, "label": Path(path).stem})
    if args.envelope:
        with open(args.envelope) as fh:
            env_doc = json.load(fh)
        env = env_doc["envelope"]
        ell = env_doc["ell"]
        C = env_doc.get("calibrated_C", env["C"])
        ts = np.asarray(series[0]["xs"], dtype=float)
        ts = ts[ts >= env["sigma_t0"]]
        from .rates import Envelope

        e = Envelope(shape=env["shape"], params=env["params"], C=C, sigma_t0=env["sigma_t0"], case=env["case"])
        series.append({"xs": ts, "ys": ell + e.evaluate(ts), "label": "bound+", "dashed": True, "color": "#555555"})
        series.append({"xs": ts, "ys": ell - e.evaluate(ts), "label": "bound-", "dashed": True, "color": "#555555"})
    render_svg(series, args.out, title=args.title, xlabel="t", ylabel=args.column, log_y=args.log_y)
    print(f"plot: wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# acceptance suite
# ---------------------------------------------------------------------------


def cmd_suite(out: Path, only=None, threads: int = 1) -> int:
    from . import acceptance

    results = acceptance.run_all(only=only, threads=threads)
    payload = []
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_ok &= res.passed
        print(f"[{status}] {res.number:2d} {res.name}  ({res.runtime:.1f}s)  {res.detail}")
        payload.append({"number": res.number, "name": res.name, "passed": res.passed, "detail": res.detail, "runtime": res.runtime})
    _write_json(out / "suite_report.json", payload)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", required=True, help="JSON experiment configuration")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    sub.add_argument("--threads", type=int, default=None, help="worker processes (or RENEWAL_LAB_THREADS)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="renewal-lab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "equilibria", "envelope", "hawkes", "clt", "couple"):
        _add_common(subs.add_parser(name))
    p_plot = subs.add_parser("plot")
    p_plot.add_argument("--csv", nargs="+", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--column", default="lambda")
    p_plot.add_argument("--title", default="")
    p_plot.add_argument("--envelope", default=None, help="envelope.json to overlay")
    p_plot.add_argument("--log-y", action="store_true")
    p_suite = subs.add_parser("suite")
    p_suite.add_argument("--out", default=".")
    p_suite.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p_suite.add_argument("--threads", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "plot":
            return cmd_plot(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "suite":
            try:
                only = [int(v) for v in args.only.split(",")] if args.only else None
            except ValueError:
                raise ValueError(f"--only takes comma-separated criterion numbers, got {args.only!r}") from None
            return cmd_suite(out, only=only, threads=resolve_threads(args.threads))
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else _get(cfg, "seed", 0, _int, "config")
        # by name at call time, so a wrapper set on the module is called
        return globals()[f"cmd_{args.command}"](cfg, out, seed, resolve_threads(args.threads))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        ValueError,
        NoFixedPointError,
        RuntimeError,
        TauOutOfRangeError,
        WindowTooNoisyError,
        NonConvergenceError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
