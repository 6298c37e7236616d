"""Spans around the public calls of each ``renewal_lab`` layer, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every module
namespace that holds it (``lab`` and ``hawkes`` import solver functions by
name), and ``Tracer.uninstall`` puts the originals back.  A span is a name, a
start and end, the span that caused it and the kind of benchmark operation
that was running; spans stay in memory and are reduced to per-layer metrics at
the end of the run.  No source file of the program changes, so spans stop at
the public API: per-component thinning splits need spans inside
``simulate_hawkes``.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

from renewal_lab import hawkes, lab, model, rates, volterra


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    tag: str
    t0: float = 0.0
    t1: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _solve_info(args, kwargs, traj) -> dict:
    h = args[1] if len(args) > 1 else kwargs["h"]
    meta = traj.metadata
    inner = int(meta.get("inner_iterations_total", 0))
    if inner > 0:
        kind = "implicit"
    elif meta.get("history") == "ErlangHistory":
        kind = "erlang"
    else:
        kind = "windowed" if h.decay.kind == "compact" else "dense"
    return {"kind": kind, "steps": int(traj.ts.size), "inner": inner}


def _locked_info(args, kwargs, result) -> dict:
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {"steps": cfg.n_steps + 1}


def _hawkes_info(args, kwargs, run) -> dict:
    meta = run.metadata
    return {
        "candidates": meta["candidates"],
        "reschedules": meta["reschedules"],
        "breaches": meta["breaches"],
        "accepted": int(sum(e.size for e in run.events)),
        "coupled": int(sum(e.size for e in run.coupled_events)) if run.coupled_events is not None else 0,
    }


# (layer, owner, attribute, annotate(args, kwargs, result) -> info)
TRACED = [
    ("volterra", volterra, "solve_nre", _solve_info),
    ("volterra", volterra, "solve_erlang_cascade", lambda a, k, r: {"steps": int(r.ts.size)}),
    ("volterra", volterra, "equilibrium_locked_source", _locked_info),
    ("volterra", volterra, "limit_diagnostic", None),
    ("volterra", volterra, "entry_time", None),
    ("volterra", volterra, "read_trajectory_csv", lambda a, k, r: {"rows": int(r.ts.size)}),
    ("volterra", volterra.Trajectory, "to_csv", lambda a, k, r: {"rows": int(a[0].ts.size)}),
    ("model", model, "find_fixed_points", None),
    ("model", model.SourceTerm, "on_grid", lambda a, k, r: {"points": int(r.size)}),
    *[("model", model, name, None) for name in sorted(dir(model)) if name.startswith("make_")],
    ("model", model, "add_exponential_perturbation", None),
    ("rates", rates, "build_rate_context", None),
    ("rates", rates, "predict_envelope", None),
    ("rates", rates, "fit_empirical_rate", None),
    ("rates", rates, "iteration_bound", None),
    ("rates", rates, "calibrate_envelope", None),
    ("rates", rates, "verify_envelope", None),
    ("hawkes", hawkes, "simulate_hawkes", _hawkes_info),
    ("hawkes", hawkes, "path_sup_difference", None),
    ("hawkes", hawkes, "estimator_path", None),
    *[("lab", lab, f"cmd_{c}", None) for c in ("solve", "equilibria", "envelope", "hawkes", "plot")],
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.tag = ""
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, layer: str, name: str, fn, annotate):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, tracer._stack[-1] if tracer._stack else -1, tracer.tag)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in each renewal_lab module namespace that holds it."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "renewal_lab" or n.startswith("renewal_lab.")]
        for layer, owner, attr, annotate in TRACED:
            orig = owner.__dict__[attr]
            wrapper = self._wrap(layer, attr, orig, annotate)
            holders = [owner] if isinstance(owner, type) else [m for m in namespaces if getattr(m, attr, None) is orig]
            for holder in holders:
                self._saved.append((holder, attr, orig))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._saved):
            setattr(holder, attr, orig)
        self._saved.clear()


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer numbers from the spans of ``passes`` traced passes.

    A metric of a layer the workload never calls reads 0.  Times and counts are
    per pass unless the name gives another base (per step, per call, per row).
    """
    selfs = _self_times(spans)
    by_name: dict = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, st))

    def calls(name, pred=lambda s: True):
        return [(s, st) for s, st in by_name.get(name, []) if pred(s)]

    def total(pairs, key=None):
        return sum(s.info[key] for s, _ in pairs) if key else sum(s.dur for s, _ in pairs)

    m: dict = {}
    for kind in ("erlang", "implicit", "windowed", "dense"):
        sel = calls("solve_nre", lambda s, k=kind: s.info["kind"] == k)
        m[f"volterra.step_us.{kind}"] = (_ratio(total(sel), total(sel, "steps")) * 1e6, "us")
    impl = calls("solve_nre", lambda s: s.info["kind"] == "implicit")
    m["volterra.inner_iters_per_step"] = (_ratio(total(impl, "inner"), total(impl, "steps")), "count")
    m["volterra.implicit_steps"] = (_ratio(total(impl, "steps"), passes), "count")
    casc = calls("solve_erlang_cascade")
    m["volterra.cascade_step_us"] = (_ratio(total(casc), total(casc, "steps")) * 1e6, "us")
    locked = calls("equilibrium_locked_source")
    m["volterra.locked_source_step_us"] = (_ratio(total(locked), total(locked, "steps")) * 1e6, "us")
    diag = calls("limit_diagnostic")
    m["volterra.limit_diagnostic_ms"] = (_ratio(total(diag), len(diag)) * 1e3, "ms")
    wr = calls("to_csv")
    m["volterra.to_csv_us_per_row"] = (_ratio(total(wr), total(wr, "rows")) * 1e6, "us")
    rd = calls("read_trajectory_csv")
    m["volterra.read_csv_us_per_row"] = (_ratio(total(rd), total(rd, "rows")) * 1e6, "us")

    fp = calls("find_fixed_points")
    m["model.find_fixed_points_ms"] = (_ratio(total(fp), len(fp)) * 1e3, "ms")
    og = calls("on_grid")
    m["model.on_grid_ns_per_point"] = (_ratio(total(og), total(og, "points")) * 1e9, "ns")

    for name in ("build_rate_context", "predict_envelope", "fit_empirical_rate", "iteration_bound"):
        c = calls(name)
        m[f"rates.call_us.{name}"] = (_ratio(total(c), len(c)) * 1e6, "us")

    sims = calls("simulate_hawkes")
    for kind in ("clt", "couple"):
        sel = [p for p in sims if p[0].tag == kind]
        cand = total(sel, "candidates")
        m[f"hawkes.cand_us.{kind}"] = (_ratio(total(sel), cand) * 1e6, "us")
        m[f"hawkes.accept_ratio.{kind}"] = (_ratio(total(sel, "accepted"), cand), "ratio")
        m[f"hawkes.candidates.{kind}"] = (_ratio(cand, passes), "count")
    couple = [p for p in sims if p[0].tag == "couple"]
    m["hawkes.coupled_accept_ratio"] = (_ratio(total(couple, "coupled"), total(couple, "candidates")), "ratio")
    for key in ("candidates", "reschedules", "breaches"):
        m[f"hawkes.{key}"] = (_ratio(total(sims, key), passes), "count")
    psd = calls("path_sup_difference")
    m["hawkes.psd_us_per_particle"] = (_ratio(total(psd), len(psd)) * 1e6, "us")

    for cmd in ("solve", "equilibria", "envelope", "hawkes", "plot"):
        c = calls(f"cmd_{cmd}")
        m[f"lab.cmd_ms.{cmd}"] = (_ratio(total(c), len(c)) * 1e3, "ms")
        m[f"lab.self_ms.{cmd}"] = (_ratio(sum(st for _, st in c), len(c)) * 1e3, "ms")

    for layer in ("volterra", "model", "rates", "hawkes", "lab"):
        m[f"{layer}.self_s"] = (_ratio(sum(st for s, st in zip(spans, selfs) if s.layer == layer), passes), "s")
    return m
