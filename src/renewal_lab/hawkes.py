"""Mean-field Hawkes particle system, its coupled Poisson limit, and the
statistical experiments around the estimator Z_t / t.

Simulation is exact thinning (Ogata 1981): every particle proposes candidate
times at a common dominating rate lam_bar, and a candidate at s is accepted
with probability Phi(xi_N(s) + Y_s) / lam_bar.  The dominator is an upper
bound on all future intensity given the current convolution state.  The
particle process Z and its limit process Zbar judge the *same* candidates
with the same uniforms (the shared-randomness coupling that bounds their
pathwise distance by C t / sqrt(N)).

Stream contract, version 2 (``tests/test_hawkes_golden.py`` locks it):

* Key.  A replica draws from three Philox generators keyed by
  (seed mod 2^64, (replica mod 2^32) << 32 | stream): stream 0 gives standard
  exponentials e_k, stream 1 particle labels p_k uniform on {0, ..., N-1}
  (``integers(N)``), stream 2 uniforms u_k (``random``).  Stream 2^32 - 1
  gives the sign of the source perturbation: + iff its first uniform is
  below 1/2.
* Draws.  Draw k of each stream belongs to candidate k.  Candidate k sits at
  t_k = t_{k-1} + e_k / (N lam_bar), with t_0 = 0, where lam_bar is the
  dominator in force once candidate k-1 has been judged.  It is judged for
  particle p_k: accepted if u_k lam_bar <= intensity (the coupled process
  accepts if u_k lam_bar <= limit intensity).  Candidates are judged in order
  up to the first one past t_end, which is not judged.
* Reschedules.  The dominator is rebuilt at a candidate when an acceptance
  raises the bound past it, when a candidate breaches it, or when a refresh
  check finds it more than twice too large.  The next candidate takes the
  next draws under the new lam_bar; no draw is skipped.
* Exactness.  Every particle fires at the same intensity
  Phi(xi_N + Y), so the N dominating Poisson(lam_bar) processes of thinning
  (Lewis-Shedler 1979) superpose to one Poisson(N lam_bar) process whose
  points carry iid uniform labels.  By memorylessness the time from a
  reschedule to the next candidate is again exponential at the new rate.  The
  coupled process judges the same candidates with the same uniforms per
  label, so the coupling is pathwise as before.

``simulate_hawkes`` takes the candidates in chunks (``_SWEEP_FIRST``
candidates first, doubling up to ``_SWEEP_CHUNK``, back to ``_SWEEP_FIRST``
after a reschedule, so that little is prepared past one).  A chunk's times
are one ``np.cumsum`` from the last candidate (which has the bits of the
repeated t + e / (N lam_bar)); its unjudged draws stay for the next chunk.
Each chunk first computes in bulk what no decision changes: the convolution
state's steps between consecutive times (the decay e^{-alpha dt}, and for
Erlang kernels the terms (alpha dt)^j / j!).  Each value is made by the same
floating-point operations in the same order as a step-by-step update: numpy
for + - * /, ``math.exp`` for every exponential (``np.exp`` may round
differently).

The chunk is then judged by a sweep generated from one template,
``_SWEEP_TEMPLATE``, into which each kind of convolution state writes its
snippets: an Erlang state of order k (order 0 included) keeps its components
s0..sk in locals with the sums written out, and a kernel without structure
calls its own methods.  Phi and the source are written in as well: where their
scalar evaluators carry a formula (``model._formula``), the sweep evaluates it
in place, with the same operations as the call and its constants in locals,
and otherwise calls them.  The state and the constants are loaded into locals
once per chunk and the state is written back once, so a candidate of a
structured Phi, source and kernel costs no call.  The sweep records the chunk
indices of the accepted candidates; the times and particles are gathered from
them with numpy and split per particle at the end.  A breach (an intensity
above the dominator) is tested only on acceptance, because only an accepted
candidate can breach: u < 1 makes u lam_bar <= lam_bar, which is below the
breach level lam_bar (1 + 1e-12).  After an acceptance the bound is rebuilt
only when the source's running sup plus the state's upper bound exceeds the
cap of ``_bound_cap``, a point where Phi is at most lam_bar.  Below the cap
the skipped check could not reschedule: Phi is nondecreasing, the source's
running sup only falls with time, floating-point addition is monotone, and the
limit intensity's running sup, the other term of the bound, never exceeds
lam_bar once lam_bar is built from it.
"""

from __future__ import annotations

import array
import concurrent.futures
import functools
import math
import multiprocessing
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    FiringFunction,
    MemoryKernel,
    SourceTerm,
    add_exponential_perturbation,
    formula_code,
    formula_key,
)
from .special import kolmogorov_critical, ks_statistic, normal_cdf, running_sup_from_right
from .volterra import SolverConfig, Trajectory, solve_nre

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
#: the stream of replica-level randomness (source perturbation)
_REPLICA_STREAM = _M32


def resolve_threads(threads: Optional[int] = None) -> int:
    """Worker count: explicit argument, else RENEWAL_LAB_THREADS, else 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("RENEWAL_LAB_THREADS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"RENEWAL_LAB_THREADS must be an integer, got {env!r}") from None


def _solve_limit(phi: FiringFunction, h: MemoryKernel, xi: SourceTerm, t_end: float) -> Trajectory:
    """The limit equation, solved on the one grid the particle experiments use (dt = 1e-3)."""
    return solve_nre(phi, h, xi, SolverConfig(t_end=t_end, dt=1e-3))


@dataclass(frozen=True)
class HawkesConfig:
    """Simulation parameters for the N-particle system."""

    n_particles: int
    t_end: float
    seed: int
    replicas: int = 1
    thinning_margin: float = 1.5
    track_coupled: bool = True
    xi_perturbation: float = 0.0  # C_xi: xi_N = xi +- (C_xi/sqrt(N)) e^{-t}
    subcritical_override: bool = False

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.t_end <= 0:
            raise ValueError("t_end must be > 0")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.thinning_margin <= 1.0:
            raise ValueError(f"thinning_margin must be > 1, got {self.thinning_margin}")


@dataclass
class HawkesRun:
    """One replica: per-particle event times, coupled limit events, counters."""

    events: list
    coupled_events: Optional[list]
    metadata: dict = field(default_factory=dict)


def _philox(seed: int, replica: int, stream: int) -> np.random.Generator:
    """The generator of one stream of a replica (stream contract, module docstring)."""
    key = np.array([seed & _M64, ((replica & _M32) << 32) | stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Draws:
    """A replica's candidate draws (e_k, p_k, u_k), handed out in order.

    ``head(k)`` returns the next k unjudged draws of each stream, drawing what
    the buffer lacks; ``drop(k)`` marks the first k judged.  The draws a chunk
    did not judge (past a reschedule) stay for the next one.
    """

    def __init__(self, seed: int, replica: int, n: int):
        self._gens = [_philox(seed, replica, s) for s in range(3)]
        self._n = n
        self._rest = (np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0))

    def head(self, k: int) -> tuple:
        e, p, u = self._rest
        m = k - e.size
        if m > 0:
            exp, lab, uni = self._gens
            e = np.concatenate([e, exp.standard_exponential(m)])
            p = np.concatenate([p, lab.integers(self._n, size=m)])
            u = np.concatenate([u, uni.random(m)])
            self._rest = e, p, u
        return e[:k], p[:k], u[:k]

    def drop(self, k: int) -> None:
        self._rest = tuple(a[k:] for a in self._rest)


# ---------------------------------------------------------------------------
# the thinning sweep, generated per convolution state
# ---------------------------------------------------------------------------

#: One chunk of candidates judged in order (stream contract, module docstring).
#: The state's snippets fill the slots: ``load`` copies the state into locals,
#: ``steps`` names the columns of ``state.steps`` one candidate reads,
#: ``advance`` moves the locals to the candidate, ``value`` is Y there,
#: ``jump`` adds an event of the given weight, ``bound`` is the state's upper
#: bound on Y from now on, and ``store`` writes the locals back.  ``xi`` is the
#: source at the candidate time s and ``phi`` is Phi at x = xi + Y: the
#: formula of ``xi_s`` or ``phi_s`` written in, its constants loaded once per
#: chunk, or a call where the function has no formula.  The sweep returns the
#: candidates judged, the new dominator (0.0 if none is due), the breaches,
#: the next refresh time and the chunk indices of the accepted candidates.
_SWEEP_TEMPLATE = """\
def sweep(state, c_list, c_thrs, c_steps, weight, phi_s, xi_s, lam_bar, lam_over, cap, xs_chunk,
          margin, next_check, raw_bound):
    {load}
    accepted = []
    push = accepted.append
    breaches = 0
    new_bar = 0.0
    for k, s, thr, {steps} in zip(range(len(c_list)), c_list, c_thrs, *c_steps):
        {advance}
        x = {xi} + {value}
        lam_z = {phi}
        if thr <= lam_z:
            push(k)
            {jump}
            ub = {bound}
            # a breach is accepted: lam_z > lam_over >= lam_bar >= u lam_bar = thr (u < 1)
            if lam_z > lam_over:
                breaches += 1
                new_bar = margin * max(raw_bound(s, ub), lam_z, 1e-12)
                break
            # below the cap the bound cannot pass lam_bar (see _bound_cap)
            if xs_chunk + ub > cap:
                rb = raw_bound(s, ub)
                if rb > lam_bar:
                    new_bar = margin * max(rb, lam_z, 1e-12)
                    break
        if s >= next_check:
            next_check = s + _REFRESH
            rb = raw_bound(s, {bound})
            if margin * rb < 0.5 * lam_bar:
                new_bar = margin * max(rb, 1e-12)
                break
    {store}
    return k + 1, new_bar, breaches, next_check, accepted
"""


@functools.lru_cache(maxsize=None)
def _sweep(state: type, shape: tuple, phi: Optional[tuple], xi: Optional[tuple]) -> Callable:
    """The sweep of ``_SWEEP_TEMPLATE`` for one kind and shape of state and the ``formula_key`` of Phi and xi.

    The compiled code depends on the formulas' text only, not on their
    constants, so Phis and sources of one maker share it.
    """
    snippets = state.snippets(*shape)
    phi_load, phi_value = formula_code(phi, "phi_s", "x")
    xi_load, xi_value = formula_code(xi, "xi_s", "s")
    src = _SWEEP_TEMPLATE.format(load="\n    ".join([*snippets.pop("load"), *phi_load, *xi_load]), phi=phi_value,
                                 xi=xi_value, **snippets)
    namespace: dict = {}
    exec(src, globals(), namespace)
    return namespace["sweep"]


# ---------------------------------------------------------------------------
# convolution state of the mean-field interaction
# ---------------------------------------------------------------------------


class _ErlangState:
    """Y_t = (1/N) sum_j int h(t-s) dZ_s for h = scale alpha^(order+1) t^order e^{-alpha t} / order!.

    In the sweep the components s0..s{order} sit in locals.  A step makes
    component k e^{-a} (s_k + s_{k-1} p_1 + ... + s_0 p_k), summed left to
    right: for order 2, ``dec * (s2 + s1 * p1 + s0 * p2)`` on top, and
    Y = s_order.  An event adds h0 * weight to s0, h0 = scale * alpha.  The
    upper bound is peak_0 s_0 + ... + peak_{order-1} s_{order-1} + s_order with
    peak_i = sup_x x^m e^{-x} / m! (m = order - i), the most component i can
    still pass to the top, summed left to right; at order 0 it is Y itself.
    The order of every sum is part of the stream contract: the intensity
    decides acceptances, and the bound sets lam_bar and with it every
    candidate time.  Written out, a candidate runs no Python loop;
    a nested loop and a ``sum(map(operator.mul, ...))`` form cost the coupled
    thinning runs 17% and 35% of their candidates per second (BENCH_3.json,
    "erlang_advance_forms"), and ``sum`` of floats is compensated from Python
    3.12 on, which would change the bits.
    """

    __slots__ = ("order", "alpha", "h0", "s", "shape")

    def __init__(self, order: int, alpha: float, scale: float):
        self.order = order
        self.alpha = alpha
        self.h0 = scale * alpha
        self.s = [0.0] * (order + 1)
        self.shape = (order,)

    @staticmethod
    def snippets(order: int) -> dict:
        comps = ", ".join(f"s{k}" for k in range(order + 1))
        new = ", ".join(
            "dec * (" + " + ".join([f"s{k}"] + [f"s{k - m} * p{m}" for m in range(1, k + 1)]) + ")"
            for k in range(order + 1)
        )
        peaks = [m**m * math.exp(-m) / math.factorial(m) for m in range(order, 0, -1)]
        return {
            "load": [f"{comps}, = state.s", "jump_by = state.h0 * weight"],
            "steps": ", ".join(["dec"] + [f"p{m}" for m in range(1, order + 1)]),
            "advance": f"{comps} = {new}",
            "value": f"s{order}",
            "jump": "s0 += jump_by",
            "bound": " + ".join([f"{peak!r} * s{i}" for i, peak in enumerate(peaks)] + [f"s{order}"]),
            "store": f"state.s = [{comps}]",
        }

    def steps(self, t0: float, times: np.ndarray) -> list:
        """Per step the columns e^{-a}, p_1, ..., p_order with a = alpha dt and p_j = p_{j-1} (a / j), p_0 = 1."""
        ad = np.diff(times, prepend=t0)
        ad *= self.alpha
        cols = [list(map(math.exp, (-ad).tolist()))]
        p = ad
        for j in range(1, self.order + 1):
            if j > 1:
                p = p * (ad / j)
            cols.append(p.tolist())
        return cols


class _GeneralState:
    """O(events) fallback for nonnegative kernels without analytic structure."""

    #: one sweep for every such kernel
    shape = ()

    @staticmethod
    def snippets() -> dict:
        # the state's own methods do the work
        return {
            "load": ["advance, jump, upper_bound = state.advance, state.jump, state.upper_bound"],
            "steps": "t",
            "advance": "y = advance(t)",
            "value": "y",
            "jump": "jump(weight)",
            "bound": "upper_bound()",
            "store": "pass",
        }

    def __init__(self, h: MemoryKernel):
        self.h = h
        self.events: list = []
        self.weights: list = []
        self.t = 0.0
        self.support = h.decay.horizon if h.decay.kind == "compact" else math.inf
        # nonincreasing envelope of h for the future bound
        grid = np.linspace(0.0, min(self.support, 200.0), 4001)
        vals = np.asarray(h.evaluator(grid), dtype=float)
        self._env_grid = grid
        self._env = running_sup_from_right(vals)

    def steps(self, t0: float, times: np.ndarray) -> list:
        return [times.tolist()]

    def advance(self, t: float) -> float:
        self.t = max(self.t, t)
        while self.events and self.t - self.events[0] > self.support:
            self.events.pop(0)
            self.weights.pop(0)
        if not self.events:
            return 0.0
        offs = self.t - np.asarray(self.events)
        return float(np.dot(np.asarray(self.h.evaluator(offs)), np.asarray(self.weights)))

    def jump(self, weight: float) -> None:
        self.events.append(self.t)
        self.weights.append(weight)

    def upper_bound(self) -> float:
        if not self.events:
            return 0.0
        offs = self.t - np.asarray(self.events)
        idx = np.minimum(np.searchsorted(self._env_grid, offs, side="right") - 1, self._env.size - 1)
        env = np.where(offs > self._env_grid[-1], 0.0, self._env[np.maximum(idx, 0)])
        return float(np.dot(env, np.asarray(self.weights)))


def _make_state(h: MemoryKernel):
    if not h.nonneg:
        raise ValueError("thinning requires a nonnegative kernel")
    s = h.structure
    if s is None:
        return _GeneralState(h)
    return _ErlangState(s.order, s.alpha, s.scale)


def _by_particle(ts: Sequence[np.ndarray], ps: Sequence[np.ndarray], n: int) -> list:
    """Events gathered chunk by chunk as times ts and particles ps, split per particle in time order.

    The labels are sorted stably in the narrowest unsigned type that holds them:
    numpy radix-sorts 8- and 16-bit keys, 5x faster than int64 at 400k events.
    """
    p = np.concatenate(ps).astype(np.min_scalar_type(n))
    t = np.concatenate(ts)[np.argsort(p, kind="stable")]
    # slices, not np.split: its array_split swaps axes twice per particle
    ends = np.cumsum(np.bincount(p, minlength=n)).tolist()
    return [t[a:b] for a, b in zip([0, *ends], ends)]


def _doubles(values: np.ndarray) -> array.array:
    """A float64 table whose items index as Python floats (cheaper than numpy scalars)."""
    return array.array("d", np.ascontiguousarray(values, dtype=float).tobytes())


#: candidates prepared at a time by the sweep: the first chunk under a
#: dominator, then doubling up to the last.  Work prepared past a reschedule is wasted, so
#: fixed chunks of _SWEEP_CHUNK slow a run that reschedules every few dozen
#: candidates several-fold (BENCH_3.json, "reschedule_heavy")
_SWEEP_FIRST = 64
_SWEEP_CHUNK = 4096
#: the time between refresh checks, which rebuild a dominator more than twice too large
_REFRESH = 0.1


def _bound_cap(phi_s: Callable, lam_bar: float, x0: float) -> float:
    """A point x >= x0 with phi_s(x) <= lam_bar (1 - 1e-12), found by bisection; -inf if x0 is none.

    Every point the search returns was evaluated, so for a nondecreasing Phi
    every x <= cap has Phi(x) <= lam_bar: the slack 1e-12 covers a computed Phi
    that rounds a few ulp against its monotonicity.  The search stops 2^64
    above x0 (a bounded Phi may stay below lam_bar).  The bisection stops once
    the bracket is within 1e-9 relative, not at float resolution: a cap a
    little low only costs bound checks that cannot reschedule.
    """
    target = lam_bar * (1.0 - 1e-12)
    if not phi_s(x0) <= target:
        return -math.inf
    lo, step = x0, 1.0
    while phi_s(x0 + step) <= target:
        lo = x0 + step
        if step >= 2.0**64:
            return lo
        step *= 2.0
    hi = x0 + step
    while hi - lo > 1e-9 * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        if phi_s(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# single-replica simulation
# ---------------------------------------------------------------------------


def simulate_hawkes(
    phi: FiringFunction,
    h: MemoryKernel,
    xi: SourceTerm,
    cfg: HawkesConfig,
    limit: Optional[Trajectory] = None,
    replica: int = 0,
) -> HawkesRun:
    """Simulate one replica of the N-particle system by exact thinning.

    All particles share the mean-field intensity Phi(xi_N + (1/N) sum int h dZ).
    When ``cfg.track_coupled`` is set, the limit processes Zbar^i (inhomogeneous
    Poisson at the deterministic solved intensity) accept from the same
    candidate streams, realising the shared-randomness coupling.
    """
    if not phi.nondecreasing:
        raise ValueError("thinning dominator logic requires a nondecreasing firing function")
    if phi.lip * h.norm_l1 >= 1.0 and not cfg.subcritical_override:
        raise ValueError(
            f"|Phi|_Lip ||h||_1 = {phi.lip * h.norm_l1:.4g} >= 1; "
            "set subcritical_override=True for exploratory runs"
        )

    n = cfg.n_particles
    t_end = cfg.t_end
    margin = cfg.thinning_margin

    if cfg.track_coupled and limit is None:
        limit = _solve_limit(phi, h, xi, t_end)

    # deterministic per-replica source term xi_N
    pert_amp = 0.0
    if cfg.xi_perturbation > 0.0:
        sign = 1.0 if _philox(cfg.seed, replica, _REPLICA_STREAM).random() < 0.5 else -1.0
        pert_amp = sign * cfg.xi_perturbation / math.sqrt(n)
    xi_scalar = (add_exponential_perturbation(xi, pert_amp) if pert_amp != 0.0 else xi).scalar

    # running sup of the source from each grid time onward (dominator input)
    sup_dt = min(0.01, _REFRESH / 4.0)
    sup_grid = sup_dt * np.arange(int(math.ceil(t_end / sup_dt)) + 2)
    xi_sup = _doubles(running_sup_from_right(np.asarray(list(map(xi_scalar, sup_grid.tolist())))))
    xi_last = len(xi_sup) - 1

    # the limit intensity, linearly interpolated, and its running sup
    # (coupled acceptance must be dominated too)
    if cfg.track_coupled:
        lim_dt = limit.dt
        lim_slope = np.diff(limit.lam, append=limit.lam[-1]) / lim_dt
        lim_sup = _doubles(running_sup_from_right(limit.lam))
        lim_last = limit.lam.size - 1

    phi_s = phi.scalar

    state = _make_state(h)
    sweep = _sweep(type(state), state.shape, formula_key(phi_s), formula_key(xi_scalar))
    draws = _Draws(cfg.seed, replica, n)
    track = cfg.track_coupled
    # the accepted times and particles of each process, chunk by chunk
    event_ts: list = [np.zeros(0)]
    event_ps: list = [np.zeros(0, dtype=np.int64)]
    coupled_ts: list = [np.zeros(0)]
    coupled_ps: list = [np.zeros(0, dtype=np.int64)]
    weight = 1.0 / n

    breaches = 0
    reschedules = 0
    candidates = 0
    bound_checks = 0

    def raw_bound(t: float, ub: float) -> float:
        """The dominator bound at t, given the state's upper bound ub."""
        nonlocal bound_checks
        bound_checks += 1
        rb = phi_s(xi_sup[min(int(t / sup_dt), xi_last)] + ub)
        return max(rb, lim_sup[min(int(t / lim_dt), lim_last)] if track else 0.0)

    lam_bar = margin * max(raw_bound(0.0, 0.0), 1e-12)  # the state starts empty
    cap = _bound_cap(phi_s, lam_bar, xi_sup[0])
    lam_over = lam_bar * (1.0 + 1e-12)
    t_cand = 0.0  # the last judged candidate, where the state was last advanced to
    width = _SWEEP_FIRST
    next_check = _REFRESH
    while True:
        e, c_ps, c_thrs = draws.head(width)
        c_ts = np.concatenate(([t_cand], e / (n * lam_bar)))
        np.cumsum(c_ts, out=c_ts)
        end = int(np.searchsorted(c_ts, t_end, side="right")) - 1  # the first past t_end is not judged
        if not end:
            break
        c_ts, c_ps = c_ts[1 : end + 1], c_ps[:end]
        c_thrs = c_thrs[:end] * lam_bar  # a candidate is accepted where u lam_bar <= intensity
        # the work that no decision changes, in bulk: the state's steps
        c_list = c_ts.tolist()
        xs_chunk = xi_sup[min(int(c_list[0] / sup_dt), xi_last)]  # bounds xi over the chunk
        done, new_bar, chunk_breaches, next_check, accepted = sweep(
            state, c_list, c_thrs.tolist(), state.steps(t_cand, c_ts), weight, phi_s, xi_scalar,
            lam_bar, lam_over, cap, xs_chunk, margin, next_check, raw_bound,
        )
        breaches += chunk_breaches
        candidates += done
        draws.drop(done)
        accepted = np.array(accepted, dtype=np.intp)
        event_ts.append(c_ts[accepted])
        event_ps.append(c_ps[accepted])
        if track:
            # the coupled process needs no state: it accepts the judged candidates
            # whose u lam_bar is at most the interpolated limit intensity
            k = (c_ts[:done] / lim_dt).astype(np.intp)
            np.minimum(k, lim_last, out=k)
            bar = c_ts[:done] - limit.ts[k]
            bar *= lim_slope[k]
            bar += limit.lam[k]
            hit = np.flatnonzero(c_thrs[:done] <= bar)
            coupled_ts.append(c_ts[hit])
            coupled_ps.append(c_ps[hit])
        if not new_bar and end < width:
            break
        t_cand = c_list[done - 1]
        width = min(2 * width, _SWEEP_CHUNK)
        if new_bar:
            lam_bar = new_bar
            cap = _bound_cap(phi_s, lam_bar, xi_sup[min(int(t_cand / sup_dt), xi_last)])
            lam_over = lam_bar * (1.0 + 1e-12)
            width = _SWEEP_FIRST
            reschedules += 1

    return HawkesRun(
        events=_by_particle(event_ts, event_ps, n),
        coupled_events=_by_particle(coupled_ts, coupled_ps, n) if track else None,
        metadata={
            "seed": cfg.seed,
            "replica": replica,
            "n_particles": n,
            "t_end": t_end,
            "candidates": candidates,
            "breaches": breaches,
            "reschedules": reschedules,
            "bound_checks": bound_checks,
            "xi_perturbation_applied": pert_amp,
        },
    )


# ---------------------------------------------------------------------------
# estimator and experiments
# ---------------------------------------------------------------------------


def estimator_path(run: HawkesRun, checkpoints: Sequence[float]) -> np.ndarray:
    """ell-hat at each checkpoint: Z^1_t / t (the first particle stands for all by exchangeability)."""
    cps = np.asarray(checkpoints, dtype=float)
    if np.any(cps > run.metadata["t_end"] + 1e-12):
        raise ValueError("checkpoints must not exceed the simulated horizon")
    counts = np.searchsorted(run.events[0], cps, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(cps > 0, counts / np.where(cps > 0, cps, 1.0), 0.0)
    return out


def intensity_path(run: HawkesRun, phi: FiringFunction, h: MemoryKernel, xi: SourceTerm, ts: Sequence[float]) -> np.ndarray:
    """The particles' common intensity Phi(xi_N(t) + (1/N) sum_{events e < t} h(t - e)) at each t.

    xi_N is xi with the run's source perturbation.  An event at t itself is
    left out: the value is the left limit, the intensity a candidate at t meets.
    It is kept as the tests' independent recomputation of the intensity that
    ``simulate_hawkes`` thins against, until a compensator check replaces it.
    """
    pert = run.metadata["xi_perturbation_applied"]
    xi_s = (add_exponential_perturbation(xi, pert) if pert != 0.0 else xi).scalar
    phi_s = phi.scalar
    events = np.sort(np.concatenate(run.events))
    n = run.metadata["n_particles"]
    out = []
    for t in np.asarray(ts, dtype=float).tolist():
        past = events[: np.searchsorted(events, t, side="left")]
        out.append(phi_s(xi_s(t) + float(np.sum(h.evaluator(t - past))) / n))
    return np.asarray(out)


def path_sup_difference(times_a: np.ndarray, times_b: np.ndarray) -> int:
    """sup_s |A_s - B_s| for two counting processes given their jump times.

    The times need not be sorted.  The difference A - B is read just after
    every jump time of either side, counting the jumps at or before it, so
    jumps at identical times cancel (coupled processes share candidate times).
    """
    if times_a.size == 0 and times_b.size == 0:
        return 0
    a, b = np.sort(times_a), np.sort(times_b)
    ts = np.concatenate((a, b))
    d = np.searchsorted(a, ts, "right") - np.searchsorted(b, ts, "right")
    return int(np.abs(d).max())


# fork-shared context for replica workers (closures cannot be pickled)
_MP_CTX: dict = {}


def _mp_worker(replica: int):
    return _MP_CTX["fn"](replica)


def run_replicas(fn: Callable, replicas: int, threads: int = 1) -> list:
    """Run fn(replica) for replica = 0..R-1, optionally on a fork-based pool.

    Results are returned ordered by replica index, so aggregation is
    schedule-independent.  The context is cleared when the pool is done, so it
    keeps no closure (and the limit trajectory the closure holds) alive.
    """
    if threads <= 1 or replicas == 1:
        return [fn(r) for r in range(replicas)]
    _MP_CTX["fn"] = fn
    try:
        ctx = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(threads, replicas), mp_context=ctx) as ex:
            return list(ex.map(_mp_worker, range(replicas)))
    finally:
        _MP_CTX.clear()


#: the thinning counters of ``HawkesRun.metadata`` that the experiments sum over their runs
_THINNING_COUNTERS = ("candidates", "reschedules", "breaches", "bound_checks")


def _sum_counters(metadata: Sequence[dict]) -> dict:
    return {k: int(sum(m[k] for m in metadata)) for k in _THINNING_COUNTERS}


@dataclass(frozen=True)
class CouplingResult:
    n_values: tuple
    mean_sup_diff: tuple
    bound_values: tuple
    c_tilde: float
    slope: float
    replicas: int
    counters: dict = field(default_factory=dict)  # _THINNING_COUNTERS summed over every run


def coupling_constant(phi: FiringFunction, h: MemoryKernel, lambda_sup: float, c_xi: float = 0.0) -> float:
    """C = (C_xi + ||lambda||_inf^(1/2) ||h||_2) / (1 - ||h||_1 |Phi|_Lip)."""
    denom = 1.0 - h.norm_l1 * phi.lip
    if denom <= 0:
        raise ValueError("coupling constant needs strong subcriticality")
    return (c_xi + math.sqrt(lambda_sup) * h.norm_l2) / denom


def coupling_experiment(
    phi: FiringFunction,
    h: MemoryKernel,
    xi: SourceTerm,
    cfg: HawkesConfig,
    n_values: Sequence[int],
    threads: Optional[int] = None,
) -> CouplingResult:
    """Mean pathwise distance between Z and its coupled limit across system sizes.

    For each N the mean over replicas and particles of sup_{s<=t} |Z_s - Zbar_s|
    is compared against C t / sqrt(N); the log-log slope across N estimates the
    -1/2 scaling, so at least two distinct sizes, each >= 1, are needed.
    """
    if len(set(map(int, n_values))) < 2 or min(map(int, n_values)) < 1:
        raise ValueError(f"coupling_sizes: the log-log slope needs at least two distinct sizes >= 1, got {list(n_values)}")
    threads = resolve_threads(threads)
    limit = _solve_limit(phi, h, xi, cfg.t_end)
    means = []
    metadata = []
    for n in n_values:
        sub = replace(cfg, n_particles=int(n), track_coupled=True)

        def one(replica: int) -> tuple:
            run = simulate_hawkes(phi, h, xi, sub, limit=limit, replica=replica)
            diffs = [path_sup_difference(run.events[i], run.coupled_events[i]) for i in range(sub.n_particles)]
            return float(np.mean(diffs)), run.metadata

        vals, metas = zip(*run_replicas(one, cfg.replicas, threads))
        means.append(float(np.mean(vals)))
        metadata += metas
    c_tilde = coupling_constant(phi, h, limit.sup_lambda(), cfg.xi_perturbation)
    bounds = tuple(c_tilde * cfg.t_end / math.sqrt(n) for n in n_values)
    # the log-log fit needs every mean > 0 (a mean of 0: no interaction to couple)
    slope = math.nan
    if min(means) > 0.0:
        slope = float(np.polyfit(np.log(np.asarray(n_values, dtype=float)), np.log(np.asarray(means)), 1)[0])
    return CouplingResult(
        n_values=tuple(int(v) for v in n_values),
        mean_sup_diff=tuple(means),
        bound_values=bounds,
        c_tilde=c_tilde,
        slope=slope,
        replicas=cfg.replicas,
        counters=_sum_counters(metadata),
    )


@dataclass(frozen=True)
class CLTResult:
    samples: np.ndarray
    mean: float
    variance: float
    ks_distance: float
    ks_critical_1pct: float
    t_over_n: float
    m_t_over_t: float
    i2_term: float
    counters: dict = field(default_factory=dict)  # _THINNING_COUNTERS summed over the replicas


def clt_experiment(
    phi: FiringFunction,
    h: MemoryKernel,
    xi: SourceTerm,
    cfg: HawkesConfig,
    ell: float,
    threads: Optional[int] = None,
) -> CLTResult:
    """Standardised samples sqrt(t)(ell-hat - ell)/sqrt(ell) across replicas.

    The limit law is standard normal; returns the first two moments and the
    Kolmogorov-Smirnov distance against it, plus the deterministic bias term
    I2 = sqrt(t)(m_t/t - ell) computed from the solved limit equation.
    """
    threads = resolve_threads(threads)
    if not ell > 0:
        raise ValueError(f"the limit value ell must be > 0, got {ell}")
    if cfg.replicas < 100:
        raise ValueError("KS critical values are asymptotic; use at least 100 replicas")
    if phi.lip * h.norm_l1 >= 1.0:
        raise ValueError("the fluctuation result needs strong subcriticality")
    for name, decay in (("source", xi.decay), ("kernel tail", h.decay)):
        # hypotheses: polynomial decay faster than t^{-1/2} (exponential and
        # compact decay are stronger and qualify for any rate)
        if decay.kind == "polynomial" and decay.rate <= 0.5:
            raise ValueError(f"{name} polynomial decay rate must exceed 1/2, got {decay.rate}")
    t_over_n = cfg.t_end / cfg.n_particles
    if t_over_n > 0.1:
        warnings.warn(f"t/N = {t_over_n:.3g} > 0.1: asymptotic regime is doubtful", UserWarning)
    limit = _solve_limit(phi, h, xi, cfg.t_end)
    m_t = float(np.trapezoid(limit.lam, limit.ts))
    i2 = (m_t / cfg.t_end - ell) * math.sqrt(cfg.t_end)

    sub = replace(cfg, track_coupled=False)
    sqrt_t = math.sqrt(cfg.t_end)
    sqrt_ell = math.sqrt(ell)

    def one(replica: int) -> tuple:
        run = simulate_hawkes(phi, h, xi, sub, replica=replica)
        ell_hat = run.events[0].size / cfg.t_end
        return sqrt_t * (ell_hat - ell) / sqrt_ell, run.metadata

    samples, metadata = zip(*run_replicas(one, cfg.replicas, threads))
    samples = np.asarray(samples)
    return CLTResult(
        samples=samples,
        mean=float(np.mean(samples)),
        variance=float(np.var(samples, ddof=1)),
        ks_distance=ks_statistic(samples, normal_cdf),
        ks_critical_1pct=kolmogorov_critical(0.01) / math.sqrt(cfg.replicas),
        t_over_n=t_over_n,
        m_t_over_t=m_t / cfg.t_end,
        i2_term=i2,
        counters=_sum_counters(metadata),
    )
