"""Model vocabulary: memory kernels h, firing functions Phi, source terms xi,
and the fixed-point finder/classifier for the renewal intensity equation

    lambda_t = Phi( xi_t + int_0^t h(t-s) lambda_s ds ).

Every value constructed here is immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import ast
import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .special import adaptive_simpson

#: classification margin around tau0 = 1 (below solver-discernible effect size)
CRITICAL_MARGIN = 1e-6
#: |Phi^(k)| threshold factor for declaring a higher derivative nonzero
DERIVATIVE_THRESHOLD = 1e-7
#: highest derivative order probed when classifying a critical point
MAX_CRITICAL_ORDER = 6
#: bisection tolerance for fixed-point roots
ROOT_TOL = 1e-12
#: slack of make_source_chi_perturbed's checks of chi(0) and of chi's monotonicity
_CHI_TOL = 1e-8


class NoFixedPointError(Exception):
    """The equation ell = Phi(kappa * ell) has no root on the searched bracket.

    For unbounded Phi with Phi(x) > x / ||h||_1 everywhere this signals the
    regime where every solution diverges.
    """


class TangencyWarning(UserWarning):
    """A root of ell = Phi(kappa ell) looks like a double root (tangency)."""


# ---------------------------------------------------------------------------
# decay classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayClass:
    """Decay behaviour of a source term xi or a kernel tail H.

    kind is one of "exponential" (|z_t| <= constant * exp(-rate t)),
    "polynomial" (|z_t| <= constant * t^-rate) or "compact" (z_t = 0 for
    t > horizon).
    """

    kind: str
    rate: Optional[float] = None
    constant: Optional[float] = None
    horizon: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("exponential", "polynomial", "compact"):
            raise ValueError(f"unknown decay kind {self.kind!r}")
        if self.kind in ("exponential", "polynomial"):
            if self.rate is None or self.rate <= 0:
                raise ValueError("decay rate must be > 0")
            if self.constant is None or self.constant <= 0:
                raise ValueError("decay constant must be > 0")
        if self.kind == "compact":
            if self.horizon is None or self.horizon < 0:
                raise ValueError("compact horizon must be >= 0")

    @staticmethod
    def exponential(rate: float, constant: float) -> "DecayClass":
        return DecayClass("exponential", rate=rate, constant=constant)

    @staticmethod
    def polynomial(rate: float, constant: float) -> "DecayClass":
        return DecayClass("polynomial", rate=rate, constant=constant)

    @staticmethod
    def compact(horizon: float) -> "DecayClass":
        return DecayClass("compact", horizon=horizon)

    def envelope(self, t):
        """Evaluate the decay envelope itself (inf at t <= 0 for polynomial decay).

        The envelope is nonincreasing, so it also bounds the sup tail
        sup_{s >= t} |z_s|, which ``rates.iteration_bound`` reads.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            return self.constant * np.exp(-self.rate * t)
        if self.kind == "polynomial":
            with np.errstate(divide="ignore", over="ignore"):
                return self.constant * np.maximum(t, 0.0) ** (-self.rate)
        return np.where(t > self.horizon, 0.0, np.inf)


# ---------------------------------------------------------------------------
# memory kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErlangForm:
    """Analytic structure scale * alpha^(order+1) t^order exp(-alpha t)/order!.

    Declared on a kernel, it unlocks the O(1)-per-step convolution recursion in
    the time-marching solver and the ODE cascade reduction.
    """

    order: int
    alpha: float
    scale: float = 1.0


@dataclass(frozen=True)
class MemoryKernel:
    """A memory kernel h with its analytic metadata.

    ``signed_tail`` evaluates int_t^inf h, ``tail`` its absolute value
    (equilibrium sources need the signed version, the convergence-rate
    machinery the absolute one).
    """

    evaluator: Callable
    norm_l1: float
    kappa: float
    norm_l2: float
    signed_tail: Callable
    nonneg: bool
    decay: DecayClass
    structure: Optional[ErlangForm] = None
    label: str = ""

    def __call__(self, t):
        return self.evaluator(t)

    def tail(self, t):
        """H_t = int_t^inf |h|: every kernel here keeps one sign, so |int_t^inf h|."""
        return np.abs(self.signed_tail(t))


def _erlang_tail_factory(n: int, alpha: float):
    """Closed-form tail of the Erlang kernel: partial sums of the incomplete gamma."""

    ks = np.arange(n + 1)
    inv_fact = 1.0 / np.array([math.factorial(k) for k in ks])

    def tail(t):
        t = np.asarray(t, dtype=float)
        tt = np.maximum(t, 0.0)
        # sum_{k<=n} (alpha t)^k / k! * exp(-alpha t)
        terms = (alpha * tt[..., None]) ** ks * inv_fact
        return np.exp(-alpha * tt) * terms.sum(axis=-1)

    return tail


def make_erlang_kernel(n: int, alpha: float) -> MemoryKernel:
    """Erlang kernel of order n and rate alpha: h(t) = alpha^{n+1} e^{-alpha t} t^n / n!.

    Normalised so that ||h||_1 = 1 exactly.  h(0) = 0 for n >= 1.
    """
    if n < 0 or int(n) != n:
        raise ValueError("order n must be a nonnegative integer")
    if alpha <= 0:
        raise ValueError("rate alpha must be > 0")
    n = int(n)
    coeff = alpha ** (n + 1) / math.factorial(n)

    def evaluator(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, 0.0, coeff * np.exp(-alpha * np.maximum(t, 0.0)) * np.maximum(t, 0.0) ** n)

    tail = _erlang_tail_factory(n, alpha)
    # H_t <= A exp(-alpha t / 2); A located by scanning the closed form
    ts = np.linspace(0.0, (4.0 * n + 40.0) / alpha, 4001)
    a_const = float(np.max(tail(ts) * np.exp(0.5 * alpha * ts))) * (1.0 + 1e-9)
    norm_l2 = math.sqrt(alpha * math.factorial(2 * n) / (math.factorial(n) ** 2 * 2 ** (2 * n + 1)))
    return MemoryKernel(
        evaluator=evaluator,
        norm_l1=1.0,
        kappa=1.0,
        norm_l2=norm_l2,
        signed_tail=tail,
        nonneg=True,
        decay=DecayClass.exponential(rate=0.5 * alpha, constant=a_const),
        structure=ErlangForm(order=n, alpha=alpha, scale=1.0),
        label=f"erlang(n={n}, alpha={alpha:g})",
    )


def make_scaled_exponential_kernel(c: float, alpha: float) -> MemoryKernel:
    """h(t) = c * exp(-alpha t).  c may be negative (inhibitory kernel)."""
    if alpha <= 0:
        raise ValueError("rate alpha must be > 0")

    def evaluator(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, 0.0, c * np.exp(-alpha * np.maximum(t, 0.0)))

    def signed_tail(t):
        t = np.asarray(t, dtype=float)
        return (c / alpha) * np.exp(-alpha * np.maximum(t, 0.0))

    return MemoryKernel(
        evaluator=evaluator,
        norm_l1=abs(c) / alpha,
        kappa=c / alpha,
        norm_l2=abs(c) / math.sqrt(2.0 * alpha),
        signed_tail=signed_tail,
        nonneg=c >= 0,
        decay=DecayClass.exponential(rate=alpha, constant=abs(c) / alpha if c != 0 else 1e-300),
        structure=ErlangForm(order=0, alpha=alpha, scale=c / alpha),
        label=f"exponential(c={c:g}, alpha={alpha:g})",
    )


def make_compact_kernel(table: Sequence[float], support: float) -> MemoryKernel:
    """Compactly supported nonnegative kernel from samples on a uniform grid over [0, S].

    Linear interpolation between samples, zero after S.  Norms and tails by
    composite trapezoid on the sample grid.
    """
    vals = np.asarray(table, dtype=float)
    if vals.size == 0:
        raise ValueError("empty sample table")
    if np.any(vals < 0):
        raise ValueError("kernel samples must be nonnegative")
    if support <= 0:
        raise ValueError("support must be > 0")
    if vals.size == 1:
        vals = np.array([vals[0], vals[0]])
    xs = np.linspace(0.0, support, vals.size)

    def evaluator(t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, xs, vals, left=0.0, right=0.0)
        return np.where((t < 0) | (t > support), 0.0, out)

    cells = 0.5 * (vals[1:] + vals[:-1]) * np.diff(xs)
    cum_from_right = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
    norm_l1 = float(cum_from_right[0])

    def tail(t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, xs, cum_from_right, left=norm_l1, right=0.0)
        return np.where(t <= 0, norm_l1, np.where(t > support, 0.0, out))

    norm_l2 = math.sqrt(float(np.trapezoid(vals**2, xs)))
    return MemoryKernel(
        evaluator=evaluator,
        norm_l1=norm_l1,
        kappa=norm_l1,
        norm_l2=norm_l2,
        signed_tail=tail,
        nonneg=True,
        decay=DecayClass.compact(horizon=support),
        structure=None,
        label=f"compact(S={support:g})",
    )


# ---------------------------------------------------------------------------
# formulas: the one writing of a Phi or a source, which generated loops inline
# ---------------------------------------------------------------------------


def _formula(arg: str, expr: str, **consts) -> Callable:
    """The function ``arg -> expr`` over the named constants, compiled once per expression text.

    The function carries ``expr`` and ``consts``, so a loop that evaluates the
    expression in place of the call (``formula_code``) reads the constants of
    the function it is given, and ``replace(phi, scalar=...)`` swaps both.
    ``exp`` in an expression is ``math.exp``.
    """
    fn = _bind(arg, expr, tuple(consts))(*consts.values())
    fn.expr, fn.consts = expr, consts
    return fn


@functools.lru_cache(maxsize=None)
def _bind(arg: str, expr: str, names: tuple) -> Callable:
    """``bind(*constants)``: the closure ``arg -> expr`` of ``_formula``."""
    namespace: dict = {"exp": math.exp}
    exec(f"def bind({', '.join(names)}):\n    def scalar({arg}):\n        return {expr}\n    return scalar\n", namespace)
    return namespace["bind"]


def formula_key(fn: Callable) -> Optional[tuple]:
    """(argument, expression, constant names) of a function made by ``_formula``; None for any other."""
    if not hasattr(fn, "expr"):
        return None
    return fn.__code__.co_varnames[0], fn.expr, tuple(fn.consts)


def formula_code(key: Optional[tuple], slot: str, arg: str) -> tuple:
    """(load, value): the code of a generated loop that evaluates ``slot(arg)``, where ``slot`` names the function.

    Given the ``formula_key`` of the function, the lines ``load`` (run once, in
    a namespace that imports ``math``) unpack ``slot.consts`` into locals named
    ``{slot}_{name}``, and ``value`` is the expression over them and ``arg``:
    the operations of a call in the same order, so the same bits.  Without a
    key, ``value`` calls ``slot``.
    """
    if key is None:
        return [], f"{slot}({arg})"
    own, expr, names = key
    tree = ast.parse(expr, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id != "exp":
            node.id = arg if node.id == own else f"{slot}_{node.id}"
    load = ["exp = math.exp"]
    if names:
        load.append("".join(f"{slot}_{name}, " for name in names) + f"= {slot}.consts.values()")
    return load, f"({ast.unparse(tree)})"


# ---------------------------------------------------------------------------
# firing functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiringFunction:
    """A firing rate function Phi >= 0 with first and second derivatives.

    ``scalar`` is Phi on one Python float, its one definition, and
    ``evaluator`` maps it over arrays, so every path reads the same bits.  The
    makers other than the divergence example compile it from one expression
    (``_formula``), which the thinning sweep and the marching loop evaluate in
    place of a call; any other ``scalar`` they call.
    ``derivative_fn(x, k)``, when provided, evaluates Phi^(k) analytically;
    otherwise higher derivatives fall back to central finite differences.
    """

    d1: Callable
    d2: Callable
    lip: float
    d2_sup: float
    nondecreasing: bool
    scalar: Callable
    derivative_fn: Optional[Callable] = None
    label: str = ""

    def __call__(self, x):
        return self.evaluator(x)

    def evaluator(self, x) -> np.ndarray:
        """Phi at every point of x: ``scalar`` mapped over the array, in its shape."""
        x = np.asarray(x, dtype=float)
        return np.fromiter(map(self.scalar, x.ravel().tolist()), float, x.size).reshape(x.shape)

    def derivative(self, x: float, k: int) -> float:
        """k-th derivative at x, analytic when available, else finite differences."""
        if k == 0:
            return float(self.scalar(x))
        if k == 1:
            return float(self.d1(x))
        if k == 2:
            return float(self.d2(x))
        if self.derivative_fn is not None:
            return float(self.derivative_fn(x, k))
        return _fd_derivative(self.scalar, x, k)

    def fd_noise_floor(self, x: float, k: int) -> float:
        """Rough magnitude below which a finite-difference k-th derivative is noise."""
        if k <= 2 or self.derivative_fn is not None:
            return 0.0
        h = _FD_STEPS[k]
        scale = max(1.0, abs(float(self.scalar(x))))
        return 64.0 * np.finfo(float).eps * scale / h**k


# central stencils for derivative orders 3..6
_FD_STENCILS = {
    3: (np.array([-0.5, 1.0, 0.0, -1.0, 0.5]), np.arange(-2, 3)),
    4: (np.array([1.0, -4.0, 6.0, -4.0, 1.0]), np.arange(-2, 3)),
    5: (np.array([-0.5, 2.0, -2.5, 0.0, 2.5, -2.0, 0.5]), np.arange(-3, 4)),
    6: (np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]), np.arange(-3, 4)),
}
_FD_STEPS = {3: 1e-3, 4: 3e-3, 5: 1e-2, 6: 2e-2}


def _fd_derivative(f, x: float, k: int) -> float:
    if k not in _FD_STENCILS:
        raise ValueError(f"finite-difference derivatives supported up to order 6, got {k}")
    w, offs = _FD_STENCILS[k]
    h = _FD_STEPS[k]
    vals = np.array([float(f(x + o * h)) for o in offs])
    return float(np.dot(w, vals) / h**k)


def _logistic(y):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-y))


#: base + gain / (1 + exp(-y)) at y = {y}: below y = -700 the term is under 1e-304 gain, and past -709.78
#: math.exp(-y) overflows where np.exp gives inf
_LOGISTIC = "base if (y := {y}) < -700.0 else base + gain / (1.0 + exp(-y))"


def make_sigmoid_phi(base: float, gain: float, slope: float, center: float) -> FiringFunction:
    """Phi(x) = base + gain / (1 + exp(-slope (x - center))).

    Exact derivatives; |Phi|_Lip = gain*slope/4 and ||Phi''||_inf =
    gain*slope^2/(6 sqrt(3)) are attained at / near the center.
    """
    if gain <= 0 or slope <= 0:
        raise ValueError("gain and slope must be > 0")
    if base < 0:
        raise ValueError("base must be >= 0 to keep Phi nonnegative")

    def d1(x):
        s = _logistic(slope * (np.asarray(x, dtype=float) - center))
        return gain * slope * s * (1.0 - s)

    def d2(x):
        s = _logistic(slope * (np.asarray(x, dtype=float) - center))
        return gain * slope**2 * s * (1.0 - s) * (1.0 - 2.0 * s)

    return FiringFunction(
        d1=d1,
        d2=d2,
        lip=gain * slope / 4.0,
        d2_sup=gain * slope**2 / (6.0 * math.sqrt(3.0)),
        nondecreasing=True,
        scalar=_formula("x", _LOGISTIC.format(y="slope * (x - center)"), base=base, gain=gain, slope=slope,
                        center=center),
        label=f"sigmoid({base:g},{gain:g},{slope:g},{center:g})",
    )


def make_affine_phi(mu: float) -> FiringFunction:
    """Phi(x) = mu + x, clipped at zero below x = -mu so that Phi >= 0.

    On the region the excitatory fixtures visit (x > -mu) the function is
    exactly mu + x with slope 1.
    """
    if mu < 0:
        raise ValueError("mu must be >= 0")

    def d1(x):
        return np.where(np.asarray(x, dtype=float) > -mu, 1.0, 0.0)

    def d2(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return FiringFunction(
        d1=d1,
        d2=d2,
        lip=1.0,
        d2_sup=0.0,
        nondecreasing=True,
        scalar=_formula("x", "mu + x if x > -mu else 0.0", mu=mu),
        derivative_fn=lambda x, k: 0.0,
        label=f"affine(mu={mu:g})",
    )


def make_cubic_sigmoid_phi(base: float, gain: float, slope: float, center: float) -> FiringFunction:
    """Sigmoid with a cubic-corrected argument: base + gain * s(a u + a^3 u^3 / 12), u = x - center.

    The correction makes the second AND third derivatives vanish at the center
    (the first even derivative is of order five), while keeping a strictly
    increasing bounded S-shape.  Useful for clean linearisation experiments at
    a center fixed point.
    """
    if gain <= 0 or slope <= 0:
        raise ValueError("gain and slope must be > 0")
    if base < 0:
        raise ValueError("base must be >= 0 to keep Phi nonnegative")
    a = slope
    b = a**3 / 12.0

    def inner(x):
        u = np.asarray(x, dtype=float) - center
        return a * u + b * u**3

    def inner_d1(x):
        u = np.asarray(x, dtype=float) - center
        return a + 3.0 * b * u**2

    def inner_d2(x):
        u = np.asarray(x, dtype=float) - center
        return 6.0 * b * u

    def d1(x):
        s = _logistic(inner(x))
        return gain * s * (1.0 - s) * inner_d1(x)

    def d2(x):
        s = _logistic(inner(x))
        return gain * (s * (1.0 - s) * (1.0 - 2.0 * s) * inner_d1(x) ** 2 + s * (1.0 - s) * inner_d2(x))

    xs = np.linspace(center - 8.0, center + 8.0, 160001)
    lip = float(np.max(np.abs(d1(xs)))) * (1.0 + 1e-9)
    d2_sup = float(np.max(np.abs(d2(xs)))) * (1.0 + 1e-9)

    return FiringFunction(
        d1=d1,
        d2=d2,
        lip=lip,
        d2_sup=d2_sup,
        nondecreasing=True,
        scalar=_formula("x", _LOGISTIC.format(y="a * (u := x - center) + b * u**3"), base=base, gain=gain, a=a, b=b,
                        center=center),
        label=f"cubic-sigmoid({base:g},{gain:g},{slope:g},{center:g})",
    )


def make_constant_phi(value: float) -> FiringFunction:
    """Constant firing rate (degenerate case, handy for point-process checks)."""
    if value < 0:
        raise ValueError("value must be >= 0")

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return FiringFunction(
        d1=zero,
        d2=zero,
        lip=0.0,
        d2_sup=0.0,
        nondecreasing=True,
        scalar=_formula("x", "value", value=value),
        derivative_fn=lambda x, k: 0.0,
        label=f"constant({value:g})",
    )


def make_divergence_example_phi() -> FiringFunction:
    """Phi(x) = x - exp(-x) + exp(-3x/2) sqrt(2+x) for x >= -2.

    Strictly increasing on the nonnegative half-line with Phi(0) = sqrt(2)-1 > 0,
    Phi(x)/x -> 1 at infinity, and a unique fixed point when ||h||_1 = 1.
    Lipschitz and curvature bounds are computed numerically on [0, inf).
    """

    def domain_error(x) -> ValueError:
        return ValueError(f"phi.type divergence_example: Phi is defined for x >= -2 only, got x = {float(x)!r}")

    def _check(x):
        x = np.asarray(x, dtype=float)
        below = x[x < -2.0]
        if below.size:
            raise domain_error(below[0])
        return x

    def d1(x):
        x = _check(x)
        root = np.sqrt(2.0 + x)
        return 1.0 + np.exp(-x) + np.exp(-1.5 * x) * (0.5 / root - 1.5 * root)

    def d2(x):
        x = _check(x)
        root = np.sqrt(2.0 + x)
        inner = 2.25 * root - 1.5 / root - 0.25 / root**3
        return -np.exp(-x) + np.exp(-1.5 * x) * inner

    xs = np.linspace(0.0, 60.0, 240001)
    lip = float(np.max(np.abs(d1(xs)))) * (1.0 + 1e-9)
    d2_sup = float(np.max(np.abs(d2(xs)))) * (1.0 + 1e-9)

    def scalar(x):
        if x < -2.0:
            raise domain_error(x)
        return x - math.exp(-x) + math.exp(-1.5 * x) * math.sqrt(2.0 + x)

    return FiringFunction(
        d1=d1,
        d2=d2,
        lip=lip,
        d2_sup=d2_sup,
        nondecreasing=True,
        scalar=scalar,
        label="divergence-example",
    )


# ---------------------------------------------------------------------------
# source terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceTerm:
    """Source term xi (influence of the pre-zero history), with derivative.

    ``grid_evaluator(ts)``, when set, evaluates xi on a uniform time grid more
    efficiently than pointwise calls; the solver uses it when present.
    """

    evaluator: Callable
    derivative: Callable
    sup_bound: float
    decay: DecayClass
    label: str = ""
    grid_evaluator: Optional[Callable] = None
    scalar_fn: Optional[Callable] = None

    def __call__(self, t):
        return self.evaluator(t)

    @property
    def scalar(self) -> Callable:
        """xi on one Python float: ``scalar_fn``, else the vector evaluator on one value.

        The structured makers compile ``scalar_fn`` from one expression
        (``_formula``), which the thinning sweep evaluates in place of a call.
        """
        if self.scalar_fn is not None:
            return self.scalar_fn
        ev = self.evaluator
        return lambda v: float(ev(v))

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        if self.grid_evaluator is not None:
            return np.asarray(self.grid_evaluator(ts), dtype=float)
        out = self.evaluator(ts)
        return np.asarray(out, dtype=float)


def make_source_empty() -> SourceTerm:
    """The empty source xi = 0."""

    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return SourceTerm(
        evaluator=zero,
        derivative=zero,
        sup_bound=0.0,
        decay=DecayClass.compact(horizon=0.0),
        label="empty",
        scalar_fn=_formula("t", "0.0"),
    )


def _combine_decays(parts) -> DecayClass:
    """Sound decay class for a sum of terms, each given as (DecayClass, sup bound).

    The slowest kind wins; constants are inflated so the returned envelope
    dominates every term for all t > 0 (exponential terms under a polynomial
    envelope pick up the factor sup_t t^a e^{-rt}, bounded terms their sup).
    """
    parts = [(d, abs(s)) for d, s in parts if s != 0.0 or d.kind == "compact"]
    if not parts:
        return DecayClass.compact(horizon=0.0)
    kinds = {d.kind for d, _ in parts}
    if kinds == {"compact"}:
        return DecayClass.compact(horizon=max(d.horizon for d, _ in parts))
    if "polynomial" in kinds:
        a = min(d.rate for d, _ in parts if d.kind == "polynomial")
        total = 0.0
        for d, s in parts:
            if d.kind == "polynomial":
                total += max(d.constant, s)  # valid below t = 1 via the sup
            elif d.kind == "exponential":
                total += d.constant * max((a / (math.e * d.rate)) ** a, 1.0)
            else:
                total += s * max(d.horizon, 1.0) ** a
        return DecayClass.polynomial(rate=a, constant=max(total, 1e-300))
    rate = min(d.rate for d, _ in parts if d.kind == "exponential")
    total = 0.0
    for d, s in parts:
        if d.kind == "exponential":
            total += d.constant
        else:  # compact: bounded by its sup, vanishing after the horizon
            total += s * math.exp(min(rate * d.horizon, 700.0))
    return DecayClass.exponential(rate=rate, constant=max(total, 1e-300))


def _tail_decay_of_kernel(h: MemoryKernel, scale: float) -> DecayClass:
    d = h.decay
    if scale == 0.0:
        return DecayClass.compact(horizon=0.0)
    if d.kind == "exponential":
        return DecayClass.exponential(rate=d.rate, constant=abs(scale) * d.constant)
    if d.kind == "compact":
        return DecayClass.compact(horizon=d.horizon)
    return DecayClass.polynomial(rate=d.rate, constant=abs(scale) * d.constant)


def make_source_equilibrium(h: MemoryKernel, ell: float) -> SourceTerm:
    """Equilibrium source xi_t = ell * int_t^inf h(u) du (signed tail).

    Together with a fixed point ell = Phi(kappa ell) it produces the constant
    solution lambda = ell.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0.0:
        return make_source_empty()

    def evaluator(t):
        return ell * h.signed_tail(t)

    def derivative(t):
        return -ell * h.evaluator(t)

    src = SourceTerm(
        evaluator=evaluator,
        derivative=derivative,
        sup_bound=abs(ell) * max(h.norm_l1, abs(h.kappa)),
        decay=_tail_decay_of_kernel(h, ell),
        label=f"equilibrium(ell={ell:g}) of {h.label}",
    )
    return _with_exponential_scalar(src, h, ell)


def make_source_tail(h: MemoryKernel, ell0: float) -> SourceTerm:
    """xi_t = ell0 * int_t^inf h(u) du; equals the equilibrium source iff ell0 is a fixed point."""
    if ell0 < 0:
        raise ValueError("ell0 must be >= 0")
    src = make_source_equilibrium(h, ell0) if ell0 > 0 else make_source_empty()
    return replace(src, label=f"tail(ell0={ell0:g}) of {h.label}")


def _erlang_tail_expr(order: int) -> str:
    """The formula of t -> c e^{-alpha t} sum_{k <= order} (alpha t)^k / k!, c for t <= 0.

    The partial sum runs from k = order down to 0, left to right from 0.0: for
    order 2 the value is ``c * exp(-at) * (0.0 + at**2 * 0.5 + at + 1.0)``,
    the last two terms being ``at**1 * 1.0`` and ``at**0 * 1.0`` to the bit.
    Written out, it runs no Python loop; the thinning streams read the source
    at every candidate, so the order of the operations is part of their bits.
    At order 0 the partial sum is exactly 1.0: ``c * exp(-alpha * t)``.
    """
    if order == 0:
        return "c if t <= 0.0 else c * exp(-alpha * t)"
    terms = " + ".join(["0.0", *(f"at**{k} * {1.0 / math.factorial(k)!r}" for k in range(order, 1, -1)), "at", "1.0"])
    return f"c if t <= 0.0 else c * exp(-(at := alpha * t)) * ({terms})"


def _with_exponential_scalar(src: SourceTerm, h: MemoryKernel, scale: float) -> SourceTerm:
    """Attach the formula of the tail for Erlang-structured kernels (the thinning sweep inlines it)."""
    s = h.structure
    if s is None:
        return src
    return replace(src, scalar_fn=_formula("t", _erlang_tail_expr(s.order), c=scale * s.scale, alpha=s.alpha))


def make_source_chi_perturbed(
    h: MemoryKernel,
    phi: FiringFunction,
    ell0: float,
    chi: Callable,
    chi_prime: Callable,
    chi_decay: DecayClass,
) -> SourceTerm:
    """xi_t = Phi(||h||_1 ell0) int_t^inf h + (ell0 - Phi(||h||_1 ell0)) chi_t.

    chi must be C^1, strictly decreasing with chi(0) = ||h||_1 and chi_t -> 0.
    With chi equal to the kernel tail this reduces to the plain tail source.
    """
    if ell0 < 0:
        raise ValueError("ell0 must be >= 0")
    chi0 = float(chi(0.0))
    if abs(chi0 - h.norm_l1) > _CHI_TOL * max(1.0, h.norm_l1):
        raise ValueError(f"chi(0) = {chi0} does not match ||h||_1 = {h.norm_l1}")
    probe = np.linspace(0.0, 50.0, 501)
    cvals = np.asarray(chi(probe), dtype=float)
    if np.any(np.diff(cvals) > _CHI_TOL):
        raise ValueError("chi must be nonincreasing on the sample grid")

    level = phi.scalar(h.norm_l1 * ell0)
    coeff = ell0 - level

    def evaluator(t):
        return level * h.signed_tail(t) + coeff * np.asarray(chi(t), dtype=float)

    def derivative(t):
        return -level * h.evaluator(t) + coeff * np.asarray(chi_prime(t), dtype=float)

    tail_decay = _tail_decay_of_kernel(h, level)
    chi_scaled = chi_decay
    if chi_decay.kind in ("exponential", "polynomial") and coeff != 0.0:
        chi_scaled = DecayClass(chi_decay.kind, rate=chi_decay.rate, constant=abs(coeff) * chi_decay.constant)
    decay = _combine_decays([(tail_decay, abs(level) * h.norm_l1), (chi_scaled, abs(coeff) * chi0)])

    sup_bound = abs(level) * h.norm_l1 + abs(coeff) * chi0
    return SourceTerm(
        evaluator=evaluator,
        derivative=derivative,
        sup_bound=sup_bound,
        decay=decay,
        label=f"chi-perturbed(ell0={ell0:g}) of {h.label}",
    )


def make_source_erlang_polynomial(n: int, alpha: float, c: Sequence[float]) -> SourceTerm:
    """xi_t = (sum_j alpha^j c_j t^j / j!) exp(-alpha t), the cascade-compatible family.

    Constant coefficients c = (ell, ..., ell) give the equilibrium source of the
    Erlang(n, alpha) kernel; truncated coefficient vectors give tail sources of
    lower-order Erlang kernels.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    c = np.asarray(c, dtype=float)
    if c.size != n + 1:
        raise ValueError(f"need {n + 1} coefficients, got {c.size}")
    ks = np.arange(n + 1)
    poly = c * alpha**ks / np.array([math.factorial(k) for k in ks])

    def evaluator(t):
        t = np.asarray(t, dtype=float)
        return np.polynomial.polynomial.polyval(t, poly) * np.exp(-alpha * t)

    dpoly = poly[1:] * np.arange(1, n + 1) if n >= 1 else np.zeros(1)

    def derivative(t):
        t = np.asarray(t, dtype=float)
        return (np.polynomial.polynomial.polyval(t, dpoly) - alpha * np.polynomial.polynomial.polyval(t, poly)) * np.exp(
            -alpha * t
        )

    ts = np.linspace(0.0, (4.0 * n + 40.0) / alpha, 4001)
    vals = np.abs(evaluator(ts))
    sup_bound = float(np.max(vals)) * (1.0 + 1e-12)
    a_const = float(np.max(vals * np.exp(0.5 * alpha * ts))) * (1.0 + 1e-9)
    return SourceTerm(
        evaluator=evaluator,
        derivative=derivative,
        sup_bound=sup_bound,
        decay=DecayClass.exponential(rate=0.5 * alpha, constant=max(a_const, 1e-300)),
        label=f"erlang-poly(n={n}, alpha={alpha:g}, c={np.array2string(c, precision=4)})",
    )


def add_exponential_perturbation(xi: SourceTerm, amplitude: float, rate: float = 1.0) -> SourceTerm:
    """xi_t + amplitude * exp(-rate t): the one-sided perturbations of the instability results."""
    if rate <= 0:
        raise ValueError("rate must be > 0")

    def evaluator(t):
        t = np.asarray(t, dtype=float)
        return xi.evaluator(t) + amplitude * np.exp(-rate * t)

    def derivative(t):
        t = np.asarray(t, dtype=float)
        return xi.derivative(t) - rate * amplitude * np.exp(-rate * t)

    bump = DecayClass.exponential(rate=rate, constant=max(abs(amplitude), 1e-300))
    decay = _combine_decays([(xi.decay, xi.sup_bound), (bump, abs(amplitude))])
    # the inner formula written in, its constants renamed inner_*; a source without one is called
    xs = xi.scalar
    key = formula_key(xs)
    if key is None:
        inner, consts = "inner(t)", {"inner": xs}
    else:
        inner, consts = formula_code(key, "inner", "t")[1], {f"inner_{k}": v for k, v in xs.consts.items()}
    return SourceTerm(
        evaluator=evaluator,
        derivative=derivative,
        sup_bound=xi.sup_bound + abs(amplitude),
        decay=decay,
        label=f"{xi.label} + {amplitude:g}*exp(-{rate:g}t)",
        scalar_fn=_formula("t", f"{inner} + amp * exp(-rate * t)", **consts, amp=amplitude, rate=rate),
    )


# --- the divergent-solution source -----------------------------------------


def divergence_psi(a: float) -> float:
    """Psi(a) = log(exp(-2a)/a * (1/(2a) + 1) + 1) + 2a, the admissible starting values."""
    if a <= 0:
        raise ValueError("a must be > 0")
    return math.log(math.exp(-2.0 * a) / a * (0.5 / a + 1.0) + 1.0) + 2.0 * a


def divergence_a_star() -> float:
    """Smallest a after which Psi is increasing, located by scanning Psi' on (0, 10) in steps of 1e-3."""
    grid = np.arange(1e-3, 10.0, 1e-3)
    dpsi = np.array([(divergence_psi(v + 1e-7) - divergence_psi(v - 1e-7)) / 2e-7 for v in grid])
    neg = np.where(dpsi <= 0)[0]
    if neg.size == 0:
        return float(grid[0])
    lo, hi = grid[neg[-1]], grid[min(neg[-1] + 1, grid.size - 1)]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        d = (divergence_psi(mid + 1e-9) - divergence_psi(mid - 1e-9)) / 2e-9
        if d <= 0:
            lo = mid
        else:
            hi = mid
    return hi


def divergence_lower_envelope(t, a: float):
    """Closed-form lower trajectory y(t) = log(e^{-2a s}/a (1/(2a) + s) + 1) + 2a s, s = sqrt(1+t)."""
    t = np.asarray(t, dtype=float)
    s = np.sqrt(1.0 + t)
    return np.log(np.exp(-2.0 * a * s) / a * (0.5 / a + s) + 1.0) + 2.0 * a * s


def make_source_divergence_example(a: float) -> SourceTerm:
    """The source driving the unbounded solution: xi_0 = Psi(a), xi' = -xi + a/sqrt(1+t).

    Requires a >= a*, the smallest point after which Psi is increasing.  The
    pointwise evaluator uses adaptive Simpson quadrature on the convolution
    integral; the grid evaluator integrates the defining first-order equation
    with an exact integrating factor.
    """
    a_star = divergence_a_star()
    if a < a_star:
        raise ValueError(f"a = {a} below the admissible threshold a* = {a_star:.6f}")
    xi0 = divergence_psi(a)

    def evaluator(t):
        def one(tv):
            if tv <= 0:
                return xi0
            lo = max(0.0, tv - 45.0)  # exp(-(t-s)) truncation below 3e-20
            integral = adaptive_simpson(lambda s: math.exp(-(tv - s)) / math.sqrt(1.0 + s), lo, tv, tol=1e-10)
            return math.exp(-tv) * xi0 + a * integral

        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 0:
            return np.float64(one(float(t_arr)))
        return np.array([one(float(v)) for v in t_arr])

    def derivative(t):
        t_arr = np.asarray(t, dtype=float)
        return a / np.sqrt(1.0 + t_arr) - evaluator(t)

    def grid_evaluator(ts):
        ts = np.asarray(ts, dtype=float)
        if ts.size == 0:
            return ts
        out = np.empty_like(ts)
        out[0] = math.exp(-ts[0]) * xi0 + (a * adaptive_simpson(lambda s: math.exp(-(ts[0] - s)) / math.sqrt(1.0 + s), 0, ts[0]) if ts[0] > 0 else 0.0)
        if ts.size == 1:
            return out
        dt = ts[1] - ts[0]
        q = math.exp(-dt)
        # per-cell integrals of exp(-(t_{n+1}-s))/sqrt(1+s) by Simpson on 2 panels
        mid1 = ts[:-1] + 0.25 * dt
        mid2 = ts[:-1] + 0.5 * dt
        mid3 = ts[:-1] + 0.75 * dt
        f0 = np.exp(-dt) / np.sqrt(1.0 + ts[:-1])
        f1 = np.exp(-0.75 * dt) / np.sqrt(1.0 + mid1)
        f2 = np.exp(-0.5 * dt) / np.sqrt(1.0 + mid2)
        f3 = np.exp(-0.25 * dt) / np.sqrt(1.0 + mid3)
        f4 = 1.0 / np.sqrt(1.0 + ts[1:])
        cell = dt / 12.0 * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4)
        # memoryviews give Python floats: the operations of numpy scalars at a third of the cost, with no list
        dst = memoryview(out)
        acc = dst[0]
        for i, c in enumerate(memoryview(cell), 1):
            acc = q * acc + a * c
            dst[i] = acc
        return out

    ts = np.linspace(0.0, 400.0, 40001)
    vals = grid_evaluator(ts)
    sup_bound = float(np.max(np.abs(vals)))
    # quasi-static asymptotics: xi_t ~ a / sqrt(t)
    a_const = float(np.max(np.abs(vals[1:]) * np.sqrt(ts[1:]))) * (1.0 + 1e-6)
    return SourceTerm(
        evaluator=evaluator,
        derivative=derivative,
        sup_bound=sup_bound,
        decay=DecayClass.polynomial(rate=0.5, constant=a_const),
        label=f"divergence-example(a={a:g})",
        grid_evaluator=grid_evaluator,
    )


# ---------------------------------------------------------------------------
# fixed points and stability
# ---------------------------------------------------------------------------

SUBCRITICAL = "subcritical"
SUPERCRITICAL = "supercritical"
CRITICAL = "critical"
DEGENERATE = "degenerate"

STABLE = "stable"
UNSTABLE = "unstable"


@dataclass(frozen=True)
class Stability:
    """Stability class of a fixed point.

    For critical points, p is the order of the first nonvanishing derivative
    at the fixed point's argument, and the above/below fields record one-sided
    behaviour of perturbed tail sources.
    """

    kind: str
    p: Optional[int] = None
    sign_of_phi_p: Optional[int] = None
    above: Optional[str] = None
    below: Optional[str] = None
    note: str = ""


@dataclass(frozen=True)
class FixedPointReport:
    ell: float
    kappa_ell: float
    tau0: float
    stability: Stability
    residual: float = 0.0


def classify_critical(phi: FiringFunction, h: MemoryKernel, ell: float) -> Stability:
    """One-sided verdicts at a critical fixed point from the first nonzero Phi^(k).

    p = min{k >= 2 : Phi^(k)(kappa ell) != 0}, capped at order 6; parity of p
    and the sign of the derivative determine stability from above and below.
    A point with no significant derivative up to the cap is reported degenerate.
    """
    x = h.kappa * ell
    d1 = abs(float(phi.d1(x)))
    threshold = DERIVATIVE_THRESHOLD * max(1.0, d1)
    for k in range(2, MAX_CRITICAL_ORDER + 1):
        val = phi.derivative(x, k)
        if abs(val) > max(threshold, phi.fd_noise_floor(x, k)):
            sign = 1 if val > 0 else -1
            if k % 2 == 0:
                above, below = (UNSTABLE, STABLE) if sign > 0 else (STABLE, UNSTABLE)
            else:
                above = below = UNSTABLE if sign > 0 else STABLE
            return Stability(kind=CRITICAL, p=k, sign_of_phi_p=sign, above=above, below=below)
    return Stability(
        kind=DEGENERATE,
        note="all probed derivatives up to order 6 vanish at the fixed point",
    )


def _classify(phi: FiringFunction, h: MemoryKernel, ell: float) -> Stability:
    tau0 = h.norm_l1 * abs(float(phi.d1(h.kappa * ell)))
    caveat = "" if h.nonneg else "instability theory unavailable for signed kernels"
    if tau0 < 1.0 - CRITICAL_MARGIN:
        return Stability(kind=SUBCRITICAL)
    if tau0 > 1.0 + CRITICAL_MARGIN:
        return Stability(kind=SUPERCRITICAL, note=caveat)
    if not h.nonneg:
        return Stability(kind=CRITICAL, note=caveat)
    return classify_critical(phi, h, ell)


def _g_on_grid(phi: FiringFunction, kappa: float, ells: np.ndarray) -> np.ndarray:
    """g(ell) = Phi(kappa ell) - ell at every grid point, in one call of the vector evaluator."""
    return np.asarray(phi.evaluator(kappa * ells), dtype=float) - ells


def find_fixed_points(phi: FiringFunction, h: MemoryKernel, l_max: Optional[float] = None) -> list:
    """All roots of g(ell) = Phi(kappa ell) - ell on [0, L_max], sorted ascending.

    Sign-change roots on a grid of 4096 cells are refined by bisection to
    1e-12 and then Newton-polished; each root carries
    tau0 = ||h||_1 |Phi'(kappa ell)| and its stability class.  The default
    bracket doubles, up to 1e9, until the sign of g is stable beyond it, and
    then widens to cover the proven bound on every root of a nondecreasing Phi
    with Lipschitz constant L: Phi(0) when kappa <= 0, Phi(0) / (1 - L kappa)
    when L kappa < 1.  Raises NoFixedPointError when g has no root on the
    bracket.
    """
    kappa = h.kappa

    def g(ell):
        return phi.scalar(kappa * ell) - ell

    if l_max is None:
        probe = np.linspace(0.0, 10.0 * max(1.0, h.norm_l1), 64)
        try:
            phi_sup_est = float(np.max(phi.evaluator(kappa * probe)))
        except (ValueError, FloatingPointError):
            phi_sup_est = max(phi.scalar(0.0), 1.0)
        l_max = max(4.0 * phi_sup_est, 10.0)
        while l_max < 1e9:
            gv = _g_on_grid(phi, kappa, np.linspace(l_max, 2.0 * l_max, 257))
            if np.all(gv >= 0) or np.all(gv <= 0):
                break
            l_max *= 2.0
        # a stable sign past the bracket does not rule out a root further out: cover the proven bound
        # Phi(0) / (1 - L max(kappa, 0)) where there is one (a Phi with L kappa >= 1 keeps the probe)
        lk = phi.lip * max(kappa, 0.0)
        if lk < 1.0:
            bound = phi.scalar(0.0) / (1.0 - lk)
            if l_max < bound:
                l_max = 1.01 * bound + 1.0

    xs = np.linspace(0.0, l_max, 4096 + 1)
    gv = _g_on_grid(phi, kappa, xs)

    roots = []
    # exact zeros count as roots only when isolated: a run of zeros is
    # floating-point absorption (Phi(x) indistinguishable from x), not a root
    exact = np.where(gv == 0.0)[0]
    for i in exact:
        left_ok = i == 0 or gv[i - 1] != 0.0
        right_ok = i == gv.size - 1 or gv[i + 1] != 0.0
        if left_ok and right_ok:
            roots.append(float(xs[i]))
    sign_change = np.where(gv[:-1] * gv[1:] < 0.0)[0]
    for i in sign_change:
        lo, hi = float(xs[i]), float(xs[i + 1])
        glo = gv[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if gm == 0.0:
                lo = hi = mid
                break
            if (gm > 0) == (glo > 0):
                lo, glo = mid, gm
            else:
                hi = mid
            if hi - lo <= ROOT_TOL:
                break
        root = 0.5 * (lo + hi)
        # Newton polish: g'(ell) = kappa Phi'(kappa ell) - 1
        for _ in range(4):
            gp = kappa * float(phi.d1(kappa * root)) - 1.0
            if abs(gp) < 1e-8:
                break
            step = g(root) / gp
            if not math.isfinite(step):
                break
            root -= step
        roots.append(root)

    roots = sorted(set(round(r, 15) for r in roots if r >= -ROOT_TOL))
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-9 * max(1.0, r):
            merged.append(max(r, 0.0))
    if not merged:
        raise NoFixedPointError(
            "no root of ell = Phi(kappa ell) on the bracket: every solution diverges in this regime"
        )

    reports = []
    for r in merged:
        gp = kappa * float(phi.d1(kappa * r)) - 1.0
        if abs(gp) < CRITICAL_MARGIN:
            warnings.warn(f"possible tangency (double root) at ell = {r:.6g}", TangencyWarning)
        tau0 = h.norm_l1 * abs(float(phi.d1(kappa * r)))
        reports.append(
            FixedPointReport(
                ell=r,
                kappa_ell=kappa * r,
                tau0=tau0,
                stability=_classify(phi, h, r),
                residual=abs(g(r)),
            )
        )
    return reports
