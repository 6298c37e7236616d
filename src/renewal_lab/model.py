"""Model vocabulary: memory kernels h, firing functions Phi, source terms xi,
and the fixed-point finder/classifier for the renewal intensity equation

    lambda_t = Phi( xi_t + int_0^t h(t-s) lambda_s ds ).

Each Phi is written once, as a formula; its derivatives of every order come
from the same formula evaluated on a truncated Taylor series (``_Jet``).
Every value constructed here is immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import ast
import functools
import math
import re
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
        sup_{s >= t} |z_s|.  The package reads a class's kind, rate, constant
        and horizon; the tests check declared classes against this envelope.
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
    machinery the absolute one).  ``knots``, for a piecewise-linear kernel, is
    (xs, values): h is their linear interpolation on [xs[0], xs[-1]] and zero
    outside.
    """

    evaluator: Callable
    norm_l1: float
    kappa: float
    norm_l2: float
    signed_tail: Callable
    nonneg: bool
    decay: DecayClass
    structure: Optional[ErlangForm] = None
    knots: Optional[tuple] = None
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
    # + 0.0 stores a -0.0 sample as +0.0, so no interpolated value is -0.0 (``hawkes._sweep`` relies on it)
    vals = np.asarray(table, dtype=float) + 0.0
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
        knots=(xs, vals),
        label=f"compact(S={support:g})",
    )


# ---------------------------------------------------------------------------
# formulas: the one writing of a Phi or a source, which generated loops inline
# ---------------------------------------------------------------------------


def _formula(arg: str, expr: str, **consts) -> Callable:
    """The function ``arg -> expr`` over the named constants, compiled once per expression text.

    The function carries ``expr`` and ``consts``, so a loop that evaluates the
    expression in place of the call (``compile_loop``) reads the constants of
    the function it is given, and ``replace(phi, scalar=...)`` swaps both.
    ``exp`` in an expression is ``math.exp``.
    """
    fn = _bind(arg, expr, tuple(consts), math.exp)(*consts.values())
    fn.expr, fn.consts = expr, consts
    return fn


@functools.lru_cache(maxsize=None)
def _bind(arg: str, expr: str, names: tuple, exp: Callable) -> Callable:
    """``bind(*constants)``: the closure ``arg -> expr`` of ``_formula`` with ``exp`` bound, ``math.exp`` or
    the jet's (``_derivatives``)."""
    return compile_loop("def bind({names}):\n    def scalar({arg}):\n        return {expr}\n    return scalar\n",
                        {"exp": exp}, {}, names=", ".join(names), arg=arg, expr=expr)


def formula_key(fn: Callable) -> Optional[tuple]:
    """(argument, expression, constant names) of a function made by ``_formula``; None for any other."""
    if not hasattr(fn, "expr"):
        return None
    return fn.__code__.co_varnames[0], fn.expr, tuple(fn.consts)


class _Inliner(ast.NodeTransformer):
    """Writes the formula of ``keys[slot]``, a ``formula_key``, in place of each call ``slot(name)``.

    The formula's argument becomes ``name`` and its other names ``{slot}_{name}``
    (``exp`` stays); a slot without a key, or a call at anything but one bare
    name, stays a call.
    """

    def __init__(self, keys: dict):
        self.keys = keys

    def visit_Call(self, call: ast.Call) -> ast.expr:
        self.generic_visit(call)
        key = self.keys.get(getattr(call.func, "id", None))
        if key is None or len(call.args) != 1 or call.keywords or not isinstance(call.args[0], ast.Name):
            return call
        tree = ast.parse(key[1], mode="eval").body
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id != "exp":
                node.id = call.args[0].id if node.id == key[0] else f"{call.func.id}_{node.id}"
            ast.copy_location(node, call)
        return tree


def compile_loop(template: str, namespace: dict, formulas: dict, **slots) -> Callable:
    """The one function ``template`` defines, its slots filled and its formulas written in.

    Each ``{name}`` takes ``slots[name]``: a string in place, or a list of lines
    (an item may hold several) indented to the slot's column.  ``formulas`` maps
    an argument to its ``formula_key`` or None, and ``_Inliner`` writes the
    formulas in: the operations of the call in the same order, so the same bits.
    Their constants are unpacked once at the top of the function, and ``exp``
    is the namespace's ``math.exp``, loaded there too unless the template loads
    it.  The code depends on the formulas' text only, not on their constants.
    """

    def fill(m: re.Match) -> str:
        value = slots[m[1]]
        indent = "\n" + " " * (m.start() - template.rfind("\n", 0, m.start()) - 1)
        return value if isinstance(value, str) else indent.join("\n".join(value).split("\n"))

    tree = ast.parse(re.sub(r"\{(\w+)\}", fill, template))
    fn = _Inliner(formulas).visit(tree.body[0])
    keys = {slot: key for slot, key in formulas.items() if key is not None}
    if keys:
        stored = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        load = [] if "exp" in stored else ["exp = math.exp"]
        load += [f"{''.join(f'{slot}_{name}, ' for name in names)}= {slot}.consts.values()"
                 for slot, (_, _, names) in keys.items() if names]
        fn.body[:0] = ast.parse("\n".join(load)).body
    local: dict = {}
    exec(compile(ast.fix_missing_locations(tree), f"<{fn.name}>", "exec"), namespace, local)
    return local[fn.name]


# ---------------------------------------------------------------------------
# firing functions
# ---------------------------------------------------------------------------


def _mapped(scalar: Callable, x) -> np.ndarray:
    """``scalar`` at every point of x, called on Python floats, in the shape of x."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(scalar, x.ravel().tolist()), float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class FiringFunction:
    """A firing rate function Phi >= 0 with bounds on its first and second derivatives.

    ``scalar`` is Phi on one Python float, its one definition, and
    ``evaluator`` maps it over arrays, so every path reads the same bits.  Every
    maker compiles it from one expression (``_formula``), which the generated
    loops evaluate in place of a call (``compile_loop``); any other ``scalar``
    they call.  ``derivative`` evaluates the same expression on a jet, so every
    Phi^(k) comes from that one writing too.
    """

    lip: float
    d2_sup: float
    nondecreasing: bool
    scalar: Callable
    label: str = ""

    def __call__(self, x):
        return self.evaluator(x)

    def evaluator(self, x) -> np.ndarray:
        """Phi at every point of x: ``scalar`` mapped over the array, in its shape."""
        return _mapped(self.scalar, x)

    def derivative(self, x: float, k: int) -> float:
        """Phi^(k)(x), from the formula of ``scalar``; a TypeError for a ``scalar`` without one."""
        return _derivatives(self.scalar, x, k)[k]


class _Jet:
    """The truncated Taylor series c[0] + c[1] h + ... + c[K] h^K of a formula at x + h.

    ``+``, ``-``, ``*``, ``/`` with floats or jets, ``**`` with a nonnegative
    integer, ``exp`` and ``sqrt`` follow the recurrences of power series on
    Python floats.  Comparisons and ``float`` read c[0], so a conditional
    expression takes the branch the scalar takes at x.
    """

    __slots__ = ("c",)

    def __init__(self, c: list):
        self.c = c

    def _of(self, other) -> list:
        return other.c if isinstance(other, _Jet) else [other] + [0.0] * (len(self.c) - 1)

    def __add__(self, other):
        return _Jet([a + b for a, b in zip(self.c, self._of(other))])

    __radd__ = __add__

    def __sub__(self, other):
        return _Jet([a - b for a, b in zip(self.c, self._of(other))])

    def __rsub__(self, other):
        return _Jet([b - a for a, b in zip(self.c, self._of(other))])

    def __neg__(self):
        return _Jet([-a for a in self.c])

    def __mul__(self, other):
        u, v = self.c, self._of(other)
        return _Jet([sum(u[j] * v[k - j] for j in range(k + 1)) for k in range(len(u))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _Jet._quotient(self.c, self._of(other))

    def __rtruediv__(self, other):
        return _Jet._quotient(self._of(other), self.c)

    @staticmethod
    def _quotient(u: list, v: list) -> "_Jet":
        q: list = []
        for k in range(len(u)):
            q.append((u[k] - sum(v[j] * q[k - j] for j in range(1, k + 1))) / v[0])
        return _Jet(q)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError(f"a jet takes a nonnegative integer power, got {n!r}")
        out = _Jet([1.0] + [0.0] * (len(self.c) - 1))
        for _ in range(n):  # by products: at c[0] = 0 a real power has no derivatives
            out = out * self
        return out

    def __lt__(self, other):
        return self.c[0] < other

    def __le__(self, other):
        return self.c[0] <= other

    def __gt__(self, other):
        return self.c[0] > other

    def __ge__(self, other):
        return self.c[0] >= other

    def __float__(self):
        return float(self.c[0])

    @staticmethod
    def exp(u):
        if not isinstance(u, _Jet):
            return math.exp(u)
        w = [math.exp(u.c[0])]
        for k in range(1, len(u.c)):
            w.append(sum(j * u.c[j] * w[k - j] for j in range(1, k + 1)) / k)
        return _Jet(w)

    @staticmethod
    def sqrt(u):
        if not isinstance(u, _Jet):
            return math.sqrt(u)
        w = [math.sqrt(u.c[0])]
        for k in range(1, len(u.c)):
            w.append((u.c[k] - sum(w[j] * w[k - j] for j in range(1, k))) / (2.0 * w[0]))
        return _Jet(w)


#: the jet version of each function a formula may call: ``exp``, and ``sqrt`` passed as a constant
_JET_FUNCTIONS = {math.exp: _Jet.exp, math.sqrt: _Jet.sqrt}


def _derivatives(scalar: Callable, x: float, order: int) -> list:
    """[Phi(x), Phi'(x), ..., Phi^(order)(x)]: k! times coefficient k of the formula of ``scalar`` on one jet."""
    key = formula_key(scalar)
    if key is None:
        raise TypeError(f"{scalar!r} has no formula to differentiate")
    consts = [_JET_FUNCTIONS.get(v, v) for v in scalar.consts.values()]
    out = _bind(*key, _Jet.exp)(*consts)(_Jet([float(x), 1.0, *[0.0] * order][: order + 1]))
    c = out.c if isinstance(out, _Jet) else [out] + [0.0] * order
    return [math.factorial(k) * c[k] for k in range(order + 1)]


#: base + gain / (1 + exp(-y)) at y = {y}: below y = -700 the term is under 1e-304 gain, and past -709.78
#: math.exp(-y) overflows where np.exp gives inf
_LOGISTIC = "base if (y := {y}) < -700.0 else base + gain / (1.0 + exp(-y))"


def make_sigmoid_phi(base: float, gain: float, slope: float, center: float) -> FiringFunction:
    """Phi(x) = base + gain / (1 + exp(-slope (x - center))).

    |Phi|_Lip = gain*slope/4 and ||Phi''||_inf = gain*slope^2/(6 sqrt(3)) are
    attained at / near the center.
    """
    if gain <= 0 or slope <= 0:
        raise ValueError("gain and slope must be > 0")
    if base < 0:
        raise ValueError("base must be >= 0 to keep Phi nonnegative")
    return FiringFunction(
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
    return FiringFunction(
        lip=1.0,
        d2_sup=0.0,
        nondecreasing=True,
        scalar=_formula("x", "mu + x if x > -mu else 0.0", mu=mu),
        label=f"affine(mu={mu:g})",
    )


#: sup |g''| of g(v) = 1 / (1 + exp(-v - v^3 / 12)), 0.15140695712495153 at |v| = 1.93366, rounded up
_CUBIC_D2_SUP = 0.151406957125


def make_cubic_sigmoid_phi(base: float, gain: float, slope: float, center: float) -> FiringFunction:
    """Sigmoid with a cubic-corrected argument: base + gain * s(a u + a^3 u^3 / 12), u = x - center.

    The correction makes the second AND third derivatives vanish at the center
    (the first even derivative is of order five), while keeping a strictly
    increasing bounded S-shape.  Useful for clean linearisation experiments at
    a center fixed point.  With v = a u the argument is v + v^3 / 12 for every
    slope a, so Phi' = gain a g'(v) and Phi'' = gain a^2 g''(v) for the one
    function g above: sup g' = 1/4 at v = 0, where g'(v) = 1/4 - v^4/64 + O(v^6).
    """
    if gain <= 0 or slope <= 0:
        raise ValueError("gain and slope must be > 0")
    if base < 0:
        raise ValueError("base must be >= 0 to keep Phi nonnegative")
    a = slope
    b = a**3 / 12.0
    return FiringFunction(
        lip=gain * slope / 4.0,
        d2_sup=gain * slope**2 * _CUBIC_D2_SUP,
        nondecreasing=True,
        scalar=_formula("x", _LOGISTIC.format(y="a * (u := x - center) + b * u**3"), base=base, gain=gain, a=a, b=b,
                        center=center),
        label=f"cubic-sigmoid({base:g},{gain:g},{slope:g},{center:g})",
    )


def make_constant_phi(value: float) -> FiringFunction:
    """Constant firing rate (degenerate case, handy for point-process checks)."""
    if value < 0:
        raise ValueError("value must be >= 0")
    return FiringFunction(
        lip=0.0,
        d2_sup=0.0,
        nondecreasing=True,
        scalar=_formula("x", "value", value=value),
        label=f"constant({value:g})",
    )


def make_divergence_example_phi() -> FiringFunction:
    """Phi(x) = x - exp(-x) + exp(-3x/2) sqrt(2+x) for x >= -2.

    Strictly increasing on the nonnegative half-line with Phi(0) = sqrt(2)-1 > 0,
    Phi(x)/x -> 1 at infinity, and a unique fixed point when ||h||_1 = 1.
    The Lipschitz and curvature bounds on [0, inf) are constants: the maximum
    of |Phi'| (near x = 2.911) and of |Phi''| (at x = 0) on a grid of step
    2.5e-4 over [0, 60], times 1 + 1e-9.
    """

    def below(x):
        raise ValueError(f"phi.type divergence_example: Phi is defined for x >= -2 only, got x = {float(x)!r}")

    return FiringFunction(
        lip=1.015084068364975,
        d2_sup=1.0329319969442567,
        nondecreasing=True,
        # a NaN fails the domain test and flows through the formula
        scalar=_formula("x", "below(x) if x < -2.0 else x - exp(-x) + exp(-1.5 * x) * sqrt(2.0 + x)", below=below,
                        sqrt=math.sqrt),
        label="divergence-example",
    )


# ---------------------------------------------------------------------------
# source terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceTerm:
    """Source term xi (influence of the pre-zero history), with derivative.

    Two evaluators describe the one source.  ``scalar`` is xi on one Python
    float, which thinning reads at every candidate: the makers of a source
    with a one-line expression compile it from that expression (``_formula``),
    which the thinning sweep evaluates in place of a call, and the others read
    ``grid`` at one point (``_pointwise``) or, for the divergence source, run
    its quadrature.  ``grid(ts)`` is xi at every point of ts as an array,
    which the solver reads on its uniform time grid; the divergence source
    runs a recurrence there, and a locked source holds its grid values.
    ``rise`` bounds how fast xi can grow, sup_t max(xi'(t), 0), as the maker
    proves it from its closed form (0 for a source that never rises), or is
    inf where the maker proves none; thinning bounds xi between grid times by
    it.
    """

    scalar: Callable
    grid: Callable
    derivative: Callable
    sup_bound: float
    decay: DecayClass
    rise: float
    label: str

    def __call__(self, t):
        return self.grid(t)

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        return np.asarray(self.grid(ts), dtype=float)


def _pointwise(grid: Callable) -> Callable:
    """xi on one Python float from the array evaluator ``grid``, for a source with no one-line expression."""
    return lambda t: float(grid(t))


def make_source_empty() -> SourceTerm:
    """The empty source xi = 0."""

    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return SourceTerm(
        scalar=_formula("t", "0.0"),
        grid=zero,
        derivative=zero,
        sup_bound=0.0,
        decay=DecayClass.compact(horizon=0.0),
        rise=0.0,
        label="empty",
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
    if d.kind == "compact":
        return DecayClass.compact(horizon=d.horizon)
    # floored as _combine_decays floors: a subnormal scale would round the constant to 0
    return DecayClass(d.kind, rate=d.rate, constant=max(abs(scale) * d.constant, 1e-300))


def make_source_equilibrium(h: MemoryKernel, ell: float) -> SourceTerm:
    """Equilibrium source xi_t = ell * int_t^inf h(u) du (signed tail).

    Together with a fixed point ell = Phi(kappa ell) it produces the constant
    solution lambda = ell.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0.0:
        return make_source_empty()

    def grid(t):
        return ell * h.signed_tail(t)

    def derivative(t):
        return -ell * h.evaluator(t)

    return SourceTerm(
        scalar=_tail_scalar(h, ell, grid),
        grid=grid,
        derivative=derivative,
        sup_bound=abs(ell) * max(h.norm_l1, abs(h.kappa)),
        decay=_tail_decay_of_kernel(h, ell),
        # xi' = -ell h: no rise under a nonnegative kernel
        rise=0.0 if h.nonneg else math.inf,
        label=f"equilibrium(ell={ell:g}) of {h.label}",
    )


def make_source_tail(h: MemoryKernel, ell0: float) -> SourceTerm:
    """xi_t = ell0 * int_t^inf h(u) du; equals the equilibrium source iff ell0 is a fixed point."""
    if ell0 < 0:
        raise ValueError("ell0 must be >= 0")
    src = make_source_equilibrium(h, ell0) if ell0 > 0 else make_source_empty()
    return replace(src, label=f"tail(ell0={ell0:g}) of {h.label}")


def _erlang_formula(c: float, alpha: float, q: Sequence[float]) -> Callable:
    """The formula of t -> c e^{-alpha t} sum_{k <= n} q_k (alpha t)^k / k! (c q_0 for t <= 0), n = len(q) - 1.

    Its members, the free decays of an Erlang(n, alpha) cascade, start the
    thinning state (``hawkes._cascade_start``): the Erlang-polynomial sources
    (c = 1) and an Erlang-structured kernel's tail sources (q_k = 1, each
    product by q_k exact).  The sum runs from k = n down to 0, left to right
    from 0.0, with no Python loop, as the thinning streams' bits need: for
    n = 2, ``c * exp(-at) * (0.0 + at**2 * q2 * 0.5 + at * q1 + q0)``.  At
    n = 0 the sum is q_0, folded into c: ``c if t <= 0.0 else c * exp(-alpha * t)``.
    """
    if len(q) == 1:
        return _formula("t", "c if t <= 0.0 else c * exp(-alpha * t)", c=c * q[0], alpha=alpha)
    terms = ["0.0", *(f"at**{k} * q{k} * {1.0 / math.factorial(k)!r}" for k in range(len(q) - 1, 1, -1)), "at * q1", "q0"]
    return _formula("t", f"c * q0 if t <= 0.0 else c * exp(-(at := alpha * t)) * ({' + '.join(terms)})",
                    c=c, alpha=alpha, **{f"q{k}": qk for k, qk in enumerate(q)})


def _tail_scalar(h: MemoryKernel, scale: float, grid: Callable) -> Callable:
    """The scalar of t -> scale int_t^inf h: the formula of the tail for an Erlang-structured kernel (thinning starts
    its state from it, or inlines it under a perturbation), else ``grid`` at one point."""
    s = h.structure
    if s is None:
        return _pointwise(grid)
    return _erlang_formula(scale * s.scale, s.alpha, [1.0] * (s.order + 1))


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

    def grid(t):
        return level * h.signed_tail(t) + coeff * np.asarray(chi(t), dtype=float)

    def derivative(t):
        return -level * h.evaluator(t) + coeff * np.asarray(chi_prime(t), dtype=float)

    tail_decay = _tail_decay_of_kernel(h, level)
    chi_scaled = chi_decay
    if chi_decay.kind in ("exponential", "polynomial") and coeff != 0.0:
        chi_scaled = DecayClass(chi_decay.kind, rate=chi_decay.rate, constant=max(abs(coeff) * chi_decay.constant, 1e-300))
    decay = _combine_decays([(tail_decay, abs(level) * h.norm_l1), (chi_scaled, abs(coeff) * chi0)])

    sup_bound = abs(level) * h.norm_l1 + abs(coeff) * chi0
    return SourceTerm(
        scalar=_pointwise(grid),
        grid=grid,
        derivative=derivative,
        sup_bound=sup_bound,
        decay=decay,
        # xi' = -level h + coeff chi' with level = Phi >= 0 and chi' <= 0; no bound on |chi'| is known
        rise=0.0 if h.nonneg and coeff >= 0.0 else math.inf,
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

    def grid(t):
        t = np.asarray(t, dtype=float)
        return np.polynomial.polynomial.polyval(t, poly) * np.exp(-alpha * t)

    # xi' = Q(t) e^{-alpha t} with Q = P' - alpha P, and t^j e^{-alpha t} <= (j / (alpha e))^j; Q is evaluated
    # from its own coefficients, so a Q with no positive one gives no positive xi' at t >= 0
    q = np.append(poly[1:] * np.arange(1, n + 1), 0.0) - alpha * poly
    rise = sum(max(qj, 0.0) * (j / (alpha * math.e)) ** j for j, qj in enumerate(q.tolist()))

    def derivative(t):
        t = np.asarray(t, dtype=float)
        return np.polynomial.polynomial.polyval(t, q) * np.exp(-alpha * t)

    ts = np.linspace(0.0, (4.0 * n + 40.0) / alpha, 4001)
    vals = np.abs(grid(ts))
    sup_bound = float(np.max(vals)) * (1.0 + 1e-12)
    a_const = float(np.max(vals * np.exp(0.5 * alpha * ts))) * (1.0 + 1e-9)
    return SourceTerm(
        scalar=_erlang_formula(1.0, alpha, c.tolist()),
        grid=grid,
        derivative=derivative,
        sup_bound=sup_bound,
        decay=DecayClass.exponential(rate=0.5 * alpha, constant=max(a_const, 1e-300)),
        rise=rise,
        label=f"erlang-poly(n={n}, alpha={alpha:g}, c={np.array2string(c, precision=4)})",
    )


def add_exponential_perturbation(xi: SourceTerm, amplitude: float, rate: float = 1.0) -> SourceTerm:
    """xi_t + amplitude * exp(-rate t): the one-sided perturbations of the instability results."""
    if rate <= 0:
        raise ValueError("rate must be > 0")

    def grid(ts):
        # through the grid of xi: a locked source keeps its grid values
        ts = np.asarray(ts, dtype=float)
        return xi.on_grid(ts) + amplitude * np.exp(-rate * ts)

    def derivative(t):
        t = np.asarray(t, dtype=float)
        return xi.derivative(t) - rate * amplitude * np.exp(-rate * t)

    bump = DecayClass.exponential(rate=rate, constant=max(abs(amplitude), 1e-300))
    decay = _combine_decays([(xi.decay, xi.sup_bound), (bump, abs(amplitude))])
    # the inner formula written in, its constants renamed inner_*; a source without one is called
    xs = xi.scalar
    key = formula_key(xs)
    inner = ast.unparse(_Inliner({"inner": key}).visit(ast.parse("inner(t)", mode="eval").body))
    consts = {"inner": xs} if key is None else {f"inner_{k}": v for k, v in xs.consts.items()}
    return SourceTerm(
        scalar=_formula("t", f"({inner}) + amp * exp(-rate * t)", **consts, amp=amplitude, rate=rate),
        grid=grid,
        derivative=derivative,
        sup_bound=xi.sup_bound + abs(amplitude),
        decay=decay,
        rise=xi.rise + rate * max(-amplitude, 0.0),
        label=f"{xi.label} + {amplitude:g}*exp(-{rate:g}t)",
    )


# --- the divergent-solution source -----------------------------------------


def divergence_psi(a: float) -> float:
    """Psi(a) = log(exp(-2a)/a * (1/(2a) + 1) + 1) + 2a, the admissible starting values."""
    if a <= 0:
        raise ValueError("a must be > 0")
    return math.log(math.exp(-2.0 * a) / a * (0.5 / a + 1.0) + 1.0) + 2.0 * a


def divergence_a_star() -> float:
    """Smallest a after which Psi is increasing: Psi' scanned on (0, 10) in steps of 1e-3, then bisected.

    Psi'(a) = G'(a) / (G(a) + 1) + 2 with G(a) = e^{-2a} (1/(2a^2) + 1/a) and
    G'(a) = -e^{-2a} (1/a^3 + 2/a^2 + 2/a).
    """

    def dpsi(a):
        e = np.exp(-2.0 * a)
        return -e * (1.0 / a**3 + 2.0 / a**2 + 2.0 / a) / (e * (0.5 / a**2 + 1.0 / a) + 1.0) + 2.0

    grid = np.arange(1e-3, 10.0, 1e-3)
    neg = np.where(dpsi(grid) <= 0)[0]
    if neg.size == 0:
        return float(grid[0])
    lo, hi = float(grid[neg[-1]]), float(grid[min(neg[-1] + 1, grid.size - 1)])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dpsi(mid) <= 0:
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
    scalar runs adaptive Simpson quadrature on the convolution integral; the
    grid takes its first point from the scalar and steps the defining
    first-order equation with an exact integrating factor, so it takes a
    uniform grid only and raises ``ValueError`` on any other.
    """
    a_star = divergence_a_star()
    if a < a_star:
        raise ValueError(f"a = {a} below the admissible threshold a* = {a_star:.6f}")
    xi0 = divergence_psi(a)

    def scalar(t):
        if t <= 0:
            return xi0
        lo = max(0.0, t - 45.0)  # exp(-(t-s)) truncation below 3e-20
        integral = adaptive_simpson(lambda s: math.exp(-(t - s)) / math.sqrt(1.0 + s), lo, t, tol=1e-10)
        return math.exp(-t) * xi0 + a * integral

    def derivative(t):
        t = np.asarray(t, dtype=float)
        return a / np.sqrt(1.0 + t) - _mapped(scalar, t)

    def grid(ts):
        ts = np.asarray(ts, dtype=float)
        if ts.size <= 1:
            return _mapped(scalar, ts)
        dt = ts[1] - ts[0]
        # the recurrence steps by dt: a spacing off it by more than rounding would be stepped wrong
        if np.max(np.abs(np.diff(ts) - dt)) > 1e-6 * abs(dt):
            raise ValueError("the divergence source's grid must be uniform; call its scalar at other points")
        out = np.empty_like(ts)
        out[0] = scalar(float(ts[0]))
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
    vals = grid(ts)
    sup_bound = float(np.max(np.abs(vals)))
    # quasi-static asymptotics: xi_t ~ a / sqrt(t)
    a_const = float(np.max(np.abs(vals[1:]) * np.sqrt(ts[1:]))) * (1.0 + 1e-6)
    return SourceTerm(
        scalar=scalar,
        grid=grid,
        derivative=derivative,
        sup_bound=sup_bound,
        decay=DecayClass.polynomial(rate=0.5, constant=a_const),
        # xi' = a / sqrt(1 + t) - xi with xi > 0
        rise=a,
        label=f"divergence-example(a={a:g})",
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
    Every Phi^(k) comes from one jet of the formula, and a derivative counts
    as nonzero above DERIVATIVE_THRESHOLD max(1, |Phi'|).  A point with no
    such derivative up to the cap is reported degenerate.
    """
    ds = _derivatives(phi.scalar, h.kappa * ell, MAX_CRITICAL_ORDER)
    threshold = DERIVATIVE_THRESHOLD * max(1.0, abs(ds[1]))
    for k in range(2, MAX_CRITICAL_ORDER + 1):
        val = ds[k]
        if abs(val) > threshold:
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


def _classify(phi: FiringFunction, h: MemoryKernel, ell: float, tau0: float) -> Stability:
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
            gp = kappa * phi.derivative(kappa * root, 1) - 1.0
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
        slope = phi.derivative(kappa * r, 1)
        if abs(kappa * slope - 1.0) < CRITICAL_MARGIN:
            warnings.warn(f"possible tangency (double root) at ell = {r:.6g}", TangencyWarning)
        tau0 = h.norm_l1 * abs(slope)
        reports.append(
            FixedPointReport(
                ell=r,
                kappa_ell=kappa * r,
                tau0=tau0,
                stability=_classify(phi, h, r, tau0),
                residual=abs(g(r)),
            )
        )
    return reports
