"""Time-marching solver for the renewal intensity equation and its Erlang ODE cascade.

The marching scheme discretises

    x_n = xi(t_n) + sum_j w_j h(t_n - t_j) lambda_j,      lambda_n = Phi(x_n)

with composite-trapezoid product weights w_j on a uniform grid.  When h(0) != 0
the step equation is implicit in lambda_n and solved by (damped) fixed-point
iteration.  Kernels declaring Erlang structure use an exact O(1)-per-step
convolution recursion; compactly supported kernels a sliding dot product; the
general path a full history dot product.

Every solve runs one loop generated from ``_MARCH_TEMPLATE`` and compiled once
per history shape (Erlang order and quadrature, or the windowed dot product,
whose window covers the whole grid for a kernel without compact support), step
kind (explicit, implicit, damped implicit) and text of Phi's formula.  The
history writes its state and its explicit part into the loop as source
snippets, so a step calls no method and the Erlang components stay in local
variables.  Where ``phi.scalar`` carries a formula (``model._formula``), the
step evaluates it in place with its constants in locals, the operations of the
call in the same order; any other Phi is called.  The source is read once, on
the whole grid, by ``SourceTerm.on_grid``.
``equilibrium_locked_source`` runs the same loop with its own step, the search
for the source value that keeps the discrete equilibrium.  The RK4 cascade runs
one loop from ``_CASCADE_TEMPLATE``, generated per order and text of Phi's
formula in the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    ErlangForm,
    FiringFunction,
    FixedPointReport,
    MemoryKernel,
    SourceTerm,
    formula_code,
    formula_key,
    make_source_equilibrium,
)

TRAPEZOID = "trapezoid"
LEFT_RECTANGLE = "left-rectangle"

#: lambda above this value is treated as numerically divergent
OVERFLOW_THRESHOLD = 1e12
#: tail slope (per unit time) above which a trajectory is flagged divergent
DIVERGENT_SLOPE = 1e-3
#: rows formatted per write by write_csv: enough to spread numpy's cost per call, and a working set
#: of about 2 MB for three columns
_CSV_CHUNK = 4096
#: solve_picard stops when a sweep moves lambda by at most this, and fails after this many sweeps
PICARD_TOL = 1e-13
PICARD_MAX_ITER = 200
#: limit_diagnostic calls a tail converged when it oscillates below OSC_TOL within DIST_TOL of a root
OSC_TOL = 1e-4
DIST_TOL = 1e-2


class NonConvergenceError(Exception):
    """The per-step implicit solve failed to converge."""

    def __init__(self, step: int, t: float, residual: float):
        super().__init__(f"inner iteration failed at step {step} (t={t:.6g}), residual {residual:.3e}")
        self.step = step
        self.t = t
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    """Marching-solver parameters."""

    t_end: float
    dt: float = 1e-3
    quadrature: str = TRAPEZOID
    inner_tol: float = 1e-12
    inner_max_iter: int = 50

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.t_end < self.dt:
            raise ValueError("t_end must be >= dt")
        if self.quadrature not in (TRAPEZOID, LEFT_RECTANGLE):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        if self.inner_tol <= 0:
            raise ValueError(f"inner_tol must be > 0, got {self.inner_tol}")
        if self.inner_max_iter < 1:
            raise ValueError(f"inner_max_iter must be >= 1, got {self.inner_max_iter}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def grid(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass
class Trajectory:
    """Solution samples on a uniform grid; lambda_i = Phi(x_i) by construction."""

    ts: np.ndarray
    lam: np.ndarray
    x: np.ndarray
    divergent: bool = False
    metadata: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return float(self.ts[1] - self.ts[0]) if self.ts.size > 1 else 0.0

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def lam_at(self, t):
        return np.interp(t, self.ts, self.lam)

    def sup_lambda(self) -> float:
        return float(np.max(self.lam))

    def to_csv(self, path) -> None:
        """Write t, lambda, x with 17 significant digits, which read back bit-exactly."""
        write_csv(path, "t,lambda,x", self.ts, self.lam, self.x)


def write_csv(path, header: str, *columns: np.ndarray) -> None:
    """Write the header line, then one row per index of the equal-length columns.

    Every value is written as ``'%.17g' % value``, byte for byte: a float reads
    back bit-exactly, and an int column is written as its float64 values (which
    is what ``'%.17g'`` does with an int).  The rows are formatted with numpy,
    ``_CSV_CHUNK`` at a time.  Why the digits are exact, for 1e-290 <= |x| <= 1e290
    with k = floor(log10|x|) as numpy's log10 gives it:

    * 10**(16-k) is tabulated as ph + pl: ph is it rounded, pl the exact rest
      rounded (Python int arithmetic), so |10**(16-k) - ph - pl| <= 2**-106 10**(16-k).
    * N = |x| 10**(16-k) lies in [1e16, 1e17) when k is right.  Dekker's product
      gives |x| ph = p + e exactly, with p an integer in float64 (p >= 2**53);
      t = e + |x| pl rounds twice, |t| < 32, so N - p - t is below
      2**-105 N + 2**-48 < 2**-46 in all.  The 17 digits are p + floor(t), plus
      one when the fraction t - floor(t) is above .5.
    * A value is undecided when that fraction lies within 2**-40 of .5 (an exact
      tie, such as 2**50 + 0.25, is one), when the integer part of N is below
      1e16 or the digits reach 1e17 (k off by one, or rounding up to the next
      power of ten), or when |x| is subnormal or outside the range above.  An
      undecided value, and only such a value, is formatted by Python's
      ``'%.17g'``; zeros, -0, nan and +-inf are written from a table.

    The digits are laid out in the ``%g`` form of their k: fixed with the point
    after digit k for -4 <= k < 17, else one digit, the point and an exponent of
    at least two digits.  Trailing zeros after the point, and the point with
    them, are dropped by a validity mask over fixed-width slots.
    """
    tab = _csv_tables()
    size = len(columns[0])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, size, _CSV_CHUNK):
            rows = np.empty((min(_CSV_CHUNK, size - start), _SLOT * len(columns)), dtype=np.uint8)
            keep = np.empty(rows.shape, dtype=bool)
            rows[:, _SIGN::_SLOT] = ord("-")
            for j, char in enumerate(b"0.000"):
                rows[:, _PRE + j :: _SLOT] = char
            rows[:, _POINT::_SLOT] = ord(".")
            rows[:, _SEP::_SLOT] = ord(",")
            rows[:, -1] = ord("\n")
            keep[:, _SEP::_SLOT] = True
            for j, col in enumerate(columns):
                slots = slice(j * _SLOT, (j + 1) * _SLOT)
                x = np.asarray(col[start : start + _CSV_CHUNK], dtype=np.float64)
                _format_column(x, rows[:, slots], keep[:, slots], tab)
            fh.write(rows[keep].tobytes())


# ---------------------------------------------------------------------------
# '%.17g' in bulk: the tables and one column of a chunk
# ---------------------------------------------------------------------------

#: the decimal exponents k of the table of 10**(16-k), and the |x| the numpy path takes
_K_MIN, _K_MAX = -291, 290
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
#: Veltkamp's splitting factor for float64, 2**27 + 1
_SPLIT = 134217729.0
#: a fraction of N closer than this to .5 is undecided (its error is below 2**-46, see write_csv)
_TIE_BOUND = 2.0**-40
#: byte offsets in the slot of one value: sign, the prefix "0.000" (its first 1 - k bytes for fixed k < 0),
#: the digits A before the point, the point, the digits B after it, the exponent suffix and the separator
_SIGN, _PRE, _A, _POINT, _B, _SUF, _SEP = 0, 1, 6, 23, 24, 41, 46
_SLOT = 47
#: the strings written from a table: 0, -0, nan, inf, -inf
_SPECIALS = (b"0", b"-0", b"nan", b"inf", b"-inf")


class _CsvTables(NamedTuple):
    pow10: np.ndarray  # (4, K): ph, pl and Veltkamp's halves of ph, per k
    form: np.ndarray  # (K,): 18 times the form of k: 0-20 fixed (k = -4..16), 21-22 exponent (2 or 3 digits)
    before: np.ndarray  # (K,): digits before the point: k + 1 (fixed, k >= 0), 0 (fixed, k < 0), 1 (exponent)
    suffix: np.ndarray  # (K, 5): "e+dd" or "e-ddd" for the exponent form
    valid: np.ndarray  # (23 * 18, _SEP): the bytes kept per form and count of digits written
    lut4: np.ndarray  # (10000,) uint32: the four ASCII digits of g in memory order
    sig4: np.ndarray  # (10000,): the digits of g up to its last nonzero one, -17 for g = 0
    specials: np.ndarray  # (5, _SEP): the slots of _SPECIALS
    specials_valid: np.ndarray  # (5, _SEP): the bytes kept of each


@functools.lru_cache(maxsize=None)
def _csv_tables() -> _CsvTables:
    """The tables of ``write_csv``, built on its first call."""
    ks = list(range(_K_MIN, _K_MAX + 1))
    pow10 = []
    for k in ks:
        # 10**(16-k) = num / den; hi and lo = the exact rest, each rounded once by int true division
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        # split hi into 26-bit halves at a scale where m * _SPLIT cannot overflow
        m, e = math.frexp(hi)
        c = m * _SPLIT
        mh = c - (c - m)
        pow10.append((hi, lo, math.ldexp(mh, e), math.ldexp(m - mh, e)))
    # forms 0-20: fixed, k = -4..16; 21 and 22: exponent of two and of three digits
    forms = [(k + 1, 0, 0) if k >= 0 else (0, 1 - k, 0) for k in range(-4, 17)] + [(1, 0, 4), (1, 0, 5)]
    valid = np.zeros((len(forms), 18, _SEP), dtype=bool)
    for f, (before, n_pre, n_suf) in enumerate(forms):
        valid[f, :, _PRE : _PRE + n_pre] = True
        valid[f, :, _A : _A + before] = True
        valid[f, :, _SUF : _SUF + n_suf] = True
        for n_dig in range(before, 18):
            valid[f, n_dig, _POINT] = 0 < before < n_dig
            valid[f, n_dig, _B + before : _B + n_dig] = True
    form = [k + 4 if -4 <= k < 17 else 21 + (abs(k) >= 100) for k in ks]
    suffix = np.zeros((len(ks), 5), dtype=np.uint8)
    for j, k in enumerate(ks):
        if not -4 <= k < 17:
            text = b"e%+03d" % k
            suffix[j, : len(text)] = list(text)
    g = np.arange(10000)
    lut4 = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    trailing = (g % 10 == 0).astype(np.intp) + (g % 100 == 0) + (g % 1000 == 0)
    specials = np.zeros((len(_SPECIALS), _SEP), dtype=np.uint8)
    for j, text in enumerate(_SPECIALS):
        specials[j, : len(text)] = list(text)
    return _CsvTables(
        pow10=np.array(pow10).T.copy(),
        form=18 * np.array(form),
        before=np.array([forms[f][0] for f in form]),
        suffix=suffix,
        valid=valid.reshape(-1, _SEP),
        lut4=lut4.astype(np.uint8).view(np.uint32).ravel(),
        sig4=np.where(g == 0, -17, 4 - trailing),
        specials=specials,
        specials_valid=specials != 0,
    )


def _decimal_digits(x: np.ndarray, tab: _CsvTables) -> tuple:
    """(k - _K_MIN, the 17 significant digits of |x| as an int64, whether they are decided), per value.

    Undecided values get the digits 1e16; ``write_csv`` gives the bound.
    """
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    i = np.floor(np.log10(a)).astype(np.intp) - _K_MIN
    ph, pl, phh, phl = tab.pow10.take(i, axis=1)
    # Dekker: a ph = p + e exactly; then N = a 10**(16-k) = p + t, t = e + a pl
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    p = a * ph
    t = (((ah * phh - p) + ah * phl + al * phh) + al * phl) + a * pl
    floor = np.floor(t)
    frac = t - floor
    whole = p.astype(np.int64) + floor.astype(np.int64)
    digits = whole + (frac > 0.5)
    decided = fast & (np.abs(frac - 0.5) > _TIE_BOUND) & (whole >= 10**16) & (digits < 10**17)
    digits[~decided] = 10**16
    return i, digits, decided


def _format_column(x: np.ndarray, out: np.ndarray, keep: np.ndarray, tab: _CsvTables) -> None:
    """Write ``'%.17g'`` of each value of x into its slot (a row of out), and mark the bytes kept.

    The sign, the prefix and the point are in place already; a slot holds the
    digits twice, as A before the point and as B after it, and ``keep`` picks
    each digit from one of them.  Only a chunk with a value in the exponent form
    writes suffixes.
    """
    i, digits, decided = _decimal_digits(x, tab)
    head = digits // 100000000
    low = (digits - head * 100000000).astype(np.uint32)
    head = head.astype(np.uint32)
    # five groups of digits: one, then four of four
    groups = np.empty((5, x.size), dtype=np.uint32)
    np.floor_divide(head, 100000000, out=groups[0])
    mid = head - groups[0] * 100000000
    np.floor_divide(mid, 10000, out=groups[1])
    np.subtract(mid, groups[1] * 10000, out=groups[2])
    np.floor_divide(low, 10000, out=groups[3])
    np.subtract(low, groups[3] * 10000, out=groups[4])
    text = tab.lut4.take(groups.T).view(np.uint8)[:, 3:]
    sig = tab.sig4.take(groups[1:])
    n_dig = np.maximum(np.maximum(sig[0] + 1, sig[1] + 5), np.maximum(sig[2] + 9, sig[3] + 13))
    # the integer digits of the fixed form stay, zeros or not
    n_dig = np.maximum(np.maximum(n_dig, 1), tab.before.take(i))
    out[:, _A:_POINT] = text
    out[:, _B:_SUF] = text
    if i.min() < -4 - _K_MIN or i.max() > 16 - _K_MIN:
        out[:, _SUF:_SEP] = tab.suffix.take(i, axis=0)
    keep[:, :_SEP] = tab.valid.take(tab.form.take(i) + n_dig, axis=0)
    keep[:, _SIGN] = np.signbit(x)
    if decided.all():
        return
    special = ~decided & ((x == 0) | ~np.isfinite(x))
    code = np.where(np.isnan(x), 2, np.where(np.isinf(x), 3, 0) + np.signbit(x))[special]
    out[special, :_SEP] = tab.specials[code]
    keep[special, :_SEP] = tab.specials_valid[code]
    for r in np.flatnonzero(~decided & ~special).tolist():
        value = b"%.17g" % float(x[r])
        out[r, : len(value)] = list(value)
        keep[r, :_SEP] = np.arange(_SEP) < len(value)


def read_trajectory_csv(path) -> Trajectory:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if "t" not in header or "lambda" not in header:
            raise ValueError(f"{path}: expected columns t,lambda[,x], found {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    x = cols.get("x", np.zeros_like(cols["t"]))
    return Trajectory(ts=cols["t"], lam=cols["lambda"], x=x)


# ---------------------------------------------------------------------------
# the marching loop, generated per history and step kind
# ---------------------------------------------------------------------------

#: One marching loop.  Step 0 has no history: pre = beta = 0.0.  A history
#: fills ``load`` (its constants into locals), ``start`` (its state once
#: lambda_0 = ln is known), ``pre`` (the explicit part of step n) and
#: ``commit`` (fold lambda_n = ln into the state).  A step kind fills ``args``,
#: ``setup``, ``step0`` and ``step``: a step solves step n for ln, or ends the
#: march early with ``return n, inner_total, inner_max``.
_MARCH_TEMPLATE = """\
def march(hist, ts, {args}):
    {load}
    {setup}
    inner_total = inner_max = 0
    n = 0
    pre = beta = 0.0
    {step0}
    {start}
    beta = hist.beta
    for n in range(1, len(ts)):
        {pre}
        {step}
        {commit}
    return len(ts), inner_total, inner_max
"""

_SOLVE_ARGS = "xi_vals, lam_out, x_out, phi_s, tol, max_iter"
_SOLVE_SETUP = "isfinite, over = math.isfinite, OVERFLOW_THRESHOLD"
# the overflow/NaN cut, then the stores through the memoryviews
_STORE = """
if not isfinite(ln) or ln > over or abs(xn) > over:
    return n, inner_total, inner_max
lam_out[n] = ln
x_out[n] = xn"""
_EXPLICIT = """\
xn = xi_vals[n] + pre
ln = {phi_xn}""" + _STORE
# fixed-point iteration on lambda_n from lambda_{n-1}, still in ln
_IMPLICIT = """\
base = xi_vals[n] + pre
lam_c = ln
for it in range(max_iter):
    xc = base + beta * lam_c
    nxt = {phi_xc}
    # tol * max(1.0, |nxt|), without the call
    mag = abs(nxt)
    if abs(nxt - lam_c) <= tol * (mag if mag > 1.0 else 1.0):
        lam_c = nxt
        break
    # a NaN Phi cuts the march, as the explicit step's store does
    if nxt != nxt:
        return n, inner_total, inner_max
    lam_c = {update}
else:
    raise NonConvergenceError(n, float(ts[n]), abs(phi_s(base + beta * lam_c) - lam_c))
inner_total += it + 1
if it >= inner_max:
    inner_max = it + 1
xn = base + beta * lam_c
ln = {phi_xn}""" + _STORE
# the source value whose rounded sums hit target_x, searched at the rounding
# granularity of the dominant term so that the sweep actually moves the sums
_LOCK = """\
w = beta * lam_star
cand0 = (target_x - w) - pre
step = ulp(max(abs(target_x), abs(pre), abs(w), abs(cand0), 1e-300))
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
    return n, inner_total, inner_max
xi_out[n] = cand"""

#: step kind -> (args, setup, step 0, step n, inner update); step 0 is explicit in every solve
_STEPS = {
    "explicit": (_SOLVE_ARGS, _SOLVE_SETUP, _EXPLICIT, _EXPLICIT, ""),
    "implicit": (_SOLVE_ARGS, _SOLVE_SETUP, _EXPLICIT, _IMPLICIT, "nxt"),
    "damped": (_SOLVE_ARGS, _SOLVE_SETUP, _EXPLICIT, _IMPLICIT, "0.5 * (lam_c + nxt)"),
    "locked": ("xi_out, lam_star, target_x", "ulp = math.ulp\n# every step commits lambda*\nln = lam_star", _LOCK, _LOCK, ""),
}


@functools.lru_cache(maxsize=None)
def _march(history: type, shape: tuple, step: str, phi: Optional[tuple]) -> Callable:
    """The loop of ``_MARCH_TEMPLATE`` for one history shape, one step kind and the ``formula_key`` of Phi.

    A step writes in Phi's formula at x = xn and x = xc, with its constants
    loaded once, or calls ``phi_s`` where Phi has no formula.  The compiled
    code depends on the formula's text only, not on its constants.
    """

    def block(lines, indent: int) -> str:
        return ("\n" + " " * indent).join("\n".join(lines).split("\n"))

    snippets = history.snippets(*shape)
    args, setup, step0, step_n, update = _STEPS[step]
    load, phi_xn = formula_code(phi, "phi_s", "xn")
    fill = {"update": update, "phi_xn": phi_xn, "phi_xc": formula_code(phi, "phi_s", "xc")[1]}
    src = _MARCH_TEMPLATE.format(
        args=args,
        load=block(snippets["load"], 4),
        setup=block([setup, *load], 4),
        step0=block([step0.format(**fill)], 4),
        start=block(snippets["start"], 4),
        pre=block(snippets["pre"], 8),
        step=block([step_n.format(**fill)], 8),
        commit=block(snippets["commit"], 8),
    )
    namespace: dict = {}
    exec(src, globals(), namespace)
    return namespace["march"]


class _ErlangHistory:
    """Exact O(order^2)-per-step recursion for h = scale * alpha^{k+1} t^k e^{-alpha t}/k!.

    The components T0..Tk sit in locals of the loop.  A step decays component
    k to 0.0 + q_k T_0 + q_{k-1} T_1 + ... + q_0 T_k, with q_m = e^{-a} a^m / m!
    (a = alpha dt), summed left to right from 0.0 as builtin ``sum`` does up to
    Python 3.11 (it is compensated from 3.12 on, which would change the bits).
    The explicit part is scale T_k, less under the trapezoid rule the end
    correction of lambda_0's weight at t_n; committing lambda_n adds
    alpha dt lambda_n to T_0.  Written out, a step runs no Python loop.
    """

    def __init__(self, form: ErlangForm, cfg: SolverConfig):
        k = form.order
        ad = form.alpha * cfg.dt
        decay = math.exp(-ad)
        self.q = [decay * ad**m / math.factorial(m) for m in range(k + 1)]
        self.scale = form.scale
        self.dt = cfg.dt
        self.dt_alpha = cfg.dt * form.alpha
        self.neg_alpha = -form.alpha
        self.half_dt = 0.5 * cfg.dt
        self.hcoeff = form.scale * form.alpha ** (k + 1) / math.factorial(k)
        h0 = form.scale * form.alpha if k == 0 else 0.0
        trapezoid = cfg.quadrature == TRAPEZOID
        self.beta = 0.5 * cfg.dt * h0 if trapezoid else 0.0
        self.shape = (k, trapezoid)

    @staticmethod
    def snippets(order: int, trapezoid: bool) -> dict:
        comps = ", ".join(f"T{i}" for i in range(order + 1))
        decayed = ", ".join("0.0 + " + " + ".join(f"q{k - i} * T{i}" for i in range(k + 1)) for k in range(order + 1))
        pre = [f"{comps} = {decayed}", f"pre = scale * T{order}"]
        if trapezoid:
            # end correction of the trapezoid weight of lambda_0 at t_n; dt * n has the bits of cfg.grid()[n]
            pre += ["t = dt * n", f"pre -= half_dt * (hcoeff * exp(neg_alpha * t) * t**{order}) * lam0"]
        return {
            "load": [
                f"{', '.join(f'q{m}' for m in range(order + 1))}, = hist.q",
                "scale, dt, dt_alpha, neg_alpha = hist.scale, hist.dt, hist.dt_alpha, hist.neg_alpha",
                "half_dt, hcoeff, exp = hist.half_dt, hist.hcoeff, math.exp",
            ],
            "start": ["lam0 = ln", f"{comps} = {', '.join(['0.0'] * (order + 1))}", "T0 += dt_alpha * ln"],
            "pre": pre,
            "commit": ["T0 += dt_alpha * ln"],
        }


class _DotHistory:
    """Direct product-quadrature history via dot products over the past values stored in ``lam``.

    A compact kernel reads only the ``window`` steps its support covers; any
    other kernel's window is the whole grid, so one loop serves both.
    """

    #: one loop for every dot history: the window is data, not a shape
    shape = ()

    def __init__(self, h: MemoryKernel, cfg: SolverConfig, ts: np.ndarray, lam: np.ndarray, window: int):
        self.dt = cfg.dt
        trapezoid = cfg.quadrature == TRAPEZOID
        self.lam = lam
        hg = np.ascontiguousarray(h.evaluator(ts), dtype=float)
        self.hrev = hg[::-1].copy()
        self.hg = memoryview(hg)  # items are Python floats
        self.N = ts.size - 1
        self.window = window
        self.beta = 0.5 * cfg.dt * self.hg[0] if trapezoid else 0.0
        self.w0 = (0.5 * self.dt) if trapezoid else self.dt

    @staticmethod
    def snippets() -> dict:
        return {
            "load": ["lam, hrev, hg, N, window = hist.lam, hist.hrev, hist.hg, hist.N, hist.window",
                     "dt, w0, dot = hist.dt, hist.w0, np.dot"],
            "start": ["lam0 = ln"],
            # past the window, lambda_0 and its end weight have left it
            "pre": [
                "if n > window:",
                "    pre = dt * float(dot(lam[n - window : n], hrev[N - window : N]))",
                "else:",
                "    pre = dt * float(dot(lam[1:n], hrev[N - n + 1 : N]))",
                "    pre += w0 * hg[n] * lam0",
            ],
            "commit": [],
        }


def _make_history(h: MemoryKernel, cfg: SolverConfig, ts: np.ndarray, lam: np.ndarray):
    if h.structure is not None:
        return _ErlangHistory(h.structure, cfg)
    # the steps a compact support covers; any other kernel reaches back over the whole grid
    window = int(math.ceil(h.decay.horizon / cfg.dt)) + 1 if h.decay.kind == "compact" else ts.size
    return _DotHistory(h, cfg, ts, lam, window)


# ---------------------------------------------------------------------------
# the marching solver
# ---------------------------------------------------------------------------


def solve_nre(phi: FiringFunction, h: MemoryKernel, xi: SourceTerm, cfg: SolverConfig) -> Trajectory:
    """Solve lambda_t = Phi(xi_t + int_0^t h(t-s) lambda_s ds) on [0, t_end].

    Returns the unique locally bounded solution up to O(dt^2) discretisation
    error for the trapezoid rule.  If lambda exceeds the overflow threshold the
    partial trajectory is returned with the divergent flag set.
    """
    ts = cfg.grid()
    n_pts = ts.size
    xi_grid = xi.on_grid(ts)
    if xi_grid.shape != ts.shape:
        raise ValueError("source term grid evaluation has wrong shape")
    lam = np.zeros(n_pts)
    xarr = np.zeros(n_pts)
    hist = _make_history(h, cfg, ts, lam)
    if hist.beta == 0.0:
        step = "explicit"
    else:
        step = "damped" if abs(hist.beta) * phi.lip >= 1.0 else "implicit"
    # memoryviews read and write Python floats: the loop makes no numpy scalar
    cut, inner_total, inner_max = _march(type(hist), hist.shape, step, formula_key(phi.scalar))(
        hist, ts, memoryview(np.ascontiguousarray(xi_grid, dtype=float)), memoryview(lam), memoryview(xarr),
        phi.scalar, cfg.inner_tol, cfg.inner_max_iter,
    )
    divergent = cut < n_pts

    meta = {
        "method": f"marching-{cfg.quadrature}",
        "dt": cfg.dt,
        "inner_tol": cfg.inner_tol,
        "inner_iterations_total": inner_total,
        "inner_iterations_max": inner_max,
        "history": type(hist).__name__.strip("_"),
        "phi": phi.label,
        "kernel": h.label,
        "source": xi.label,
    }
    if divergent:
        meta["divergent_at"] = float(ts[cut - 1]) if cut > 0 else 0.0
    return Trajectory(ts=ts[:cut], lam=lam[:cut], x=xarr[:cut], divergent=divergent, metadata=meta)


def solve_picard(phi: FiringFunction, h: MemoryKernel, xi: SourceTerm, cfg: SolverConfig) -> Trajectory:
    """Global Picard iteration on the whole grid, the reference for the marching of ``solve_nre``.

    Sweeps lambda <- Phi(xi + h * lambda) with the config's quadrature until a
    sweep moves lambda by at most PICARD_TOL, or raises NonConvergenceError
    after PICARD_MAX_ITER sweeps.
    """
    ts = cfg.grid()
    n_pts = ts.size
    xi_vals = xi.on_grid(ts)
    hg = np.asarray(h.evaluator(ts), dtype=float)
    dt = cfg.dt

    def conv_sum(lam):
        conv = np.convolve(hg, lam)[:n_pts]
        if cfg.quadrature == TRAPEZOID:
            return dt * conv - 0.5 * dt * (hg * lam[0] + hg[0] * lam)
        return dt * conv - dt * hg[0] * lam

    lam = np.asarray(phi.evaluator(xi_vals), dtype=float)
    for it in range(PICARD_MAX_ITER):
        new = np.asarray(phi.evaluator(xi_vals + conv_sum(lam)), dtype=float)
        delta = float(np.max(np.abs(new - lam)))
        lam = new
        if delta <= PICARD_TOL:
            break
    else:
        raise NonConvergenceError(n_pts - 1, float(ts[-1]), delta)
    x = xi_vals + conv_sum(lam)
    lam = np.asarray(phi.evaluator(x), dtype=float)
    return Trajectory(
        ts=ts,
        lam=lam,
        x=x,
        metadata={"method": f"picard-{cfg.quadrature}", "dt": dt, "iterations": it + 1, "inner_tol": PICARD_TOL},
    )


# ---------------------------------------------------------------------------
# grid-locked equilibrium source
# ---------------------------------------------------------------------------


def _even_mantissa(x: float) -> float:
    import struct

    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    if bits & 1:
        return math.nextafter(x, 0.0)
    return x


def equilibrium_locked_source(phi: FiringFunction, h: MemoryKernel, ell: float, cfg: SolverConfig) -> SourceTerm:
    """Equilibrium source evaluated through the solver's own quadrature.

    The analytic equilibrium source keeps the exact equation constant, but the
    marching scheme sees it only up to quadrature error, which near an unstable
    fixed point is amplified exponentially.  This constructor precomputes
    xi(t_n) so that the discrete step map reproduces the constant value
    Phi(kappa ell) bit-exactly: the discrete scheme then preserves its own
    equilibrium for any horizon.  Off the solver grid the analytic tail is used.

    Raises RuntimeError, naming the step n, t_n and the quadrature, when no
    value within 64 rounding steps of the exact one makes the rounded sums hit
    the target.  Known case: the bistable sigmoid Phi(0.5, 1, 8, 1) with the
    order-0 Erlang kernel of rate 3 under the trapezoid rule, at the centre
    root ell = 1 with dt = 1e-3 and at the upper root ell ~ 1.4788 with
    dt = 5e-4.  On t <= 50 every other pairing of the three roots with
    dt in {1e-3, 5e-4}, either quadrature and kernel orders 0, 1 and 3 locks.
    """
    ts = cfg.grid()
    n_pts = ts.size
    phi_s = phi.scalar

    # An even-mantissa target is reachable by round-to-nearest-even from every
    # summation lattice; an odd-mantissa one is skipped when the partial sums
    # land exactly on rounding ties.
    target_x = _even_mantissa(float(h.kappa) * float(ell))
    lam_star = phi_s(target_x)
    # a history reads lambda only before the step it builds, so the constant path can be stored up front
    lam = np.full(n_pts, lam_star)
    hist = _make_history(h, cfg, ts, lam)
    xi_vals = np.empty(n_pts)
    cut = _march(type(hist), hist.shape, "locked", None)(hist, ts, memoryview(xi_vals), lam_star, target_x)[0]
    if cut < n_pts:
        raise RuntimeError(
            f"failed to lock the equilibrium source of ell = {ell!r} on the grid at step {cut} "
            f"(t_n = {ts[cut]:.17g}, {cfg.quadrature} quadrature)"
        )

    analytic = make_source_equilibrium(h, ell)

    def grid_evaluator(req_ts):
        req_ts = np.asarray(req_ts, dtype=float)
        if req_ts.shape == ts.shape and np.array_equal(req_ts, ts):
            return xi_vals.copy()
        return analytic.on_grid(req_ts)

    return replace(
        analytic,
        grid_evaluator=grid_evaluator,
        label=f"locked-{analytic.label}",
    )


# ---------------------------------------------------------------------------
# Erlang cascade
# ---------------------------------------------------------------------------


#: One RK4 loop of the cascade.  A grid point stores x_0 and, unless a
#: component is past the overflow threshold or NaN, lambda = Phi(x_0), which is
#: also the top derivative of the step's first stage.
_CASCADE_TEMPLATE = """\
def cascade(phi_s, a, dt, y, x0_out, lam_out):
    {load}
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    over = OVERFLOW_THRESHOLD
    {states}, = y
    last = len(x0_out) - 1
    for i in range(last + 1):
        x0_out[i] = y0
        if not ({guard}):
            return i
        lam = {phi_y0}
        lam_out[i] = lam
        if i == last:
            break
        {step}
    return last + 1
"""


@functools.lru_cache(maxsize=None)
def _cascade(order: int, phi: Optional[tuple]) -> Callable:
    """The loop of ``_CASCADE_TEMPLATE`` for one order and the ``formula_key`` of Phi, written out.

    ``cascade(phi_s, a, dt, y, x0_out, lam_out)`` steps the states x_0..x_order
    from the list y and returns the number of grid points stored.  The
    derivative of x_j is a (x_{j+1} - x_j) for j < order and a (Phi(x_0) -
    x_order) on top; the stage states are y + (0.5 dt) k and y + dt k, and the
    update is y + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4), component by component.
    The states stay in locals, and Phi's formula is written in where it has
    one, so a step runs no Python loop and makes no call.
    """
    ys = [f"y{j}" for j in range(order + 1)]
    ss = [f"s{j}" for j in range(order + 1)]
    load, phi_y0 = formula_code(phi, "phi_s", "y0")
    phi_s0 = formula_code(phi, "phi_s", "s0")[1]

    def deriv(k: str, xs: list, top: str) -> list:
        return [f"{k}_{j} = a * ({xs[j + 1]} - {xs[j]})" for j in range(order)] + [f"{k}_{order} = a * ({top} - {xs[order]})"]

    step = deriv("k1", ys, "lam")
    for prev, k, w in (("k1", "k2", "half_dt"), ("k2", "k3", "half_dt"), ("k3", "k4", "dt")):
        step += [f"s{j} = y{j} + {w} * {prev}_{j}" for j in range(order + 1)] + deriv(k, ss, phi_s0)
    step.append(", ".join(ys) + " = " + ", ".join(
        f"y{j} + sixth_dt * (((k1_{j} + 2.0 * k2_{j}) + 2.0 * k3_{j}) + k4_{j})" for j in range(order + 1)))
    src = _CASCADE_TEMPLATE.format(
        load="\n    ".join(load),
        states=", ".join(ys),
        # false for an infinite or NaN component too
        guard=" and ".join(f"abs({v}) <= over" for v in ys),
        phi_y0=phi_y0,
        step="\n        ".join(step),
    )
    namespace: dict = {}
    exec(src, globals(), namespace)
    return namespace["cascade"]


def solve_erlang_cascade(phi: FiringFunction, n: int, alpha: float, c: Sequence[float], cfg: SolverConfig) -> Trajectory:
    """Integrate the autonomous ODE cascade equivalent to the Erlang-kernel equation.

    States x_0..x_n follow x_k' = -alpha(x_k - x_{k+1}) for k < n and
    x_n' = -alpha x_n + alpha Phi(x_0), from initial condition c; classical
    fourth-order Runge-Kutta at step dt, on Python floats.  The implied source
    term is the Erlang-polynomial source with coefficients c.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    c = np.asarray(c, dtype=float)
    if c.size != n + 1:
        raise ValueError(f"need {n + 1} initial values, got {c.size}")
    ts = cfg.grid()
    x0_path = np.empty(ts.size)
    lam = np.empty(ts.size)
    cut = _cascade(n, formula_key(phi.scalar))(phi.scalar, alpha, cfg.dt, c.tolist(), memoryview(x0_path), memoryview(lam))
    meta = {
        "method": "erlang-cascade-rk4",
        "dt": cfg.dt,
        "order": n,
        "alpha": alpha,
        "initial": c.tolist(),
        "inner_tol": cfg.inner_tol,
    }
    return Trajectory(ts=ts[:cut], lam=lam[:cut], x=x0_path[:cut], divergent=cut < ts.size, metadata=meta)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

ALL_NONNEG = "all-nonneg"
ALL_NONPOS = "all-nonpos"
MIXED = "mixed"


@dataclass(frozen=True)
class RhoReport:
    """Sign profile of rho(t) = xi'(t) + h(t) Phi(xi(0)) on a grid."""

    summary: str
    strict_delta: float  # length of the strict-sign window (0, delta); 0 if none


def compute_rho(h: MemoryKernel, xi: SourceTerm, phi: FiringFunction, grid) -> RhoReport:
    grid = np.asarray(grid, dtype=float)
    phi0 = phi.scalar(float(xi.evaluator(0.0)))
    values = np.asarray(xi.derivative(grid), dtype=float) + np.asarray(h.evaluator(grid), dtype=float) * phi0
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    tol = 1e-12 * scale
    if np.all(values >= -tol):
        summary = ALL_NONNEG
        sgn = 1.0
    elif np.all(values <= tol):
        summary = ALL_NONPOS
        sgn = -1.0
    else:
        return RhoReport(summary=MIXED, strict_delta=0.0)
    inner = np.where((grid > 0) & (sgn * values > tol))[0]
    delta = 0.0
    if inner.size:
        # longest strict run starting at the first positive grid point
        first_inner = np.where(grid > 0)[0][0]
        if inner[0] == first_inner:
            stop = inner[np.concatenate([np.diff(inner) > 1, [True]])][0]
            delta = float(grid[stop])
    return RhoReport(summary=summary, strict_delta=delta)


NON_DECREASING = "nondecreasing"
NON_INCREASING = "nonincreasing"


def check_monotone(traj: Trajectory, direction: str, tol: float) -> bool:
    """Whether lambda is monotone along the grid within a -tol slack."""
    diffs = np.diff(traj.lam)
    if direction == NON_DECREASING:
        return not np.any(diffs < -tol)
    if direction == NON_INCREASING:
        return not np.any(diffs > tol)
    raise ValueError(f"unknown direction {direction!r}")


def compare_solutions(traj1: Trajectory, traj2: Trajectory, tol: float) -> bool:
    """Whether lambda_1 <= lambda_2 + tol pointwise on a common grid."""
    if traj1.ts.shape != traj2.ts.shape or not np.allclose(traj1.ts, traj2.ts):
        raise ValueError("trajectories must share the same grid")
    return not float(np.max(traj1.lam - traj2.lam)) > tol


CONVERGED = "converged"
DIVERGENT = "divergent"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class LimitDiagnostic:
    kind: str
    ell: Optional[float] = None
    residual: Optional[float] = None
    tail_oscillation: float = math.nan
    tail_slope: float = math.nan


def limit_diagnostic(traj: Trajectory, reports: Sequence[FixedPointReport], window: float) -> LimitDiagnostic:
    """Classify the tail of a trajectory against known fixed points.

    Converged verdicts need tail oscillation below OSC_TOL and distance to a
    fixed point below DIST_TOL; divergence needs the overflow flag or a
    persistently rising tail above every fixed point.  Anything else stays
    undecided.
    """
    if traj.divergent:
        return LimitDiagnostic(kind=DIVERGENT)
    if window >= traj.t_end:
        raise ValueError("window must be smaller than the trajectory horizon")
    mask = traj.ts >= traj.t_end - window
    tail = traj.lam[mask]
    tts = traj.ts[mask]
    osc = float(np.max(tail) - np.min(tail))
    mean = float(np.mean(tail))
    slope = float(np.polyfit(tts, tail, 1)[0]) if tail.size > 2 else math.nan
    ells = np.array([r.ell for r in reports]) if reports else np.array([])
    if ells.size and osc < OSC_TOL:
        idx = int(np.argmin(np.abs(ells - mean)))
        if abs(ells[idx] - mean) < DIST_TOL:
            return LimitDiagnostic(
                kind=CONVERGED, ell=float(ells[idx]), residual=abs(ells[idx] - mean), tail_oscillation=osc, tail_slope=slope
            )
    above_all = not ells.size or mean > float(np.max(ells)) + DIST_TOL
    if slope > DIVERGENT_SLOPE and above_all:
        return LimitDiagnostic(kind=DIVERGENT, tail_oscillation=osc, tail_slope=slope)
    return LimitDiagnostic(kind=UNDECIDED, tail_oscillation=osc, tail_slope=slope)


def entry_time(traj: Trajectory, ell: float, eps0: float) -> float:
    """Last entry time into the eps0-ball around ell that is never exited afterwards."""
    outside = np.abs(traj.lam - ell) >= eps0
    idx = np.where(outside)[0]
    if idx.size == 0:
        return 0.0
    last = idx[-1]
    if last + 1 >= traj.ts.size:
        return math.inf
    return float(traj.ts[last + 1])
