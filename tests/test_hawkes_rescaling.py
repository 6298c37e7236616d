"""Exactness of thinning by the time-rescaling theorem, with no code of the simulator.

The particles of ``simulate_hawkes`` superpose to one point process of
intensity N Phi(xi_N(t) + Y_t), Y_t = (1/N) sum_{events e < t} h(t - e).  Its
compensator Lambda(t) = N int_0^t Phi(xi_N + Y) ds turns the gaps between
consecutive events into iid Exp(1) (Ogata 1988; Brown, Barbieri, Ventura, Kass
and Frank 2002).  For affine Phi(x) = mu + x (x >= 0 here), an Erlang kernel
h(u) = m alpha^(n+1) u^n e^{-alpha u} / n! of mass m and an
Erlang-polynomial source xi_t = sum_{k <= n} q_k E'_k(alpha t), with
E'_k(a) = e^{-a} a^k / k!, Lambda is closed-form:

    Lambda(t) = N mu t + N sum_{k <= n} q_k (1 - E_k(alpha t)) / alpha + m sum_{e < t} (1 - E_n(alpha (t - e)))

with E_k(a) = e^{-a} sum_{j <= k} a^j / j!, whose derivative is -E'_k (at
k = n, the kernel's tail over its mass).  The equilibrium source of level ell
has q_k = ell m for every k, and the empty source q_k = 0.  The sum over past
events is carried by the moments M_k = sum_e E'_k(alpha (t - e)), which a gap
of alpha-length a maps to e^{-a} sum_{j <= k} M_j a^(k-j) / (k-j)!.

The rescaled gaps of each case, pooled over its replicas, are tested against
Exp(1) by Kolmogorov-Smirnov at the 0.1% level.  Seeds, replica counts and the
level were fixed before any result was seen.
"""

import math

import numpy as np
import pytest

from renewal_lab import model
from renewal_lab.hawkes import HawkesConfig, simulate_hawkes
from renewal_lab.special import kolmogorov_critical, ks_statistic

#: name -> (mu, kernel (order n, rate alpha, mass m), source, config); the source is an equilibrium level ell
#: (0: empty source) or the coefficients q_0..q_n of an Erlang-polynomial source on the kernel's (n, alpha)
CASES = {
    "exp_empty": (1.0, (0, 1.0, 0.5), 0.0, dict(n_particles=200, t_end=20.0, seed=301, replicas=10)),
    "exp_equilibrium": (1.0, (0, 1.0, 0.5), 2.0, dict(n_particles=200, t_end=20.0, seed=302, replicas=10)),
    # mass 1 with slope 1 is critical: the equilibrium level is neutral, the empty start grows
    "erlang2_equilibrium": (0.0, (2, 3.0, 1.0), 1.5, dict(n_particles=200, t_end=10.0, seed=303, replicas=6)),
    "erlang2_empty": (0.5, (2, 3.0, 1.0), 0.0, dict(n_particles=100, t_end=8.0, seed=304, replicas=6)),
    # two particles at margin 1.05: hundreds of reschedules per replica
    "reschedule_heavy": (1.0, (0, 1.0, 0.5), 0.0, dict(n_particles=2, t_end=400.0, seed=305, replicas=8,
                                                      thinning_margin=1.05)),
    # unequal coefficients (criterion 6's lower-order source), and one with xi(0) = q_0 = 0, which rises first
    "erlang2_poly": (0.5, (2, 3.0, 1.0), (1.4, 1.4, 0.0), dict(n_particles=100, t_end=8.0, seed=306, replicas=6)),
    "erlang2_poly_rising": (0.5, (2, 3.0, 1.0), (0.0, 1.4, 1.4), dict(n_particles=100, t_end=8.0, seed=307,
                                                                     replicas=6)),
}


def _system(mu, kernel, source):
    n, alpha, m = kernel
    h = model.make_erlang_kernel(n, alpha) if n else model.make_scaled_exponential_kernel(m * alpha, alpha)
    if isinstance(source, tuple):
        xi = model.make_source_erlang_polynomial(n, alpha, source)
    else:
        xi = model.make_source_equilibrium(h, source) if source else model.make_source_empty()
    return model.make_affine_phi(mu), h, xi


def _coefficients(kernel, source) -> tuple:
    """q_0..q_n of the source: its own for an Erlang-polynomial source, ell m each for an equilibrium level."""
    n, _, m = kernel
    return source if isinstance(source, tuple) else (source * m,) * (n + 1)


def _tail_sum(a: float, n: int) -> float:
    """E_n(a) = e^{-a} sum_{k <= n} a^k / k!."""
    return math.exp(-a) * sum(a**k / math.factorial(k) for k in range(n + 1))


def rescaled_gaps(times, n_particles, mu, kernel, source) -> np.ndarray:
    """Lambda(tau_k) - Lambda(tau_{k-1}) over the sorted superposed event times tau (tau_0 = 0)."""
    n, alpha, m = kernel
    big_n = n_particles
    q = _coefficients(kernel, source)

    def source_integral(t):
        a = alpha * t
        return sum(qk * (1.0 - _tail_sum(a, k)) for k, qk in enumerate(q)) / alpha

    moments = [0.0] * (n + 1)
    gaps = []
    prev, x_prev = 0.0, 0.0
    for t in np.sort(times).tolist():
        a = alpha * (t - prev)
        dec = math.exp(-a)
        before = sum(moments)  # past events, the one at prev included
        moments = [dec * sum(moments[j] * a ** (k - j) / math.factorial(k - j) for j in range(k + 1))
                   for k in range(n + 1)]
        x_t = source_integral(t)
        gaps.append(big_n * mu * (t - prev) + big_n * (x_t - x_prev) + m * (before - sum(moments)))
        moments[0] += 1.0
        prev, x_prev = t, x_t
    return np.asarray(gaps)


def _exp_cdf(v: float) -> float:
    return -math.expm1(-v)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rescaled_gaps_are_unit_exponential(name):
    mu, kernel, source, kw = CASES[name]
    phi, h, xi = _system(mu, kernel, source)
    cfg = HawkesConfig(track_coupled=False, subcritical_override=kernel[2] >= 1.0, **kw)
    gaps = []
    for replica in range(cfg.replicas):
        run = simulate_hawkes(phi, h, xi, cfg, replica=replica)
        gaps.append(rescaled_gaps(np.concatenate(run.events), cfg.n_particles, mu, kernel, source))
    gaps = np.concatenate(gaps)
    assert gaps.size > 10_000
    ks = ks_statistic(gaps, _exp_cdf)
    critical = kolmogorov_critical(1e-3) / math.sqrt(gaps.size)
    assert ks < critical, f"{name}: KS {ks:.4f} over {gaps.size} gaps, 0.1% critical value {critical:.4f}"


def test_the_compensator_is_the_integral_of_the_intensity():
    """The closed form against a midpoint quadrature of N (mu + xi + Y) between two fixed events."""
    for mu, kernel, source in ((1.0, (0, 1.0, 0.5), 2.0), (0.5, (2, 3.0, 1.0), 1.5),
                               (0.5, (2, 3.0, 1.0), (1.4, 1.4, 0.0)), (0.5, (2, 3.0, 1.0), (0.0, 1.4, 1.4))):
        _, h, xi = _system(mu, kernel, source)
        times = np.array([0.3, 0.35, 1.1, 2.0])
        n_particles = 4
        gaps = rescaled_gaps(times, n_particles, mu, kernel, source)
        for k, (lo, hi) in enumerate(zip([0.0, *times[:-1]], times)):
            s = lo + (hi - lo) * (np.arange(20000) + 0.5) / 20000
            past = times[times <= lo]
            y = np.sum(h(s[:, None] - past[None, :]), axis=1) if past.size else 0.0
            want = n_particles * float(np.mean(mu + xi(s) + y / n_particles)) * (hi - lo)
            assert gaps[k] == pytest.approx(want, rel=1e-6), (mu, kernel, source, k)
