import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps
from scipy import stats

from renewal_lab.special import (
    adaptive_simpson,
    kolmogorov_critical,
    kolmogorov_sf,
    ks_statistic,
    lambert_w,
    normal_cdf,
    running_sup_from_right,
)


@given(st.floats(min_value=-0.36787, max_value=1e8))
@settings(max_examples=200)
def test_lambert_w_principal_identity(x):
    w = lambert_w(x, 0)
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


@given(st.floats(min_value=-0.36787, max_value=-1e-12))
@settings(max_examples=200)
def test_lambert_w_lower_identity(x):
    w = lambert_w(x, -1)
    assert w <= -1.0
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


@pytest.mark.parametrize("x,branch", [(0.3, 0), (5.0, 0), (-0.2, 0), (-0.2, -1), (-1e-6, -1)])
def test_lambert_w_matches_scipy(x, branch):
    assert lambert_w(x, branch) == pytest.approx(float(sps.lambertw(x, branch).real), abs=1e-11)


def test_lambert_w_domain_errors():
    with pytest.raises(ValueError):
        lambert_w(-1.0, 0)
    with pytest.raises(ValueError):
        lambert_w(0.5, -1)


def test_normal_cdf_against_scipy():
    xs = np.linspace(-6, 6, 101)
    assert np.max(np.abs(normal_cdf(xs) - stats.norm.cdf(xs))) < 1e-12


def test_kolmogorov_quantile():
    # classical 1% asymptotic critical value
    assert kolmogorov_critical(0.01) == pytest.approx(1.6276, abs=2e-4)
    assert kolmogorov_sf(kolmogorov_critical(0.05)) == pytest.approx(0.05, abs=1e-6)


def test_ks_statistic_against_scipy():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=400)
    d = ks_statistic(xs, normal_cdf)
    assert d == pytest.approx(stats.kstest(xs, "norm").statistic, abs=1e-12)


def test_adaptive_simpson():
    from scipy.integrate import quad

    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(2.0, abs=1e-11)
    f = lambda s: math.exp(-s) / math.sqrt(1 + s)
    val, _ = quad(f, 0.0, 40.0)
    assert adaptive_simpson(f, 0.0, 40.0, tol=1e-12) == pytest.approx(val, abs=1e-10)
    assert adaptive_simpson(f, 1.0, 1.0) == 0.0


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
def test_running_sup_from_right_is_the_max_of_each_suffix(values):
    out = running_sup_from_right(np.asarray(values))
    assert out.tolist() == [max(values[i:]) for i in range(len(values))]
