import pytest

from renewal_lab import acceptance


@pytest.fixture(scope="session")
def bistable():
    """Bistable reference fixture: sigmoid firing with Erlang(2, 3) kernel."""
    return acceptance.bistable_fixture()


@pytest.fixture(scope="session")
def affine():
    """Linear fixture: Phi = 1 + x, h = 0.5 e^{-t}; fixed point 2, tau0 = 0.5."""
    return acceptance.affine_fixture()


@pytest.fixture(scope="session")
def affine_empty_traj():
    return acceptance._affine_empty_traj(30.0)


def brentq(f, lo, hi, tol=1e-14, max_iter=400):
    """Plain bisection oracle, independent of the package root finder."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0 or hi - lo < tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
