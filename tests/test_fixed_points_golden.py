"""Golden fixed points: ell, tau0 and the residual of every root, to the bit, for each Phi maker.

The values were recorded with ``float.hex``.  A change to how Phi is evaluated that moves one bit of a
root, of Phi' there or of g = Phi(kappa ell) - ell fails here, before it moves a bundled output.
"""

import warnings

import pytest

from renewal_lab import model

PHIS = {
    "sigmoid": model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0),
    "affine": model.make_affine_phi(1.0),
    "cubic_sigmoid": model.make_cubic_sigmoid_phi(0.5, 1.0, 8.0, 1.0),
    "constant": model.make_constant_phi(0.7),
    "divergence_example": model.make_divergence_example_phi(),
}
NO_ROOT = "no root of ell = Phi(kappa ell) on the bracket: every solution diverges in this regime"
#: per Phi, (roots on every unit-mass Erlang kernel, roots on h = 0.5 e^{-t}); a root is (ell, tau0, residual, kind)
EXPECTED = {
    "sigmoid": (
        [
            ("0x1.0ae1042accbb9p-1", "0x1.54bae39ee2aefp-3", "0x1.0000000000000p-52", "subcritical"),
            ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x0.0p+0", "supercritical"),
            ("0x1.7a8f7dea99a23p+0", "0x1.54bae39ee2adep-3", "0x1.0000000000000p-51", "subcritical"),
        ],
        [("0x1.0147565885970p-1", "0x1.468511abf4a38p-7", "0x1.0000000000000p-53", "subcritical")],
    ),
    "affine": (NO_ROOT, [("0x1.0000000000000p+1", "0x1.0000000000000p-1", "0x0.0p+0", "subcritical")]),
    "cubic_sigmoid": (
        [
            ("0x1.000ba166d450dp-1", "0x1.d10bb033ce225p-9", "0x1.0000000000000p-53", "subcritical"),
            ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x0.0p+0", "supercritical"),
            ("0x1.7ffa2f4c95d79p+0", "0x1.d10bb033d104cp-9", "0x1.0000000000000p-52", "subcritical"),
        ],
        [("0x1.000000005303fp-1", "0x1.9f149747e360cp-30", "0x1.8000000000000p-52", "subcritical")],
    ),
    "constant": (
        [("0x1.6666666666666p-1", "0x0.0p+0", "0x0.0p+0", "subcritical")],
        [("0x1.6666666666666p-1", "0x0.0p+0", "0x0.0p+0", "subcritical")],
    ),
    "divergence_example": (
        [("0x1.256ceb3d765a6p+0", "0x1.c87e86f14c2fcp-1", "0x0.0p+0", "subcritical")],
        [("0x1.016b98167b0aep-1", "0x1.d9b6173cadb5cp-3", "0x1.8000000000000p-51", "subcritical")],
    ),
}


def _roots(phi, h):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", model.TangencyWarning)
            reports = model.find_fixed_points(phi, h)
    except model.NoFixedPointError as err:
        return str(err)
    return [(r.ell.hex(), r.tau0.hex(), r.residual.hex(), r.stability.kind) for r in reports]


@pytest.mark.parametrize("name", list(PHIS))
def test_fixed_points_keep_their_bits(name):
    on_erlang, on_exponential = EXPECTED[name]
    for order in range(4):
        assert _roots(PHIS[name], model.make_erlang_kernel(order, 2.0)) == on_erlang, order
    assert _roots(PHIS[name], model.make_scaled_exponential_kernel(0.5, 1.0)) == on_exponential
