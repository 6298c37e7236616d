"""Golden digests of the thinning streams of ``simulate_hawkes``.

Each case hashes the events, the coupled events and the ``candidates`` /
``reschedules`` / ``breaches`` counters of one replica.
The digests lock the stream contract documented in ``renewal_lab.hawkes``: a
change to how draws are made or consumed changes them.

To print the digests and reschedule counts of the current code as
``DIGESTS`` and ``RESCHEDULES`` dicts to paste below (only for an intended
change of the stream contract, stated in CHANGES.md):

    PYTHONPATH=src python tests/test_hawkes_golden.py
"""

import hashlib
import json

import numpy as np
import pytest

from renewal_lab import hawkes, model
from renewal_lab.hawkes import HawkesConfig, simulate_hawkes
from renewal_lab.volterra import SolverConfig, solve_nre


def _affine():
    return model.make_affine_phi(1.0), model.make_scaled_exponential_kernel(0.5, 1.0)


def _affine_empty(**kw):
    phi, h = _affine()
    return phi, h, model.make_source_empty(), HawkesConfig(**kw), None


def _constant_phi():
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    cfg = HawkesConfig(n_particles=1, t_end=10500.0, seed=42, track_coupled=False)
    return model.make_constant_phi(1.0), h, model.make_source_empty(), cfg, None


def _erlang_bistable():
    h = model.make_erlang_kernel(2, 3.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0)
    cfg = HawkesConfig(n_particles=200, t_end=10.0, seed=6, track_coupled=False,
                       subcritical_override=True)
    return phi, h, model.make_source_tail(h, 0.5), cfg, None


def _compact_general():
    xs = np.linspace(0.0, 1.0, 301)
    h = model.make_compact_kernel(0.4 * np.ones_like(xs), 1.0)
    cfg = HawkesConfig(n_particles=50, t_end=20.0, seed=12, track_coupled=False)
    return model.make_affine_phi(1.0), h, model.make_source_empty(), cfg, None


def _perturbed():
    phi, h = _affine()
    cfg = HawkesConfig(n_particles=100, t_end=10.0, seed=55, track_coupled=False, xi_perturbation=1.0)
    return phi, h, model.make_source_equilibrium(h, 2.0), cfg, None


def _clt_small():
    phi, h = _affine()
    cfg = HawkesConfig(n_particles=200, t_end=10.0, seed=7, track_coupled=False)
    return phi, h, model.make_source_equilibrium(h, 2.0), cfg, None


def _couple_erlang():
    h = model.make_erlang_kernel(2, 3.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    xi = model.make_source_tail(h, 1.4)
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=20.0, dt=1e-3))
    return phi, h, xi, HawkesConfig(n_particles=100, t_end=20.0, seed=7), limit


def _couple_erlang_poly():
    # criterion 6's lower-order source, of the kernel's own (order, alpha): it starts the state
    h = model.make_erlang_kernel(2, 3.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    xi = model.make_source_erlang_polynomial(2, 3.0, (1.4, 1.4, 0.0))
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=20.0, dt=1e-3))
    return phi, h, xi, HawkesConfig(n_particles=100, t_end=20.0, seed=13), limit


def _couple_affine():
    phi, h = _affine()
    xi = model.make_source_empty()
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=20.0, dt=1e-3))
    return phi, h, xi, HawkesConfig(n_particles=100, t_end=20.0, seed=2024), limit


def _couple_affine_margin():
    # the coupled process judged across reschedules
    phi, h = _affine()
    xi = model.make_source_empty()
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=40.0, dt=1e-3))
    return phi, h, xi, HawkesConfig(n_particles=3, t_end=40.0, seed=5, thinning_margin=1.05), limit


def _stress_erlang():
    # reschedule-heavy: margin 1.05 rebuilds the dominator every few dozen candidates
    h = model.make_erlang_kernel(2, 3.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0)
    cfg = HawkesConfig(n_particles=20, t_end=200.0, seed=3, track_coupled=False,
                       thinning_margin=1.05, subcritical_override=True)
    return phi, h, model.make_source_tail(h, 3.0), cfg, None


def _erlang1_margin():
    # Erlang order 1 across reschedules
    h = model.make_erlang_kernel(1, 2.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 8.0, 1.0)
    cfg = HawkesConfig(n_particles=20, t_end=100.0, seed=9, track_coupled=False,
                       thinning_margin=1.05, subcritical_override=True)
    return phi, h, model.make_source_tail(h, 2.0), cfg, None


def _couple_erlang3():
    h = model.make_erlang_kernel(3, 4.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    xi = model.make_source_tail(h, 1.4)
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=10.0, dt=1e-3))
    return phi, h, xi, HawkesConfig(n_particles=50, t_end=10.0, seed=8), limit


def _couple_erlang4_margin():
    # Erlang order 4, coupled, across reschedules
    h = model.make_erlang_kernel(4, 5.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    xi = model.make_source_tail(h, 1.4)
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=20.0, dt=1e-3))
    return phi, h, xi, HawkesConfig(n_particles=100, t_end=20.0, seed=11, thinning_margin=1.05), limit


def _sigmoid_exp_margin():
    # order 0 with a sigmoid Phi, across reschedules
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    cfg = HawkesConfig(n_particles=20, t_end=20.0, seed=4, track_coupled=False, thinning_margin=1.05)
    return phi, h, model.make_source_empty(), cfg, None


def _stress_affine():
    # reschedule-heavy with two particles over a long horizon
    return _affine_empty(n_particles=2, t_end=400.0, seed=5, track_coupled=False, thinning_margin=1.05)


# name -> (builder, replica)
CASES = {
    "affine_empty_n3": (lambda: _affine_empty(n_particles=3, t_end=40.0, seed=5, track_coupled=False), 0),
    "constant_phi_long": (_constant_phi, 0),
    "erlang_bistable": (_erlang_bistable, 0),
    "compact_general": (_compact_general, 0),
    "xi_perturbation": (_perturbed, 0),
    "clt_small": (_clt_small, 3),
    "couple_erlang": (_couple_erlang, 1),
    "couple_erlang_poly": (_couple_erlang_poly, 0),
    "couple_affine": (_couple_affine, 2),
    "couple_affine_margin": (_couple_affine_margin, 0),
    "stress_erlang_margin": (_stress_erlang, 0),
    "stress_affine_margin": (_stress_affine, 0),
    "erlang1_margin": (_erlang1_margin, 0),
    "couple_erlang3": (_couple_erlang3, 0),
    "couple_erlang4_margin": (_couple_erlang4_margin, 0),
    "sigmoid_exp_margin": (_sigmoid_exp_margin, 0),
}

DIGESTS = {
    "affine_empty_n3": "3cb273edc43ba83674bc880ab487b97fe36a46211795864f056e693f225744b9",
    "clt_small": "05023a0b216708121e264a8391e8161072b52d34280f552ba878509b488e7a4f",
    "compact_general": "532db169d6957f92c54acd6561087a9c91be47c266d5ff33bea318ce72781bb0",
    "constant_phi_long": "ab44921ff1cdd511fc1e1c46c69208576a3af6671bb25be9d0a71f2fdb469185",
    "couple_affine": "53062485d86c0780be463e6633b971f191f20691bde5b0c05645b8d2a53b47b1",
    "couple_affine_margin": "70072795558a941b8e8e1408820f1fc4442bac73b005098549104f8ba8c84059",
    "couple_erlang": "2153192811583586471b5cb0e20e072d6a66570e0e1c859bc0ecede35bcb663a",
    "couple_erlang3": "70ceb43ea61beb935f9c24fa90f9e892f93236751d68089a839a6cde20246f46",
    "couple_erlang_poly": "5b1d34db57934afbe4ea88e25997c2d22878211191196722b42c70bb412c0f2b",
    "couple_erlang4_margin": "f8124a1cc0d70eab47b8a08ebcfdf68142ceb6042219e0f19af21275eb762802",
    "erlang1_margin": "dd5c7f5578e0699830c8e7644e6e324c9d7842850ebce6108f9f0c6d6d725ecc",
    "erlang_bistable": "bfa20c5f738ca75356c4657f00de1b5eb15793fe123a62dfc01e52cfcc3a839b",
    "sigmoid_exp_margin": "31c715bfdea8e3e27a0e98b0eb09122f1afef064a2f5bac2c5cd3aac479fbefe",
    "stress_affine_margin": "f8e961a606f83e51d35b18caed627f18bf41b16004ad2a6ae5fafb89204a16f4",
    "stress_erlang_margin": "0814f41ccfba69d855a1bdc15ad7c17354b60b82554328b24c2764f1ba3ecda8",
    "xi_perturbation": "fdd4ebfe706d40aec2332105bcf0969de3f721a05c737a493c899c4641e64fe2"
}
RESCHEDULES = {
    "affine_empty_n3": 6,
    "clt_small": 0,
    "compact_general": 4,
    "constant_phi_long": 0,
    "couple_affine": 0,
    "couple_affine_margin": 5,
    "couple_erlang": 0,
    "couple_erlang3": 0,
    "couple_erlang_poly": 0,
    "couple_erlang4_margin": 1,
    "erlang1_margin": 61,
    "erlang_bistable": 0,
    "sigmoid_exp_margin": 5,
    "stress_affine_margin": 138,
    "stress_erlang_margin": 121,
    "xi_perturbation": 0
}


def _events_bytes(per_particle) -> bytes:
    sizes = np.array([e.size for e in per_particle], dtype=np.int64)
    flat = np.concatenate(per_particle) if sizes.sum() else np.zeros(0)
    return sizes.tobytes() + np.ascontiguousarray(flat, dtype=np.float64).tobytes()


def run_digest(name: str):
    build, replica = CASES[name]
    phi, h, xi, cfg, limit = build()
    run = simulate_hawkes(phi, h, xi, cfg, limit=limit, replica=replica)
    dig = hashlib.sha256()
    dig.update(_events_bytes(run.events))
    if run.coupled_events is not None:
        dig.update(_events_bytes(run.coupled_events))
    meta = run.metadata
    dig.update(f"{meta['candidates']},{meta['reschedules']},{meta['breaches']}".encode())
    return dig.hexdigest(), meta


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stream_digest(name):
    digest, meta = run_digest(name)
    assert meta["breaches"] == 0
    assert meta["reschedules"] == RESCHEDULES[name]
    assert digest == DIGESTS[name]


#: cases too long to run one candidate per chunk in Tier-1 (constant_phi_long: 12,073 candidates)
_LONG = {"constant_phi_long"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_size_does_not_change_streams(name, monkeypatch):
    """Chunks of a few dozen candidates cut every run into many pieces; chunks of one
    candidate carry the convolution state out of the sweep and back at every candidate."""
    for first, chunk in ((3, 40), (1, 1)):
        if chunk == 1 and name in _LONG:
            continue
        monkeypatch.setattr(hawkes, "_SWEEP_FIRST", first)
        monkeypatch.setattr(hawkes, "_SWEEP_CHUNK", chunk)
        assert run_digest(name)[0] == DIGESTS[name], (first, chunk)


if __name__ == "__main__":
    runs = {case: run_digest(case) for case in sorted(CASES)}
    print("DIGESTS =", json.dumps({case: digest for case, (digest, _) in runs.items()}, indent=4))
    print("RESCHEDULES =", json.dumps({case: meta["reschedules"] for case, (_, meta) in runs.items()}, indent=4))
    for case, (_, meta) in runs.items():
        print(f"# {case}: candidates={meta['candidates']} breaches={meta['breaches']}")
