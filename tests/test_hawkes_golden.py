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
    "affine_empty_n3": "5dba518e8bec6226da9c80ec06d083e5029b758849353da07207bb20e1d3604f",
    "clt_small": "cb936cc547f7a2ede787c6aee4c9abd300fab07eab0349a49cafb0f0d3cf158e",
    "compact_general": "0d63acb1a25e6d715cad464e369ca9b4ed87dba2f2262030c22059755dc6238c",
    "constant_phi_long": "97121120de8b87a92d7fe9dccb1906e20e8a18f735d80f235194f23dc8b97e4e",
    "couple_affine": "3ed0f5ac4a02b9c1bbb685eac25e06a8b9128014a7e3b713e633e789dbcf63c4",
    "couple_affine_margin": "70072795558a941b8e8e1408820f1fc4442bac73b005098549104f8ba8c84059",
    "couple_erlang": "5f898517d2f2de0f88a033f658dc64a923625de80f4c31b093f53f204c3b912f",
    "couple_erlang3": "3d106691b7e1bb6e0bb433f2a222ed588d646ad6f270737f96e76461fb749eeb",
    "couple_erlang4_margin": "8e8df49957984586f5c439b9e618896b0b4dbf7b891d84d971f105831ab0da27",
    "erlang1_margin": "06a224bb3d85c7614e31bf97a17e8113e1b9365ad4eff6c05d4c23d78bd31d73",
    "erlang_bistable": "968592eabf2a388c442b9c94c37de5940eb940b0f7c117476de7a2056611825f",
    "sigmoid_exp_margin": "31c715bfdea8e3e27a0e98b0eb09122f1afef064a2f5bac2c5cd3aac479fbefe",
    "stress_affine_margin": "efcdf279c012205c22d3a2bf7db4c957ebd035927bc4b843519efb210af65386",
    "stress_erlang_margin": "c3a73b03c0fbb3f2d7deae178b65ee27aa8722f7b8f8649ce43716467b4300be",
    "xi_perturbation": "b4e83ad3868b7bfd81c157dbbe8057ab2fe35043e1b538db16ffcf75988fe60d"
}
RESCHEDULES = {
    "affine_empty_n3": 2,
    "clt_small": 0,
    "compact_general": 1,
    "constant_phi_long": 0,
    "couple_affine": 0,
    "couple_affine_margin": 5,
    "couple_erlang": 0,
    "couple_erlang3": 0,
    "couple_erlang4_margin": 4,
    "erlang1_margin": 74,
    "erlang_bistable": 1,
    "sigmoid_exp_margin": 5,
    "stress_affine_margin": 273,
    "stress_erlang_margin": 186,
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


#: cases too long to run one candidate per chunk in Tier-1 (constant_phi_long: 15,679 candidates)
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
