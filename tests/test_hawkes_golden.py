"""Golden digests of the thinning streams of ``simulate_hawkes``.

Each case hashes the events, the coupled events, the intensity diagnostic and
the ``candidates`` / ``reschedules`` / ``breaches`` counters of one replica.
The digests lock the stream contract documented in ``renewal_lab.hawkes``: a
change to how draws are made or consumed changes them.

To print the digests of the current code (only for an intended change of the
stream contract, stated in CHANGES.md):

    PYTHONPATH=src python tests/test_hawkes_golden.py
"""

import hashlib

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
                       subcritical_override=True, diag_grid_dt=0.5)
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
    # the coupled process judged across eight reschedules
    phi, h = _affine()
    xi = model.make_source_empty()
    limit = solve_nre(phi, h, xi, SolverConfig(t_end=40.0, dt=1e-3))
    return phi, h, xi, HawkesConfig(n_particles=3, t_end=40.0, seed=5, thinning_margin=1.05), limit


def _stress_erlang():
    # margin 1.05 reschedules often enough that a particle's exponential draws
    # run more than one block of 256 ahead of its uniform draws
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


def _sigmoid_exp_diag():
    # order 0 with the intensity diagnostic, across reschedules
    h = model.make_scaled_exponential_kernel(0.5, 1.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    cfg = HawkesConfig(n_particles=20, t_end=20.0, seed=4, track_coupled=False,
                       diag_grid_dt=0.1, thinning_margin=1.05)
    return phi, h, model.make_source_empty(), cfg, None


def _stress_affine():
    # about 1,090 candidates and 115 reschedule draws per particle
    return _affine_empty(n_particles=2, t_end=400.0, seed=5, track_coupled=False, thinning_margin=1.05)


# name -> (builder, replica, expected reschedules)
CASES = {
    "affine_empty_n3": (lambda: _affine_empty(n_particles=3, t_end=40.0, seed=5, track_coupled=False), 0, 2),
    "affine_empty_n3_keys": (lambda: _affine_empty(n_particles=3, t_end=40.0, seed=5, track_coupled=False,
                                                   particle_keys=[2, 0, 1]), 0, 2),
    "constant_phi_long": (_constant_phi, 0, 0),
    "erlang_bistable_diag": (_erlang_bistable, 0, 1),
    "compact_general": (_compact_general, 0, 1),
    "xi_perturbation": (_perturbed, 0, 0),
    "clt_small": (_clt_small, 3, 0),
    "couple_erlang": (_couple_erlang, 1, 0),
    "couple_affine": (_couple_affine, 2, 0),
    "couple_affine_margin": (_couple_affine_margin, 0, 8),
    "stress_erlang_margin": (_stress_erlang, 0, 299),
    "stress_affine_margin": (_stress_affine, 0, 231),
    "erlang1_margin": (_erlang1_margin, 0, 46),
    "couple_erlang3": (_couple_erlang3, 0, 0),
    "sigmoid_exp_diag": (_sigmoid_exp_diag, 0, 5),
}

DIGESTS = {
    "affine_empty_n3": "345a2701eb2cfa148d0d86624fcea3aaf00dbfb02cbcd800df1df8e27b36f92e",
    "affine_empty_n3_keys": "1d01ac32e97114e890462c493ca043777e252a5cc0d233ea9a46e44b1bbd1b1c",
    "clt_small": "beb858144175e205041a04051543ba3f635593df39c1c1600cc90edf041e44e1",
    "compact_general": "2b9e78fa9a533a482b69ee89abad6a8f78dd2c8d564d040d7de277579d4555c9",
    "constant_phi_long": "77f7e451c13adbfad91727766a06026a9602c1ea883410830f5a08507d68fce4",
    "couple_affine": "d372c6cc778ac86ed2fe9eb1b9f38dbd561ccf78c22aca259c594ab0eeb481b3",
    "couple_affine_margin": "cf5126da17327b0486b55409099ecb02118aff3eb49641cefb1715c1aed4bed0",
    "couple_erlang3": "6ffbc16b3a4555c037f3da4b647383373c899d894e5f4d881e2ae5705de6d61c",
    "couple_erlang": "11d7ea2217dab9f69d1ee9be7cbedf506c15e834821f4ff0808a2ee815a07bce",
    "erlang1_margin": "61d08eeaf4ec9df0d155054e4949aa0398ea12613c60e8ec3ea3c84d232d1ad5",
    "erlang_bistable_diag": "41d595f560c227efddc6668c3fd8982c72052a5d98294ed012a160ebb6166096",
    "sigmoid_exp_diag": "fdf3ff3a792d5cac0a07137b8458cc386bc385e687d4d00de399394c61bcffbe",
    "stress_affine_margin": "1c0830da997980fc6ea50a16a84a2c2ede990b5fc6d21e76911aee96c10c5635",
    "stress_erlang_margin": "a979ea8eefbac6b0abed43d70cd8086e255266160b7bbd16db877a55c2bb0f3d",
    "xi_perturbation": "92b34dbba724d6bf2c4343edffd19bbe3d560ac64af026b72e668e549a19d6cb",
}


def _events_bytes(per_particle) -> bytes:
    sizes = np.array([e.size for e in per_particle], dtype=np.int64)
    flat = np.concatenate(per_particle) if sizes.sum() else np.zeros(0)
    return sizes.tobytes() + np.ascontiguousarray(flat, dtype=np.float64).tobytes()


def run_digest(name: str):
    build, replica, _ = CASES[name]
    phi, h, xi, cfg, limit = build()
    run = simulate_hawkes(phi, h, xi, cfg, limit=limit, replica=replica)
    dig = hashlib.sha256()
    dig.update(_events_bytes(run.events))
    if run.coupled_events is not None:
        dig.update(_events_bytes(run.coupled_events))
    if run.intensity_values is not None:
        dig.update(np.asarray(run.intensity_values, dtype=np.float64).tobytes())
    meta = run.metadata
    dig.update(f"{meta['candidates']},{meta['reschedules']},{meta['breaches']}".encode())
    return dig.hexdigest(), meta


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stream_digest(name):
    digest, meta = run_digest(name)
    assert meta["breaches"] == 0
    assert meta["reschedules"] == CASES[name][2]
    assert digest == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_size_does_not_change_streams(name, monkeypatch):
    """Schedules of a few dozen candidates cut every run into many pieces."""
    monkeypatch.setattr(hawkes, "_SCHEDULE_CANDIDATES", 40)
    assert run_digest(name)[0] == DIGESTS[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        d, m = run_digest(case)
        print(f"{case}: {d} candidates={m['candidates']} reschedules={m['reschedules']} breaches={m['breaches']}")
