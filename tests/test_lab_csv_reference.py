"""The CLI's fit.csv, events.csv and samples.csv against the row-by-row writers they replaced.

The reference writers below format one row at a time from numpy scalars.  Each
test runs a command, records what the command computed through a spy on the
function that returned it, writes the reference file from that, and requires
the same bytes.  ``tests/test_volterra_reference.py`` locks trajectory.csv.
"""

import json
from pathlib import Path

import numpy as np

import renewal_lab.lab as lab
from renewal_lab.lab import main

SCENARIOS = Path(lab.__file__).parent / "scenarios"


# ---------------------------------------------------------------------------
# reference writers
# ---------------------------------------------------------------------------


def ref_fit_csv(path, traj, env_used, ell):
    mask = traj.ts >= env_used.sigma_t0
    with open(path, "w") as fh:
        fh.write("t,abs_error,bound\n")
        bound = env_used.evaluate(traj.ts[mask])
        for t, e, b in zip(traj.ts[mask], np.abs(traj.lam[mask] - ell), bound):
            fh.write(f"{t:.17g},{e:.17g},{b:.17g}\n")


def ref_events_csv(path, runs):
    with open(path, "w") as fh:
        fh.write("replica,particle,event_time\n")
        for rep_idx, run in enumerate(runs):
            for p, ev in enumerate(run.events):
                for t in ev:
                    fh.write(f"{rep_idx},{p},{t:.17g}\n")


def ref_samples_csv(path, samples):
    with open(path, "w") as fh:
        fh.write("replica,standardized\n")
        for i, v in enumerate(samples):
            fh.write(f"{i},{v:.17g}\n")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _spy(monkeypatch, name):
    """Replace lab.<name> by a wrapper that records every return value."""
    seen = []
    fn = getattr(lab, name)

    def spy(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(lab, name, spy)
    return seen


def _run(tmp_path, command, scenario, edits):
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    for key, value in edits.items():
        doc[key] = dict(doc[key], **value) if isinstance(value, dict) else value
    config = tmp_path / f"{scenario}.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--threads", "1"]) == 0
    return out


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_fit_csv_bytes_match_reference(tmp_path, monkeypatch):
    trajs = _spy(monkeypatch, "solve_nre")
    envs = _spy(monkeypatch, "calibrate_envelope")
    edits = {"solver": {"dt": 0.002, "t_end": 10.0}, "rates": {"window": [1.0, 7.0]}}
    out = _run(tmp_path, "envelope", "envelope_compact", edits)
    ell = json.loads((out / "envelope.json").read_text())["ell"]
    ref_fit_csv(tmp_path / "want.csv", trajs[-1], envs[-1], ell)
    got = (out / "fit.csv").read_bytes()
    assert got.count(b"\n") > 2048  # several write chunks
    assert got == (tmp_path / "want.csv").read_bytes()


def test_events_csv_bytes_match_reference(tmp_path, monkeypatch):
    runs = _spy(monkeypatch, "run_replicas")
    out = _run(tmp_path, "hawkes", "hawkes_small", {})
    assert len(runs[-1]) == 2
    ref_events_csv(tmp_path / "want.csv", runs[-1])
    got = (out / "events.csv").read_bytes()
    assert got.count(b"\n") > 2048
    assert got == (tmp_path / "want.csv").read_bytes()


def test_events_csv_of_a_silent_run_matches_reference(tmp_path, monkeypatch):
    runs = _spy(monkeypatch, "run_replicas")
    edits = {"phi": {"mu": 0.0}, "hawkes": {"n_particles": 3, "t_end": 1.0, "checkpoints": [1.0]}}
    out = _run(tmp_path, "hawkes", "hawkes_small", edits)
    ref_events_csv(tmp_path / "want.csv", runs[-1])
    assert (out / "events.csv").read_bytes() == (tmp_path / "want.csv").read_bytes() == b"replica,particle,event_time\n"


def test_samples_csv_bytes_match_reference(tmp_path, monkeypatch):
    results = _spy(monkeypatch, "clt_experiment")
    out = _run(tmp_path, "clt", "clt_affine", {"hawkes": {"n_particles": 20, "t_end": 2.0, "replicas": 1100}})
    ref_samples_csv(tmp_path / "want.csv", results[-1].samples)
    got = (out / "samples.csv").read_bytes()
    assert got.count(b"\n") == 1101
    assert got == (tmp_path / "want.csv").read_bytes()
