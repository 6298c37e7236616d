"""References for the Hawkes simulator, written apart from it.

``_ref_path_sup_difference`` is ``hawkes.path_sup_difference`` as first
written: merge both sides with signed unit jumps, sort stably, sum the jumps
that share a time, and take the largest absolute partial sum.  The package's
version must give the same integer on every input, sorted or not, with ties
across the two sides, duplicate times within one side and empty sides.

``intensity_path`` recomputes, from a run's events, the intensity that
``simulate_hawkes`` thins against; ``tests/test_hawkes.py`` checks runs with it.
"""

from typing import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_lab import model
from renewal_lab.hawkes import HawkesConfig, HawkesRun, path_sup_difference, simulate_hawkes


def intensity_path(run: HawkesRun, phi: model.FiringFunction, h: model.MemoryKernel, xi: model.SourceTerm,
                   ts: Sequence[float]) -> np.ndarray:
    """The particles' common intensity Phi(xi_N(t) + (1/N) sum_{events e < t} h(t - e)) at each t.

    xi_N is xi with the run's source perturbation.  An event at t itself is
    left out: the value is the left limit, the intensity a candidate at t meets.
    """
    pert = run.metadata["xi_perturbation_applied"]
    xi_s = (model.add_exponential_perturbation(xi, pert) if pert != 0.0 else xi).scalar
    phi_s = phi.scalar
    events = np.sort(np.concatenate(run.events))
    n = run.metadata["n_particles"]
    out = []
    for t in np.asarray(ts, dtype=float).tolist():
        past = events[: np.searchsorted(events, t, side="left")]
        out.append(phi_s(xi_s(t) + float(np.sum(h.evaluator(t - past))) / n))
    return np.asarray(out)


def _ref_path_sup_difference(times_a: np.ndarray, times_b: np.ndarray) -> int:
    if times_a.size == 0 and times_b.size == 0:
        return 0
    allt = np.concatenate([times_a, times_b])
    deltas = np.concatenate([np.ones(times_a.size), -np.ones(times_b.size)])
    order = np.argsort(allt, kind="stable")
    ts = allt[order]
    ds = deltas[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(ts)) + 1])
    grouped = np.add.reduceat(ds, starts)
    cum = np.cumsum(grouped)
    return int(np.max(np.abs(cum)))


# small integer-valued times: ties across the sides and within one side are common
_times = st.lists(st.integers(min_value=0, max_value=6), max_size=12).map(lambda v: np.asarray(v, dtype=float))


@given(_times, _times)
@settings(max_examples=400, deadline=None)
def test_path_sup_difference_matches_reference(a, b):
    got = path_sup_difference(a, b)
    assert type(got) is int
    assert got == _ref_path_sup_difference(a, b)
    assert path_sup_difference(b, a) == got


def _near_copies(a: np.ndarray, data) -> list:
    """b for a: a itself, a drawn permutation of it, and a with one drawn element dropped or one drawn time added."""
    perm = data.draw(st.permutations(a.tolist()))
    extra = data.draw(st.integers(min_value=0, max_value=6))
    at = data.draw(st.integers(min_value=0, max_value=a.size))
    copies = [a, np.asarray(perm, dtype=float), np.insert(a, at, float(extra))]
    if a.size:
        copies.append(np.delete(a, min(at, a.size - 1)))
    return copies


@given(_times, st.data())
@settings(max_examples=200, deadline=None)
def test_path_sup_difference_matches_reference_near_equal_lists(a, data):
    """Lists equal as lists, equal as multisets only, or one element apart: the shapes of a coupled run."""
    for b in _near_copies(a, data):
        want = _ref_path_sup_difference(a, b)
        assert path_sup_difference(a, b) == want == _ref_path_sup_difference(b, a)
        assert path_sup_difference(b, a) == want


def test_path_sup_difference_edge_cases():
    empty = np.zeros(0)
    cases = [
        (empty, empty),
        (np.array([2.0]), empty),
        (empty, np.array([0.0, 0.0, 0.0])),
        (np.array([3.0, 1.0, 2.0]), np.array([2.0, 3.0, 1.0])),  # unsorted, all shared
        (np.array([1.0, 1.0, 1.0]), np.array([1.0])),  # a tie across the sides and duplicates
        (np.array([5.0, 0.5]), np.array([0.6, 0.7, 0.8])),
    ]
    for a, b in cases:
        assert path_sup_difference(a, b) == _ref_path_sup_difference(a, b), (a, b)


def test_path_sup_difference_per_particle_on_a_coupled_run():
    """The coupled shape of criterion 13: Erlang(2, 3) kernel, sigmoid Phi, tail source."""
    h = model.make_erlang_kernel(2, 3.0)
    phi = model.make_sigmoid_phi(0.5, 1.0, 2.0, 1.0)
    xi = model.make_source_tail(h, 1.4)
    run = simulate_hawkes(phi, h, xi, HawkesConfig(n_particles=100, t_end=5.0, seed=17, track_coupled=True))
    got = [path_sup_difference(a, b) for a, b in zip(run.events, run.coupled_events)]
    want = [_ref_path_sup_difference(a, b) for a, b in zip(run.events, run.coupled_events)]
    assert got == want
    assert max(want) > 0  # the two processes do part somewhere
