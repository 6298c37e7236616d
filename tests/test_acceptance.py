"""Acceptance gate: every headline criterion at its stated tolerance.

Runs the full desk-scale suite, printing one pass/fail line per criterion
(visible with ``pytest -s`` or via ``renewal-lab suite``).  The two
particle-system criteria are the long poles (several minutes together).
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from renewal_lab import acceptance
from renewal_lab.lab import main

_THREADS = max(1, int(os.environ.get("RENEWAL_LAB_THREADS", "2")))


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number):
    result = acceptance.CRITERIA[number](threads=_THREADS)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.number:2d} {result.name}: {result.detail} ({result.runtime:.1f}s)")
    assert result.passed is True, f"criterion {number} ({result.name}): {result.detail}"


_PASSING = {
    13: ("coupling_experiment", dict(mean_sup_diff=(0.4, 0.2, 0.1), bound_values=(1.0, 1.0, 1.0), slope=-0.5)),
    14: ("clt_experiment", dict(mean=0.0, variance=1.0, ks_distance=0.01, ks_critical_1pct=0.1)),
}


@pytest.mark.parametrize("number", sorted(_PASSING))
def test_particle_criteria_fail_on_a_dominator_breach(monkeypatch, number):
    name, fields = _PASSING[number]
    for breaches in (0, 1):
        result = SimpleNamespace(counters={"breaches": breaches}, **fields)
        monkeypatch.setattr(acceptance, name, lambda *args, **kwargs: result)
        outcome = acceptance.CRITERIA[number](threads=1)
        assert (outcome.number, outcome.passed) == (number, breaches == 0)
        assert f"dominator breaches {breaches}" in outcome.detail


def test_suite_report_takes_a_numpy_verdict(tmp_path, monkeypatch, capsys):
    """A body may compute its verdict with numpy; the result and suite_report.json carry a plain bool.
    The printed line and the report carry the criterion's number, the one ``--only`` selects it by."""
    monkeypatch.setattr(acceptance, "CRITERIA", {})
    acceptance._criterion(7, "numpy-verdict")(lambda threads: (np.float64(1.0) <= 2.0, "1 <= 2"))
    assert main(["suite", "--out", str(tmp_path), "--only", "7"]) == 0
    (report,) = json.loads((tmp_path / "suite_report.json").read_text())
    assert (report["number"], report["name"], report["passed"], report["detail"]) == (7, "numpy-verdict", True, "1 <= 2")
    assert capsys.readouterr().out.startswith("[PASS]  7 numpy-verdict  (")
