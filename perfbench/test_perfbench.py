"""Self-test of the benchmark: same seed, same digests, every metric reported.

Run from the root of the checkout (takes a few minutes, most of it in ``cli``):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REPORT_METRICS = {
    "march": ["march.steps_per_s", "march.op_p50_ms", "march.op_tail_ms"],
    "thinning": ["thin.clt_cand_per_s", "thin.couple_cand_per_s", "thin.clt_replica_p50_s", "thin.clt_replica_tail_s"],
    "cli": ["cli.cmd_p50_ms", "cli.cmd_tail_ms", "cli.out_mb_per_s"],
}
COMMON_METRICS = ["setup_s", "wall_s", "failed_frac", "peak_rss_mb"]


def bench(workload: str, seed: int, trace: int, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest_of(lines):
    found = [m.group(1) for line in lines if (m := re.match(r"digest .* for seed \d+: ([0-9a-f]{64})$", line))]
    assert len(found) == 1, "one digest line, without a mismatch"
    return found[0]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_same_digest_and_every_metric(workload):
    first_lines, first = result_of(bench(workload, 5, 0))
    second_lines, second = result_of(bench(workload, 5, 0))
    assert digest_of(first_lines) == digest_of(second_lines)
    for res in (first, second):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in res["metrics"].values())
    report = "\n".join(first_lines)
    for name in COMMON_METRICS + REPORT_METRICS[workload]:
        assert re.search(rf"^  {re.escape(name)}\s", report, re.M), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    lines, res = result_of(bench(workload, 5, 1))
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "trace.overhead_frac" in res["metrics"]
    if workload == "thinning":
        assert res["metrics"]["hawkes.breaches"]["value"] == 0
        assert res["metrics"]["hawkes.candidates.clt"]["value"] > 0
        assert res["metrics"]["hawkes.candidates.couple"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_bytes(RUN.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "march", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
