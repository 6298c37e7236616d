"""Benchmark of renewal-lab: solver marching, Hawkes thinning and the CLI.

Run from the root of a renewal-lab checkout:

    python3 perfbench/run.py --workload march --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The seed makes one fixed set of operations (see ``workloads.py``).  The run
repeats whole passes over that set until ``--seconds`` have elapsed, and at
least two so that the outputs of two passes can be compared; it times each
operation and checks its outputs outside the timed interval.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are the report: every metric under the
name the roadmap uses, the counters, the per-seed output digest and the
environment.

Calibrated time.  On a shared 2-core virtual machine the speed of one process
was seen to drift by up to half over minutes, which no number of repeats inside
one run averages away.  So the run times a fixed piece of work (``Reference``) between
consecutive operations and divides each operation's time by the mean of the
reference times just before and just after it.  Gated times are therefore
seconds on a machine where the reference takes exactly REFERENCE_S; the report
prints the raw times beside them.  The program cannot change the reference, so
a change to the program moves the calibrated times as it moves the raw ones,
while a change of machine speed moves both the operations and the reference
and cancels.

Metrics gated by BENCHMARK.json (``--trace 0``), per workload:

* ``setup_s``: imports once, plus the median of several builds of the inputs
  (including the ``couple`` limit solve on ``thinning``).
* ``wall_s``: median over passes of the time spent in timed operations.
* ``op_p50_ms`` / ``op_tail_ms``: latency of one solver operation (march), one
  clt replica (thinning) or one command (cli).  The p50 is the median over the
  operations of a pass of each one's mean latency over the passes; the tail is
  the highest percentile of all latency samples with ten samples beyond it.
* ``work_per_s``: grid steps per second (march), couple-kind thinning
  candidates per second (thinning; the clt kind is gated by the replica
  latency), bytes written per second (cli).
* ``peak_rss_mb``: peak resident memory of the process.

``failed_frac`` is carried by ``failed`` over ``attempted``: it is 0 on two
workloads, and a gated metric must never read 0.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``tracing.py`` instead (raw times), with ``trace.overhead_frac`` the
calibrated traced against untraced pass time and, on ``thinning``, the replica
fan-out.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("march", "thinning", "cli")
SETUP_REPEATS = 5
#: calibrated times are seconds on a machine where Reference.time() returns this
REFERENCE_S = 7.5e-3
#: the kinds of operation whose latency is op_p50_ms / op_tail_ms (None: all)
LATENCY_KINDS = {"march": None, "thinning": {"clt"}, "cli": None}
STEP_COUNTERS = ("steps.erlang", "steps.implicit", "steps.dot", "steps.cascade")
#: numbers measured at the roadmap's re-anchor, printed beside the traced ones
ROADMAP_BASELINE = [
    ("solve_nre Erlang(2) step", "volterra.step_us.erlang", 6.8),
    ("solve_nre exponential (implicit) step", "volterra.step_us.implicit", 6.4),
    ("solve_nre compact windowed step", "volterra.step_us.windowed", 4.0),
    ("solve_erlang_cascade RK4 step", "volterra.cascade_step_us", 38.0),
    ("simulate_hawkes clt candidate", "hawkes.cand_us.clt", 5.1),
]


def pin_environment() -> dict:
    """One worker and one BLAS/OpenMP thread: _DotHistory calls np.dot."""
    os.environ.pop("RENEWAL_LAB_THREADS", None)
    pinned = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    os.environ.update(pinned)
    return pinned


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "renewal_lab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Reference:
    """Fixed work the program cannot change, timed beside each operation.

    Scalar float arithmetic, a heap, small dot products and single reads
    scattered over 2000 small arrays (8 MB, the size of the clt kind's draw
    buffers): the kinds of work the solver and thinning loops do, so that a
    slower machine slows the reference about as much as the operations.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.buffers = [rng.random(512) for _ in range(2000)]
        self.order = rng.integers(0, len(self.buffers), size=4000).tolist()

    def time(self) -> float:
        t0 = time.perf_counter()
        acc, xs, heap = 0.0, [], []
        for i in range(4000):
            v = math.exp(-1e-3 * i) * 1.5 + 0.5 * acc
            acc = v / (1.0 + abs(v))
            xs.append(acc)
        for n, j in enumerate(self.order):
            v = float(self.buffers[j][n % 512])
            acc += math.exp(-v)
            heapq.heappush(heap, (v, j))
            if len(heap) > 1000:
                heapq.heappop(heap)
        a = self.np.asarray(xs)
        for i in range(300):
            acc += float(self.np.dot(a[i : i + 500], a[:500]))
        return time.perf_counter() - t0


@dataclass
class Record:
    name: str
    kind: str
    seconds: float
    status: str  # ok | error | wrong
    reference: float = 0.0  # mean reference time just before and just after the operation
    detail: str = ""
    digest: bytes = b""
    counters: dict = field(default_factory=dict)


@dataclass
class Pass:
    traced: bool
    records: list

    def seconds(self, calibrated: bool = True) -> float:
        return sum(calibrate(r) if calibrated else r.seconds for r in self.records)

    def digest(self) -> str:
        h = hashlib.sha256()
        for r in self.records:
            h.update(r.name.encode())
            h.update(r.digest if r.status == "ok" else f"{r.status}:{r.detail}".encode())
        return h.hexdigest()


def calibrate(r: Record) -> float:
    return r.seconds * REFERENCE_S / r.reference


def run_pass(ops, wl, reference: Reference, tracer=None) -> list:
    records, refs = [], []
    for op in ops:
        refs.append(reference.time())
        if tracer is not None:
            tracer.tag = op.kind
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # the benchmark counts a raising operation and goes on
            records.append(Record(op.name, op.kind, time.perf_counter() - t0, "error",
                                  detail=f"{op.name}: {type(exc).__name__}: {exc}"))
            continue
        rec = Record(op.name, op.kind, time.perf_counter() - t0, "ok")
        try:
            rec.digest, rec.counters = op.check(result)
        except wl.UnexpectedExit as exc:
            rec.status, rec.detail = "error", str(exc)
        except wl.WrongOutput as exc:
            rec.status, rec.detail = "wrong", str(exc)
        records.append(rec)
    refs.append(reference.time())
    for rec, before, after in zip(records, refs, refs[1:]):
        rec.reference = 0.5 * (before + after)
    return records


def counter_sum(records) -> dict:
    out: dict = {}
    for r in records:
        for k, v in r.counters.items():
            out[k] = out.get(k, 0) + v
    return out


def tail(values) -> tuple:
    """Highest nearest-rank percentile with at least ten samples beyond it: (value, percentile, n)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:  # no percentile has ten samples beyond it: report the maximum
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload: str, passes: list, setup_s: float, calibrated: bool) -> tuple:
    """(gated metrics, report metrics under their roadmap names), each a name -> (value, unit)."""
    timed = [(r, calibrate(r) if calibrated else r.seconds) for p in passes for r in p.records]
    wall_s = statistics.median(p.seconds(calibrated) for p in passes)
    kinds = LATENCY_KINDS[workload]
    lat = [t for r, t in timed if kinds is None or r.kind in kinds]
    tail_v, tail_pct, n = tail(lat)
    # every pass runs the same operations: the median operation's mean over passes
    # is steadier than the median of single samples when passes are few (cli has two)
    per_op: dict = {}
    for r, t in timed:
        if kinds is None or r.kind in kinds:
            per_op.setdefault(r.name, []).append(t)
    p50 = statistics.median(statistics.fmean(ts) for ts in per_op.values())
    busy = lambda ks: sum(t for r, t in timed if ks is None or r.kind in ks)
    counts = counter_sum(r for r, _ in timed)
    failed = sum(r.status != "ok" for r, _ in timed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_unit = f"(p{tail_pct:.1f} of {n})"
    report = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "failed_frac": (failed / len(timed), f"ratio of {len(timed)} attempted"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if workload == "march":
        work = sum(counts.get(k, 0) for k in STEP_COUNTERS) / busy(None)
        report["march.steps_per_s"] = (work, "1/s")
        report["march.op_p50_ms"] = (p50 * 1e3, "ms")
        report["march.op_tail_ms"] = (tail_v * 1e3, f"ms {tail_unit}")
    elif workload == "thinning":
        work = counts.get("couple.candidates", 0) / busy({"couple"})
        report["thin.clt_cand_per_s"] = (counts.get("clt.candidates", 0) / busy({"clt"}), "1/s")
        report["thin.couple_cand_per_s"] = (work, "1/s")
        report["thin.clt_replica_p50_s"] = (p50, "s")
        report["thin.clt_replica_tail_s"] = (tail_v, f"s {tail_unit}")
    else:
        work = counter_sum(passes[0].records).get("bytes_written", 0) / wall_s
        report["cli.cmd_p50_ms"] = (p50 * 1e3, "ms")
        report["cli.cmd_tail_ms"] = (tail_v * 1e3, f"ms {tail_unit}")
        report["cli.out_mb_per_s"] = (work / 1e6, "MB/s")
    gated = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail_v * 1e3, "ms"),
        "work_per_s": (work, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return gated, report


def fanout_speedup(hawkes, model_tuple, threads: int) -> tuple:
    """run_replicas on clt replicas, serial against a pool of ``threads`` processes.

    Returns (speed-up, replicas, whether both runs gave the same candidate counts).
    """
    phi, h, xi, cfg = model_tuple
    replicas = 2 * threads
    fn = lambda r: hawkes.simulate_hawkes(phi, h, xi, cfg, replica=r).metadata["candidates"]
    t0 = time.perf_counter()
    serial = hawkes.run_replicas(fn, replicas, threads=1)
    t1 = time.perf_counter()
    pooled = hawkes.run_replicas(fn, replicas, threads=threads)
    t2 = time.perf_counter()
    return (t1 - t0) / (t2 - t1), replicas, pooled == serial


def run_workload(args) -> int:
    if not (SRC / "renewal_lab" / "__init__.py").is_file():
        print(f"error: no renewal_lab sources under {SRC}; run from a renewal-lab checkout", file=sys.stderr)
        return 2
    pinned = pin_environment()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import renewal_lab

    if Path(renewal_lab.__file__).resolve().parent != (SRC / "renewal_lab").resolve():
        print(f"error: imported renewal_lab from {renewal_lab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads as wl
    from renewal_lab import hawkes

    import_s = time.perf_counter() - _T_START
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        reference = Reference(np)
        builds, refs, limit_solves = [], [], []
        for _ in range(SETUP_REPEATS):
            refs.append(reference.time())
            t0 = time.perf_counter()
            inputs = wl.build(args.workload, args.seed, tmp)
            builds.append(time.perf_counter() - t0)
            limit_solves.append(inputs.limit_solve_s)
        setup_raw = import_s + statistics.median(builds)
        setup_s = setup_raw * REFERENCE_S / statistics.median(refs)

        tracer = tracing.Tracer() if args.trace else None
        passes = []
        t_begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                records = run_pass(inputs.ops, wl, reference, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append(Pass(traced, records))
            if len(passes) >= 2 and time.perf_counter() - t_begin >= args.seconds:
                break

        digests = sorted({p.digest() for p in passes})
        records = [r for p in passes for r in p.records]
        correct = len(digests) == 1 and not any(r.status == "wrong" for r in records)
        nproc = len(os.sched_getaffinity(0))
        env = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": nproc,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "seed": args.seed,
            "workload": args.workload,
            "pinned_env": pinned,
            "RENEWAL_LAB_THREADS": os.environ.get("RENEWAL_LAB_THREADS"),
        }
        untraced = [p for p in passes if not p.traced]
        gated, report = end_to_end(args.workload, untraced, setup_s, True)
        _, raw = end_to_end(args.workload, untraced, setup_raw, False)
        counters = counter_sum(passes[0].records)

        print(f"renewal-lab benchmark: workload {args.workload}, seed {args.seed}, "
              f"{len(passes)} passes of {len(inputs.ops)} operations, trace {args.trace}")
        print("environment: " + json.dumps(env, sort_keys=True))
        print(f"digest (sha256 of the outputs of one pass) for seed {args.seed}: {digests[0]}"
              + ("" if len(digests) == 1 else f"  MISMATCH: {len(digests)} different digests across passes"))
        print("counters per pass: " + json.dumps(counters, sort_keys=True))
        print("passes: raw s " + " ".join(f"{p.seconds(False):.4f}" for p in passes)
              + "; calibrated s " + " ".join(f"{p.seconds():.4f}" for p in passes))
        for r in records:
            if r.status != "ok":
                print(f"FAILED ({r.status}) {r.detail}")
        print(f"end-to-end metrics (times calibrated to a {REFERENCE_S * 1e3:g} ms reference; raw in brackets):")
        for name, (value, unit) in report.items():
            print(f"  {name:28s} {value:14.6g}  [{raw[name][0]:12.6g}] {unit}")

        if args.trace:
            traced_passes = [p for p in passes if p.traced]
            layer = tracing.layer_metrics(tracer.spans, len(traced_passes))
            overhead = (statistics.median(p.seconds() for p in traced_passes)
                        / statistics.median(p.seconds() for p in untraced) - 1.0)
            speedup = 0.0
            if inputs.fanout_model is not None:
                speedup, replicas, same = fanout_speedup(hawkes, inputs.fanout_model, nproc)
                correct &= same
                print(f"fan-out: {replicas} clt replicas, serial against {nproc} processes: speed-up {speedup:.3f}"
                      + ("" if same else "  MISMATCH: the pool changed the candidate counts"))
            layer["hawkes.limit_solve_s"] = (statistics.median(limit_solves), "s")
            layer["hawkes.fanout_speedup"] = (speedup, "ratio")
            layer["lab.bytes_written"] = (float(counters.get("bytes_written", 0)), "B")
            layer["trace.overhead_frac"] = (overhead, "ratio")
            layer["trace.reference_ms"] = (statistics.median(r.reference for r in records) * 1e3, "ms")
            layer = dict(sorted(layer.items()))
            print(f"per-layer metrics (raw times over {len(traced_passes)} traced passes; counts and self_s per pass; "
                  "a layer the workload never calls reads 0):")
            for name, (value, unit) in layer.items():
                print(f"  {name:36s} {value:14.6g} {unit}")
            bases = {
                "volterra.inner_iters_per_step": "volterra.implicit_steps",
                "hawkes.accept_ratio.clt": "hawkes.candidates.clt",
                "hawkes.accept_ratio.couple": "hawkes.candidates.couple",
                "hawkes.coupled_accept_ratio": "hawkes.candidates.couple",
            }
            for ratio, base in bases.items():
                print(f"  ratio {ratio} = {layer[ratio][0]:.6g} over base {base} = {layer[base][0]:.0f}")
            print("roadmap baseline beside this run (raw us):")
            for what, key, base in ROADMAP_BASELINE:
                value = layer[key][0]
                shown = f"{value:8.2f}" if value else "not run by this workload"
                print(f"  {what:40s} baseline {base:6.1f}   measured {shown}")
            metrics = layer
        else:
            metrics = gated
        print(json.dumps({
            "correct": correct,
            "attempted": len(records),
            "failed": sum(r.status != "ok" for r in records),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def run_all(args) -> int:
    """Each workload in its own process, so that set-up and peak memory stay per workload."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
