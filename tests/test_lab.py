import copy
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import renewal_lab.lab as lab
from renewal_lab import acceptance
from renewal_lab.lab import ConfigError, build_kernel, build_phi, build_source, load_config, main, render_svg

SCENARIOS = Path(lab.__file__).parent / "scenarios"


class _Reached(Exception):
    """Raised in place of a command's numerical work; its args are the arguments the work was given."""


def _reached(*args, **kwargs):
    raise _Reached(*args)


def _stop_at_the_work(monkeypatch):
    """Make each command stop where its numerical work starts, after it has read and built its config."""
    for name in ("solve_nre", "simulate_hawkes", "clt_experiment", "coupling_experiment"):
        monkeypatch.setattr(lab, name, _reached)
    monkeypatch.setattr(lab.model, "find_fixed_points", _reached)


def test_all_bundled_scenarios_validate_and_build(tmp_path, monkeypatch):
    """Every block of each bundled scenario is read and built by the command that runs the scenario."""
    assert sorted(path.stem for path in SCENARIOS.glob("*.json")) == sorted(_SHRUNK)
    _stop_at_the_work(monkeypatch)
    for name, (command, _) in _SHRUNK.items():
        with pytest.raises(_Reached):
            main([command, "--config", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path / name), "--threads", "1"])


def test_unknown_keys_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kernel": {"type": "erlang", "n": 2, "alpha": 3.0, "beta": 1.0}}')
    cfg = load_config(bad)
    with pytest.raises(ConfigError, match=r"kernel\.beta"):
        build_kernel(cfg["kernel"])
    worse = tmp_path / "worse.json"
    worse.write_text('{"mystery": 1}')
    with pytest.raises(ConfigError, match=r"config\.mystery"):
        load_config(worse)


def test_builders_reject_unknown_types():
    with pytest.raises(ConfigError, match="kernel.type"):
        build_kernel({"type": "levy"})
    with pytest.raises(ConfigError, match="phi.type"):
        build_phi({"type": "relu"})
    h = build_kernel({"type": "erlang", "n": 1, "alpha": 2.0})
    phi = build_phi({"type": "affine", "mu": 1.0})
    with pytest.raises(ConfigError, match="source.type"):
        build_source({"type": "noise"}, h, phi)


def test_compact_kernel_profiles():
    bump = build_kernel({"type": "compact", "profile": "bump", "mass": 0.5, "support": 1.0})
    assert bump.norm_l1 == pytest.approx(0.5, abs=1e-6)
    box = build_kernel({"type": "compact", "profile": "box", "height": 2.0, "support": 0.5})
    assert box.norm_l1 == pytest.approx(1.0, abs=1e-9)
    tri = build_kernel({"type": "compact", "profile": "triangle", "height": 1.0, "support": 1.0})
    assert tri.norm_l1 == pytest.approx(0.5, abs=1e-6)
    tab = build_kernel({"type": "compact", "profile": "table", "samples": [1.0, 1.0], "support": 0.5})
    assert tab.norm_l1 == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_kernel_rejects_non_finite_samples(bad):
    with pytest.raises(ConfigError, match=r"^kernel\.samples: not a finite number"):
        build_kernel({"type": "compact", "profile": "table", "samples": [1.0, bad, 0.5], "support": 1.0})


def test_solve_command_round_trip(tmp_path):
    code = main(
        [
            "solve",
            "--config",
            str(SCENARIOS / "empty_source.json"),
            "--out",
            str(tmp_path / "a"),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "a" / "limit.json").read_text())
    assert doc["verdict"] == "converged"
    assert doc["ell"] == pytest.approx(0.521248, abs=1e-5)
    # same seed, same config: byte-identical CSV
    code = main(["solve", "--config", str(SCENARIOS / "empty_source.json"), "--out", str(tmp_path / "b")])
    assert code == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (tmp_path / "b" / "trajectory.csv").read_bytes()


def test_equilibria_command(tmp_path):
    code = main(["equilibria", "--config", str(SCENARIOS / "bistable_equilibria.json"), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fixed_points.json").read_text())
    ells = [fp["ell"] for fp in doc["fixed_points"]]
    assert len(ells) == 3
    kinds = [fp["stability"]["kind"] for fp in doc["fixed_points"]]
    assert kinds == ["subcritical", "supercritical", "subcritical"]


def test_equilibria_empty_result(tmp_path):
    cfg = tmp_path / "none.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "no-fixed-point",
                "kernel": {"type": "exponential", "c": 1.0, "alpha": 1.0},
                "phi": {"type": "affine", "mu": 1.0},
            }
        )
    )
    code = main(["equilibria", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fixed_points.json").read_text())
    assert doc["fixed_points"]["empty"] is True


def test_envelope_command(tmp_path):
    code = main(["envelope", "--config", str(SCENARIOS / "envelope_compact.json"), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "envelope.json").read_text())
    assert doc["verified"] is True
    assert doc["fit"]["slope"] < -0.3
    assert doc["envelope"]["case"] == "compact-compact"
    assert (tmp_path / "fit.csv").exists()


def test_hawkes_command_and_events_csv(tmp_path):
    code = main(["hawkes", "--config", str(SCENARIOS / "hawkes_small.json"), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "events.csv").read_text().splitlines()
    assert lines[0] == "replica,particle,event_time"
    assert len(lines) > 100
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["total_events"] == len(lines) - 1
    assert len(doc["estimator_values"]) == 3


def test_clt_and_couple_summaries_carry_thinning_counters(tmp_path):
    base = {"seed": 3, "kernel": {"type": "exponential", "c": 0.5, "alpha": 1.0},
            "phi": {"type": "affine", "mu": 1.0}, "source": {"type": "equilibrium", "ell": 2.0}}
    specs = {
        "hawkes": {"n_particles": 5, "t_end": 5.0, "replicas": 3, "checkpoints": [5.0]},
        "clt": {"n_particles": 20, "t_end": 2.0, "replicas": 100, "ell": 2.0},
        "couple": {"t_end": 5.0, "replicas": 3, "coupling_sizes": [5, 10]},
    }
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(base, hawkes=spec)))
        assert main([name, "--config", str(path), "--out", str(tmp_path / name)]) == 0
        h = build_kernel(base["kernel"])
        phi = build_phi(base["phi"])
        xi = build_source(base["source"], h, phi)
        sizes = spec.get("coupling_sizes", [spec.get("n_particles")])
        runs = [
            lab.simulate_hawkes(phi, h, xi, lab.HawkesConfig(n, spec["t_end"], 3, track_coupled=name == "couple"), replica=r)
            for n in sizes
            for r in range(spec["replicas"])
        ]
        doc = json.loads((tmp_path / name / "summary.json").read_text())
        for key in ("candidates", "reschedules", "breaches", "bound_checks"):
            assert doc[key] == sum(run.metadata[key] for run in runs), (name, key)
        assert doc["breaches"] == 0 and doc["candidates"] > 0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_couple_without_interaction_writes_strict_json(tmp_path):
    """kernel.c = 0 makes every mean sup difference 0: the slope is null, never NaN."""
    doc = json.loads((SCENARIOS / "coupling_affine.json").read_text())
    doc["kernel"]["c"] = 0.0
    doc["hawkes"].update(t_end=2.0, replicas=3, coupling_sizes=[5, 10])
    config = tmp_path / "uncoupled.json"
    config.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["couple", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["mean_sup_diff"] == [0.0, 0.0]
    assert summary["slope"] is None


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "doc.json"
    lab._write_json(path, {"a": [math.inf, (-math.inf, 1.5)], "b": np.float64("nan"), "c": {"d": math.nan}})
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert doc == {"a": [None, [None, 1.5]], "b": None, "c": {"d": None}}


def test_divergence_exit_code(tmp_path):
    cfg = tmp_path / "div.json"
    doc = json.loads((SCENARIOS / "divergence_a2.json").read_text())
    doc["solver"]["t_end"] = 60.0  # shorter horizon keeps the test quick
    cfg.write_text(json.dumps(doc))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2


def test_plot_command(tmp_path):
    main(["solve", "--config", str(SCENARIOS / "empty_source.json"), "--out", str(tmp_path)])
    out = tmp_path / "plot.svg"
    code = main(["plot", "--csv", str(tmp_path / "trajectory.csv"), "--out", str(out), "--title", "demo"])
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "demo" in svg
    # deterministic output: re-render and compare bytes
    out2 = tmp_path / "plot2.svg"
    main(["plot", "--csv", str(tmp_path / "trajectory.csv"), "--out", str(out2), "--title", "demo"])
    assert out.read_bytes() == out2.read_bytes()


def test_plot_envelope_overlay(tmp_path):
    main(["envelope", "--config", str(SCENARIOS / "envelope_compact.json"), "--out", str(tmp_path)])
    out = tmp_path / "env.svg"
    code = main(
        [
            "plot",
            "--csv",
            str(tmp_path / "trajectory.csv"),
            "--out",
            str(out),
            "--envelope",
            str(tmp_path / "envelope.json"),
        ]
    )
    assert code == 0
    assert "bound+" in out.read_text()


def test_plot_missing_column(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    code = main(["plot", "--csv", str(bad), "--out", str(tmp_path / "x.svg")])
    assert code == 1


def test_bad_config_returns_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"unknown_section": {}}')
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 1
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["solve", "--config", str(notjson), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["equilibria", "solve"])
@pytest.mark.parametrize("c", [-1.0, -50.0])
def test_divergence_phi_below_its_domain_exits_one(tmp_path, capsys, command, c):
    """An inhibitory kernel drives the divergence example's argument below -2, where Phi is undefined."""
    doc = {"kernel": {"type": "exponential", "c": c, "alpha": 1.0}, "phi": {"type": "divergence_example"}}
    if command == "solve":
        doc["solver"] = {"t_end": 5.0}
    cfg = tmp_path / "domain.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "defined for x >= -2 only" in err and "Traceback" not in err, err
    assert "phi.type divergence_example" in err and "got x = -" in err, err


@pytest.mark.parametrize(
    "argv,threads_env,names",
    [
        (["suite", "--only", "99"], None, ("--only", "99", "1-15")),
        (["suite", "--only", "x"], None, ("--only", "'x'")),
        (["hawkes", "--config", str(SCENARIOS / "hawkes_small.json")], "abc", ("RENEWAL_LAB_THREADS", "'abc'")),
    ],
    ids=["unknown-criterion", "not-a-number", "threads-env"],
)
def test_bad_cli_values_exit_one_naming_them(tmp_path, capsys, monkeypatch, argv, threads_env, names):
    """A bad flag or environment value exits 1 naming it, before any criterion or simulation runs."""
    _stop_at_the_work(monkeypatch)
    monkeypatch.setattr(acceptance, "CRITERIA", dict.fromkeys(acceptance.CRITERIA, _reached))
    if threads_env is None:
        monkeypatch.delenv("RENEWAL_LAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("RENEWAL_LAB_THREADS", threads_env)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Traceback" not in err, err


@pytest.mark.parametrize("key", ["inner_max_iter"])
def test_zero_iteration_cap_exits_one_naming_the_key(tmp_path, capsys, key):
    doc = json.loads((SCENARIOS / "empty_source.json").read_text())
    doc["solver"][key] = 0
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source,key", [({"type": "divergence_example", "a": 0.1}, "source.a"),
                                        ({"type": "equilibrium", "ell": -1.0}, "source.ell")])
def test_source_maker_error_exits_one_naming_the_key(tmp_path, capsys, source, key):
    # a = 0.1 is below the divergence source's threshold a*; ell = -1 is below 0
    doc = {"kernel": {"type": "exponential", "c": 0.5, "alpha": 1.0}, "phi": {"type": "affine"},
           "source": source, "solver": {"t_end": 1.0}}
    cfg = tmp_path / "source.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: {key}: " in err and "Traceback" not in err, err


def test_hawkes_command_threads_byte_identical(tmp_path, monkeypatch):
    used = []
    fan_out = lab.run_replicas

    def spy(fn, replicas, threads):
        used.append(threads)
        return fan_out(fn, replicas, threads)

    monkeypatch.setattr(lab, "run_replicas", spy)
    for threads in ("1", "2"):
        argv = ["hawkes", "--config", str(SCENARIOS / "hawkes_small.json"), "--out", str(tmp_path / threads)]
        assert main(argv + ["--threads", threads]) == 0
    assert used == [1, 2]
    assert (tmp_path / "1" / "events.csv").read_bytes() == (tmp_path / "2" / "events.csv").read_bytes()


def test_render_svg_log_scale(tmp_path):
    xs = np.linspace(1.0, 10.0, 50)
    render_svg(
        [{"xs": xs, "ys": np.exp(-xs), "label": "decay"}],
        tmp_path / "log.svg",
        title="log demo",
        log_y=True,
    )
    assert (tmp_path / "log.svg").read_text().count("polyline") == 1


# every bundled scenario with the command that runs it and the edits that make one run take well under a second
_SHRUNK = {
    "bistable_basin_lower": ("solve", {"solver": {"t_end": 2.0}, "limit_window": 1.0}),
    "bistable_basin_upper": ("solve", {"solver": {"t_end": 2.0}, "limit_window": 1.0}),
    "bistable_equilibria": ("equilibria", {}),
    "clt_affine": ("clt", {"hawkes": {"n_particles": 20, "t_end": 2.0, "replicas": 100}}),
    "coupling_affine": ("couple", {"hawkes": {"t_end": 2.0, "replicas": 3, "coupling_sizes": [5, 10]}}),
    "divergence_a2": ("solve", {"solver": {"t_end": 2.0}, "limit_window": 1.0}),
    "empty_source": ("solve", {"solver": {"t_end": 2.0}, "limit_window": 1.0}),
    "envelope_compact": ("envelope", {"solver": {"dt": 0.002, "t_end": 10.0}, "rates": {"window": [1.0, 7.0]}}),
    "envelope_polyxi": ("envelope", {"solver": {"t_end": 2.0}}),
    "equilibrium_locked": ("solve", {"solver": {"t_end": 2.0}, "limit_window": 1.0}),
    "erlang_crossing_lower_order": ("solve", {"solver": {"t_end": 2.0}, "limit_window": 1.0}),
    "hawkes_small": ("hawkes", {"hawkes": {"n_particles": 10, "t_end": 2.0, "checkpoints": [0.5, 1.0, 2.0]}}),
}
# further edits, each of which must exit 1 naming its key (range checks in the library name it without the block);
# a block or key the command does not read, and a number of the wrong JSON type, are such edits too
_EXTRA_EDITS = {
    "empty_source": [(("solver", "dt"), [1]), (("solver", "t_end"), math.inf), (("solver", "picard_mode"), "false"),
                     (("solver", "inner_tol"), 0), (("solver", "picard_tol"), 0), (("solver", "quadrature"), "x"),
                     (("solver", "inner_max_iter"), 0), (("solver", "picard_mode"), True),
                     (("solver", "picard_max_iter"), 5), (("rates",), {"eps0": 0.1}), (("kernel", "n"), 2.5),
                     (("kernel", "alpha"), True), (("kernel", "alpha"), "3.0"), (("solver", "inner_max_iter"), 3.9),
                     (("limit_window",), 5.0), (("limit_window",), -1.0)],
    "bistable_basin_lower": [(("source", "perturbation"), 5), (("source", "perturbation"), {"amplitude": 0.1, "rate": 0})],
    "bistable_equilibria": [(("source",), {"type": "empty"})],
    "erlang_crossing_lower_order": [(("source", "c"), [1.4, math.nan, 0.0]), (("source", "c"), [math.inf, 1.4, 0.0])],
    "hawkes_small": [(("hawkes", "checkpoints"), 5), (("hawkes", "replicas"), 0), (("phi", "mu"), math.nan),
                     (("hawkes", "track_coupled"), "false"), (("hawkes", "subcritical_override"), "false"),
                     (("hawkes", "checkpoints"), [0.5, math.nan]), (("hawkes", "checkpoints"), [0.5, math.inf]),
                     (("hawkes", "diag_grid_dt"), 0.5), (("hawkes", "refresh"), 0.5), (("solver",), {"t_end": 1.0}),
                     (("limit_window",), 1.0), (("hawkes", "coupling_sizes"), [5, 10]), (("hawkes", "margin"), 1.5),
                     (("hawkes", "track_coupled"), True), (("hawkes", "n_particles"), 50.9),
                     (("hawkes", "n_particles"), 0), (("hawkes", "thinning_margin"), 1.0)],
    "coupling_affine": [(("hawkes", "coupling_sizes"), 5), (("hawkes", "coupling_sizes"), [5]), (("hawkes", "coupling_sizes"), [5, 5]),
                        (("hawkes", "coupling_sizes"), [0, 10]), (("hawkes", "n_particles"), 5), (("hawkes", "ell"), 2.0)],
    "clt_affine": [(("hawkes", "ell"), 0), (("hawkes", "checkpoints"), [1.0]), (("hawkes", "track_coupled"), False)],
    "envelope_compact": [(("rates", "fit_model"), "x"), (("rates", "window"), 5), (("rates", "calibrate"), "false"),
                         (("rates", "window"), [1.0]), (("rates", "window"), [1.0, 2.0, 3.0]),
                         (("rates", "window"), [1.0, math.nan]), (("kernel", "resolution"), 0),
                         (("kernel", "resolution"), -1), (("kernel", "resolution"), 1), (("kernel", "height"), 1.0)],
    "envelope_polyxi": [(("source", "chi"), {}), (("source", "chi"), {"type": "kernel_tail", "a": 1.0})],
}


# at full size every bundled scenario exits 0 but the one whose solve correctly diverges, which exits 2;
# the two particle experiments, at over 10 s each, run only shrunk
_FULL_SIZE = [name for name in sorted(_SHRUNK) if name not in ("clt_affine", "coupling_affine")]


@pytest.mark.parametrize("name", _FULL_SIZE)
def test_bundled_scenario_at_full_size_exits_as_promised(tmp_path, name):
    command, _ = _SHRUNK[name]
    config = SCENARIOS / f"{name}.json"
    want = 2 if name == "divergence_a2" else 0
    assert main([command, "--config", str(config), "--out", str(tmp_path), "--threads", "1"]) == want



@pytest.mark.parametrize("edit, message", [
    ({"solver": {"t_end": 2.0}}, "never settles in the eps0-ball of a root"),
    ({"kernel": {"type": "exponential", "c": 2.0, "alpha": 1.0}, "source": {"type": "empty"}, "solver": {"t_end": 40.0}},
     "the trajectory diverges"),
], ids=["unsettled", "divergent"])
def test_envelope_exits_one_without_the_rate_theorem_hypotheses(tmp_path, capsys, edit, message):
    """envelope needs lambda to stay in the eps0-ball of a root from some t0 < t_end on, which a run that is
    too short for envelope_polyxi's slow approach, or one that overflows, does not give."""
    doc = json.loads((SCENARIOS / "envelope_polyxi.json").read_text())
    doc.update(edit)
    config = tmp_path / "edited.json"
    config.write_text(json.dumps(doc))
    assert main(["envelope", "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err

def test_equilibria_bytes_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    """tau0 comes from Phi's formula on Python floats (math.exp), so numpy's SIMD dispatch cannot move a bit."""
    src = Path(lab.__file__).resolve().parents[1]
    outs = []
    for disabled in ("", "X86_V4 AVX512_ICL AVX512_SPR"):
        out = tmp_path / (disabled.split(" ")[0] or "default")
        env = dict(os.environ, PYTHONPATH=str(src), NPY_DISABLE_CPU_FEATURES=disabled)
        proc = subprocess.run(
            [sys.executable, "-m", "renewal_lab.lab", "equilibria", "--config", str(SCENARIOS / "bistable_equilibria.json"),
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "fixed_points.json").read_bytes())
    assert outs[0] == outs[1]

def _one_value_edits(node, path=()):
    for key, value in node.items():
        for bad in (None, "x", 0, -1):
            yield path + (key,), bad, value
        if isinstance(value, dict):
            yield from _one_value_edits(value, path + (key,))


def _is_number(value):
    if isinstance(value, list):
        return bool(value) and all(map(_is_number, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@pytest.mark.parametrize("name", sorted(_SHRUNK))
def test_one_value_edits_exit_cleanly_naming_the_key(tmp_path, capsys, name):
    """Each value of a bundled scenario replaced by None, "x", 0 or -1 exits 0, 1 or 2 without a
    traceback, and a value a numeric key cannot be cast from exits 1 naming <block>.<key>."""
    assert sorted(path.stem for path in SCENARIOS.glob("*.json")) == sorted(_SHRUNK)
    command, shrink = _SHRUNK[name]
    base = json.loads((SCENARIOS / f"{name}.json").read_text())
    for key, value in shrink.items():
        base[key] = dict(base[key], **value) if isinstance(value, dict) else value
    edits = [(path, bad, ".".join(path) if _is_number(old) and bad in (None, "x") else None)
             for path, bad, old in _one_value_edits(base)]
    edits += [(path, bad, path[-1]) for path, bad in _EXTRA_EDITS.get(name, [])]
    failures = []
    for path, bad, named in edits:
        cfg = copy.deepcopy(base)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        config = tmp_path / "edited.json"
        config.write_text(json.dumps(cfg))
        where = f"{'.'.join(path)} = {bad!r}"
        try:
            code = main([command, "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "1"])
        except Exception as exc:
            failures.append(f"{where}: raised {exc!r}")
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "Traceback" in err:
            failures.append(f"{where}: exit {code}, {err!r}")
        elif named and not (code == 1 and named in err):
            failures.append(f"{where}: exit {code} without naming the key: {err!r}")
    assert not failures, "\n".join(failures)


def test_solve_inhibitory_sigmoid_does_not_overflow(tmp_path):
    doc = {
        "kernel": {"type": "exponential", "c": -1000.0, "alpha": 1.0},
        "phi": {"type": "sigmoid", "base": 0.5, "gain": 1.0, "slope": 8.0, "center": 1.0},
        "solver": {"t_end": 5.0},
    }
    cfg = tmp_path / "inhibitory.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0


# a value other than the default for every field of SolverConfig and HawkesConfig; t_end exceeds the
# limit_window of the solve and envelope scenarios, which must lie below it
_SETTINGS = {"t_end": 6.0, "dt": 0.002, "quadrature": "left-rectangle", "inner_tol": 1e-10, "inner_max_iter": 7,
             "n_particles": 7, "seed": 5, "replicas": 3, "thinning_margin": 1.25, "track_coupled": False,
             "xi_perturbation": 0.5, "subcritical_override": True}


# each command with a scenario it runs, the block that sets its config and the fields the command fixes itself
_FIELD_OWNERS = [
    ("solve", "empty_source", "solver", lab.SolverConfig, set()),
    ("envelope", "envelope_compact", "solver", lab.SolverConfig, set()),
    ("hawkes", "hawkes_small", "hawkes", lab.HawkesConfig, {"seed", "track_coupled"}),
    ("clt", "clt_affine", "hawkes", lab.HawkesConfig, {"seed", "track_coupled"}),
    ("couple", "coupling_affine", "hawkes", lab.HawkesConfig, {"seed", "track_coupled", "n_particles"}),
]


def test_cli_sets_every_config_field_the_command_does_not_fix(tmp_path, monkeypatch):
    """The solver or hawkes block sets each field of the config it builds that the command does not fix itself."""
    _stop_at_the_work(monkeypatch)
    for command, scenario, block, cls, fixed in _FIELD_OWNERS:
        settable = {f.name: _SETTINGS[f.name] for f in fields(cls) if f.name not in fixed}
        doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        doc[block] = {**doc[block], **settable}
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(_Reached) as reached:
            main([command, "--config", str(config), "--out", str(tmp_path / command), "--threads", "1"])
        got = next(arg for arg in reached.value.args if isinstance(arg, cls))
        assert {name: getattr(got, name) for name in settable} == settable, command


def test_unlockable_equilibrium_exits_one_naming_the_step(tmp_path, capsys):
    """The order-0 kernel under the trapezoid rule cannot lock the centre root of the bundled scenario."""
    doc = json.loads((SCENARIOS / "equilibrium_locked.json").read_text())
    doc["kernel"]["n"] = 0
    doc["solver"]["t_end"] = 0.1
    cfg = tmp_path / "locked.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "source.ell" in err and "step 10 " in err and "t_n = 0.01," in err and "trapezoid" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", [[], [1.0, -0.5]], ids=["empty", "negative"])
def test_bad_table_kernel_exits_one_naming_the_key(tmp_path, capsys, samples):
    doc = {
        "kernel": {"type": "compact", "profile": "table", "samples": samples, "support": 1.0},
        "phi": {"type": "affine", "mu": 1.0},
        "solver": {"t_end": 1.0},
    }
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 1
    assert "kernel.samples" in capsys.readouterr().err
    doc["kernel"]["samples"] = [0.4, 0.4]
    cfg.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "good")]) == 0
