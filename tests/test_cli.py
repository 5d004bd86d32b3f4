"""Command line interface: solve, gen, experiment, and replay subcommands,
exit codes, CSV/manifest outputs, and deterministic replays.
"""

import concurrent.futures
import contextlib
import csv
import inspect
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import fidelity_pure, serial_pool, solution_state
from zenosat import cli, metrics
from zenosat.cli import (
    EXIT_SOLVED,
    EXIT_UNDECIDED,
    EXIT_UNSAT,
    EXIT_USAGE,
    EXPERIMENTS,
    _best_solution_fidelity,
    main,
    run_experiment_spec,
)
from zenosat.satcore import (
    SatError,
    enumerate_solutions,
    formula,
    parse_dimacs,
    random_unique_solution_instance,
)
from zenosat.solver import RunConfig, run_average, run_heralded_restart, success_probability


# one small manifest per experiment kind, with the outputs it wrote
PINNED = Path(__file__).parent / "data" / "experiments"
PINNED_MANIFESTS = {
    manifest["spec"]["kind"]: manifest
    for manifest in (
        json.loads(path.read_text()) for path in sorted(PINNED.glob("*_manifest.json"))
    )
}


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


def read_cells(path):
    """Rows of string cells: a CSV as written, a JSON object one key a row."""
    if path.suffix == ".csv":
        return read_csv(path)
    return [
        [key] + [str(v) for v in (val if isinstance(val, list) else [val])]
        for key, val in json.loads(path.read_text()).items()
    ]


def _is_float(cell):
    for parse in (int, float):
        try:
            parse(cell)
            return parse is float
        except ValueError:
            pass
    return False


def assert_same_cells(expected, actual):
    """Integers and text match exactly, floats to within 1e-12."""
    assert [len(row) for row in actual] == [len(row) for row in expected]
    for want, got in zip(sum(expected, []), sum(actual, [])):
        if _is_float(want):
            assert float(got) == pytest.approx(
                float(want), rel=1e-12, abs=1e-12, nan_ok=True
            )
        else:
            assert got == want


class Hung(Exception):
    """Raised by ``deadline``; no handler of the CLI catches it."""


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------- solve


def test_solve_unique_problem_succeeds(capsys):
    code = main(
        ["solve", "builtin:unique2", "--Tf", "100", "--dt", "0.25",
         "--dtm", "50", "--seed", "0"]
    )
    assert code == EXIT_SOLVED
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "solved"
    assert payload["outcome"]["candidate"] == "10"
    assert payload["outcome"]["verified"] is True


def test_solve_unsat_problem_decides_unsat(capsys):
    code = main(
        ["solve", "builtin:unsat2", "--Tf", "20", "--dt", "0.25",
         "--dtm", "50", "--max-shots", "2"]
    )
    assert code == EXIT_UNSAT
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "unsat-decided"
    assert len(payload["attempts"]) == 2


def test_solve_all_aborted_shots_is_undecided(capsys):
    code = main(
        ["solve", "builtin:unsat2", "--mode", "heralded-single", "--Tf", "60",
         "--dt", "0.02", "--max-shots", "2", "--seed", "0"]
    )
    out = capsys.readouterr().out
    payload = json.loads(out)
    if code == EXIT_UNDECIDED:
        assert payload["status"] == "undecided"
        assert all(a["failed"] for a in payload["attempts"])
    else:
        # a shot survived to readout on an unsatisfiable problem
        assert code == EXIT_UNSAT


def test_solve_reads_dimacs_file(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 3\n1 2 0\n1 -2 0\n-1 -2 0\n")
    code = main(
        ["solve", str(cnf), "--Tf", "100", "--dt", "0.25", "--dtm", "50"]
    )
    assert code == EXIT_SOLVED
    assert json.loads(capsys.readouterr().out)["outcome"]["candidate"] == "10"


def test_solve_missing_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/file.cnf"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_solve_refuses_register_too_large_for_memory(tmp_path, capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 20 2\n1 2 0\n3 4 0\n")
    assert main(["solve", str(cnf)]) == EXIT_USAGE
    assert "physical memory" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["heralded-single", "heralded-restart"])
def test_solve_refuses_filter_window_too_large_for_memory(mode, capsys):
    # T_be = T_f / 10 makes a window of 10^11 steps of 3 clauses' samples
    argv = ["solve", "builtin:unique2", "--mode", mode, "--Tf", "1e12", "--dt", "1"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "filter window" in captured.err and "physical memory" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "builtin:unique2", "--max-shots", "-2"],
    ["solve", "builtin:unique2", "--max-shots", "0"],
    ["gen", "--n", "3", "--alpha", "1.0", "--k", "2", "--count", "-1"],
    ["experiment", "spec.json", "--jobs", "0"],
    ["replay", "spec_manifest.json", "--jobs", "0"],
], ids=["max-shots-negative", "max-shots-zero", "count", "experiment-jobs",
        "replay-jobs"])
def test_counts_below_one_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    # refused before anything runs or is written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "must be an integer >= 1" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


SCHEDULE_FILES = {
    "nan_schedule.json": "[[0.0, 0.0], [NaN, 1.0], [1.0, 1.5707963267948966]]",
    "scalar_schedule.json": "5",
    "null_schedule.json": "null",
    "text_schedule.json": '[[0.0, 0.0], [1, "x"], [1.0, 1.5707963267948966]]',
    "short_schedule.json": "[[0.0, 0.0], [0.5], [1.0, 1.5707963267948966]]",
}


@pytest.mark.parametrize("option, message", [
    (["--Tf", "inf"], "must be finite"), (["--dt", "nan"], "must be finite"),
    (["--dtm", "inf"], "must be finite"), (["--tau", "nan"], "must be finite"),
    (["--schedule", "nan_schedule.json"], "must be finite"),
    (["--schedule", "scalar_schedule.json"], "pairs of real numbers"),
    (["--schedule", "null_schedule.json"], "pairs of real numbers"),
    (["--schedule", "text_schedule.json"], "pairs of real numbers"),
    (["--schedule", "short_schedule.json"], "pairs of real numbers"),
], ids=["tf-inf", "dt-nan", "dtm-inf", "tau-nan", "schedule-nan", "schedule-scalar",
        "schedule-null", "schedule-text", "schedule-short-row"])
def test_non_finite_times_are_usage_errors(option, message, tmp_path, monkeypatch, capsys):
    # refused before any step runs, with no traceback; so are malformed
    # schedule files
    monkeypatch.chdir(tmp_path)
    for name, text in SCHEDULE_FILES.items():
        Path(name).write_text(text)
    assert main(["solve", "builtin:unique2", *option]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_solve_with_custom_schedule_file(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps([[0.0, 0.0], [0.5, 1.5], [1.0, 1.5707963267948966]]))
    code = main(
        ["solve", "builtin:unique2", "--Tf", "100", "--dt", "0.25",
         "--dtm", "50", "--schedule", str(sched)]
    )
    assert code == EXIT_SOLVED
    capsys.readouterr()


# ---------------------------------------------------------------- gen


def test_gen_writes_instances(tmp_path, capsys):
    code = main(
        ["gen", "--n", "5", "--alpha", "2.0", "--k", "3", "--count", "3",
         "--seed", "4", "--outdir", str(tmp_path)]
    )
    assert code == 0
    files = sorted(tmp_path.glob("inst_*.cnf"))
    assert len(files) == 3
    for path in files:
        f = parse_dimacs(path.read_text())
        assert f.num_vars == 5 and f.k == 3 and f.num_clauses == 10
    capsys.readouterr()


def test_module_entry_point_runs_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "zenosat", "gen", "--n", "3", "--alpha", "1.0",
         "--k", "2", "--seed", "0", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_dimacs((tmp_path / "inst_0001.cnf").read_text()).num_vars == 3


def test_gen_unique_instances(tmp_path, capsys):
    code = main(
        ["gen", "--n", "4", "--alpha", "1.5", "--k", "2", "--count", "2",
         "--unique", "--seed", "1", "--outdir", str(tmp_path)]
    )
    assert code == 0
    for path in tmp_path.glob("inst_*.cnf"):
        f = parse_dimacs(path.read_text())
        assert enumerate_solutions(f).count == 1
    capsys.readouterr()


def test_gen_rejects_wide_clauses(capsys):
    assert main(["gen", "--n", "2", "--alpha", "1.0", "--k", "3"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["--n", "3", "--alpha", "0.1", "--k", "3"],  # zero clauses
    ["--n", "4", "--alpha", "0.5", "--k", "3", "--unique"],  # no unique instance
    ["--n", "3", "--alpha", "inf", "--k", "2"],  # an OverflowError traceback
    ["--n", "3", "--alpha", "nan", "--k", "2", "--unique"],
    ["--n", "3", "--alpha", "1e300", "--k", "2"],  # looped over 3e300 clauses
], ids=["zero-clauses", "no-unique-instance", "alpha-inf", "alpha-nan-unique",
        "alpha-huge"])
def test_refused_gen_makes_no_directory(args, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["gen", *args, "--outdir", str(outdir)]) == EXIT_USAGE
    assert not outdir.exists()
    capsys.readouterr()


def test_gen_uses_env_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZENOSAT_OUT_DIR", str(tmp_path / "envdir"))
    code = main(["gen", "--n", "3", "--alpha", "1.0", "--k", "2", "--seed", "0"])
    assert code == 0
    assert (tmp_path / "envdir" / "inst_0001.cnf").exists()
    capsys.readouterr()


# ---------------------------------------------------------------- experiment


GAMMA_SPEC = {
    "kind": "gamma-scan",
    "name": "scan",
    "cnf": "builtin:unique2",
    "gamma_tf": [1.0, 10.0],
    "dt": 0.25,
    "seed": 3,
}


def test_experiment_gamma_scan_csv(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(GAMMA_SPEC))
    code = main(["experiment", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == 0
    rows = read_csv(tmp_path / "out" / "scan.csv")
    assert rows[0] == ["gamma_tf", "purity", "concurrence", "fidelity", "z1", "z2"]
    assert len(rows) == 3
    # stronger dragging yields higher solution fidelity
    assert float(rows[2][3]) > float(rows[1][3])
    manifest = json.loads((tmp_path / "out" / "scan_manifest.json").read_text())
    assert manifest["spec"] == GAMMA_SPEC
    assert manifest["outputs"] == ["scan.csv"]
    capsys.readouterr()


def test_experiment_jobs_option_works_for_serial_kinds(tmp_path, capsys):
    # only the grid kinds (phase-transition and the two tts kinds) run in
    # parallel; the other kinds accept --jobs from the CLI and write the same
    # CSV as a serial run
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(GAMMA_SPEC))
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = main(["experiment", str(spec_path), "--out", str(out), "--jobs", jobs])
        assert code == 0
    csvs = [read_csv(tmp_path / f"jobs{jobs}" / "scan.csv") for jobs in ("1", "2")]
    assert csvs[0] == csvs[1]
    capsys.readouterr()


def test_experiment_fidelity_contour(tmp_path):
    spec = {
        "kind": "fidelity-contour",
        "name": "contour",
        "tf_over_tau": [5.0, 20.0],
        "dt_over_tau": [0.25, 1.0],
        "seed": 0,
    }
    outputs = run_experiment_spec(spec, tmp_path)
    assert outputs == ["contour.csv"]
    rows = read_csv(tmp_path / "contour.csv")
    assert rows[0] == ["dt_over_tau", "tf_over_tau", "fidelity"]
    assert len(rows) == 5
    fid = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    # weaker per-step measurement wins at fixed total time
    assert fid[("0.25", "20.0")] > fid[("1.0", "20.0")]


def test_best_solution_fidelity_matches_solution_state_fidelity():
    # the basis-probability read against <phi|rho|phi> over the satisfying
    # product states at theta = pi/2, on complex psi and rho at n = 1..6; a
    # single variable has no formula with two solutions
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        d = 1 << n
        signs = [v if b else -v for v, b in enumerate(rng.random(n) < 0.5, 1)]
        free = int(rng.integers(n))  # the one variable the two-solution formula leaves free
        formulas = {1: formula(n, *([lit] for lit in signs)),
                    0: formula(n, [1], [-1])}
        if n > 1:
            formulas[2] = formula(n, *([lit] for lit in signs[:free] + signs[free + 1:]))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        for count, f in formulas.items():
            sols = enumerate_solutions(f)
            assert sols.count == count
            for state, form in ((rho, rho), (psi, np.outer(psi, psi.conj()))):
                fid = _best_solution_fidelity(state, sols)
                if count == 0:
                    assert np.isnan(fid)
                    continue
                expected = max(fidelity_pure(form, solution_state(f, s, np.pi / 2))
                               for s in sols.assignments)
                assert abs(fid - expected) <= 1e-15


def test_experiment_phase_transition(tmp_path):
    spec = {
        "kind": "phase-transition",
        "name": "pt",
        "n": 3,
        "k": 2,
        "alphas": [0.7, 1.4],
        "tf_list": [30.0],
        "dt": 0.25,
        "dtm": 50.0,
        "instances": 6,
        "seed": 5,
    }
    outputs = run_experiment_spec(spec, tmp_path)
    rows = read_csv(tmp_path / "pt.csv")
    assert rows[0] == ["n", "k", "alpha", "t_f", "mode", "num_instances", "p_succ"]
    assert len(rows) == 3
    assert all(0.0 <= float(r[6]) <= 1.0 for r in rows[1:])
    assert outputs == ["pt.csv"]


def test_experiment_tts_scaling(tmp_path):
    spec = {
        "kind": "tts-scaling",
        "name": "scal",
        "n_list": [3, 4],
        "alpha": 2.0,
        "k": 2,
        "tf": 30.0,
        "dt": 0.25,
        "dtm": 50.0,
        "instances": 3,
        "seed": 7,
    }
    outputs = run_experiment_spec(spec, tmp_path)
    assert outputs == ["scal.csv", "scal_fit.json"]
    rows = read_csv(tmp_path / "scal.csv")
    assert rows[0] == ["n", "mode", "t_f", "p_s", "tts", "tts_99"]
    fit = json.loads((tmp_path / "scal_fit.json").read_text())
    assert set(fit) == {"lambda", "prefactor", "stderr", "n_range"}
    assert fit["lambda"] > 0


def test_impossible_unique_solution_request_is_refused_at_once(tmp_path, capsys):
    # n = 3, k = 3, alpha = 2: six clauses each exclude one of the eight
    # assignments, so at least two always survive; rejection sampling would
    # make its 10^6 attempts (minutes) before giving up
    spec = {"kind": "tts-scaling", "n_list": [3, 4], "alpha": 2.0, "k": 3, "tf": 1.0,
            "seed": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with deadline(10):
        with pytest.raises(SatError, match="no unique-solution instance"):
            random_unique_solution_instance(3, 2.0, 3, np.random.default_rng(0))
        code = main(["experiment", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "no unique-solution instance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SCALING_SPEC = {"kind": "tts-scaling", "n_list": [3, 4], "alpha": 2.0, "k": 2,
                "tf": 30.0, "dt": 0.25, "instances": 200, "seed": 7}


@pytest.mark.parametrize("n_list", [[3, 3], [3], [3, 4, 3]],
                         ids=["repeat", "single", "repeat-of-three"])
def test_tts_scaling_refuses_n_list_it_cannot_fit(n_list, tmp_path, capsys):
    # a repeated n seeds the same generator, so its row is counted twice; one
    # n has no slope. Both are refused before any instance is drawn
    (tmp_path / "bad.json").write_text(json.dumps(dict(SCALING_SPEC, n_list=n_list)))
    (tmp_path / "valid.json").write_text(json.dumps(SCALING_SPEC))
    for argv in (["bad.json"], ["valid.json", "--set", f"n_list={json.dumps(n_list)}"]):
        out = tmp_path / "out"
        with deadline(10):
            code = main(["experiment", str(tmp_path / argv[0]), *argv[1:],
                         "--out", str(out)])
        assert code == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert "n_list" in captured.err and "distinct n" in captured.err
        assert captured.out == "" and not out.exists()


def test_experiment_tts_vs_tf(tmp_path):
    named = {
        "kind": "tts-vs-Tf",
        "name": "sweep",
        "cnf": "builtin:unique2",
        "tf_list": [10.0, 40.0],
        "dt": 0.25,
        "dtm": 50.0,
        "seed": 4,
    }
    unnamed = {key: val for key, val in named.items() if key != "name"}
    # an unnamed spec names its CSV and manifest alike, after the kind
    for spec, name in ((named, "sweep"), (unnamed, "tts_vs_tf")):
        outdir = tmp_path / name
        outputs = run_experiment_spec(spec, outdir)
        assert outputs == [f"{name}.csv"]
        assert (outdir / f"{name}_manifest.json").is_file()
        rows = read_csv(outdir / f"{name}.csv")
        assert rows[0] == ["tf_over_tau", "mode", "p_s", "tts", "tts_99"]
        assert len(rows) == 3
        # longer evolution raises the success probability on the easy problem
        assert float(rows[2][2]) > float(rows[1][2])


def _direct_p_s(spec, n, t_f, j):
    """p_s of one tts grid point computed run by run: instance i at n drawn
    from default_rng([seed, n, i]), its runs at T_f index j from
    default_rng([seed, n, i, j])."""
    cfg = RunConfig(t_f=t_f, dt=spec["dt"], dt_m=spec["dtm"], mode=spec["mode"])
    per_instance = []
    for i in range(spec["instances"]):
        seed = [spec["seed"], n, i]
        f = random_unique_solution_instance(n, spec["alpha"], spec["k"],
                                            np.random.default_rng(seed))
        rng = np.random.default_rng(seed + [j])
        if cfg.mode == "average":
            outs = [run_average(f, cfg)]
        else:
            outs = [run_heralded_restart(f, cfg, rng) for _ in range(spec["trajectories"])]
        per_instance.append(sum(success_probability(out.final_state, f, cfg.tau, cfg.dt_m)
                                for out in outs) / len(outs))
    return sum(per_instance) / len(per_instance)


@pytest.mark.parametrize("mode", ["average", "heralded-restart"])
def test_tts_kinds_follow_the_per_instance_seeding(mode, tmp_path):
    # each row's p_s is the direct computation from per-instance and
    # per-(instance, T_f index) generators, in both views of the grid
    base = {"alpha": 2.0, "k": 2, "dt": 0.25, "dtm": 10.0, "instances": 2, "seed": 6,
            "mode": mode}
    if mode == "heralded-restart":
        base["trajectories"] = 2
    scaling = dict(base, kind="tts-scaling", name="scal", n_list=[3, 4], tf=10.0)
    run_experiment_spec(scaling, tmp_path)
    rows = read_csv(tmp_path / "scal.csv")[1:]
    assert [float(row[3]) for row in rows] == [_direct_p_s(scaling, n, 10.0, 0)
                                               for n in (3, 4)]
    vs_tf = dict(base, kind="tts-vs-Tf", name="sweep", n=3, tf_list=[5.0, 10.0])
    run_experiment_spec(vs_tf, tmp_path)
    rows = read_csv(tmp_path / "sweep.csv")[1:]
    assert [float(row[2]) for row in rows] == [_direct_p_s(vs_tf, 3, t_f, j)
                                               for j, t_f in enumerate((5.0, 10.0))]


def test_jobs_far_above_the_task_count_starts_one_worker_per_task(tmp_path, monkeypatch,
                                                                   capsys):
    # every worker of a pool is started up front: on 64 usable cores an
    # 8-task curve gets 8 workers however many jobs are asked for
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(sizes))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    spec = PINNED_MANIFESTS["phase-transition"]["spec"]  # 2 alphas x 4 instances
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["experiment", str(tmp_path / "spec.json"), "--out", str(tmp_path),
                 "--jobs", "5000"]) == 0
    capsys.readouterr()
    assert sizes == [8] * len(spec["modes"]) * len(spec["tf_list"])
    assert (tmp_path / "pt.csv").read_bytes() == (PINNED / "pt.csv").read_bytes()


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
def test_pinned_outputs_reproduce(kind, tmp_path):
    manifest = PINNED_MANIFESTS[kind]
    outputs = run_experiment_spec(manifest["spec"], tmp_path)
    assert outputs == manifest["outputs"]
    for rel in outputs:
        assert_same_cells(read_cells(PINNED / rel), read_cells(tmp_path / rel))


@pytest.mark.parametrize("spec", [
    {"kind": "tts-scaling", "n_list": [3, 4], "alpha": 2.0, "k": 2, "tf": 5.0,
     "dt": 0.25, "instances": 1, "trajectories": 1},
    {"kind": "tts-vs-Tf", "cnf": "builtin:unique2", "tf_list": [5.0], "dt": 0.25,
     "trajectories": 1},
], ids=lambda spec: spec["kind"])
def test_tts_kinds_refuse_heralded_single(spec, tmp_path, capsys):
    # a time to solution is measured by restarts or from the averaged state;
    # a single heralded trial has no time-to-solution row of its own
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(spec, mode="heralded-single", seed=1)))
    code = main(["experiment", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "heralded-single" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_single_run_trace_refuses_record_every_below_one(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": "single-run-trace", "cnf": "builtin:unique2", "tf": 1.0,
         "dt": 0.25, "record_every": 0, "seed": 1}
    ))
    code = main(["experiment", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "record_every" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_experiment_single_run_trace(tmp_path):
    spec = {
        "kind": "single-run-trace",
        "name": "trace",
        "cnf": "builtin:unique2",
        "tf": 10.0,
        "dt": 0.02,
        "record_every": 50,
        "seed": 9,
    }
    run_experiment_spec(spec, tmp_path)
    rows = read_csv(tmp_path / "trace.csv")
    assert rows[0] == [
        "t", "theta", "purity", "z1", "z2",
        "r1", "r2", "r3", "rbar1", "rbar2", "rbar3",
    ]
    assert len(rows) > 2


def test_experiment_requires_seed(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "gamma-scan", "gamma_tf": [1.0]}))
    assert main(["experiment", str(spec_path)]) == EXIT_USAGE
    assert "seed" in capsys.readouterr().err


def test_experiment_missing_key_is_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"kind": "tts-vs-Tf", "seed": 1, "cnf": "builtin:unique2"})
    )
    assert main(["experiment", str(spec_path), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "tts-vs-Tf" in err and "'tf_list'" in err


def refused_spec(spec, tmp_path, capsys, *options):
    """stderr of `zenosat experiment` on a spec it refuses: exit 2, nothing written."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["experiment", str(spec_path), *options, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    return captured.err


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
def test_spec_key_the_kind_does_not_take_is_refused(kind, tmp_path, capsys):
    # a key no kind reads ran the spec without it
    err = refused_spec(dict(PINNED_MANIFESTS[kind]["spec"], bogus=1), tmp_path, capsys)
    assert kind in err and "'bogus'" in err


REQUIRED_KEYS = {
    "fidelity-contour": ["tf_over_tau", "dt_over_tau"],
    "gamma-scan": ["gamma_tf"],
    "phase-transition": ["n", "k", "alphas", "tf_list"],
    "tts-scaling": ["n_list", "alpha", "k", "tf"],
    "tts-vs-Tf": ["tf_list", "n", "alpha", "k"],  # or cnf in place of the last three
    "single-run-trace": ["tf"],
}


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, keys in REQUIRED_KEYS.items()
                                       for key in keys + ["seed"]])
def test_spec_missing_a_required_key_names_it(kind, key, tmp_path, capsys):
    spec = {k: v for k, v in PINNED_MANIFESTS[kind]["spec"].items() if k != key}
    err = refused_spec(spec, tmp_path, capsys)
    assert kind in err and repr(key) in err


@pytest.mark.parametrize("kind, key, changes", [
    ("phase-transition", "mode", {"mode": "heralded-restart"}),  # it takes modes
    ("tts-scaling", "tf_list", {"tf_list": [10.0, 30.0]}),  # it takes one tf
    ("tts-vs-Tf", "cnf", {"cnf": "builtin:unique2"}),  # beside n, alpha and k
    ("phase-transition", "jobs", {"jobs": 2}),  # --jobs, not the spec, sets the pool size
    ("gamma-scan", "jobs", {"jobs": 2}),
    # the pinned specs set trajectories, which an averaged run does not read
    ("tts-scaling", "trajectories", {"mode": "average"}),
    ("tts-vs-Tf", "trajectories", {"mode": "average"}),
    # the pinned spec sets instances, which its one cnf formula stands in for
    ("tts-vs-Tf", "instances", {"cnf": "builtin:unique2", "n": None, "alpha": None,
                                "k": None}),
], ids=["pt-mode", "scaling-tf_list", "tts-vs-Tf-cnf-and-n", "pt-jobs", "gamma-jobs",
        "scaling-average-trajectories", "tts-vs-Tf-average-trajectories",
        "tts-vs-Tf-cnf-instances"])
def test_spec_key_the_kind_would_not_read_is_refused(kind, key, changes, tmp_path, capsys):
    # each ran without the key and exited 0: phase-transition averaged runs
    # only, tts-scaling its one tf, tts-vs-Tf the drawn instances, an averaged
    # tts run one run per instance, and tts-vs-Tf on a cnf its one formula. A
    # change to None drops the key
    spec = {k: v for k, v in dict(PINNED_MANIFESTS[kind]["spec"], **changes).items()
            if v is not None}
    err = refused_spec(spec, tmp_path, capsys)
    assert kind in err and repr(key) in err


NUMBER_CASES = [(kind, key) for kind, manifest in PINNED_MANIFESTS.items()
                for key in manifest["spec"] if key in cli._NUMBER_KEYS]


@pytest.mark.parametrize("kind, key", NUMBER_CASES,
                         ids=[f"{kind}-{key}" for kind, key in NUMBER_CASES])
def test_spec_number_key_must_be_finite(kind, key, tmp_path, capsys):
    # json reads Infinity and NaN: "alphas": [Infinity] ended in an
    # OverflowError traceback with exit 1
    spec = PINNED_MANIFESTS[kind]["spec"]
    for text in ("Infinity", "-Infinity", "NaN"):
        value = float(text.lower())
        bad = dict(spec, **{key: [value] if key in cli._LIST_KEYS else value})
        err = refused_spec(bad, tmp_path, capsys)
        assert repr(key) in err and "finite" in err
        option = f"{key}={f'[{text}]' if key in cli._LIST_KEYS else text}"
        err = refused_spec(spec, tmp_path, capsys, "--set", option)
        assert repr(key) in err and "finite" in err


LIST_CASES = [(kind, key) for kind, manifest in PINNED_MANIFESTS.items()
              for key in manifest["spec"] if key in cli._LIST_KEYS]


@pytest.mark.parametrize("kind, key", LIST_CASES,
                         ids=[f"{kind}-{key}" for kind, key in LIST_CASES])
def test_spec_list_key_must_not_be_empty(kind, key, tmp_path, capsys):
    # tts-vs-Tf's empty tf_list ended in an IndexError traceback and
    # phase-transition's wrote a header-only CSV
    err = refused_spec(dict(PINNED_MANIFESTS[kind]["spec"], **{key: []}), tmp_path, capsys)
    assert repr(key) in err and "non-empty" in err


@pytest.mark.parametrize("kind", ["fidelity-contour", "gamma-scan", "tts-vs-Tf",
                                  "single-run-trace"])
def test_spec_cnf_must_be_text(kind, tmp_path, capsys):
    # both ended in a TypeError traceback from Path()
    spec = PINNED_MANIFESTS[kind]["spec"]
    for err in (refused_spec(spec, tmp_path, capsys, "--set", "cnf=5"),
                refused_spec(dict(spec, cnf=None), tmp_path, capsys)):
        assert "'cnf'" in err and "text" in err


def _documented_spec_keys(kind):
    """(key, default) rows of the kind's spec-key table in docs/csv_schema.md."""
    text = (Path(__file__).parents[1] / "docs" / "csv_schema.md").read_text()
    section = text.split(f"\n## `{kind}`\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| spec key | default |\n| --- | --- |\n", 1)[1]
    return [tuple(cell.strip() for cell in row.strip("|").split("|"))
            for row in table.split("\n\n", 1)[0].splitlines()]


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
def test_csv_schema_lists_each_kinds_spec_keys(kind):
    # a kind's keyword-only parameters are its spec keys; each is documented
    # with its default and has a row in the table of what each key holds
    params = [p for p in inspect.signature(EXPERIMENTS[kind]).parameters.values()
              if p.kind is p.KEYWORD_ONLY]
    assert _documented_spec_keys(kind) == [
        (f"`{p.name}`", "required" if p.default is p.empty
         else "unset" if p.default is None else f"`{json.dumps(p.default)}`")
        for p in params
    ]
    typed = cli._LIST_KEYS + cli._INTEGER_KEYS + cli._NUMBER_KEYS + cli._TEXT_KEYS
    assert [p.name for p in params if p.name not in typed] == []


def test_experiment_list_key_must_be_array(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": "tts-vs-Tf", "seed": 1, "cnf": "builtin:unique2", "tf_list": 5}
    ))
    assert main(["experiment", str(spec_path), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "tts-vs-Tf" in err and "'tf_list'" in err


@pytest.mark.parametrize("key, value", [("dt", "x"), ("tf_list", [5.0, "x"])],
                         ids=["scalar", "list-entry"])
def test_experiment_numeric_key_must_be_number(key, value, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": "tts-vs-Tf", "seed": 1, "cnf": "builtin:unique2", "tf_list": [5.0],
         "dt": 0.25, key: value}
    ))
    assert main(["experiment", str(spec_path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "tts-vs-Tf" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, key", [
    ({"kind": "tts-vs-Tf", "cnf": "builtin:unique2", "tf_list": [5.0], "dt": 0.25,
      "mode": "heralded-restart", "trajectories": 1.5}, "trajectories"),
    ({"kind": "tts-scaling", "n_list": [3, 4], "alpha": 2.0, "k": 2, "tf": 5.0,
      "dt": 0.25, "instances": 2.5}, "instances"),
    ({"kind": "tts-scaling", "n_list": [3, 4.0], "alpha": 2.0, "k": 2, "tf": 5.0,
      "dt": 0.25, "instances": 1}, "n_list"),
], ids=["trajectories", "instances", "n_list-entry"])
def test_experiment_count_key_must_be_integer(spec, key, tmp_path, capsys):
    # each float count here reached range() as a TypeError traceback
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(spec, seed=1)))
    assert main(["experiment", str(spec_path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert spec["kind"] in err and repr(key) in err and "integers" in err
    assert not (tmp_path / "out").exists()


PT_SPEC = {"kind": "phase-transition", "n": 3, "k": 2, "alphas": [0.7],
           "tf_list": [5.0], "dt": 0.25, "instances": 1}


ZERO_COUNTS = [
    ("instances", PT_SPEC, 0),
    ("shots", PT_SPEC, 0),
    ("n", PT_SPEC, 0),
    ("k", PT_SPEC, 0),
    ("trajectories", {"kind": "tts-vs-Tf", "cnf": "builtin:unique2", "tf_list": [5.0],
                      "dt": 0.25, "mode": "heralded-restart", "trajectories": 1}, 0),
    ("n_list", {"kind": "tts-scaling", "n_list": [3, 4], "alpha": 2.0, "k": 2,
                "tf": 5.0, "dt": 0.25, "instances": 1}, [3, 0]),
]


@pytest.mark.parametrize("key, spec, zero", ZERO_COUNTS,
                         ids=[case[0] for case in ZERO_COUNTS])
def test_experiment_count_key_below_one_is_usage_error(key, spec, zero, tmp_path,
                                                        capsys):
    # a zero count passed the integer check: zero trajectories divided by zero,
    # zero instances wrote p_succ nan, zero shots reported p_succ 0.0
    spec = dict(spec, seed=1)
    (tmp_path / "zero.json").write_text(json.dumps(dict(spec, **{key: zero})))
    (tmp_path / "valid.json").write_text(json.dumps(spec))
    for argv in (["zero.json"], ["valid.json", "--set", f"{key}={json.dumps(zero)}"]):
        out = tmp_path / "out"
        code = main(["experiment", str(tmp_path / argv[0]), *argv[1:], "--out", str(out)])
        assert code == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert repr(key) in captured.err and ">= 1" in captured.err
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("p_star", [0.0, 1.0, 1.5])
def test_p_star_outside_unit_interval_is_refused_before_any_run(p_star, tmp_path,
                                                                 monkeypatch, capsys):
    # n_star refused it only after the first row's runs
    runs = []
    run_average = cli.run_average
    monkeypatch.setattr(cli, "run_average", lambda *a: runs.append(a) or run_average(*a))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "tts-vs-Tf", "cnf": "builtin:unique2",
                                     "tf_list": [5.0], "dt": 0.25, "seed": 1,
                                     "p_star": p_star}))
    out = tmp_path / "out"
    code = main(["experiment", str(spec_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert len(runs) == 0
    assert code == EXIT_USAGE and "'p_star'" in captured.err
    assert captured.out == "" and not out.exists()


def test_phase_transition_refuses_alphas_sharing_a_seed(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(PT_SPEC, alphas=[0.7, 1.4], seed=1)))
    out = tmp_path / "out"
    code = main(["experiment", str(spec_path), "--set", "alphas=[0.7,0.7004]",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "share instances" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("name", ["../escaped", "sub/x", "sub\\x", "..", "", 5],
                         ids=["parent", "subdir", "backslash", "dotdot", "empty",
                              "number"])
def test_spec_name_must_be_a_plain_file_stem(name, tmp_path, monkeypatch, capsys):
    # "../escaped" wrote its CSV and manifest outside --out; "sub/x" ran the
    # whole experiment before failing to write
    runs = []
    run_average = cli.run_average
    monkeypatch.setattr(cli, "run_average", lambda *a: runs.append(a) or run_average(*a))
    (tmp_path / "spec.json").write_text(json.dumps(dict(GAMMA_SPEC, name=name)))
    work = tmp_path / "work"
    code = main(["experiment", str(tmp_path / "spec.json"), "--out", str(work / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and "'name'" in captured.err
    assert len(runs) == 0
    assert captured.out == "" and not work.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_phase_transition_refuses_a_bad_mode_before_any_curve(tmp_path, monkeypatch,
                                                              capsys):
    # every (mode, T_f) config is built first: the average curve's instances
    # were decided before "bogus" was refused
    decisions = []
    decide = metrics._decide_instance
    monkeypatch.setattr(metrics, "_decide_instance",
                        lambda task: decisions.append(task) or decide(task))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(PT_SPEC, modes=["average", "bogus"], seed=1,
                                         instances=3)))
    out = tmp_path / "out"
    code = main(["experiment", str(spec_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and "'bogus'" in captured.err
    assert len(decisions) == 0
    assert captured.out == "" and not out.exists()


def test_refused_spec_leaves_no_output_directory(tmp_path):
    outdir = tmp_path / "out" / "sweep"
    with pytest.raises(ValueError):
        run_experiment_spec({"kind": "tts-vs-Tf", "seed": 1}, outdir)
    assert not (tmp_path / "out").exists()


NON_OBJECTS = {"array": [1], "string": "x", "number": 3, "null": None}


@pytest.mark.parametrize("overrides", [[], ["--set", "seed=1"]], ids=["file", "set"])
@pytest.mark.parametrize("value", list(NON_OBJECTS.values()), ids=list(NON_OBJECTS))
def test_spec_that_is_not_a_json_object_is_refused(value, overrides, tmp_path, capsys):
    # [1] ended in an AttributeError, and with --set in a TypeError from
    # spec[key] = ..., both tracebacks with exit 1
    (tmp_path / "spec.json").write_text(json.dumps(value))
    code = main(["experiment", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out"),
                 *overrides])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and "must be a JSON object" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize("manifest", [[1], {"spec": [1]}, {"outputs": ["x.csv"]}],
                         ids=["array", "spec-array", "no-spec"])
def test_replay_refuses_a_manifest_or_spec_that_is_not_a_json_object(manifest, tmp_path,
                                                                     capsys):
    (tmp_path / "x_manifest.json").write_text(json.dumps(manifest))
    assert main(["replay", str(tmp_path / "x_manifest.json")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "must be a JSON object" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x_manifest.json"]


def test_experiment_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        run_experiment_spec({"kind": "bogus", "seed": 0}, tmp_path)


def test_experiment_set_overrides(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(GAMMA_SPEC))
    code = main(
        ["experiment", str(spec_path), "--out", str(tmp_path / "o"),
         "--set", "gamma_tf=[2.0]", "--set", "name=other"]
    )
    assert code == 0
    rows = read_csv(tmp_path / "o" / "other.csv")
    assert len(rows) == 2
    assert float(rows[1][0]) == 2.0
    capsys.readouterr()


def test_experiment_set_requires_key_value(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(GAMMA_SPEC))
    assert main(["experiment", str(spec_path), "--set", "oops"]) == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------- replay


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
def test_replay_reproduces_outputs(kind, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(PINNED_MANIFESTS[kind]["spec"]))
    assert main(["experiment", str(spec_path), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    (manifest,) = (tmp_path / "run").glob("*_manifest.json")
    code = main(["replay", str(manifest)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "identical"


@pytest.mark.parametrize("manifest", sorted(PINNED.glob("*_manifest.json")),
                         ids=lambda path: path.stem)
def test_committed_manifests_replay_identical(manifest, tmp_path, capsys):
    assert main(["replay", str(manifest), "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "identical"


@pytest.mark.parametrize("name", ["pt", "scalr", "tts_vs_tf"])
def test_committed_grid_manifests_replay_identical_with_two_jobs(name, tmp_path, capsys):
    # the grid kinds seed every task on its own, so a process pool decides
    # the instances and runs a serial run does
    manifest = PINNED / f"{name}_manifest.json"
    assert main(["replay", str(manifest), "--out", str(tmp_path), "--jobs", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "identical"


def test_replay_detects_tampered_outputs(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(GAMMA_SPEC))
    assert main(["experiment", str(spec_path), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "run" / "scan.csv"
    csv_path.write_text(csv_path.read_text() + "tampered\n")
    code = main(
        ["replay", str(tmp_path / "run" / "scan_manifest.json"),
         "--out", str(tmp_path / "replay2")]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "mismatch"


def test_csv_floats_roundtrip_exactly(tmp_path):
    run_experiment_spec(dict(GAMMA_SPEC), tmp_path)
    rows = read_csv(tmp_path / "scan.csv")
    for row in rows[1:]:
        for cell in row:
            val = float(cell)
            assert repr(val) == cell  # full-precision float round-trip
            assert np.isfinite(val)
