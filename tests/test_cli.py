"""Command line interface: solve, gen, experiment, and replay subcommands,
exit codes, CSV/manifest outputs, and deterministic replays.
"""

import csv
import json

import numpy as np
import pytest

from zenosat.cli import (
    EXIT_SOLVED,
    EXIT_UNDECIDED,
    EXIT_UNSAT,
    EXIT_USAGE,
    main,
    run_experiment_spec,
)
from zenosat.satcore import enumerate_solutions, parse_dimacs


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- solve


def test_solve_unique_problem_succeeds(capsys):
    code = main(
        ["solve", "builtin:unique2", "--Tf", "100", "--dt", "0.25",
         "--dtm", "50", "--seed", "0"]
    )
    assert code == EXIT_SOLVED
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "solved"
    assert payload["outcome"]["candidate"] == "01"
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
    assert json.loads(capsys.readouterr().out)["outcome"]["candidate"] == "01"


def test_solve_missing_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/file.cnf"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_solve_refuses_register_too_large_for_memory(tmp_path, capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 20 2\n1 2 0\n3 4 0\n")
    assert main(["solve", str(cnf)]) == EXIT_USAGE
    assert "physical memory" in capsys.readouterr().err


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


def test_experiment_tts_vs_tf(tmp_path):
    spec = {
        "kind": "tts-vs-Tf",
        "name": "sweep",
        "cnf": "builtin:unique2",
        "tf_list": [10.0, 40.0],
        "dt": 0.25,
        "dtm": 50.0,
        "seed": 4,
    }
    outputs = run_experiment_spec(spec, tmp_path)
    assert outputs == ["sweep.csv"]
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0] == ["tf_over_tau", "mode", "p_s", "tts", "tts_99"]
    assert len(rows) == 3
    # longer evolution raises the success probability on the easy problem
    assert float(rows[2][2]) > float(rows[1][2])


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


def test_experiment_list_key_must_be_array(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": "tts-vs-Tf", "seed": 1, "cnf": "builtin:unique2", "tf_list": 5}
    ))
    assert main(["experiment", str(spec_path), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "tts-vs-Tf" in err and "'tf_list'" in err


def test_refused_spec_leaves_no_output_directory(tmp_path):
    outdir = tmp_path / "out" / "sweep"
    with pytest.raises(ValueError):
        run_experiment_spec({"kind": "tts-vs-Tf", "seed": 1}, outdir)
    assert not (tmp_path / "out").exists()


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


def test_replay_reproduces_outputs(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(GAMMA_SPEC))
    assert main(["experiment", str(spec_path), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    code = main(["replay", str(tmp_path / "run" / "scan_manifest.json")])
    assert code == 0
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
