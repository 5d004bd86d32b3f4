"""Tests of the benchmark itself; a few seconds in all.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from zenosat import encoding, herald, satcore, solver  # noqa: E402
from zenosat.solver import RunConfig  # noqa: E402

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    ref = workloads.load_reference()
    a = workloads.make_instances(name, 7, ref)
    b = workloads.make_instances(name, 7, ref)
    assert [(i.label, i.formula, i.solutions) for i in a] == [
        (i.label, i.formula, i.solutions) for i in b
    ]
    assert workloads.run_rng(7, 3).random(4).tolist() == workloads.run_rng(7, 3).random(4).tolist()
    if name in ("herald_n6_disc", "avg_n9_dense"):
        assert [i.formula for i in workloads.make_instances(name, 8, ref)] != [
            i.formula for i in a
        ]


def test_wrappers_restored_when_a_run_raises():
    targets = [
        (solver, "run_full"), (solver, "run_average"), (solver, "run_heralded_single"),
        (solver, "lindblad_step"), (solver, "detect_failure"), (solver, "readout"),
        (encoding.ClauseSet, "__init__"), (encoding.ClauseSet, "observables"),
        (herald.FilterState, "update"), (satcore, "enumerate_solutions"),
        (satcore, "random_instance"),
    ]
    originals = [getattr(owner, attr) for owner, attr in targets]
    cfg = RunConfig(t_f=1.0, dt=0.01, dt_m=1.0, mode="average")
    with pytest.raises(AttributeError):
        with spans.Tracer() as tracer:
            spans.install_layers(tracer)
            assert solver.run_full is not originals[0]
            solver.run_full(None, cfg)  # ClauseSet(None) raises inside the spans
    assert [getattr(owner, attr) for owner, attr in targets] == originals
    ends = tracer.arrays()["end"]
    assert len(ends) >= 2 and not np.isnan(ends).any()  # spans closed despite the raise


def test_self_time_subtracts_covered_child_intervals():
    #            root [0, 10]
    #   a [1, 4]   b [3, 6] (overlaps a)   c [9, 12] (runs past root)
    #   a1 [2, 3] is a's child, so it does not count against root again
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = spans.self_times(start, end, parent, [0, 1, 2, 3, 4])
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 6; a: 3 - 1; leaves keep their duration
    assert got.tolist() == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_tracer_links_nested_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == ["outer", "inner", "inner"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert (a["end"] >= a["start"]).all()


def test_gate_rejects_drift_and_false_verification():
    ref = workloads.load_reference()
    inst = workloads.make_instances("avg_n2_long", 0, ref)[0]
    wl = workloads.WORKLOADS["avg_n2_long"]
    out = solver.run_full(inst.formula, wl.cfg, workloads.run_rng(0, 0))
    values = workloads.final_state_values(out, inst, wl.cfg)
    expected = ref["avg_n2_long"][inst.label]
    assert workloads.check_outcome(out, inst, values, expected) == []
    drifted = {**expected, "p_s": expected["p_s"] + 1e-8}
    assert len(workloads.check_outcome(out, inst, values, drifted)) == 1
    wrong = next(c for c in ((False, False), (True, True), (False, True), (True, False))
                 if not satcore.evaluate(inst.formula, c))
    out.verified, out.candidate = True, wrong
    assert len(workloads.check_outcome(out, inst, values, expected)) == 2


def test_tail_percentile_needs_ten_samples_beyond():
    value, pct = bench.tail(list(range(100)))
    assert pct == pytest.approx(90.0) and sum(x > value for x in range(100)) == 10
    assert bench.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_untimed_traced_smoke():
    proc = run_benchmark("--workload", "avg_n2_long", "--seed", "1", "--seconds", "0",
                         "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 2 * bench.UNTIMED_RUNS
    assert list(last["metrics"]) == list(spans.LAYER_METRICS)
    m = {k: v["value"] for k, v in last["metrics"].items()}
    assert m["solver.steps"] == 4000 and m["dynamics.lindblad_step.calls"] == 4000
    assert m["herald.update.calls"] == 0 and m["solver.useful_step_frac"] == 1.0
    assert all(math.isfinite(v) for v in m.values())


def test_untimed_end_to_end_smoke():
    proc = run_benchmark("--workload", "herald_n2_cont", "--seed", "1", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and list(last["metrics"]) == list(bench.GATED_E2E)
    assert all(v["value"] > 0 for v in last["metrics"].values())
    for name in bench.E2E_UNITS:  # every end-to-end metric is printed by name
        assert f"  {name} " in proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark("--workload", "avg_n2_long", "--seed", "1", "--seconds", "1",
                         cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
