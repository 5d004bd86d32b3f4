"""Set-up, timed loop, correctness gate and report of one workload run.

Imported by run.py after it has pinned the BLAS thread count, so importing
NumPy and zenosat here counts toward setup_s.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from zenosat import solver
from zenosat.qlinalg import validate_density

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUPS = 3  # setup_s is the median of this many set-ups, each in a fresh process
UNTIMED_RUNS = 2  # runs made by --seconds 0

E2E_UNITS = {
    "setup_s": "s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "steps_per_s": "1/s",
    "p_s": "1",
    "error_frac": "ratio",
    "peak_rss_mb": "MB",
}
# The metrics of the summary line, which BENCHMARK.json bounds. The others are
# printed and reported but not bounded: run_s_p50 flips between the host's fast
# and slow phases on the n=2 workloads (ten-seed IQR/median up to 0.32, above
# the largest bound allowed, 0.25); p_s is an output, checked against
# reference.json instead; error_frac is 0 on three workloads.
GATED_E2E = ("setup_s", "run_s_tail", "steps_per_s", "peak_rss_mb")


def setup(name: str, seed: int, t0: float):
    """Generate the inputs, enumerate their solutions and make one warm-up run.

    Returns the workload, the stored reference, the instances and the seconds
    since ``t0`` (the start of run.py, before NumPy and zenosat were imported).
    """
    wl = workloads.WORKLOADS[name]
    reference = workloads.load_reference()
    instances = workloads.make_instances(name, seed, reference)
    solver.run_full(instances[0].formula, wl.cfg, workloads.run_rng(seed, -1))
    return wl, reference, instances, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """setup_s of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def one_run(wl, inst, seed: int, index: int, expected: dict) -> tuple[dict, list]:
    """Run ``inst`` once with the generator of run ``index`` and check the outcome.

    Returns the run's row of samples and its correctness-gate violations.
    Only the run_full call itself is timed.
    """
    rng = workloads.run_rng(seed, index)
    t = time.perf_counter()
    try:
        out = solver.run_full(inst.formula, wl.cfg, rng)
    except Exception as exc:  # a run that raises is a failed run, not a crash
        return {"label": inst.label, "run_s": time.perf_counter() - t, "raised": repr(exc)}, []
    run_s = time.perf_counter() - t
    values = workloads.final_state_values(out, inst, wl.cfg)
    problems = []
    if wl.deterministic and inst.label not in expected:
        problems.append(f"{inst.label}: no stored reference values")
    problems += workloads.check_outcome(out, inst, values, expected.get(inst.label))
    try:
        validate_density(out.final_rho)
        valid = True
    except ValueError:
        valid = False
    row = {
        "label": inst.label,
        "run_s": run_s,
        "steps": round((out.consumed_time - wl.cfg.dt_m) / wl.cfg.dt),
        "p_s": values["p_s"],
        "purity": values["purity"],
        "min_eig": float(np.linalg.eigvalsh(out.final_rho)[0]),
        "valid": valid,
    }
    return row, problems


def measure(wl, instances, seed, reference, budget_s, max_runs, tracer=None):
    """Run the instances in turn until ``budget_s`` seconds have passed (None:
    no limit) or ``max_runs`` runs are done.

    With a tracer, each run is followed by a traced run of the same input and
    generator seed, so that drift over the measuring time does not bias
    trace.overhead_frac. Returns the untraced rows, the traced rows and the
    correctness-gate violations.
    """
    rows, traced_rows, problems = [], [], []
    expected = reference.get(wl.name, {})
    start = time.perf_counter()
    i = 0
    while i < max_runs and (budget_s is None or time.perf_counter() - start < budget_s):
        inst = instances[i % len(instances)]
        row, bad = one_run(wl, inst, seed, i, expected)
        rows.append(row)
        problems += bad
        if tracer is not None:
            with tracer:
                spans.install_layers(tracer)
                row, bad = one_run(wl, inst, seed, i, expected)
            traced_rows.append(row)
            problems += bad
        i += 1
    return rows, traced_rows, problems


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten samples
    beyond it, 100 (1 - 10/n); with fewer than 20 samples none is above the
    median, and the median is returned."""
    pct = max(50.0, 100.0 * (1.0 - 10.0 / len(samples)))
    return float(np.percentile(samples, pct)), pct


def end_to_end(rows: list[dict], setup_samples: list[float]) -> tuple[dict, float]:
    run_s = [r["run_s"] for r in rows]
    done = [r for r in rows if "raised" not in r]
    tail_s, tail_pct = tail(run_s)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "run_s_p50": statistics.median(run_s),
        "run_s_tail": tail_s,
        "steps_per_s": sum(r["steps"] for r in done) / sum(run_s),
        "p_s": sum(r["p_s"] for r in done) / len(rows),
        "error_frac": sum(1 for r in rows if not r.get("valid")) / len(rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, tail_pct


def metadata() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.25 has no mode="dicts"
        blas = {}
    src = ROOT / "src" / "zenosat"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def traced_inputs(wl, seed, reference, tracer, instances) -> list[str]:
    """Regenerate the inputs with every layer wrapped; they must not change."""
    with tracer:
        spans.install_layers(tracer)
        again = workloads.make_instances(wl.name, seed, reference)
    if [i.formula for i in again] != [i.formula for i in instances]:
        return ["the same seed generated different inputs"]
    return []


def main(args, t0: float) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl, reference, instances, setup_s = setup(args.workload, args.seed, t0)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    untimed = args.seconds == 0
    budget = None if untimed else args.seconds
    max_runs = UNTIMED_RUNS if untimed else sys.maxsize
    tracer = spans.Tracer() if args.trace else None
    problems = traced_inputs(wl, args.seed, reference, tracer, instances) if tracer else []
    rows, traced_rows, more = measure(
        wl, instances, args.seed, reference, budget, max_runs, tracer)
    problems += more
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metadata": metadata()}

    if tracer:
        tracer.save(OUT_DIR / f"spans-{wl.name}.npz")
        layers = spans.layer_metrics(tracer, len(traced_rows))
        layers["qlinalg.min_eig"] = min(
            (r["min_eig"] for r in traced_rows if "raised" not in r), default=float("nan"))
        layers["trace.overhead_frac"] = (
            sum(r["run_s"] for r in traced_rows) / sum(r["run_s"] for r in rows) - 1)
        shown = {k: (layers[k], u) for k, u in spans.LAYER_METRICS.items()}
        report["samples"] = {"untraced": rows, "traced": traced_rows}
    else:
        setups = [setup_s] + [probe_setup(wl.name, args.seed)
                              for _ in range(0 if untimed else SETUPS - 1)]
        e2e, tail_pct = end_to_end(rows, setups)
        shown = {k: (e2e[k], u) for k, u in E2E_UNITS.items()}
        report["run_s_tail_percentile"] = tail_pct
        report["samples"] = {"setup_s": setups, "runs": rows}

    attempted = len(rows) + len(traced_rows)
    failed = sum(1 for r in rows + traced_rows if "raised" in r)
    correct = not problems
    report.update(correct=correct, problems=problems,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in shown.items()})

    mode = "untimed" if untimed else ("traced" if args.trace else "timed")
    print(f"{wl.name} seed={args.seed} {mode}: {attempted} runs, "
          f"correctness gate {'passed' if correct else 'FAILED'}")
    for problem in problems[:20]:
        print(f"  gate: {problem}")
    for key, (value, unit) in shown.items():
        note = ""
        if key == "run_s_p50":
            note = f"  (n={len(rows)})"
        elif key == "run_s_tail":
            note = f"  (p{tail_pct:.4g})"
        elif key == "setup_s":
            note = f"  (median of {len(setups)})"
        print(f"  {key:38s} {value:.6g} {unit}{note}")
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))
    print(f"report: {report_path.relative_to(ROOT)}")

    gated = spans.LAYER_METRICS if args.trace else GATED_E2E
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": shown[k][0], "unit": shown[k][1]} for k in gated},
    }))
    return 0 if correct else 1
