"""Command line interface: solve a CNF end to end, generate random instance
batches, run config-driven experiments to CSV, and replay manifests.

Exit codes: 0 solved (verified satisfying assignment), 20 decided
unsatisfiable, 1 budget exhausted without a decision, 2 usage error.
Experiments are deterministic given the seed in their spec; the manifest's
timestamp is the only nondeterministic output field.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .encoding import Schedule, solution_state
from .metrics import fit_lambda, phase_transition_curve, tts_99, tts_with_readout
from .qlinalg import concurrence_2q, fidelity_pure, local_z, purity
from .satcore import (
    CnfFormula,
    SatError,
    TWO_SAT_TWO_SOLUTIONS,
    TWO_SAT_UNIQUE,
    TWO_SAT_UNSAT,
    enumerate_solutions,
    parse_dimacs,
    random_instance,
    random_unique_solution_instance,
    write_dimacs,
)
from .solver import (
    RunConfig,
    run_average,
    run_full,
    run_heralded_restart,
    run_heralded_single,
    success_probability,
)

EXIT_SOLVED = 0
EXIT_UNDECIDED = 1
EXIT_USAGE = 2
EXIT_UNSAT = 20

BUILTIN_FORMULAS = {
    "builtin:unique2": TWO_SAT_UNIQUE,
    "builtin:two-solutions2": TWO_SAT_TWO_SOLUTIONS,
    "builtin:unsat2": TWO_SAT_UNSAT,
}


def _default_outdir() -> Path:
    return Path(os.environ.get("ZENOSAT_OUT_DIR", "."))


def _load_formula(spec: str) -> CnfFormula:
    if spec in BUILTIN_FORMULAS:
        return BUILTIN_FORMULAS[spec]
    path = Path(spec)
    if not path.exists():
        raise SatError(f"CNF file not found: {spec}")
    return parse_dimacs(path.read_text())


def _load_schedule(spec: str) -> Schedule:
    if spec == "linear":
        return Schedule()
    table = json.loads(Path(spec).read_text())
    return Schedule(kind="custom", table=tuple(tuple(row) for row in table))


def _fmt(value) -> str:
    if isinstance(value, np.floating):
        value = float(value)
    elif isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    # the first output creates the directory, so a refused spec leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(path: Path, spec: dict, outputs: list[str]) -> None:
    manifest = {
        "spec": spec,
        "outputs": outputs,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- solve


def cmd_solve(args: argparse.Namespace) -> int:
    f = _load_formula(args.cnf)
    cfg = RunConfig(
        t_f=args.tf,
        dt=args.dt,
        dt_m=args.dtm,
        tau=args.tau,
        mode=args.mode,
        schedule=_load_schedule(args.schedule),
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    attempts = []
    completed = 0
    for shot in range(args.max_shots):
        out = run_full(f, cfg, rng)
        attempts.append(out.to_dict())
        if not out.failed:
            completed += 1
        if out.verified:
            print(json.dumps({"status": "solved", "shots": shot + 1,
                              "outcome": out.to_dict()}, indent=2))
            return EXIT_SOLVED
    if completed > 0:
        print(json.dumps({"status": "unsat-decided", "shots": args.max_shots,
                          "attempts": attempts}, indent=2))
        return EXIT_UNSAT
    print(json.dumps({"status": "undecided", "shots": args.max_shots,
                      "attempts": attempts}, indent=2))
    return EXIT_UNDECIDED


# ---------------------------------------------------------------- gen


def cmd_gen(args: argparse.Namespace) -> int:
    if args.k > args.n:
        print(f"error: k={args.k} exceeds n={args.n}", file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(args.outdir) if args.outdir else _default_outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    for i in range(args.count):
        if args.unique:
            f = random_unique_solution_instance(args.n, args.alpha, args.k, rng)
        else:
            f = random_instance(args.n, args.alpha, args.k, rng)
        (outdir / f"inst_{i + 1:04d}.cnf").write_text(write_dimacs(f))
    print(f"wrote {args.count} instances to {outdir}")
    return 0


# ---------------------------------------------------------------- experiments


def _best_solution_fidelity(rho: np.ndarray, f: CnfFormula, theta: float) -> float:
    sols = enumerate_solutions(f)
    if sols.count == 0:
        return math.nan
    return max(fidelity_pure(rho, solution_state(f, s, theta)) for s in sols.assignments)


def _exp_fidelity_contour(spec: dict, outdir: Path, jobs: int) -> list[str]:
    f = _load_formula(spec.get("cnf", "builtin:unique2"))
    tau = spec.get("tau", 1.0)
    rows = []
    for tf_over_tau in spec["tf_over_tau"]:
        for dt_over_tau in spec["dt_over_tau"]:
            cfg = RunConfig(
                t_f=tf_over_tau * tau, dt=dt_over_tau * tau, dt_m=0.0, tau=tau
            )
            rho = run_average(f, cfg).final_rho
            rows.append(
                [dt_over_tau, tf_over_tau,
                 _best_solution_fidelity(rho, f, math.pi / 2.0)]
            )
    name = spec.get("name", "fidelity_contour")
    _write_csv(outdir / f"{name}.csv",
               ["dt_over_tau", "tf_over_tau", "fidelity"], rows)
    return [f"{name}.csv"]


def _exp_gamma_scan(spec: dict, outdir: Path, jobs: int) -> list[str]:
    f = _load_formula(spec.get("cnf", "builtin:unique2"))
    tau = spec.get("tau", 1.0)
    dt = spec.get("dt", 0.01) * tau
    n = f.num_vars
    rows = []
    for gamma_tf in spec["gamma_tf"]:
        t_f = 4.0 * tau * gamma_tf  # Gamma = 1/(4 tau)
        cfg = RunConfig(t_f=t_f, dt=dt, dt_m=0.0, tau=tau)
        rho = run_average(f, cfg).final_rho
        conc = concurrence_2q(rho) if n == 2 else math.nan
        zs = [local_z(rho, j) for j in range(1, n + 1)]
        rows.append(
            [gamma_tf, purity(rho), conc,
             _best_solution_fidelity(rho, f, math.pi / 2.0)] + zs
        )
    name = spec.get("name", "gamma_scan")
    header = ["gamma_tf", "purity", "concurrence", "fidelity"] + [
        f"z{j}" for j in range(1, n + 1)
    ]
    _write_csv(outdir / f"{name}.csv", header, rows)
    return [f"{name}.csv"]


def _sweep_config(spec: dict, t_f: float, mode: str) -> RunConfig:
    """RunConfig of the sweep kinds: spec times in units of tau, with
    dt 0.05 and dtm 50 unless the spec sets them."""
    tau = spec.get("tau", 1.0)
    return RunConfig(
        t_f=t_f * tau,
        dt=spec.get("dt", 0.05) * tau,
        dt_m=spec.get("dtm", 50.0) * tau,
        tau=tau,
        mode=mode,
    )


def _exp_phase_transition(spec: dict, outdir: Path, jobs: int) -> list[str]:
    rows = []
    for mode in spec.get("modes", ["average"]):
        for t_f in spec["tf_list"]:
            cfg = _sweep_config(spec, t_f, mode)
            curve = phase_transition_curve(
                n=spec["n"],
                k=spec["k"],
                alphas=spec["alphas"],
                cfg=cfg,
                num_instances=spec.get("instances", 200),
                seed=spec["seed"],
                shots=spec.get("shots", 1),
                jobs=jobs,
            )
            for row in curve:
                rows.append(
                    [row["n"], row["k"], row["alpha"], row["t_f"], row["mode"],
                     row["num_instances"], row["p_succ"]]
                )
    name = spec.get("name", "phase_transition")
    _write_csv(
        outdir / f"{name}.csv",
        ["n", "k", "alpha", "t_f", "mode", "num_instances", "p_succ"],
        rows,
    )
    return [f"{name}.csv"]


def _instance_p_s(f: CnfFormula, cfg: RunConfig,
                  trajectories: int, rng: np.random.Generator) -> float:
    """Mean exact readout success probability over evolved final states."""
    sols = enumerate_solutions(f)
    if cfg.mode == "average":
        rho = run_average(f, cfg).final_rho
        return success_probability(rho, f, cfg.tau, cfg.dt_m, sols)
    total = 0.0
    for _ in range(trajectories):
        out = run_heralded_restart(f, cfg, rng)
        total += success_probability(out.final_rho, f, cfg.tau, cfg.dt_m, sols)
    return total / trajectories


def _exp_tts_scaling(spec: dict, outdir: Path, jobs: int) -> list[str]:
    mode = spec.get("mode", "average")
    rows = []
    points = []
    for n in spec["n_list"]:
        rng = np.random.default_rng([spec["seed"], n])
        cfg = _sweep_config(spec, spec["tf"], mode)
        ps = []
        for _ in range(spec.get("instances", 20)):
            f = random_unique_solution_instance(n, spec["alpha"], spec["k"], rng)
            ps.append(
                _instance_p_s(f, cfg, spec.get("trajectories", 10), rng)
            )
        mean_ps = float(np.mean(ps))
        tts = tts_with_readout(mean_ps, spec.get("p_star", 0.99),
                               cfg.t_f, cfg.dt_m)
        rows.append([n, mode, cfg.t_f, mean_ps, tts, tts_99(mean_ps, cfg.t_f)])
        points.append((n, tts))
    name = spec.get("name", "tts_scaling")
    _write_csv(
        outdir / f"{name}.csv",
        ["n", "mode", "t_f", "p_s", "tts", "tts_99"],
        rows,
    )
    fit = fit_lambda(points)
    (outdir / f"{name}_fit.json").write_text(
        json.dumps(
            {"lambda": fit.lam, "prefactor": fit.prefactor,
             "stderr": fit.stderr, "n_range": list(fit.n_range)},
            indent=2,
        )
        + "\n"
    )
    return [f"{name}.csv", f"{name}_fit.json"]


def _exp_tts_vs_tf(spec: dict, outdir: Path, jobs: int) -> list[str]:
    mode = spec.get("mode", "average")
    rng = np.random.default_rng(spec["seed"])
    if "cnf" in spec:
        instances = [_load_formula(spec["cnf"])]
    else:
        instances = [
            random_unique_solution_instance(spec["n"], spec["alpha"], spec["k"], rng)
            for _ in range(spec.get("instances", 10))
        ]
    rows = []
    for tf in spec["tf_list"]:
        cfg = _sweep_config(spec, tf, mode)
        ps = [
            _instance_p_s(f, cfg, spec.get("trajectories", 10), rng)
            for f in instances
        ]
        mean_ps = float(np.mean(ps))
        rows.append(
            [tf, mode, mean_ps,
             tts_with_readout(mean_ps, spec.get("p_star", 0.99), cfg.t_f, cfg.dt_m),
             tts_99(mean_ps, cfg.t_f)]
        )
    name = spec.get("name", "tts_vs_tf")
    _write_csv(outdir / f"{name}.csv",
               ["tf_over_tau", "mode", "p_s", "tts", "tts_99"], rows)
    return [f"{name}.csv"]


def _exp_single_run_trace(spec: dict, outdir: Path, jobs: int) -> list[str]:
    f = _load_formula(spec.get("cnf", "builtin:unique2"))
    tau = spec.get("tau", 1.0)
    cfg = RunConfig(
        t_f=spec["tf"] * tau,
        dt=spec.get("dt", 0.01) * tau,
        dt_m=0.0,
        tau=tau,
        mode="heralded-single",
        seed=spec["seed"],
        record_every=spec.get("record_every", 10),
    )
    rng = np.random.default_rng(spec["seed"])
    out = run_heralded_single(f, cfg, rng)
    d = out.diagnostics
    n, m = f.num_vars, f.num_clauses
    rows = []
    for j in range(len(d["t"])):
        rows.append(
            [d["t"][j], d["theta"][j], d["purity"][j]]
            + list(d["z"][j])
            + list(d["r"][j])
            + list(d["rbar"][j])
        )
    header = (
        ["t", "theta", "purity"]
        + [f"z{q}" for q in range(1, n + 1)]
        + [f"r{i}" for i in range(1, m + 1)]
        + [f"rbar{i}" for i in range(1, m + 1)]
    )
    name = spec.get("name", "single_run_trace")
    _write_csv(outdir / f"{name}.csv", header, rows)
    return [f"{name}.csv"]


EXPERIMENTS = {
    "fidelity-contour": _exp_fidelity_contour,
    "gamma-scan": _exp_gamma_scan,
    "phase-transition": _exp_phase_transition,
    "tts-scaling": _exp_tts_scaling,
    "tts-vs-Tf": _exp_tts_vs_tf,
    "single-run-trace": _exp_single_run_trace,
}


def _coerce(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


_LIST_KEYS = (
    "tf_list", "n_list", "alphas", "gamma_tf", "tf_over_tau", "dt_over_tau", "modes"
)


class _Spec(dict):
    """An experiment spec: reading a required key it lacks is a usage error."""

    def __missing__(self, key):
        raise ValueError(f"{self['kind']} spec is missing required key {key!r}")


def run_experiment_spec(spec: dict, outdir: Path, jobs: int = 1) -> list[str]:
    kind = spec.get("kind")
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    if "seed" not in spec:
        raise ValueError("experiment spec must declare a seed")
    for key in _LIST_KEYS:
        if key in spec and not isinstance(spec[key], list):
            raise ValueError(f"{kind} spec key {key!r} must be a JSON array")
    outputs = EXPERIMENTS[kind](_Spec(spec), outdir, jobs)
    name = spec.get("name", kind.replace("-", "_"))
    _write_manifest(outdir / f"{name}_manifest.json", spec, outputs)
    return outputs


def cmd_experiment(args: argparse.Namespace) -> int:
    spec = json.loads(Path(args.spec).read_text())
    for override in args.set or []:
        if "=" not in override:
            print(f"error: --set expects key=value, got {override!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        key, value = override.split("=", 1)
        spec[key] = _coerce(value)
    outdir = Path(args.out) if args.out else _default_outdir()
    outputs = run_experiment_spec(spec, outdir, jobs=args.jobs)
    print(json.dumps({"outputs": outputs, "outdir": str(outdir)}))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    spec = manifest["spec"]
    src_dir = Path(args.manifest).parent
    outdir = Path(args.out) if args.out else src_dir / "replay"
    outputs = run_experiment_spec(spec, outdir, jobs=args.jobs)
    mismatched = []
    for rel in outputs:
        old = (src_dir / rel).read_bytes()
        new = (outdir / rel).read_bytes()
        if old != new:
            mismatched.append(rel)
    if mismatched:
        print(json.dumps({"status": "mismatch", "files": mismatched}))
        return 1
    print(json.dumps({"status": "identical", "files": outputs}))
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosat",
        description="Measurement-driven k-SAT simulator and experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one CNF end to end")
    p_solve.add_argument("cnf", help="DIMACS path or builtin:<name>")
    p_solve.add_argument("--mode", default="average",
                         choices=["average", "heralded-single", "heralded-restart"])
    p_solve.add_argument("--tau", type=float, default=1.0)
    p_solve.add_argument("--Tf", dest="tf", type=float, default=400.0)
    p_solve.add_argument("--dt", type=float, default=0.01)
    p_solve.add_argument("--dtm", type=float, default=50.0)
    p_solve.add_argument("--schedule", default="linear",
                         help="'linear' or path to a JSON (fraction, theta) table")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--max-shots", type=int, default=8)
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate random k-SAT DIMACS files")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--alpha", type=float, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--unique", action="store_true",
                       help="rejection-sample until exactly one solution")
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--outdir", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_exp = sub.add_parser("experiment", help="run a JSON experiment spec")
    p_exp.add_argument("spec", help="path to the experiment spec JSON")
    p_exp.add_argument("--out", default=None, help="output directory")
    p_exp.add_argument("--jobs", type=int, default=1)
    p_exp.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a spec field (JSON-coerced value)")
    p_exp.set_defaults(func=cmd_experiment)

    p_rep = sub.add_parser("replay", help="re-run a manifest and compare outputs")
    p_rep.add_argument("manifest", help="path to a *_manifest.json")
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--jobs", type=int, default=1)
    p_rep.set_defaults(func=cmd_replay)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SatError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
