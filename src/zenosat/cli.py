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
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .encoding import Schedule
from .metrics import (fit_lambda, phase_transition_curve, pool_map, tts_99,
                      tts_with_readout)
from .qlinalg import basis_probabilities, concurrence_2q, local_z, purity
from .satcore import (
    CnfFormula,
    SatError,
    SolutionSet,
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
    MODES,
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
    return Schedule(table=json.loads(Path(spec).read_text()))


def _count(text: str) -> int:
    """argparse type of the count options: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _fmt(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    return repr(value) if isinstance(value, float) else str(value)


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
    draw = random_unique_solution_instance if args.unique else random_instance
    rng = np.random.default_rng(args.seed)
    formulas = [draw(args.n, args.alpha, args.k, rng) for _ in range(args.count)]
    # the directory is made only once every instance is drawn, so a refused
    # draw leaves none
    outdir = Path(args.outdir) if args.outdir else _default_outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    for i, f in enumerate(formulas, 1):
        (outdir / f"inst_{i:04d}.cnf").write_text(write_dimacs(f))
    print(f"wrote {args.count} instances to {outdir}")
    return 0


# ---------------------------------------------------------------- experiments


def _best_solution_fidelity(rho: np.ndarray, sols: SolutionSet) -> float:
    """Largest fidelity of rho to a satisfying product state at theta = pi/2,
    which is a basis state: the largest basis probability at the solutions'
    basis indices (nan without solutions)."""
    if sols.count == 0:
        return math.nan
    bits = np.array(sols.assignments, dtype=np.intp)  # (count, n)
    probs = basis_probabilities(rho).reshape((2,) * bits.shape[1])
    return float(probs[tuple(bits.T)].max())


def _config(tau: float, t_f: float, dt: float, dt_m: float = 0.0, **fields) -> RunConfig:
    """RunConfig from spec times, which are in units of tau."""
    return RunConfig(t_f=t_f * tau, dt=dt * tau, dt_m=dt_m * tau, tau=tau, **fields)


def _exp_fidelity_contour(*, tf_over_tau, dt_over_tau, cnf="builtin:unique2", tau=1.0):
    f = _load_formula(cnf)
    sols = enumerate_solutions(f)
    rows = []
    for t_f in tf_over_tau:
        for dt in dt_over_tau:
            rho = run_average(f, _config(tau, t_f, dt)).final_rho
            rows.append([dt, t_f, _best_solution_fidelity(rho, sols)])
    return ["dt_over_tau", "tf_over_tau", "fidelity"], rows


def _exp_gamma_scan(*, gamma_tf, cnf="builtin:unique2", dt=0.01, tau=1.0):
    f = _load_formula(cnf)
    n, sols = f.num_vars, enumerate_solutions(f)
    rows = []
    for g in gamma_tf:
        rho = run_average(f, _config(tau, 4.0 * g, dt)).final_rho  # Gamma = 1/(4 tau)
        conc = concurrence_2q(rho) if n == 2 else math.nan
        rows.append([g, purity(rho), conc, _best_solution_fidelity(rho, sols),
                     *local_z(rho)])
    header = ["gamma_tf", "purity", "concurrence", "fidelity"]
    return header + [f"z{j}" for j in range(1, n + 1)], rows


def _exp_phase_transition(jobs, *, n, k, alphas, tf_list, seed, modes=("average",),
                          instances=200, shots=1, dt=0.05, dtm=50.0, tau=1.0):
    # every config is built, so a bad mode is refused, before the first curve
    cfgs = [_config(tau, t_f, dt, dtm, mode=mode) for mode in modes for t_f in tf_list]
    rows = []
    for cfg in cfgs:
        curve = phase_transition_curve(n, k, alphas, cfg, instances, seed, shots, jobs)
        rows.extend([n, k, alpha, cfg.t_f, cfg.mode, instances, p]
                    for alpha, p in zip(alphas, curve))
    return ["n", "k", "alpha", "t_f", "mode", "num_instances", "p_succ"], rows


def _instance_success(task) -> float:
    """Mean exact readout success probability of one instance at one T_f: of its
    averaged final state, or of `runs` heralded restarts drawn from default_rng(key)."""
    f, sols, cfg, runs, key = task
    rng = np.random.default_rng(key)
    outs = (run_average(f, cfg) if cfg.mode == "average"
            else run_heralded_restart(f, cfg, rng) for _ in range(runs))
    return sum(success_probability(out.final_state, f, cfg.tau, cfg.dt_m, sols)
               for out in outs) / runs


def _tts_configs(mode: str, tf_list: list, dt: float, dtm: float, tau: float) -> list:
    if mode not in ("average", "heralded-restart"):
        raise ValueError("time-to-solution kinds run modes 'average' and "
                         f"'heralded-restart', not {mode!r}")
    return [_config(tau, t_f, dt, dtm, mode=mode) for t_f in tf_list]


def _tts_instances(n_list: list, alpha: float, k: int, count: int, seed: int) -> dict:
    """{n: [instance i at n, drawn from default_rng([seed, n, i])]}"""
    return {n: [random_unique_solution_instance(n, alpha, k,
                                                np.random.default_rng([seed, n, i]))
                for i in range(count)]
            for n in n_list}


def _tts_grid(formulas: dict, cfgs: list, seed: int, trajectories: int, p_star: float,
              jobs: int) -> list:
    """The time-to-solution grid over (n, T_f): for each n of `formulas` and
    each config, [p_s, tts, tts_99] of the mean exact readout success
    probability over the n's instances. Instance i at n runs at config index
    j from default_rng([seed, n, i, j]), so jobs changes no value."""
    runs = 1 if cfgs[0].mode == "average" else trajectories
    tasks = [(f, enumerate_solutions(f), cfg, runs, [seed, n, i, j])
             for n, fs in formulas.items() for i, f in enumerate(fs)
             for j, cfg in enumerate(cfgs)]
    p_s = np.reshape(pool_map(_instance_success, tasks, jobs),
                     (len(formulas), -1, len(cfgs))).mean(axis=1)
    return [[[p, tts_with_readout(p, p_star, cfg.t_f, cfg.dt_m), tts_99(p, cfg.t_f)]
             for cfg, p in zip(cfgs, ps)] for ps in p_s.tolist()]


def _exp_tts_over_n(jobs, *, n_list, alpha, k, tf, seed, mode="average", instances=20,
                    trajectories=10, p_star=0.99, dt=0.05, dtm=50.0, tau=1.0):
    if len(n_list) < 2 or len(set(n_list)) < len(n_list):
        raise ValueError(f"tts-scaling fits lambda over n_list, which needs two or"
                         f" more distinct n and no repeats, got {n_list}")
    (cfg,) = _tts_configs(mode, [tf], dt, dtm, tau)
    formulas = _tts_instances(n_list, alpha, k, instances, seed)
    grid = _tts_grid(formulas, [cfg], seed, trajectories, p_star, jobs)
    rows = [[n, cfg.mode, cfg.t_f, *point] for n, (point,) in zip(n_list, grid)]
    fit = fit_lambda([(row[0], row[4]) for row in rows])
    return ["n", "mode", "t_f", "p_s", "tts", "tts_99"], rows, {
        "lambda": fit.lam, "prefactor": fit.prefactor,
        "stderr": fit.stderr, "n_range": list(fit.n_range),
    }


def _exp_tts_over_tf(jobs, *, tf_list, seed, cnf=None, n=None, alpha=None, k=None,
                     mode="average", instances=10, trajectories=10, p_star=0.99,
                     dt=0.05, dtm=50.0, tau=1.0):
    cfgs = _tts_configs(mode, tf_list, dt, dtm, tau)
    if cnf is not None and (n, alpha, k) == (None, None, None):
        f = _load_formula(cnf)
        formulas = {f.num_vars: [f]}
    elif cnf is None and None not in (n, alpha, k):
        formulas = _tts_instances([n], alpha, k, instances, seed)
    else:
        raise ValueError("tts-vs-Tf spec takes either 'cnf' or 'n', 'alpha' and 'k', got"
                         f" cnf={cnf!r}, n={n!r}, alpha={alpha!r}, k={k!r}")
    (points,) = _tts_grid(formulas, cfgs, seed, trajectories, p_star, jobs)
    rows = [[t_f, cfg.mode, *point] for t_f, cfg, point in zip(tf_list, cfgs, points)]
    return ["tf_over_tau", "mode", "p_s", "tts", "tts_99"], rows


def _exp_single_run_trace(*, tf, seed, cnf="builtin:unique2", dt=0.01, record_every=10,
                          tau=1.0):
    f = _load_formula(cnf)
    cfg = _config(tau, tf, dt, mode="heralded-single", seed=seed, record_every=record_every)
    d = run_heralded_single(f, cfg, np.random.default_rng(seed)).diagnostics
    n, m = f.num_vars, f.num_clauses
    rows = [[t, theta, pur, *z, *r, *rbar] for t, theta, pur, z, r, rbar
            in zip(d["t"], d["theta"], d["purity"], d["z"], d["r"], d["rbar"])]
    header = (
        ["t", "theta", "purity"]
        + [f"z{q}" for q in range(1, n + 1)]
        + [f"r{i}" for i in range(1, m + 1)]
        + [f"rbar{i}" for i in range(1, m + 1)]
    )
    return header, rows


# each kind's keyword-only parameters are its spec keys; a grid kind takes jobs first
EXPERIMENTS = {
    "fidelity-contour": _exp_fidelity_contour,
    "gamma-scan": _exp_gamma_scan,
    "phase-transition": _exp_phase_transition,
    "tts-scaling": _exp_tts_over_n,
    "tts-vs-Tf": _exp_tts_over_tf,
    "single-run-trace": _exp_single_run_trace,
}


def _coerce(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


# what each spec key holds, a list key in a non-empty JSON array: counts are
# integers >= 1 and numbers are finite
_LIST_KEYS = ("tf_list", "n_list", "alphas", "gamma_tf", "tf_over_tau", "dt_over_tau",
              "modes")
_COUNT_KEYS = ("n_list", "n", "k", "instances", "shots", "trajectories", "record_every")
_INTEGER_KEYS = _COUNT_KEYS + ("seed",)
_NUMBER_KEYS = ("tf_list", "alphas", "gamma_tf", "tf_over_tau", "dt_over_tau", "tau",
                "dt", "dtm", "tf", "alpha", "p_star")
_TEXT_KEYS = ("cnf", "mode", "modes")


def run_experiment_spec(spec: dict, outdir: Path, jobs: int = 1) -> list[str]:
    """Run a spec and write `<name>.csv` (plus `<name>_fit.json` for
    tts-scaling) and `<name>_manifest.json` to outdir."""
    kind = spec.get("kind")
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    if "seed" not in spec:
        raise ValueError(f"{kind} spec is missing required key 'seed'")
    for key, value in spec.items():
        if key in _LIST_KEYS and not (isinstance(value, list) and value):
            raise ValueError(f"{kind} spec key {key!r} must be a non-empty JSON array")
        values = value if key in _LIST_KEYS else [value]
        if key in _INTEGER_KEYS and any(type(v) is not int for v in values):
            raise ValueError(f"{kind} spec key {key!r} must hold integers, got {value!r}")
        if key in _COUNT_KEYS and any(v < 1 for v in values):
            raise ValueError(f"{kind} spec key {key!r} must hold integers >= 1,"
                             f" got {value!r}")
        if key in _NUMBER_KEYS and not all(type(v) in (int, float) and abs(v) < math.inf
                                           for v in values):
            raise ValueError(f"{kind} spec key {key!r} must hold finite numbers,"
                             f" got {value!r}")
        if key in _TEXT_KEYS and any(type(v) is not str for v in values):
            raise ValueError(f"{kind} spec key {key!r} must hold text, got {value!r}")
        if key == "p_star" and not 0.0 < value < 1.0:
            raise ValueError(f"{kind} spec key 'p_star' must lie in (0, 1), got {value!r}")
    name = spec.get("name", kind.replace("-", "_").lower())
    if not isinstance(name, str) or not name or any(s in name for s in ("/", "\\", "..")):
        raise ValueError(f"{kind} spec 'name' must be a plain file stem, got {name!r}")
    # the kind's signature declares its keys: one it lacks or does not take is
    # refused here, before any draw or run; it gets seed and jobs if it takes them
    signature = inspect.signature(EXPERIMENTS[kind])
    keys = {key: value for key, value in spec.items()
            if key in signature.parameters or key not in ("kind", "name", "seed")}
    pooled = (jobs,) if "jobs" in signature.parameters else ()
    try:
        signature.bind(*pooled, **keys)
    except TypeError as exc:
        raise ValueError(f"{kind} spec: {exc}") from None
    header, rows, *fit = EXPERIMENTS[kind](*pooled, **keys)
    # the directory is made only once the kind has run, so a refused spec
    # leaves none
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / f"{name}.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    outputs = [f"{name}.csv"]
    if fit:
        (outdir / f"{name}_fit.json").write_text(json.dumps(fit[0], indent=2) + "\n")
        outputs.append(f"{name}_fit.json")
    manifest = {
        "spec": spec,
        "outputs": outputs,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (outdir / f"{name}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return outputs


def _json_object(value, what: str) -> dict:
    """value, if it is a JSON object; else a usage error."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(value):.40}")
    return value


def cmd_experiment(args: argparse.Namespace) -> int:
    spec = _json_object(json.loads(Path(args.spec).read_text()), "experiment spec")
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
    manifest = _json_object(json.loads(Path(args.manifest).read_text()), "manifest")
    spec = _json_object(manifest.get("spec"), "manifest 'spec'")
    src_dir = Path(args.manifest).parent
    outdir = Path(args.out) if args.out else src_dir / "replay"
    outputs = run_experiment_spec(spec, outdir, jobs=args.jobs)
    mismatched = [rel for rel in outputs
                  if (src_dir / rel).read_bytes() != (outdir / rel).read_bytes()]
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
    p_solve.add_argument("--mode", default="average", choices=MODES)
    p_solve.add_argument("--tau", type=float, default=1.0)
    p_solve.add_argument("--Tf", dest="tf", type=float, default=400.0)
    p_solve.add_argument("--dt", type=float, default=0.01)
    p_solve.add_argument("--dtm", type=float, default=50.0)
    p_solve.add_argument("--schedule", default="linear",
                         help="'linear' (the two-row ramp table [[0, 0], [1, pi/2]])"
                         " or path to a JSON (fraction, theta) table")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--max-shots", type=_count, default=8)
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate random k-SAT DIMACS files")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--alpha", type=float, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--unique", action="store_true",
                       help="rejection-sample until exactly one solution")
    p_gen.add_argument("--count", type=_count, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--outdir", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_exp = sub.add_parser("experiment", help="run a JSON experiment spec")
    p_exp.add_argument("spec", help="path to the experiment spec JSON")
    p_exp.add_argument("--out", default=None, help="output directory")
    p_exp.add_argument("--jobs", type=_count, default=1)
    p_exp.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a spec field (JSON-coerced value)")
    p_exp.set_defaults(func=cmd_experiment)

    p_rep = sub.add_parser("replay", help="re-run a manifest and compare outputs")
    p_rep.add_argument("manifest", help="path to a *_manifest.json")
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--jobs", type=_count, default=1)
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
