"""The benchmark's workloads: run configurations and inputs generated from a seed.

The program under test sees only the formulas and the ``RunConfig`` of each
workload; everything else here (instance pools, per-run generator seeds, the
stored reference values) belongs to the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from zenosat import satcore, solver
from zenosat.qlinalg import purity
from zenosat.solver import RunConfig

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Values of an averaged (deterministic) run must match reference.json this closely.
DRIFT_TOL = 1e-9

N9_SHAPE = (9, 2.0, 3)  # n, alpha, k of avg_n9_dense
N9_PER_SEED = 8  # instances drawn from the pool for one seed
N6_SHAPE = (6, 4.3, 3)  # n, alpha, k of herald_n6_disc
N6_PER_SEED = 24


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: RunConfig
    deterministic: bool  # averaged mode: p_s and purity are gated against reference.json


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("avg_n2_long", RunConfig(t_f=40.0, dt=0.01, dt_m=50.0, mode="average"), True),
        Workload(
            "herald_n6_disc",
            RunConfig(t_f=100.0, dt=0.25, dt_m=50.0, mode="heralded-restart"),
            False,
        ),
        Workload("avg_n9_dense", RunConfig(t_f=2.5, dt=0.25, dt_m=50.0, mode="average"), True),
        Workload(
            "herald_n2_cont",
            RunConfig(t_f=20.0, dt=0.01, dt_m=50.0, mode="heralded-restart"),
            False,
        ),
    )
}

BUILTINS = (
    ("unique2", satcore.TWO_SAT_UNIQUE),
    ("two-solutions2", satcore.TWO_SAT_TWO_SOLUTIONS),
)


@dataclass(frozen=True)
class Instance:
    label: str
    formula: satcore.CnfFormula
    solutions: satcore.SolutionSet


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def make_instances(name: str, seed: int, reference: dict) -> list[Instance]:
    """The formulas one run of workload ``name`` cycles through, from ``seed``.

    avg_n9_dense draws from a pool of unique-solution instances stored in
    reference.json. At n=9, alpha=2 about one random instance in 2*10^5 has
    a unique solution, so rejection sampling takes minutes per instance through
    ``random_unique_solution_instance``; make_reference.py did it once.
    """
    if name in ("avg_n2_long", "herald_n2_cont"):
        formulas = list(BUILTINS)
    elif name == "herald_n6_disc":
        rng = np.random.default_rng(seed)
        formulas = [
            (f"n6-{seed}-{i}", satcore.random_instance(*N6_SHAPE, rng))
            for i in range(N6_PER_SEED)
        ]
    elif name == "avg_n9_dense":
        pool = reference["n9_pool"]
        picks = np.random.default_rng(seed).permutation(len(pool))[:N9_PER_SEED]
        formulas = [(f"n9-{i}", satcore.parse_dimacs(pool[i])) for i in picks]
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return [Instance(label, f, satcore.enumerate_solutions(f)) for label, f in formulas]



def run_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for timed run ``index``; the warm-up run uses index -1."""
    return np.random.default_rng([seed, index + 1])


def final_state_values(out: solver.RunOutcome, inst: Instance, cfg: RunConfig) -> dict:
    """Exact success probability and purity of a completed run's final state."""
    p_s = solver.success_probability(
        out.final_rho, inst.formula, cfg.tau, cfg.dt_m, inst.solutions
    )
    return {"p_s": p_s, "purity": purity(out.final_rho)}


def check_outcome(
    out: solver.RunOutcome, inst: Instance, values: dict, expected: dict | None
) -> list[str]:
    """Correctness-gate violations of one run (empty when it passes).

    A verified candidate must satisfy the formula and be one of the oracle's
    solutions; an averaged run must reproduce the stored p_s and purity.
    """
    problems = []
    if out.verified:
        candidate = tuple(out.candidate)
        if not satcore.evaluate(inst.formula, candidate):
            problems.append(f"{inst.label}: verified candidate does not satisfy the formula")
        if candidate not in set(inst.solutions.assignments):
            problems.append(f"{inst.label}: verified candidate not in the oracle's solutions")
    if expected is not None:
        for key in ("p_s", "purity"):
            if abs(values[key] - expected[key]) > DRIFT_TOL:
                problems.append(
                    f"{inst.label}: {key} {values[key]!r} != reference {expected[key]!r}"
                )
    return problems
