"""Success and time-to-solution statistics, phase-transition curves, and
exponential scaling fits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .satcore import is_satisfiable, random_instance
from .solver import RunConfig, run_full


@dataclass(frozen=True)
class ScalingFit:
    """Exponential fit TTS ~ prefactor * lambda^n."""

    lam: float
    prefactor: float
    stderr: float
    n_range: tuple[int, int]


def n_star(p_s: float, p_star: float = 0.99) -> float:
    """Expected run count ceil(log(1-P*)/log(1-P_s)); inf when P_s = 0."""
    if not 0.0 < p_star < 1.0:
        raise ValueError(f"p_star must be in (0, 1), got {p_star}")
    if p_s <= 0.0:
        return math.inf
    if p_s >= 1.0:
        return 1.0
    return float(math.ceil(math.log(1.0 - p_star) / math.log(1.0 - p_s)))


def tts_with_readout(p_s: float, p_star: float, t_f: float, dt_m: float) -> float:
    """N* repetitions of one run plus its readout."""
    return n_star(p_s, p_star) * (t_f + dt_m)


def tts_99(p_s: float, t_f: float) -> float:
    """Algorithmic TTS at 99% confidence with the un-ceiled run-count ratio."""
    if p_s <= 0.0:
        return math.inf
    if p_s >= 1.0:
        return t_f
    return t_f * math.log(0.01) / math.log(1.0 - p_s)


def pool_map(fn: Callable, tasks: list, jobs: int) -> list:
    """[fn(task) for task in tasks], on min(jobs, task count, usable cores)
    worker processes, all started up front; the results do not depend on jobs."""
    workers = min(jobs, len(tasks))
    if workers > 1:  # the usable cores; sched_getaffinity is not on every platform
        workers = min(workers, len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if workers < 2:
        return [fn(task) for task in tasks]
    # imported here: multiprocessing would add to every `import zenosat`
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=4))


def _decide_instance(args) -> bool:
    """One phase-transition trial: did we classify satisfiability correctly?

    Success means a verified solution was produced for a satisfiable
    instance, or no run verified for an unsatisfiable one.
    """
    f, cfg, shots, seed = args
    sat = is_satisfiable(f)
    rng = np.random.default_rng(seed)
    any_verified = False
    for _ in range(shots):
        out = run_full(f, cfg, rng)
        if out.verified:
            any_verified = True
            break
    return any_verified if sat else not any_verified


def phase_transition_curve(
    n: int,
    k: int,
    alphas: Sequence[float],
    cfg: RunConfig,
    num_instances: int,
    seed: int,
    shots: int = 1,
    jobs: int = 1,
) -> list[float]:
    """Empirical P_succ = N_succ / N_prob at each alpha, for one (n, k, T_f,
    mode) configuration.

    Each alpha draws its instances, each followed by its run seed, from a
    generator seeded with [seed, round(1000 alpha)], so alphas that share
    that key are refused before any draw. `pool_map` decides the instances
    of the whole curve, so jobs changes no value.
    """
    keys = [int(round(alpha * 1000)) for alpha in alphas]
    if len(set(keys)) < len(keys):
        raise ValueError(f"alphas {list(alphas)} would share instances: each alpha"
                         " seeds with round(1000 alpha), which must differ")
    tasks = []
    for alpha, key in zip(alphas, keys):
        rng = np.random.default_rng([seed, key])
        for _ in range(num_instances):
            f = random_instance(n, alpha, k, rng)
            tasks.append((f, cfg, shots, int(rng.integers(2**63))))
    results = pool_map(_decide_instance, tasks, jobs)
    return np.reshape(results, (len(alphas), num_instances)).mean(axis=1).tolist()


def fit_lambda(points: Sequence[tuple[int, float]]) -> ScalingFit:
    """Least squares of log TTS against n; lambda is e^slope."""
    ns = np.array([p[0] for p in points], dtype=float)
    if len(set(ns)) < 2:
        raise ValueError("need (n, TTS) points at two or more distinct n")
    ts = np.array([p[1] for p in points], dtype=float)
    if np.any(ts <= 0) or np.any(~np.isfinite(ts)):
        raise ValueError("TTS values must be finite and positive")
    if len(points) > 2:
        coeffs, cov = np.polyfit(ns, np.log(ts), 1, cov=True)
        slope, intercept = coeffs
        stderr = float(math.exp(slope) * math.sqrt(max(cov[0, 0], 0.0)))
    else:
        slope, intercept = np.polyfit(ns, np.log(ts), 1)
        stderr = 0.0
    return ScalingFit(
        lam=float(math.exp(slope)),
        prefactor=float(math.exp(intercept)),
        stderr=stderr,
        n_range=(int(ns.min()), int(ns.max())),
    )
