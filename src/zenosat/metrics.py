"""Success and time-to-solution statistics, phase-transition curves, and
exponential scaling fits.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .satcore import CnfFormula, is_satisfiable, random_instance
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


def unique_bias_success(z_t: float, dt_m: float, tau: float, n: int) -> float:
    """Readout success probability for a unique solution with uniform local
    bias |z_T| on every qubit: (1 + |z_T| erf(sqrt(dt_m/2 tau)))^n / 2^n.
    """
    e_val = math.erf(math.sqrt(dt_m / (2.0 * tau))) if dt_m > 0 else 0.0
    return (1.0 + abs(z_t) * e_val) ** n / 2.0**n


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


def phase_transition_point(
    n: int,
    alpha: float,
    k: int,
    cfg: RunConfig,
    num_instances: int,
    rng: np.random.Generator,
    shots: int = 1,
    jobs: int = 1,
) -> float:
    """Empirical P_succ = N_succ / N_prob at one (alpha, T_f) grid point."""
    tasks = []
    for _ in range(num_instances):
        f = random_instance(n, alpha, k, rng)
        tasks.append((f, cfg, shots, int(rng.integers(2**63))))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_decide_instance, tasks, chunksize=4))
    else:
        results = [_decide_instance(t) for t in tasks]
    return float(np.mean(results))


def phase_transition_curve(
    n: int,
    k: int,
    alphas: Sequence[float],
    cfg: RunConfig,
    num_instances: int,
    seed: int,
    shots: int = 1,
    jobs: int = 1,
) -> list[dict]:
    """P_succ(alpha) rows for one (n, k, T_f, mode) configuration."""
    rows = []
    for alpha in alphas:
        rng = np.random.default_rng([seed, int(round(alpha * 1000))])
        p = phase_transition_point(
            n, alpha, k, cfg, num_instances, rng, shots=shots, jobs=jobs
        )
        rows.append(
            {
                "n": n,
                "k": k,
                "alpha": alpha,
                "t_f": cfg.t_f,
                "mode": cfg.mode,
                "num_instances": num_instances,
                "p_succ": p,
            }
        )
    return rows


def fit_lambda(points: Sequence[tuple[int, float]]) -> ScalingFit:
    """Least squares of log TTS against n; lambda is e^slope."""
    if len(points) < 2:
        raise ValueError("need at least two (n, TTS) points")
    ns = np.array([p[0] for p in points], dtype=float)
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


def polynomial_minimum(
    xs: Sequence[float], ys: Sequence[float], degree: int = 4
) -> tuple[float, float]:
    """Least-squares polynomial fit; returns (argmin, min) over the x-range."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    coeffs = np.polyfit(xs, ys, degree)
    grid = np.linspace(xs.min(), xs.max(), 2001)
    vals = np.polyval(coeffs, grid)
    i = int(np.argmin(vals))
    return float(grid[i]), float(vals[i])
