"""The end-to-end solver algorithms: averaged evolution, heralded single
trials, heralded restarts under a time budget, and the terminal qubit
readout with classical verification.

Modeled time advances by dt per loop cycle regardless of the number of
clause maps applied in that cycle; readout adds dt_m. A heralded failure
reports the elapsed time at detection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import (
    MeasurementConfig,
    average_map,
    kraus_measure,
    lindblad_step,
    sme_step,
)
from .encoding import ClauseSet, Schedule
from .herald import FilterConfig, FilterState, detect_failure
from .qlinalg import local_z, plus_density, purity
from .satcore import (
    Assignment,
    CnfFormula,
    SolutionSet,
    enumerate_solutions,
    evaluate,
    to_bitstring,
)

MODES = ("average", "heralded-single", "heralded-restart")
_CONTINUUM_THRESHOLD = 0.02  # dt/tau at or below which continuum kernels run


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one solver run. Times are in the same units as tau."""

    t_f: float
    dt: float
    dt_m: float
    tau: float = 1.0
    mode: str = "average"
    schedule: Schedule = field(default_factory=Schedule)
    seed: int = 0
    t_be: Optional[float] = None  # None: max(2 tau, 0.1 horizon)
    r_th: Optional[float] = None  # None: -2.5/sqrt(T_be)
    t_min: Optional[float] = None  # None: 5 tau
    record_every: int = 0  # record diagnostics every k steps; 0 disables

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.t_f < self.dt:
            raise ValueError(f"t_f = {self.t_f} shorter than dt = {self.dt}")
        if self.dt_m < 0:
            raise ValueError(f"dt_m must be >= 0, got {self.dt_m}")
        if self.tau <= 0 or self.dt <= 0:
            raise ValueError("tau and dt must be positive")

    @property
    def continuum(self) -> bool:
        return self.dt / self.tau <= _CONTINUUM_THRESHOLD

    def resolved_t_min(self) -> float:
        return 5.0 * self.tau if self.t_min is None else self.t_min

    def filter_config(self, horizon: float) -> FilterConfig:
        if self.t_be is None:
            t_be = max(2.0 * self.tau, 0.1 * horizon, self.dt)
        else:
            t_be = self.t_be
        r_th = -2.5 / math.sqrt(t_be) if self.r_th is None else self.r_th
        return FilterConfig(t_be=t_be, r_th=r_th, dt=self.dt)


@dataclass
class RunOutcome:
    """Result of one run: final state or failure report, plus readout."""

    mode: str
    seed: int
    consumed_time: float
    failed: bool = False
    failed_at: Optional[float] = None
    failed_clause: Optional[int] = None
    num_attempts: int = 1
    final_rho: Optional[np.ndarray] = None
    readout_r: Optional[np.ndarray] = None
    candidate: Optional[Assignment] = None
    verified: Optional[bool] = None
    diagnostics: Optional[dict] = None

    @property
    def candidate_bits(self) -> Optional[str]:
        return None if self.candidate is None else to_bitstring(self.candidate)

    def to_dict(self, include_diagnostics: bool = False) -> dict:
        out = {
            "mode": self.mode,
            "seed": self.seed,
            "consumed_time": self.consumed_time,
            "failed": self.failed,
            "failed_at": self.failed_at,
            "failed_clause": self.failed_clause,
            "num_attempts": self.num_attempts,
            "readout": None if self.readout_r is None else list(map(float, self.readout_r)),
            "candidate": self.candidate_bits,
            "verified": self.verified,
        }
        if include_diagnostics and self.diagnostics is not None:
            out["diagnostics"] = {
                key: np.asarray(val).tolist() for key, val in self.diagnostics.items()
            }
        return out

    def to_json(self, include_diagnostics: bool = False) -> str:
        return json.dumps(self.to_dict(include_diagnostics), indent=2)


def _num_steps(horizon: float, dt: float) -> int:
    return max(1, round(horizon / dt))


class _Recorder:
    def __init__(self, every: int, keys: tuple[str, ...]):
        self.every = every
        self.data: dict[str, list] = {key: [] for key in ("t", "theta") + keys}

    def want(self, step: int) -> bool:
        return self.every > 0 and step % self.every == 0

    def push(self, **values) -> None:
        for key, val in values.items():
            self.data[key].append(val)

    def asdict(self) -> Optional[dict]:
        if self.every <= 0:
            return None
        return {key: np.asarray(val) for key, val in self.data.items()}


# Kernels apply every clause for one dt and return (rho, readouts or None).
# They look the dynamics functions up at call time, so patches of these names
# in zenosat.solver (tracing, profiling) reach every call.


def _lindblad(rho, xs, mc, rng):
    return lindblad_step(rho, xs, mc.tau, mc.dt), None


def _average_maps(rho, xs, mc, rng):
    for x in xs:
        rho = average_map(rho, x, mc)
    return rho, None


def _sme(rho, xs, mc, rng):
    return sme_step(rho, xs, mc.tau, mc.dt, rng)


def _kraus_maps(rho, xs, mc, rng):
    readouts = np.empty(len(xs))
    for i, x in enumerate(xs):
        rho, readouts[i] = kraus_measure(rho, x, mc, rng)
    return rho, readouts


def _evolve(
    f: CnfFormula,
    cfg: RunConfig,
    horizon: float,
    rng: Optional[np.random.Generator],
    detect: bool,
) -> RunOutcome:
    """Evolve (|+><+|)^n under the schedule compressed to ``horizon``.

    A mode is a kernel plus a detection policy. With an rng the kernel samples
    readouts (Kraus measurements, or the stochastic master equation in the
    continuum regime), which are filtered per clause; with ``detect`` a
    filtered signal below threshold aborts the run with the elapsed time.
    Without an rng the evolution is readout-averaged (sequential averaged
    maps, or the Lindblad step in the continuum regime).
    """
    cs = ClauseSet(f)
    rho = plus_density(f.num_vars)
    mc = MeasurementConfig(tau=cfg.tau, dt=cfg.dt)
    sampled = rng is not None
    if sampled:
        kernel = _sme if cfg.continuum else _kraus_maps
        mode, keys = "heralded-single", ("purity", "z", "r", "rbar")
        fs = FilterState(cfg.filter_config(horizon), (cs.m,))
    else:
        kernel = _lindblad if cfg.continuum else _average_maps
        mode, keys = "average", ("purity", "z")
    steps = _num_steps(horizon, cfg.dt)
    rec = _Recorder(cfg.record_every, keys)
    for step in range(1, steps + 1):
        t = step * cfg.dt
        theta = cfg.schedule.theta(t / horizon)
        rho, readouts = kernel(rho, cs.observables(theta), mc, rng)
        if sampled:
            fs.update(readouts)
        if rec.want(step):
            rec.push(
                t=t,
                theta=theta,
                purity=purity(rho),
                z=[local_z(rho, j) for j in range(1, f.num_vars + 1)],
            )
            if sampled:
                rec.push(r=readouts.copy(), rbar=fs.rbar.copy())
        if detect and (hit := detect_failure(fs)) is not None:
            return RunOutcome(
                mode=mode,
                seed=cfg.seed,
                consumed_time=t,
                failed=True,
                failed_at=t,
                failed_clause=hit,
                diagnostics=rec.asdict(),
            )
    return RunOutcome(
        mode=mode,
        seed=cfg.seed,
        consumed_time=steps * cfg.dt,
        final_rho=rho,
        diagnostics=rec.asdict(),
    )


def run_average(f: CnfFormula, cfg: RunConfig) -> RunOutcome:
    """Averaged (unconditional) evolution from (|+><+|)^n over T_f.

    Continuum regime (dt/tau <= threshold) integrates all clauses with a
    simultaneous Lindblad step; otherwise clause maps apply sequentially.
    """
    return _evolve(f, cfg, cfg.t_f, None, detect=False)


def run_heralded_single(
    f: CnfFormula,
    cfg: RunConfig,
    rng: np.random.Generator,
    horizon: Optional[float] = None,
    detect: bool = True,
) -> RunOutcome:
    """One stochastic trial with per-clause readout filtering.

    The schedule is compressed to ``horizon`` (default T_f). A filtered
    clause signal below threshold aborts the run with the elapsed time.
    """
    return _evolve(f, cfg, cfg.t_f if horizon is None else horizon, rng, detect)


def run_heralded_restart(
    f: CnfFormula, cfg: RunConfig, rng: np.random.Generator
) -> RunOutcome:
    """Heralded trials restarted under a total time budget t_rest = T_f.

    Each retry compresses the schedule into the remaining budget. Once the
    budget drops below T_min, one final run of duration t_rest executes with
    detection disabled, so total modeled time never exceeds T_f (+ one dt of
    rounding slack per attempt).
    """
    t_min = cfg.resolved_t_min()
    t_rest = cfg.t_f
    consumed = 0.0
    attempts = 0
    while True:
        attempts += 1
        detect = t_rest >= max(t_min, cfg.dt)  # else: last chance, undetected
        out = run_heralded_single(f, cfg, rng, max(t_rest, cfg.dt), detect)
        consumed += out.consumed_time
        if not out.failed:
            break
        t_rest -= out.failed_at
    out.mode = "heralded-restart"
    out.consumed_time = consumed
    out.num_attempts = attempts
    return out


def readout(
    rho: np.ndarray, tau: float, dt_m: float, rng: np.random.Generator
) -> tuple[np.ndarray, Assignment]:
    """Terminal per-qubit readout of duration dt_m.

    Samples a computational basis string from diag(rho), then per-qubit
    Gaussian signals with mean z_j/sqrt(tau) and variance 1/dt_m, where
    z_j = +1 for basis bit 1 (an encoded true). The candidate assignment is
    sign(r): positive readout -> true. dt_m = 0 returns pure noise.
    """
    d = rho.shape[0]
    n = d.bit_length() - 1
    probs = np.clip(np.real(np.diag(rho)), 0.0, None)
    probs = probs / probs.sum()
    basis = rng.choice(d, p=probs)
    z = np.array([1.0 if (basis >> (n - j)) & 1 else -1.0 for j in range(1, n + 1)])
    if dt_m <= 0:
        r = rng.standard_normal(n)
    else:
        r = z / math.sqrt(tau) + rng.normal(0.0, 1.0 / math.sqrt(dt_m), size=n)
    candidate = tuple(bool(v > 0) for v in r)
    return r, candidate


def success_probability(
    rho: np.ndarray,
    f: CnfFormula,
    tau: float,
    dt_m: float,
    solutions: Optional[SolutionSet] = None,
) -> float:
    """Exact probability that readout of rho returns a satisfying assignment.

    For each solution s and basis string b the sign pattern of the readout
    matches s on a qubit with probability (1 +- erf(sqrt(dt_m/2 tau)))/2, so

        P_s = 2^-n sum_b Tr(rho P_b) (1+E)^(n-h) (1-E)^h,  h = Hamming(b, s),

    summed over all oracle solutions (events disjoint once E is near 1; the
    overlap at small dt_m is quantified in tests, not assumed away).
    """
    n = f.num_vars
    d = 1 << n
    if solutions is None:
        solutions = enumerate_solutions(f)
    if solutions.count == 0:
        return 0.0
    e_val = math.erf(math.sqrt(dt_m / (2.0 * tau))) if dt_m > 0 else 0.0
    diag = np.clip(np.real(np.diag(rho)), 0.0, None)
    shifts = n - 1 - np.arange(n)
    bit_table = (np.arange(d)[:, None] >> shifts[None, :]) & 1
    total = 0.0
    for s in solutions.assignments:
        s_bits = np.array([1 if b else 0 for b in s])
        ham = np.sum(bit_table != s_bits[None, :], axis=1)
        weights = (1.0 + e_val) ** (n - ham) * (1.0 - e_val) ** ham
        total += float(diag @ weights) / d
    return min(total, 1.0)


def run_full(
    f: CnfFormula, cfg: RunConfig, rng: Optional[np.random.Generator] = None
) -> RunOutcome:
    """Full pipeline: evolve per mode, read out, classically verify."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "average":
        out = run_average(f, cfg)
    elif cfg.mode == "heralded-single":
        out = run_heralded_single(f, cfg, rng)
    else:
        out = run_heralded_restart(f, cfg, rng)
    if out.failed:
        out.verified = False
        return out
    r, candidate = readout(out.final_rho, cfg.tau, cfg.dt_m, rng)
    out.readout_r = r
    out.candidate = candidate
    out.verified = evaluate(f, candidate)
    out.consumed_time += cfg.dt_m
    return out
