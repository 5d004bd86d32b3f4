"""The end-to-end solver algorithms: averaged evolution, heralded single
trials, heralded restarts under a time budget, and the terminal qubit
readout with classical verification.

Modeled time advances by dt per loop cycle regardless of the number of
clause maps applied in that cycle; readout adds dt_m. A heralded failure
reports the elapsed time at detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .dynamics import average_map, kraus_measure, lindblad_step, sme_step
from .encoding import ClauseSet, Schedule
from .herald import FilterConfig, FilterState, detect_failure
from .qlinalg import (basis_probabilities, local_z, num_qubits, plus_density,
                      plus_state, purity)
from .satcore import (
    Assignment,
    CnfFormula,
    SolutionSet,
    assignment_bits,
    enumerate_solutions,
    evaluate,
    to_bitstring,
)

MODES = ("average", "heralded-single", "heralded-restart")
_CONTINUUM_THRESHOLD = 0.02  # dt/tau at or below which continuum kernels run
# Bytes of clause operators built at once for a block of steps, which holds
# at least one step: several continuum steps up to n = 4, hundreds at n = 2.
_BLOCK_BYTES = 256 * 1024
_THETA_STEPS = 4096  # steps whose angles one schedule evaluation covers, at least


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
    record_every: int = 0  # record diagnostics every k steps; 0 disables

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not all(map(math.isfinite, (self.t_f, self.dt, self.dt_m, self.tau))):
            raise ValueError("t_f, dt, dt_m and tau must be finite")
        if self.t_f < self.dt:
            raise ValueError(f"t_f = {self.t_f} shorter than dt = {self.dt}")
        if self.dt_m < 0:
            raise ValueError(f"dt_m must be >= 0, got {self.dt_m}")
        if self.tau <= 0 or self.dt <= 0:
            raise ValueError("tau and dt must be positive")
        if self.record_every < 0:
            raise ValueError(f"record_every must be >= 0, got {self.record_every}")

    @property
    def continuum(self) -> bool:
        return self.dt / self.tau <= _CONTINUUM_THRESHOLD

    def filter_config(self, horizon: float) -> FilterConfig:
        """Response time max(2 tau, horizon/10, dt), threshold -2.5/sqrt(T_be)."""
        t_be = max(2.0 * self.tau, 0.1 * horizon, self.dt)
        return FilterConfig(t_be=t_be, r_th=-2.5 / math.sqrt(t_be), dt=self.dt)


@dataclass
class RunOutcome:
    """Result of one run: final state or failure report, plus readout."""

    mode: str
    seed: int
    consumed_time: float
    failed_at: Optional[float] = None
    failed_clause: Optional[int] = None
    num_attempts: int = 1
    final_state: Optional[np.ndarray] = None  # psi if sampled, rho if averaged
    readout_r: Optional[np.ndarray] = None
    candidate: Optional[Assignment] = None
    verified: Optional[bool] = None
    diagnostics: Optional[dict] = None

    @property
    def failed(self) -> bool:
        """Whether detection aborted the run, which then reports failed_at."""
        return self.failed_at is not None

    @property
    def final_rho(self) -> Optional[np.ndarray]:
        """The final density matrix: psi psi^T for a sampled run, else rho."""
        state = self.final_state
        if state is None or state.ndim == 2:
            return state
        return np.outer(state, state.conj())

    @property
    def candidate_bits(self) -> Optional[str]:
        return None if self.candidate is None else to_bitstring(self.candidate)

    def to_dict(self) -> dict:
        return {
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


def _step_operators(operators, block: int, cfg: RunConfig, horizon: float, steps: int):
    """Yield (step, theta, clause operators) for steps 1..steps, theta a
    float. One vectorised call builds the operators of ``block`` steps, and
    one the angles of whole blocks covering about _THETA_STEPS steps, so a
    run that builds its operators one step at a time still evaluates its
    schedule in bulk."""
    span = block * max(1, _THETA_STEPS // block)
    for first in range(1, steps + 1, span):
        fractions = np.arange(first, min(first + span, steps + 1)) * cfg.dt / horizon
        thetas = cfg.schedule.theta(fractions)
        for at in range(0, thetas.size, block):
            part = thetas[at : at + block]
            yield from zip(range(first + at, steps + 1), part.tolist(), operators(part))


def _evolve(
    cs: ClauseSet,
    cfg: RunConfig,
    horizon: float,
    rng: Optional[np.random.Generator],
    detect: bool,
) -> RunOutcome:
    """Evolve |+>^n under the schedule compressed to ``horizon``.

    A mode is a kernel plus a detection policy. With an rng the kernel samples
    readouts (per-clause Kraus measurements, or the Kraus-form stochastic step
    in the continuum regime), which are filtered per clause; with ``detect`` a
    filtered signal below threshold aborts the run with the elapsed time. A
    sampled run holds psi, which perfect detection keeps pure. Without an rng
    the evolution is readout-averaged on rho (sequential averaged maps, or the
    Lindblad step in the continuum regime); both keep tr rho up to rounding,
    which is divided out once, when the run returns. Each kernel is the
    dynamics function itself and advances all m clauses by dt in one call: the
    Kraus step through violating vectors and, bound here, the frame
    permutations; the averaged map through literal states and, bound here,
    the index tables and the frame permutations derived from them; the
    continuum ones through dense observable stacks. Kernels, detect_failure
    and FilterState.update are looked up when a run starts, not per step, and
    patches of these names made before it (tracing, profiling) reach every
    call.

    theta and the clause operators depend only on the step, so they are
    built ahead in vectorised calls, then the kernel is called once per step
    on that step's operators. A block holds as many steps' operators as fit
    in _BLOCK_BYTES and at least one, so a continuum run whose one-step stack
    exceeds half the budget (n >= 5 at the usual clause counts) builds one
    stack per step, as the memory refusal counts.
    """
    sampled = rng is not None
    cs.require_memory("dense" if cfg.continuum else "psi" if sampled else "rho")
    state = plus_state(cs.n) if sampled else plus_density(cs.n)
    if cfg.continuum:
        operators, kernel = cs.observables, sme_step if sampled else lindblad_step
        step_bytes = 8 * cs.m * cs.dim**2
    elif sampled:
        operators, kernel = cs.violating_vectors, partial(kraus_measure, frames=cs.frames)
        step_bytes = 8 * cs.m * (1 << cs.k)
    else:
        operators = cs.literal_states
        kernel = partial(average_map, index=cs.index, frames=cs.frames)
        step_bytes = 8 * cs.m * cs.k * 2
    if sampled:
        mode, keys = "heralded-single", ("t", "theta", "purity", "z", "r", "rbar")
        fs = FilterState(cfg.filter_config(horizon), (cs.m,))
        update, first_failure = fs.update, detect_failure
    else:
        mode, keys = "average", ("t", "theta", "purity", "z")
    every = cfg.record_every
    record = {key: [] for key in keys}
    steps = max(1, round(horizon / cfg.dt))
    out = RunOutcome(mode=mode, seed=cfg.seed, consumed_time=steps * cfg.dt)
    block = max(1, _BLOCK_BYTES // step_bytes)
    tau, dt = cfg.tau, cfg.dt
    for step, theta, ops in _step_operators(operators, block, cfg, horizon, steps):
        if sampled:
            state, readouts = kernel(state, ops, tau, dt, rng)
            update(readouts)
        else:
            state = kernel(state, ops, tau, dt)
        del ops  # so the next block is built in the cache-warm memory this one frees
        if every and step % every == 0:
            row = (step * dt, theta, 1.0 if sampled else purity(state), local_z(state))
            if sampled:
                row += (readouts.copy(), fs.rbar.copy())
            for values, value in zip(record.values(), row):
                values.append(value)
        if detect and (hit := first_failure(fs)) is not None:
            out.consumed_time = out.failed_at = step * dt
            out.failed_clause = hit
            break
    else:
        if not sampled:
            state /= np.trace(state)
        out.final_state = state
    if every:
        out.diagnostics = {key: np.asarray(values) for key, values in record.items()}
    return out


def run_average(f: CnfFormula, cfg: RunConfig) -> RunOutcome:
    """Averaged (unconditional) evolution from (|+><+|)^n over T_f.

    Continuum regime (dt/tau <= threshold) integrates all clauses with a
    simultaneous Lindblad step; otherwise clause maps apply sequentially.
    """
    return _evolve(ClauseSet(f), cfg, cfg.t_f, None, detect=False)


def run_heralded_single(
    f: CnfFormula | ClauseSet,
    cfg: RunConfig,
    rng: np.random.Generator,
    horizon: Optional[float] = None,
    detect: bool = True,
) -> RunOutcome:
    """One stochastic trial with per-clause readout filtering.

    The schedule is compressed to ``horizon`` (default T_f). A filtered
    clause signal below threshold aborts the run with the elapsed time.
    """
    cs = f if isinstance(f, ClauseSet) else ClauseSet(f)
    return _evolve(cs, cfg, cfg.t_f if horizon is None else horizon, rng, detect)


def run_heralded_restart(
    f: CnfFormula, cfg: RunConfig, rng: np.random.Generator
) -> RunOutcome:
    """Heralded trials restarted under a total time budget t_rest = T_f.

    Each retry compresses the schedule into the remaining budget. Once the
    budget drops below T_min = 5 tau, one final run of duration t_rest
    executes with detection disabled, so total modeled time never exceeds T_f
    (+ one dt of rounding slack per attempt).
    """
    cs = ClauseSet(f)
    t_min = 5.0 * cfg.tau
    t_rest = cfg.t_f
    consumed = 0.0
    attempts = 0
    while True:
        attempts += 1
        detect = t_rest >= max(t_min, cfg.dt)  # else: last chance, undetected
        out = run_heralded_single(cs, cfg, rng, max(t_rest, cfg.dt), detect)
        consumed += out.consumed_time
        if not out.failed:
            break
        t_rest -= out.failed_at
    out.mode = "heralded-restart"
    out.consumed_time = consumed
    out.num_attempts = attempts
    return out


def readout(
    state: np.ndarray, tau: float, dt_m: float, rng: np.random.Generator
) -> tuple[np.ndarray, Assignment]:
    """Terminal per-qubit readout of duration dt_m of psi or rho.

    Samples a computational basis string from the basis probabilities, then per-qubit
    Gaussian signals with mean z_j/sqrt(tau) and variance 1/dt_m, where
    z_j = +1 for basis bit 1 (an encoded true). The candidate assignment is
    sign(r): positive readout -> true. dt_m = 0 returns pure noise.
    """
    probs = basis_probabilities(state)
    probs = probs / probs.sum()
    n = num_qubits(probs.size)
    z = 2.0 * assignment_bits(rng.choice(probs.size, p=probs), n) - 1.0
    if dt_m <= 0:
        r = rng.standard_normal(n)
    else:
        r = z / math.sqrt(tau) + rng.normal(0.0, 1.0 / math.sqrt(dt_m), size=n)
    candidate = tuple(bool(v > 0) for v in r)
    return r, candidate


def success_probability(
    state: np.ndarray,
    f: CnfFormula,
    tau: float,
    dt_m: float,
    solutions: Optional[SolutionSet] = None,
) -> float:
    """Exact probability that readout of psi or rho returns a satisfying
    assignment.

    For each solution s and basis string b the sign pattern of the readout
    matches s on a qubit with probability (1 +- erf(sqrt(dt_m/2 tau)))/2, so

        P_s = 2^-n sum_b p_b (1+E)^(n-h) (1-E)^h,  h = Hamming(b, s),

    summed over all oracle solutions. The events sign(r) = s are disjoint
    for distinct s, so the sum is exact at every dt_m. The weight is a
    product over qubits, so the basis probabilities pass once along each
    qubit through the 2x2 matrix [[1+E, 1-E], [1-E, 1+E]]/2, and P_s sums
    the result at the solutions' basis indices.
    """
    n = f.num_vars
    if solutions is None:
        solutions = enumerate_solutions(f)
    if solutions.count == 0:
        return 0.0
    e_val = math.erf(math.sqrt(dt_m / (2.0 * tau))) if dt_m > 0 else 0.0
    flip = np.array([[1.0 + e_val, 1.0 - e_val], [1.0 - e_val, 1.0 + e_val]]) / 2.0
    probs = basis_probabilities(state)
    for _ in range(n):  # each pass makes the last qubit the first
        probs = (probs.reshape(-1, 2) @ flip).T.reshape(-1)
    probs = probs.reshape((2,) * n)  # axis j: qubit j + 1
    return float(probs[tuple(np.array(solutions.assignments, dtype=np.intp).T)].sum())


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
    r, candidate = readout(out.final_state, cfg.tau, cfg.dt_m, rng)
    out.readout_r = r
    out.candidate = candidate
    out.verified = evaluate(f, candidate)
    out.consumed_time += cfg.dt_m
    return out
