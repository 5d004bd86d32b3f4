"""Reference implementations the tests check zenosat against: direct, slow
forms of what the package computes another way (the encoded theta-states as
rotated |+> vectors and their Kronecker products, the solution states and
the fidelity to them, dense clause operators embedded one clause at a time,
the partial trace, the Kraus step gathered and scattered per clause, the
dense-rho Kraus step and averaged map, the integral form of the readout
filter, the Lindblad step as per-clause stacks renormalized every step, a
Heun Lindblad step), plus closed forms, Pauli matrices, the co-rotating
frame, the Zeno diagnostic, the trace distance and a classical baseline
solver that only tests use, the success probability summed solution by
solution over Hamming distances, and a serial stand-in for a process pool.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from zenosat.encoding import ClauseSet
from zenosat.qlinalg import SIGMA_Y, basis_probabilities, num_qubits, plus_density
from zenosat.satcore import (Assignment, CnfFormula, SatError, SolutionSet, assignment_bits,
                             evaluate, formula)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
# the readout axis |1><1| - |0><0|: the encoded true state |1> has z = +1
ZHAT = np.array([[-1.0, 0.0], [0.0, 1.0]])

# steady-state Var[rbar] = FILTER_VARIANCE_COEFF / T_be of the readout filter
# for unit-rate white noise of variance 1/dt per sample
FILTER_VARIANCE_COEFF = (math.e + 1.0) / (2.0 * (math.e - 1.0))

# formulas whose clause layout the random instances rarely or never produce
CLAUSE_LAYOUTS = {
    "n1-k1": formula(1, [-1]),
    "whole-register": formula(3, [1, -2, 3], [-3, -1, 2]),
    "n7": formula(7, [1, -4, 7], [-2, 3, -6], [5, 6, -1]),
    "out-of-order": formula(4, [3, -1, 2], [-4, 2, -3]),
}


# ---------------------------------------------------------------- states

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def ry(theta: float) -> np.ndarray:
    """Real y-rotation [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def encoded_state(theta: float, truth: bool) -> np.ndarray:
    """Single-qubit encoded state: ry(+theta)|+> if true, ry(-theta)|+>."""
    return ry(theta if truth else -theta) @ PLUS


def solution_state(f: CnfFormula, s: Assignment, theta: float) -> np.ndarray:
    """Product state encoding a verified solution; +1 eigenstate of every
    clause observable at any theta.
    """
    if not evaluate(f, s):
        raise SatError(f"assignment {s} does not satisfy the formula")
    return kron_all([encoded_state(theta, bool(b)) for b in s])


def fidelity_pure(rho: np.ndarray, phi: np.ndarray) -> float:
    """<phi| rho |phi> for a pure target state."""
    return float(np.real(np.conj(phi) @ rho @ phi))


# ---------------------------------------------------------------- operators


def embed_on_qubits(op_k: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """Embed a k-qubit operator on the given (1-based) qubits of an n-qubit
    register, acting as identity elsewhere. ``targets`` order matters: the
    j-th tensor factor of op_k acts on qubit targets[j].
    """
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"targets must be distinct, got {targets}")
    if any(t < 1 or t > n for t in targets):
        raise ValueError(f"targets {targets} out of range [1, {n}]")
    if op_k.shape != (1 << k, 1 << k):
        raise ValueError(f"operator shape {op_k.shape} does not match {k} targets")
    rest = [q for q in range(1, n + 1) if q not in targets]
    full = np.kron(op_k, np.eye(1 << (n - k), dtype=op_k.dtype))
    # full's tensor axes are ordered targets-then-rest; permute into 1..n.
    order = list(targets) + rest
    perm = np.argsort([q - 1 for q in order])
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(tuple(perm) + tuple(p + n for p in perm))
    return np.ascontiguousarray(t.reshape(1 << n, 1 << n))


def reduced_density(rho: np.ndarray, keep: int) -> np.ndarray:
    """Partial trace down to a single (1-based) qubit."""
    n = num_qubits(rho.shape[0])
    if keep < 1 or keep > n:
        raise ValueError(f"qubit {keep} out of range [1, {n}]")
    t = rho.reshape((2,) * (2 * n))
    axes = [q for q in range(n) if q != keep - 1]
    for q in reversed(axes):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    return t


def violating_state(theta: float, negated: bool) -> np.ndarray:
    """Single-qubit state orthogonal to the literal-satisfying one: a clause
    projector is the product of these over its literals. Positive literal
    uses ry(pi + theta)|+>, negated uses ry(pi - theta)|+>.
    """
    return ry(math.pi - theta if negated else math.pi + theta) @ PLUS


@dataclass(frozen=True)
class ClauseObservable:
    """One clause's theta-parameterized projector P_i(theta) and observable
    X_i(theta) = 1 - 2 P_i(theta) on the full n-qubit register.
    """

    num_qubits: int
    targets: tuple[int, ...]
    negations: tuple[bool, ...]

    def local_vector(self, theta: float) -> np.ndarray:
        """The violating product state on the clause's own qubits."""
        return kron_all([violating_state(theta, neg) for neg in self.negations])

    def projector(self, theta: float) -> np.ndarray:
        v = self.local_vector(theta)
        return embed_on_qubits(np.outer(v, v), self.targets, self.num_qubits)

    def observable(self, theta: float) -> np.ndarray:
        return np.eye(1 << self.num_qubits) - 2.0 * self.projector(theta)


def clause_observable(f: CnfFormula, i: int) -> ClauseObservable:
    """Build the observable for clause i (0-based)."""
    cl = f.clauses[i]
    return ClauseObservable(
        num_qubits=f.num_vars,
        targets=tuple(abs(lit) for lit in cl),
        negations=tuple(lit < 0 for lit in cl),
    )


def diabatic_hamiltonian(s: Sequence[bool], theta_dot: float) -> np.ndarray:
    """(theta_dot / 2) sum_j s_j sigma_y on qubit j, with s_j = +1 for true.

    Generates the residual motion seen in the Q-frame for a finite-speed
    schedule.
    """
    n = len(s)
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for j, b in enumerate(s, start=1):
        sign = 1.0 if b else -1.0
        h += sign * embed_on_qubits(SIGMA_Y, [j], n)
    return 0.5 * theta_dot * h


def q_frame(s: Sequence[bool], theta: float) -> np.ndarray:
    """Frame-change rotation Q(theta): per qubit ry(-(pi/2 - theta)) for a
    true bit and ry(+(pi/2 - theta)) for a false one. Q^dag maps the moving
    solution state to a fixed computational-basis state.
    """
    delta = math.pi / 2.0 - theta
    return kron_all([ry(-delta if b else delta) for b in s])


def zeno_g(rho: np.ndarray, observables: np.ndarray, tau: float) -> float:
    """(1/2 tau) sum_i (1 - <X_i>^2); zero exactly on a common eigenstate."""
    e = np.real(np.einsum("mij,ji->m", observables, rho))
    return float(np.sum(1.0 - e**2) / (2.0 * tau))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b."""
    ev = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(ev)))


# ---------------------------------------------------------------- dynamics


def lindblad_step_stacked(
    rho: np.ndarray, observables: np.ndarray, tau: float, dt: float
) -> np.ndarray:
    """``dynamics.lindblad_step`` as two (m, d, d) stacks, X_i rho and
    X_i rho X_i, summed over clauses, with the trace divided out every step."""
    out = (observables @ rho[..., None, :, :] @ observables).sum(axis=-3)
    out *= dt / (4.0 * tau)
    out += (1.0 - observables.shape[0] * dt / (4.0 * tau)) * rho
    return out / out.trace(axis1=-2, axis2=-1).real[..., None, None]


def lindblad_step_heun(
    rho: np.ndarray, observables: np.ndarray, tau: float, dt: float
) -> np.ndarray:
    """Heun (trapezoidal) variant of lindblad_step, for convergence checks."""

    def deriv(r):
        return (sum(x @ r @ x for x in observables) - len(observables) * r) / (4.0 * tau)

    k1 = deriv(rho)
    k2 = deriv(rho + dt * k1)
    out = rho + 0.5 * dt * (k1 + k2)
    return out / np.trace(out).real


def kraus_measure_gathered(
    psi: np.ndarray,
    vs: np.ndarray,
    tau: float,
    dt: float,
    rng: np.random.Generator,
    index: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``dynamics.kraus_measure`` as each clause's gather and scatter through
    its index table: per clause it gathers block = psi[index[i]], reads the
    same readout from the step's m uniforms and then m normals, applies
    M_r = a+ (1 - P) + a- P with the larger amplitude 1, normalized by
    |M_r psi|^2 = a+^2 (|psi|^2 - p) + a-^2 p with |psi|^2 read per clause,
    and scatters the block back, in place on psi."""
    inv_sqrt_tau = 1.0 / math.sqrt(tau)
    sigma = 1.0 / math.sqrt(dt)
    branches, normals = rng.random(len(vs)), rng.standard_normal(len(vs))
    readouts = np.empty(len(vs))
    for i, (v, idx) in enumerate(zip(vs, index)):
        block = psi[idx]
        amp = v.dot(block)
        p = amp.dot(amp)
        mean = inv_sqrt_tau
        if branches[i] >= min(max(1.0 - p, 0.0), 1.0):
            mean = -mean
        readouts[i] = r = mean + sigma * normals[i]
        x = dt * r * inv_sqrt_tau  # ln(a+/a-)
        a_plus, a_minus = (1.0, math.exp(-x)) if x >= 0.0 else (math.exp(x), 1.0)
        norm = math.sqrt(a_plus * a_plus * (psi.dot(psi) - p) + a_minus * a_minus * p)
        block *= a_plus / norm
        amp *= (a_minus - a_plus) / norm
        block += np.multiply.outer(v, amp)
        psi[idx] = block
    return psi, readouts


def kraus_measure_dense(
    rho: np.ndarray, x: np.ndarray, tau: float, dt: float, u: float, z: float
) -> tuple[np.ndarray, float]:
    """One generalized measurement of an observable x with x^2 = 1 on a
    density matrix, from a clause's uniform u and normal z as
    ``dynamics.kraus_measure`` uses them, with weights
    Tr(P+- rho) = (1 +- <x>)/2 and the update M_r rho M_r / Tr(...)."""
    w_plus = 0.5 * (1.0 + float(np.vdot(x, rho).real))
    w_plus = min(max(w_plus, 0.0), 1.0)
    mean = 1.0 / math.sqrt(tau)
    if u >= w_plus:
        mean = -mean
    r = mean + (1.0 / math.sqrt(dt)) * z
    a_plus = math.exp(-dt / 4.0 * (r - 1.0 / math.sqrt(tau)) ** 2)
    a_minus = math.exp(-dt / 4.0 * (r + 1.0 / math.sqrt(tau)) ** 2)
    # M_r = a+ P+ + a- P- = (a+ + a-)/2 + ((a+ - a-)/2) x
    m_op = (0.5 * (a_plus - a_minus)) * x
    m_op.reshape(-1)[:: x.shape[-1] + 1] += 0.5 * (a_plus + a_minus)
    post = m_op @ rho @ m_op.conj().T
    return post / np.trace(post).real, r


def average_map_dense(
    rho: np.ndarray, x: np.ndarray, tau: float, dt: float
) -> np.ndarray:
    """Readout-averaged update rho' = ((1+beta)/2) rho + ((1-beta)/2) x rho x,
    with beta = e^(-dt/2tau), on the dense observable x."""
    beta = math.exp(-dt / (2.0 * tau))
    return 0.5 * (1.0 + beta) * rho + 0.5 * (1.0 - beta) * (x @ rho @ x)


def dense_average_run(f: CnfFormula, cfg) -> np.ndarray:
    """The final rho of a discrete averaged run over cfg.t_f, with the dense
    map of every clause in turn."""
    cs = ClauseSet(f)
    rho = plus_density(f.num_vars)
    for step in range(1, max(1, round(cfg.t_f / cfg.dt)) + 1):
        for x in cs.observables(cfg.schedule.theta(step * cfg.dt / cfg.t_f)):
            rho = average_map_dense(rho, x, cfg.tau, cfg.dt)
    return rho


def dense_heralded_run(f: CnfFormula, cfg, rng: np.random.Generator):
    """A discrete heralded trajectory over cfg.t_f without detection, on the
    dense density matrix, drawing each step's m uniforms and then its m
    normals. Returns the final rho and the (steps, m) readouts."""
    cs = ClauseSet(f)
    rho = plus_density(f.num_vars)
    steps = max(1, round(cfg.t_f / cfg.dt))
    readouts = np.empty((steps, cs.m))
    for step in range(1, steps + 1):
        theta = cfg.schedule.theta(step * cfg.dt / cfg.t_f)
        us, zs = rng.random(cs.m), rng.standard_normal(cs.m)
        for i, x in enumerate(cs.observables(theta)):
            rho, readouts[step - 1, i] = kraus_measure_dense(rho, x, cfg.tau, cfg.dt,
                                                             us[i], zs[i])
    return rho, readouts


# ---------------------------------------------------------------- filtering


def exponential_window(ages: np.ndarray, t_be: float) -> np.ndarray:
    """Window weight W(age) = e^(-age/T_be) for age in [0, T_be], else 0."""
    ages = np.asarray(ages, dtype=float)
    return np.where((ages >= 0.0) & (ages <= t_be), np.exp(-ages / t_be), 0.0)


def windowed_filter_reference(
    samples: np.ndarray,
    dt: float,
    t_be: float,
    window=exponential_window,
    norm: Optional[float] = None,
) -> np.ndarray:
    """Direct quadrature of the windowed-average filter: at each time t,
    rbar(t) = (1/(N T_be)) * integral of r(t') W(t - t') over (t - T_be, t].

    With the exponential window the normalization is N = 1 - e^(-1). This is
    the integral form that the discrete recurrence must converge to. Returns
    rbar evaluated just after each sample, matching FilterState output
    alignment (samples[j] is taken at time j*dt).
    """
    if norm is None:
        norm = 1.0 - math.exp(-1.0)
    samples = np.asarray(samples, dtype=float)
    steps = len(samples)
    out = np.empty(steps)
    times = np.arange(steps) * dt
    for j in range(steps):
        t = times[j]
        ages = t - times[: j + 1]
        w = window(ages, t_be)
        w[ages >= t_be] = 0.0
        out[j] = np.sum(samples[: j + 1] * w) * dt / (norm * t_be)
    return out


# ---------------------------------------------------------------- readout


def success_probability_by_solution(
    state: np.ndarray, n: int, tau: float, dt_m: float, solutions: SolutionSet
) -> float:
    """P_s = 2^-n sum_s sum_b p_b (1+E)^(n-h) (1-E)^h with h = Hamming(b, s),
    one solution at a time against all 2^n basis bit rows."""
    d = 1 << n
    e_val = math.erf(math.sqrt(dt_m / (2.0 * tau))) if dt_m > 0 else 0.0
    diag = basis_probabilities(state)
    bits = assignment_bits(np.arange(d), n)
    total = 0.0
    for s in solutions.assignments:
        ham = np.sum(bits != np.array(s), axis=1)
        weights = (1.0 + e_val) ** (n - ham) * (1.0 - e_val) ** ham
        total += float(diag @ weights) / d
    return total


def unique_bias_success(z_t: float, dt_m: float, tau: float, n: int) -> float:
    """Readout success probability for a unique solution with uniform local
    bias |z_T| on every qubit: (1 + |z_T| erf(sqrt(dt_m/2 tau)))^n / 2^n.
    """
    e_val = math.erf(math.sqrt(dt_m / (2.0 * tau))) if dt_m > 0 else 0.0
    return (1.0 + abs(z_t) * e_val) ** n / 2.0**n


def from_bitstring(bits: str) -> Assignment:
    """Inverse of satcore.to_bitstring: '1' -> true, '0' -> false."""
    return tuple(c == "1" for c in bits)


# ---------------------------------------------------------------- fitting


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


# ---------------------------------------------------------------- classical


def schoening_solve(
    f: CnfFormula,
    rng: np.random.Generator,
    max_flips: Optional[int] = None,
    max_restarts: int = 100,
) -> Optional[Assignment]:
    """Schoening's random walk: random start, then repeatedly pick an
    unsatisfied clause and flip one of its variables at random. Returns a
    verified satisfying assignment, or None if the budget is exhausted.
    """
    n = f.num_vars
    flips = max_flips if max_flips is not None else 3 * n
    for _ in range(max_restarts):
        bits = list(rng.random(n) < 0.5)
        for _ in range(flips + 1):
            unsat = [cl for cl in f.clauses
                     if not any(bits[abs(lit) - 1] == (lit > 0) for lit in cl)]
            if not unsat:
                return tuple(bits)
            cl = unsat[rng.integers(len(unsat))]
            v = abs(cl[rng.integers(len(cl))])
            bits[v - 1] = not bits[v - 1]
    return None


def serial_pool(sizes: list):
    """A stand-in for ``concurrent.futures.ProcessPoolExecutor`` that appends
    each pool's ``max_workers`` to sizes and maps in this process, so a test
    sees how large a pool would be without starting one."""

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    return SerialPool
