"""Theta-dependent objects of the measurement-driven encoding: encoded qubit
states, clause projectors/observables, solution states, the Q-frame rotation,
and the Zeno diagnostic g.

Encoding map: a true variable is dragged along ry(+theta)|+>, a false one
along ry(-theta)|+>. At theta = pi/2 true sits at |1> and false at |0>,
consistent with the bitstring convention true -> '0' and the readout axis
ZHAT = |1><1| - |0><0|.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qlinalg import SIGMA_Y, embed_on_qubits, kron_all
from .satcore import Assignment, CnfFormula, SatError, evaluate

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def ry(theta: float) -> np.ndarray:
    """Real y-rotation [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def encoded_state(theta: float, truth: bool) -> np.ndarray:
    """Single-qubit encoded state: ry(+theta)|+> if true, ry(-theta)|+>."""
    return ry(theta if truth else -theta) @ PLUS


def violating_state(theta: float, negated: bool) -> np.ndarray:
    """Single-qubit state orthogonal to the literal-satisfying one: a clause
    projector is the product of these over its literals. Positive literal
    uses ry(pi + theta)|+>, negated uses ry(pi - theta)|+>.
    """
    return ry(math.pi - theta if negated else math.pi + theta) @ PLUS


@dataclass(frozen=True)
class Schedule:
    """Control schedule theta(u) on the unit interval, with theta(0) = 0 and
    theta(1) = pi/2. ``table`` is a monotone list of (fraction, theta) pairs
    interpolated linearly; absent table means the linear ramp.
    """

    kind: str = "linear"
    table: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "custom"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "custom":
            if not self.table or len(self.table) < 2:
                raise ValueError("custom schedule needs at least two table rows")
            us = [row[0] for row in self.table]
            ths = [row[1] for row in self.table]
            if any(b < a for a, b in zip(us, us[1:])):
                raise ValueError("schedule fractions must be non-decreasing")
            if any(b < a for a, b in zip(ths, ths[1:])):
                raise ValueError("schedule must be monotone non-decreasing")
            if abs(us[0]) > 1e-12 or abs(us[-1] - 1.0) > 1e-12:
                raise ValueError("schedule table must span fractions [0, 1]")
            if abs(ths[0]) > 1e-12 or abs(ths[-1] - math.pi / 2) > 1e-9:
                raise ValueError("schedule must run from theta=0 to theta=pi/2")
        elif self.table is not None:
            raise ValueError("linear schedule takes no table")

    def theta(self, fraction: float) -> float:
        u = min(max(fraction, 0.0), 1.0)
        if self.kind == "linear":
            return (math.pi / 2.0) * u
        us = np.array([row[0] for row in self.table])
        ths = np.array([row[1] for row in self.table])
        return float(np.clip(np.interp(u, us, ths), 0.0, math.pi / 2.0))


@dataclass(frozen=True)
class ClauseObservable:
    """One clause's theta-parameterized projector P_i(theta) and observable
    X_i(theta) = 1 - 2 P_i(theta) on the full n-qubit register.
    """

    index: int
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
        index=i,
        num_qubits=f.num_vars,
        targets=tuple(lit.variable for lit in cl),
        negations=tuple(lit.negated for lit in cl),
    )


# Peak of the arrays one solver step allocates, in (m, 2^n, 2^n) stacks,
# measured with tracemalloc at n = 7, m = 28 (observables plus kernel):
# sme_step 4.11, lindblad_step 3.00, kraus_measure or average_map 1.29.
_PEAK_STACKS = 5
_IDENTITY = np.eye(2)[None]


class ClauseSet:
    """All clause projectors/observables of a formula, built as one stacked
    (m, 2^n, 2^n) array per theta. A clause projector is a tensor product over
    the qubits (qubit 1 most significant): the violating single-qubit projector
    on each of the clause's qubits, the identity elsewhere. Raises ValueError
    when a run's per-step arrays would not fit in physical memory.
    """

    def __init__(self, f: CnfFormula):
        self.n = f.num_vars
        self.m = f.num_clauses
        self.dim = 1 << self.n
        need = _PEAK_STACKS * 8 * self.m * self.dim**2
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ValueError(
                f"{self.n} variables, {self.m} clauses need {need / 2**30:.3g} GiB of"
                f" dense operators per step, more than {have / 2**30:.3g} GiB of"
                " physical memory"
            )
        # per (clause, qubit) factor: 0 identity, 1 positive literal, 2 negated
        self._factor = np.zeros((self.m, self.n), dtype=np.intp)
        for i, cl in enumerate(f.clauses):
            for lit in cl:
                self._factor[i, lit.variable - 1] = 2 if lit.negated else 1

    def projectors(self, theta: float) -> np.ndarray:
        """(m, 2^n, 2^n) stacked clause projectors at theta."""
        u = np.array([violating_state(theta, False), violating_state(theta, True)])
        table = np.concatenate([_IDENTITY, u[:, :, None] * u[:, None, :]])
        factors = table[self._factor]  # (m, n, 2, 2)
        p = factors[:, 0]
        for q in range(1, self.n):
            d = 2 * p.shape[-1]
            p = (p[:, :, None, :, None] * factors[:, q, None, :, None, :]).reshape(
                self.m, d, d
            )
        return p

    def observables(self, theta: float) -> np.ndarray:
        """(m, 2^n, 2^n) stacked X_i(theta) = 1 - 2 P_i(theta)."""
        x = self.projectors(theta)
        x *= -2.0
        x.reshape(self.m, -1)[:, :: self.dim + 1] += 1.0
        return x


def solution_state(f: CnfFormula, s: Assignment, theta: float) -> np.ndarray:
    """Product state encoding a verified solution; +1 eigenstate of every
    clause observable at any theta.
    """
    if not evaluate(f, s):
        raise SatError(f"assignment {s} does not satisfy the formula")
    return kron_all([encoded_state(theta, bool(b)) for b in s])


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


def diabatic_hamiltonian(s: Sequence[bool], theta_dot: float) -> np.ndarray:
    """(theta_dot / 2) sum_j s_j sigma_y on qubit j, with s_j = +1 for true.

    Generates the residual motion seen in the Q-frame for a finite-speed
    schedule; used only in frame-consistency tests.
    """
    n = len(s)
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for j, b in enumerate(s, start=1):
        sign = 1.0 if b else -1.0
        h += sign * embed_on_qubits(SIGMA_Y, [j], n)
    return 0.5 * theta_dot * h
