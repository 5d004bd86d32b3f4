"""Theta-dependent objects of the measurement-driven encoding: clause
operators and schedules.

Encoding map: a true variable is dragged along ry(+theta)|+>, a false one
along ry(-theta)|+>. At theta = pi/2 true sits at |1> and false at |0>,
consistent with the bitstring convention true -> '1' and the readout axis
|1><1| - |0><0|, so the final state is read off its basis probabilities.

Every clause operator comes from one source: the literal states of the
clause, the violating single-qubit state of each literal (their Kronecker
product is the clause's violating vector on its own k qubits), and its table
of basis indices.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .qlinalg import kron_vectors
from .satcore import CnfFormula


@dataclass(frozen=True)
class Schedule:
    """Control schedule theta(u) on the unit interval, with theta(0) = 0 and
    theta(1) = pi/2. ``table`` is a monotone list of (fraction, theta) pairs
    of real numbers, interpolated linearly and held as a tuple of float
    pairs; the default's two rows are the linear ramp.
    """

    table: tuple[tuple[float, float], ...] = ((0.0, 0.0), (1.0, math.pi / 2))

    def __post_init__(self) -> None:
        if not isinstance(self.table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and len(row) == 2
            and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in row)
            for row in self.table
        ):
            raise ValueError("schedule table rows must be pairs of real numbers")
        object.__setattr__(self, "table", tuple((float(u), float(th)) for u, th in self.table))
        if len(self.table) < 2:
            raise ValueError("schedule table needs at least two rows")
        us, ths = zip(*self.table)
        if not all(map(math.isfinite, us + ths)):
            raise ValueError("schedule table entries must be finite")
        if any(b < a for a, b in zip(us, us[1:])):
            raise ValueError("schedule fractions must be non-decreasing")
        if any(b < a for a, b in zip(ths, ths[1:])):
            raise ValueError("schedule must be monotone non-decreasing")
        if abs(us[0]) > 1e-12 or abs(us[-1] - 1.0) > 1e-12:
            raise ValueError("schedule table must span fractions [0, 1]")
        if abs(ths[0]) > 1e-12 or abs(ths[-1] - math.pi / 2) > 1e-9:
            raise ValueError("schedule must run from theta=0 to theta=pi/2")
        object.__setattr__(self, "_columns", np.array([us, ths], dtype=float))

    def theta(self, fraction):
        """theta at the fraction clipped to [0, 1]: an np.float64 for a
        scalar fraction, an array of the same shape for an array of fractions."""
        us, ths = self._columns
        return np.clip(np.interp(np.clip(fraction, 0.0, 1.0), us, ths), 0.0, math.pi / 2.0)


# Peak of the arrays one solver step allocates, its state included and its
# index, position and frame tables not, measured with tracemalloc. The solver
# builds the operators of several steps at once only within its 256 KiB
# budget, so a stack larger than half of that is built one step at a time
# and counted once here. Continuum steps, in (m, 2^n, 2^n) stacks at n = 7,
# m = 28 (observables plus kernel): lindblad_step 2.07 (and the rho X_i),
# sme_step on psi 1.02 (and the (m, 2^n) X_i psi); building the observables
# alone peaks at the stack plus its scatter values, 2^(k-n) of a stack.
# Pure Kraus steps (all m clauses in place on psi), in 2^n-vectors: 3.24 at
# n = 12, m = 52 and 3.14 at n = 14, m = 60 (psi, the state in one clause's
# frame while it moves to the next, and the rank-1 update). Averaged steps
# (all m clauses in place on rho, average_map's frame body), in density
# matrices: 2.30 at n = 9, m = 39 and 2.28 at n = 10, m = 43 (rho, which also
# holds each clause's column contraction, S in its other frame buffer, and
# 2^-k-sized row and column terms). Small arrays and ufunc buffers add at
# lower n, where the row-gather body also holds W (4.28 density matrices at
# n = 7, 4.23 vectors at n = 8), little in bytes.
_PEAK_STACKS = 3
_PEAK_VECTORS = 4
_PEAK_DENSITIES = 3


class ClauseSet:
    """All clause operators of a formula, derived from two per-clause tables.

    The (m, k, 2) literal states u_ij(theta), each literal's violating
    single-qubit state, whose Kronecker products are the (m, 2^k) violating
    vectors v_i(theta), and per clause a table of basis indices that lays a
    state vector psi (or the rows of a density matrix) out as a
    (2^k, 2^(n-k)) block, clause qubits first: clause i's frame. The clause
    projector acts as P_i psi = v_i (v_i^T block); the discrete kernels use
    it in that form. The Kraus step moves psi from frame to frame, with the
    m+1 permutations of ``frames`` derived once from the tables, so each
    clause costs one permutation rather than a gather and a scatter. The
    averaged map takes the literal states: on small registers it gathers
    each clause's rows of rho through its table, on large ones it walks the
    frames with the rows of rho's half S and contracts S's columns one
    literal state at a time.

    The continuum kernels take dense (m, 2^n, 2^n) observable stacks
    X_i(theta) = 1 - 2 P_i(theta), built per call by scattering each
    clause's 1 - 2 v_i v_i^T through a cached table of flat positions derived
    from the index tables.
    """

    def __init__(self, f: CnfFormula):
        self.n = f.num_vars
        self.m = f.num_clauses
        self.k = f.k
        self.dim = 1 << self.n
        # (m, k) 0-based qubit and sign (0 positive, 1 negated) of each literal
        lits = np.array(f.clauses)
        self._qubits = abs(lits) - 1
        self._signs = (lits < 0).astype(int)

    def require_memory(self, form: str = "dense") -> None:
        """Raise ValueError when a run's per-step arrays would not fit in
        physical memory: the index tables (with the m 2^k-row position tables
        for "dense" and the m+1 frame permutations for "psi" and "rho") plus
        _PEAK_STACKS dense operator stacks, _PEAK_VECTORS state vectors or
        _PEAK_DENSITIES density matrices."""
        floats, what, rows = {
            "dense": (_PEAK_STACKS * self.m * self.dim**2, "dense operators per step",
                      self.m * ((1 << self.k) + 1)),
            "psi": (_PEAK_VECTORS * self.dim, "index tables and state vectors",
                    2 * self.m + 1),
            "rho": (_PEAK_DENSITIES * self.dim**2, "index tables and density matrices",
                    2 * self.m + 1),
        }[form]
        tables = rows * np.dtype(np.intp).itemsize * self.dim
        need = 8 * floats + tables
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ValueError(
                f"{self.n} variables, {self.m} clauses need {need / 2**30:.3g} GiB of"
                f" {what}, more than {have / 2**30:.3g} GiB of physical memory"
            )

    @cached_property
    def _positions(self) -> np.ndarray:
        """(m, 2^k, 2^k, 2^(n-k)) positions, in a stack flattened to m 4^n
        entries, of entry (p, q) of clause i's local operator paired with each
        state of the other qubits: row index[i, p, :], column index[i, q, :]."""
        self.require_memory()
        idx = self.index
        clause = np.arange(self.m)[:, None, None, None]
        return clause * self.dim**2 + idx[:, :, None, :] * self.dim + idx[:, None, :, :]

    def observables(self, theta) -> np.ndarray:
        """(m, 2^n, 2^n) stacked X_i(theta) = 1 - 2 P_i(theta): 1 - 2 v_i v_i^T
        on clause i's qubits, scattered through its index table (which covers
        every diagonal entry once); an array of S angles gives
        (S, m, 2^n, 2^n)."""
        positions = self._positions  # refused before the stack is allocated
        vs = self.violating_vectors(theta)
        local = np.einsum("...p,...q->...pq", -2.0 * vs, vs)
        local += np.eye(1 << self.k)
        xs = np.zeros(vs.shape[:-2] + (self.m, self.dim, self.dim))
        xs.reshape(vs.shape[:-2] + (-1,))[..., positions] = local[..., None]
        return xs

    @cached_property
    def index(self) -> np.ndarray:
        """(m, 2^k, 2^(n-k)) basis indices: psi[index[i]] is psi as a block
        whose rows run over clause i's qubits in literal order and whose
        columns run over the other qubits in ascending order, the first of
        each most significant."""
        basis = np.arange(self.dim).reshape((2,) * self.n)
        return np.stack([
            basis.transpose([*qs, *(q for q in range(self.n) if q not in qs)])
            .reshape(1 << self.k, -1)
            for qs in self._qubits.tolist()
        ])

    @cached_property
    def frames(self) -> tuple[np.ndarray, ...]:
        """The m+1 (2^k, 2^(n-k)) permutations of frame_permutations(index),
        which carry a state vector through every clause's frame in turn; a
        tuple, so that a step iterates it without making a view per row."""
        return tuple(frame_permutations(self.index))

    def literal_states(self, theta) -> np.ndarray:
        """(m, k, 2) violating single-qubit state of each clause literal, in
        literal order, at theta: the state orthogonal to the literal's encoded
        satisfying one, u = (-s - c, c - s)/sqrt 2 = ry(pi + theta)|+> for a
        positive literal and u = (s - c, c + s)/sqrt 2 = ry(pi - theta)|+>
        for a negated one, with c, s = cos, sin(theta/2). An array of S
        angles gives (S, m, k, 2)."""
        half = np.divide(theta, 2.0)
        c, s = np.cos(half), np.sin(half)
        u = np.stack([-s - c, c - s, s - c, c + s], axis=-1) / math.sqrt(2.0)
        u = u.reshape(u.shape[:-1] + (2, 2))  # (..., sign, 2)
        return np.take(u, self._signs, axis=-2)  # step-major

    def violating_vectors(self, theta) -> np.ndarray:
        """(m, 2^k) violating vectors at theta, the Kronecker product of each
        clause's literal states; an array of S angles gives (S, m, 2^k)."""
        return kron_vectors(self.literal_states(theta))


def frame_permutations(index: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the m+1 permutations that carry a state vector through the
    frames of the (m, 2^k, 2^(n-k)) index tables in turn. Clause i's frame
    holds psi as the block psi[index[i]]; the first permutation is index[0]
    itself, which takes psi in natural order into clause 0's frame, and
    block.ravel()[perm] takes a block to the next frame, after the last
    clause back to natural order (as a block of the same shape)."""
    inverse = None  # inverse[j]: where basis index j sits in the current frame
    for idx in index:
        yield idx if inverse is None else inverse[idx]
        inverse = np.argsort(idx, axis=None)
    yield inverse.reshape(idx.shape)
