"""Dense linear algebra for n-qubit states and operators.

Conventions fixed here and used by every other module:

- Qubit 1 is the leftmost tensor factor, so basis index bits read qubit 1
  as the most significant bit. Basis order is ascending binary,
  {|00>, |01>, |10>, |11>} for two qubits.
- The readout axis operator is ``ZHAT = |1><1| - |0><0|`` (the negative of
  the textbook sigma_z): the encoded true-state sits at |1> with z = +1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

ZHAT = np.array([[-1.0, 0.0], [0.0, 1.0]])

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def num_qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def plus_state(n: int) -> np.ndarray:
    """|+>^n as an amplitude vector."""
    d = 1 << n
    return np.full(d, 1.0 / np.sqrt(d))


def plus_density(n: int) -> np.ndarray:
    """(|+><+|)^n, the algorithm's initial state."""
    d = 1 << n
    return np.full((d, d), 1.0 / d)


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


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2)."""
    return float(np.real(np.sum(rho * rho.conj().T)))


def fidelity_pure(rho: np.ndarray, phi: np.ndarray) -> float:
    """<phi| rho |phi> for a pure target state."""
    return float(np.real(np.conj(phi) @ rho @ phi))


def concurrence_2q(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit state."""
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 state, got {rho.shape}")
    yy = np.kron(SIGMA_Y, SIGMA_Y).real  # sigma_y x sigma_y is real
    r = rho @ yy @ rho.conj() @ yy
    ev = np.linalg.eigvals(r)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam.sort()
    return float(max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4]))


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


def local_z(rho: np.ndarray, j: int) -> float:
    """Expectation of the readout axis ZHAT on qubit j."""
    r1 = reduced_density(rho, j)
    return float(np.real(r1[1, 1] - r1[0, 0]))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b."""
    ev = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(ev)))


def validate_density(rho: np.ndarray, check_positivity: bool = True) -> None:
    """Assert density-matrix invariants within the package tolerances."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"not a square matrix: {rho.shape}")
    num_qubits(rho.shape[0])
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > 1e-10:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"trace {tr} differs from 1")
    if check_positivity:
        lo = np.min(np.linalg.eigvalsh(rho))
        if lo < -1e-8:
            raise ValueError(f"minimum eigenvalue {lo:.3e} below tolerance")
