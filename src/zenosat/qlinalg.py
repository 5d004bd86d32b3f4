"""Dense linear algebra for n-qubit states and operators.

Conventions fixed here and used by every other module:

- Qubit 1 is the leftmost tensor factor, so basis index bits read qubit 1
  as the most significant bit. Basis order is ascending binary,
  {|00>, |01>, |10>, |11>} for two qubits. ``satcore.assignment_bits``
  turns a basis index into these bits.
- The readout axis operator is |1><1| - |0><0| (the negative of the
  textbook sigma_z): the encoded true-state sits at |1> with z = +1.
"""

from __future__ import annotations

import numpy as np

from .satcore import assignment_bits

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def num_qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def kron_vectors(factors: np.ndarray) -> np.ndarray:
    """(..., k, d) stacks of k vectors to the (..., d^k) Kronecker products
    of each stack, the first vector the most significant factor."""
    out = factors[..., 0, :]
    for j in range(1, factors.shape[-2]):
        out = out[..., :, None] * factors[..., j, None, :]
        out = out.reshape(out.shape[:-2] + (-1,))
    return out


def plus_state(n: int) -> np.ndarray:
    """|+>^n as an amplitude vector."""
    d = 1 << n
    return np.full(d, 1.0 / np.sqrt(d))


def plus_density(n: int) -> np.ndarray:
    """(|+><+|)^n, the algorithm's initial state."""
    d = 1 << n
    return np.full((d, d), 1.0 / d)


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2) = sum |rho_ij|^2 for Hermitian rho."""
    return float(np.vdot(rho, rho).real)


def concurrence_2q(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit state: max(0, l1 - l2 - l3 - l4)
    for the descending singular values l of sqrt(rho) (Y x Y) sqrt(rho)*.
    The Hermitian square root of rho, its eigenvalues clipped at 0, keeps
    the value Lipschitz in rho at rank-deficient states."""
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 state, got {rho.shape}")
    yy = np.kron(SIGMA_Y, SIGMA_Y).real  # sigma_y x sigma_y is real
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1:].sum()))


def basis_probabilities(state: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities of a state vector (|psi|^2) or of a
    density matrix (its real diagonal, clipped at 0)."""
    if state.ndim == 1:
        return np.abs(state) ** 2
    return np.clip(np.real(np.diag(state)), 0.0, None)


def local_z(state: np.ndarray) -> np.ndarray:
    """Expectations of the readout axis |1><1| - |0><0| on qubits 1..n of psi
    or rho: the basis probabilities weighted by 2 b - 1 for each basis
    state's bits b."""
    probs = basis_probabilities(state)
    bits = assignment_bits(np.arange(probs.size), num_qubits(probs.size))
    return probs @ (2.0 * bits - 1.0)


def validate_density(rho: np.ndarray) -> None:
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
    lo = np.min(np.linalg.eigvalsh(rho))
    if lo < -1e-8:
        raise ValueError(f"minimum eigenvalue {lo:.3e} below tolerance")
