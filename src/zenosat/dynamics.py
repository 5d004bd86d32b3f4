"""State-evolution kernels: discrete Kraus measurement of a pure state with
sampled readout, the averaged (dephasing) map, a first-order Lindblad step,
and the first-order Kraus-form stochastic step of a pure state with
self-consistent readout generation.

All kernels take clause operators rather than clause objects, so callers
control how and when operators are rebuilt as theta moves: for the discrete
kernels the clause violating vectors v on their own qubits (a projector P is
v v^T there), or for the averaged map the literal states whose Kronecker
products they are, with the index tables that give each clause's block of
the state and the frame permutations derived from them; stacked observables
X = 1 - 2P for the continuum ones, which ClauseSet.observables scatters from
the same vectors and tables. They are followed by the measurement time tau
and the step dt. Every kernel advances all m clauses by one step dt in a
single call. The discrete Kraus step holds the state in each clause's frame
in turn, one permutation per clause, and normalizes it once per step. The
averaged map picks one of two bodies by register size, at _FRAME_QUBITS,
beside which the measurement that set it is recorded: below it, rows of rho
are gathered per clause and each clause's update is subtracted twice, once
transposed; from it up, rho is held as S + S^dag with S's rows in each
clause's frame in turn, so no transpose runs inside the clause loop (about
half the time per step at n = 9 and 0.4 of it at n = 10). The two sampled
kernels act on state vectors and also return the m readouts, the two
averaged ones on density matrices. Readout samples carry units of
tau^(-1/2). Per step the discrete Kraus step draws its m branch uniforms,
then its m standard normals, in two generator calls, and clause i uses the
i-th of each. Against two calls per clause this cut a call from 105 to 80,
143 to 110, 186 to 148 and 293 to 244 us at n = 4, 6, 8 and 10 (random 3-SAT
at alpha = 4.3, one BLAS thread, medians of 15 interleaved batches). The
stochastic step has a second body for the one trajectory a solver run holds,
built of ndarray.dot products: at n = 2 its arithmetic is negligible beside
NumPy dispatch, and a .dot on its (3, 4, 4) and (3, 4) operands costs
0.4-0.7 us per call against 0.8-1.3 us for the matmul gufunc behind @ (one
BLAS thread), which cut the step from 11.3 to 6.8 us. The Lindblad step
takes one (d, d) rho, as a solver run holds, and refuses any other: a
(m, d, d) batch would broadcast against the stack and pair rho_i with X_i.
Its body needs no batch views, and its sum is one ndarray.dot.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .qlinalg import kron_vectors


def _check_times(tau: float, dt: float, first_order: bool = False) -> None:
    """Refuse non-positive tau or dt; warn when a first-order step is coarse."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if first_order and dt / tau > 0.1:
        warnings.warn(
            f"dt/tau = {dt / tau:.3g} > 0.1; first-order stepping is inaccurate",
            stacklevel=3,
        )


def kraus_measure(
    psi: np.ndarray,
    vs: np.ndarray,
    tau: float,
    dt: float,
    rng: np.random.Generator,
    frames: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """One generalized measurement of every clause in turn on a pure state,
    in place on psi; returns psi and the m readouts.

    ``vs`` holds the (m, 2^k) violating vectors and ``frames`` the m+1
    (2^k, 2^(n-k)) permutations of ClauseSet.frames. The step holds the state
    in one clause's frame at a time, as a block phi whose rows run over clause
    i's qubits, so P_i acts as v (x) amp with amp = v^T phi. psi[frames[0]]
    is clause 0's frame; one permutation per clause,
    phi.ravel()[frames[i + 1]], moves phi into the next clause's frame, and
    after the last clause back to natural order.

    The readout r follows the exact two-Gaussian mixture with weights 1 - p
    and p = |amp|^2, means +-1/sqrt(tau) and variance 1/dt; sampling the
    branch and then the Gaussian reproduces the mixture exactly. The step
    makes two generator calls, not two per clause: rng.random(m), the m
    branch uniforms u, then rng.standard_normal(m), the m normals z. Clause i
    uses the i-th of each: it takes the - branch when u_i >= 1 - p, and its
    readout r_i = z_i (1/sqrt(dt)) +- 1/sqrt(tau), the sign that of the
    branch, is bit for bit what rng.normal(+-1/sqrt(tau), 1/sqrt(dt)) returns
    for the same z. The update
    applies the Kraus operator M_r = a+ (1 - P) + a- P for that r, whose
    amplitudes a+- = e^(-dt (r -+ 1/sqrt(tau))^2 / 4) have the ratio
    a-/a+ = e^(-dt r/sqrt(tau)). M_r is scaled so that the larger of them is 1,
    which keeps the strong-measurement limit dt/tau >> 1 finite: phi becomes
    a+ phi + (a- - a+) v (x) amp, the a+ factor applied only when it is below
    1. phi is left unnormalized: a float scale, 1/|psi| at the start of the
    step and then divided by |M_r psi| = sqrt(a+^2 (1 - p) + a-^2 p) per
    clause, turns |amp|^2 into p. phi is normalized once, by its own norm on
    the way back to natural order, so rounding cannot build up in the norm
    across steps, nor within one through the cancellation in (1 - P) phi.
    """
    _check_times(tau, dt)
    inv_sqrt_tau = 1.0 / math.sqrt(tau)
    branches = rng.random(len(vs)).tolist()
    spreads = (rng.standard_normal(len(vs)) * (1.0 / math.sqrt(dt))).tolist()
    perms = iter(frames)
    scale = 1.0 / math.sqrt(psi.dot(psi))
    phi = psi[next(perms)]
    readouts = []
    for v, column, perm, u, spread in zip(vs, vs[:, :, None], perms, branches, spreads):
        amp = v.dot(phi)
        p = float(amp.dot(amp)) * scale * scale
        r = spread - inv_sqrt_tau if u >= 1.0 - p else spread + inv_sqrt_tau
        readouts.append(r)
        x = dt * r * inv_sqrt_tau  # ln(a+/a-)
        if x >= 0.0:
            a_plus, a_minus = 1.0, math.exp(-x)
        else:
            a_plus, a_minus = math.exp(x), 1.0
            phi *= a_plus
        scale /= math.sqrt(a_plus * a_plus * (1.0 - p) + a_minus * a_minus * p)
        amp *= a_minus - a_plus
        phi += np.dot(column, amp[None])  # column * amp takes 64 KiB of ufunc buffers
        phi = phi.ravel()[perm]
    phi = phi.ravel()
    np.multiply(phi, 1.0 / math.sqrt(phi.dot(phi)), out=psi)
    return psi, np.array(readouts)


# Registers of at least this many qubits take average_map's frame body, and
# smaller ones the row-gather body. One step of all m clauses at theta = 0.7
# on a random rho, random 3-SAT at alpha = 4.3, one BLAS thread, best of 3
# batches, row gather -> frames: n = 6 (m = 26) 0.52 -> 1.08 ms, n = 7
# (m = 30) 1.77 -> 1.88 ms, n = 8 (m = 34) 6.6 -> 4.9 ms, n = 9 (m = 39)
# 50 -> 26 ms, n = 10 (m = 43) 301 -> 129 ms.
_FRAME_QUBITS = 8


def average_map(
    rho: np.ndarray,
    us: np.ndarray,
    tau: float,
    dt: float,
    index: np.ndarray,
    frames: Sequence[np.ndarray],
) -> np.ndarray:
    """Readout-averaged measurement of every clause in turn on a density
    matrix, in place on rho; returns rho. Per clause
    rho' = ((1+beta)/2) rho + ((1-beta)/2) X rho X with X = 1 - 2P and
    beta = e^(-dt/2tau) the coherence retained per step, computed as
    rho' = rho - gamma (W + W^dag) with gamma = 1 - beta and
    W = P rho (1 - P).

    ``us`` holds the (m, k, 2) literal states of ClauseSet.literal_states,
    whose Kronecker products are the violating vectors v; ``index`` holds
    the (m, 2^k, 2^(n-k)) basis-index tables and ``frames`` the m+1
    permutations derived from them, so that P_i acts as v v^T on the rows
    rho[index[i]]. The register size picks one of two bodies, which agree to
    rounding (_FRAME_QUBITS records the crossover and its measurement).

    Below _FRAME_QUBITS qubits each clause gathers its rows of rho:
    P rho = v (x) amp with amp = v^T rho[index], P rho P comes from a column
    gather of the (2^(n-k), 2^n) amp alone, and W, scattered through the
    index table, is subtracted from rho and, transposed, again.

    From _FRAME_QUBITS qubits up, rho is held as S + S^dag, starting from
    S = rho/2, and W changes S alone, so nothing is transposed inside the
    clause loop. S's rows sit in one clause's frame at a time, like psi in
    kraus_measure, and its columns in natural order. Per clause,
    A = v^T rho (1 - P) is v^T S over the row blocks, plus C^dag, where
    C = S v contracts S's columns over the clause's qubits one literal state
    at a time, the most significant first, minus the P rho P part
    (D + D^dag) (x) v, with D = v^T C over the row blocks; C^dag is scattered
    to natural columns through the index table. gamma v[x] A then comes off
    S's row block x. One permutation per clause moves S's rows into the next
    frame, and one transposed add per step rebuilds rho.
    """
    _check_times(tau, dt)
    gamma = 1.0 - math.exp(-dt / (2.0 * tau))
    vs = kron_vectors(us)
    if rho.shape[-1] < 1 << _FRAME_QUBITS:
        return _average_rows(rho, vs, gamma, index)
    return _average_frames(rho, us, vs, gamma, index, frames)


def _average_rows(rho, vs, gamma, index):
    w = np.empty_like(rho)
    for v, idx in zip(vs, index):
        amp = (v @ rho[idx].reshape(v.size, -1)).reshape(-1, rho.shape[-1])
        cols = amp[:, idx]
        amp[:, idx] = cols - v[:, None] * (v @ cols)[:, None, :]  # amp (1 - P)
        w[idx] = np.multiply.outer(gamma * v, amp)
        rho -= w
        rho -= w.conj().T
    return rho


def _average_frames(rho, us, vs, gamma, index, frames):
    size, rest = index.shape[1:]  # 2^k rows of v, 2^(n-k) other basis states
    dim = rho.shape[-1]
    # columns below each literal's qubit, 2^(n-1-q): its bit's value in index
    runs = index[:, 1 << np.arange(us.shape[1] - 1, -1, -1), 0].tolist()
    natural = np.arange(dim)
    inverse = np.empty(dim, dtype=np.intp)
    # mode="clip" lets np.take write into out unbuffered
    s = np.take(rho, frames[0].reshape(-1), axis=0, out=np.empty(rho.shape, rho.dtype),
                mode="clip")
    s *= 0.5
    # holds C while S is in use, then S in the next frame; its reshapes must be views
    spare = rho if rho.flags.c_contiguous else np.empty_like(s)
    for u, v, idx, run, perm in zip(us, vs, index, runs, frames[1:]):
        a = (v @ s.reshape(size, -1)).reshape(rest, dim)  # v^T S
        c, free = s, spare.reshape(-1)
        for b, w in sorted(zip(run, u), key=lambda pair: -pair[0]):  # high qubits first
            rows = c.size // (2 * b)
            out, free = free[: rows * b].reshape(rows, b), free[rows * b:]
            if b <= 4:
                kron = (w[:, None, None] * np.eye(b)).reshape(2 * b, b)
                np.matmul(c.reshape(rows, 2 * b), kron, out=out)
            else:
                np.einsum("rab,a->rb", c.reshape(rows, 2, b), w, out=out)
            c = out
        c = c.reshape(size, rest, rest)  # C, its rows in clause i's frame
        core = (v @ c.reshape(size, -1)).reshape(rest, rest)
        core += core.conj().T  # D + D^dag
        for x in range(size):
            c[x] -= v[x] * core
        inverse[idx.reshape(-1)] = natural
        a += np.take(c.reshape(dim, rest), inverse, axis=0).conj().T  # v^T rho (1 - P)
        blocks = s.reshape(size, rest, dim)
        for x in range(size):
            blocks[x] -= (gamma * v[x]) * a
        s, spare = np.take(s, perm.reshape(-1), axis=0, out=spare, mode="clip"), s
    if s is rho:
        np.add(s, s.conj().T, out=spare)
        rho[...] = spare
    else:
        np.add(s, s.conj().T, out=rho)
    return rho


def lindblad_step(
    rho: np.ndarray, observables: np.ndarray, tau: float, dt: float
) -> np.ndarray:
    """First-order unconditional step for m simultaneous clause channels, on
    (m, d, d) observables and one (d, d) rho:
    rho' = rho + (dt/4tau) sum_i (X_i rho X_i - rho), the sum one product of
    the row [X_1 ... X_m], the stack's conjugate transpose, and the stacked
    rho X_i. Each X_i^2 = 1 keeps the trace exactly; only rounding moves it.

    Any other rho.ndim is a ValueError: a (m, d, d) batch would broadcast
    against the stack and pair rho_i with X_i without an error. Taking one rho
    drops the batch views and shape arithmetic, and the sum is an ndarray.dot
    in place of a matmul; on unique2 (1,000 steps, dt = 0.01, one BLAS
    thread, medians of 200 interleaved rounds) a call went from 5.62 to
    4.71 us against the broadcasting body, with the same bits.
    """
    _check_times(tau, dt, first_order=True)
    if rho.ndim != 2:
        raise ValueError(f"rho must be one (d, d) matrix, got shape {rho.shape}")
    column = observables.reshape(-1, observables.shape[-1])  # the X_i, one over another
    halves = np.matmul(rho, observables)  # rho X_i, the one stack made
    out = column.conj().T.dot(halves.reshape(column.shape))
    out *= dt / (4.0 * tau)
    out += (1.0 - observables.shape[0] * dt / (4.0 * tau)) * rho
    return out


def sme_step(
    psi: np.ndarray,
    observables: np.ndarray,
    tau: float,
    dt: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Kraus-form step of the readout-conditioned evolution of a pure state.

    Emits r_i = <X_i>/sqrt(tau) + dW_i/dt and applies
    M = 1 + (dt/2sqrt(tau)) sum_i r_i X_i, psi' = M psi / |M psi|, the
    first-order Kraus operator of Rouchon & Ralph (PRA 91, 012118 (2015)) for
    L_i = X_i/2sqrt(tau): since X_i^2 = 1 its sum_i L_i^dag L_i term is a
    multiple of the identity and cancels on normalization. The Ito products
    r_i r_j dt^2 restore the Lindblad drift, so the ensemble mean of psi psi^dag
    follows lindblad_step to first order, and the state stays a unit vector.
    observables has shape (m, d, d); psi may carry leading batch dims (..., d),
    and dW, drawn from rng, is then (..., m).

    A 1-D psi, the one trajectory a solver run holds, takes a body of
    ndarray.dot products: at n = 2 the step is almost all NumPy dispatch, and
    on its (3, 4, 4) stack a matmul-gufunc product costs 0.8-1.3 us per call
    against 0.4-0.7 us for .dot, which also needs no [..., None] views. A
    batch keeps the broadcasting body; the two agree to rounding.
    """
    _check_times(tau, dt, first_order=True)
    dw = rng.normal(0.0, math.sqrt(dt), size=psi.shape[:-1] + observables.shape[:1])
    sqrt_tau = math.sqrt(tau)
    if psi.ndim == 1:
        xpsi = observables.dot(psi)  # (m, d)
        readouts = xpsi.dot(psi.conj()).real / sqrt_tau + dw / dt
        out = psi + (dt / (2.0 * sqrt_tau)) * readouts.dot(xpsi)
        out /= math.sqrt(out.dot(out.conj()).real)
        return out, readouts
    xpsi = (observables @ psi[..., None, :, None])[..., 0]  # (..., m, d)
    expect = np.real(xpsi @ psi.conj()[..., :, None])[..., 0]
    readouts = expect / sqrt_tau + dw / dt
    out = psi + (dt / (2.0 * sqrt_tau)) * (readouts[..., None, :] @ xpsi)[..., 0, :]
    out /= np.sqrt(np.real(out.conj()[..., None, :] @ out[..., :, None]))[..., 0]
    return out, readouts
