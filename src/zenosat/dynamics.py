"""State-evolution kernels: discrete Kraus measurement of a pure state with
sampled readout, the averaged (dephasing) map, a first-order Lindblad step,
and the first-order Kraus-form stochastic step of a pure state with
self-consistent readout generation.

All kernels take clause operators rather than clause objects, so callers
control how and when operators are rebuilt as theta moves: a clause's
violating vector v on its own qubits for the discrete kernels (its projector
P is v v^T there), stacked observables X = 1 - 2P for the continuum ones.
They are followed by the measurement time tau and the step dt. The two
sampled kernels act on state vectors, the two averaged ones on density
matrices. Readout samples carry units of tau^(-1/2).
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np


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


def _renormalize(rho: np.ndarray) -> np.ndarray:
    rho /= rho.trace(axis1=-2, axis2=-1).real[..., None, None]
    return rho


def kraus_measure(
    block: np.ndarray,
    v: np.ndarray,
    tau: float,
    dt: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One generalized measurement of a clause on a pure state.

    ``block`` is the state vector gathered so that its rows run over the
    clause's k qubits and ``v`` is the clause's violating vector there, so the
    clause projector acts as P psi = v (v^T block). The readout r follows the
    exact two-Gaussian mixture with component weights 1 - <P> and <P>, means
    +-1/sqrt(tau) and variance 1/dt; sampling draws the branch then the
    Gaussian, which reproduces the mixture exactly. The update applies the
    Kraus operator M_r = a+ (1 - P) + a- P for that r and renormalizes.
    Returns the new block and r.
    """
    _check_times(tau, dt)
    amp = v @ block
    w_plus = min(max(1.0 - float(np.vdot(amp, amp).real), 0.0), 1.0)
    mean = 1.0 / math.sqrt(tau)
    if rng.random() >= w_plus:
        mean = -mean
    r = rng.normal(mean, 1.0 / math.sqrt(dt))
    a_plus = math.exp(-dt / 4.0 * (r - 1.0 / math.sqrt(tau)) ** 2)
    a_minus = math.exp(-dt / 4.0 * (r + 1.0 / math.sqrt(tau)) ** 2)
    post = np.outer(v, (a_minus - a_plus) * amp)
    post += a_plus * block
    post /= math.sqrt(np.vdot(post, post).real)
    return post, r


def average_map(
    rho: np.ndarray, v: np.ndarray, index: np.ndarray, tau: float, dt: float
) -> np.ndarray:
    """Readout-averaged measurement of one clause on a density matrix:
    rho' = ((1+beta)/2) rho + ((1-beta)/2) X rho X with X = 1 - 2P and
    beta = e^(-dt/2tau) the coherence retained per step, computed as
    rho' = rho - (1-beta) (W + W^dag) with W = P rho (1 - P).

    ``index`` is the clause's (2^k, 2^(n-k)) table of basis indices, so that
    P acts on the rows rho[index] as v v^T. Only rows of rho are gathered:
    P rho = v (x) amp with amp = v^T rho[index], and P rho P comes from a
    column gather of the (2^(n-k), 2^n) amp alone.
    """
    _check_times(tau, dt)
    beta = math.exp(-dt / (2.0 * tau))
    amp = (v @ rho[index].reshape(v.size, -1)).reshape(-1, rho.shape[-1])
    cols = amp[:, index]
    amp[:, index] = cols - v[:, None] * (v @ cols)[:, None, :]  # amp (1 - P)
    w = np.empty_like(rho)
    w[index] = np.multiply.outer((1.0 - beta) * v, amp)
    out = rho - w
    out -= w.conj().T
    return out


def lindblad_step(
    rho: np.ndarray, observables: np.ndarray, tau: float, dt: float
) -> np.ndarray:
    """First-order unconditional step for m simultaneous clause channels:
    rho' = rho + (dt/4tau) sum_i (X_i rho X_i - rho), trace renormalized.

    observables has shape (m, d, d); rho may carry leading batch dims.
    """
    _check_times(tau, dt, first_order=True)
    # X_i rho and X_i rho X_i are unnamed: with the observables, three stacks
    out = (observables @ rho[..., None, :, :] @ observables).sum(axis=-3)
    out *= dt / (4.0 * tau)
    out += (1.0 - observables.shape[0] * dt / (4.0 * tau)) * rho
    return _renormalize(out)


def sme_step(
    psi: np.ndarray,
    observables: np.ndarray,
    tau: float,
    dt: float,
    rng: Optional[np.random.Generator] = None,
    dw: Optional[np.ndarray] = None,
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
    and dW is then (..., m). Passing dw explicitly overrides sampling.
    """
    _check_times(tau, dt, first_order=True)
    if dw is None:
        if rng is None:
            raise ValueError("sme_step needs an rng when dw is not given")
        dw = rng.normal(0.0, math.sqrt(dt), size=psi.shape[:-1] + observables.shape[:1])
    sqrt_tau = math.sqrt(tau)
    xpsi = (observables @ psi[..., None, :, None])[..., 0]  # (..., m, d)
    expect = np.real(xpsi @ psi.conj()[..., :, None])[..., 0]
    readouts = expect / sqrt_tau + dw / dt
    out = psi + (dt / (2.0 * sqrt_tau)) * (readouts[..., None, :] @ xpsi)[..., 0, :]
    out /= np.sqrt(np.real(out.conj()[..., None, :] @ out[..., :, None]))[..., 0]
    return out, readouts
