"""Readout filtering and failure heralding: the finite-window exponential
filter, its exact discrete recurrence, and threshold detection.

Filtered values track the per-clause readout mean (+1/sqrt(tau) while a
clause is satisfied, -1/sqrt(tau) in a violating subspace); a filtered value
below the negative threshold r_th heralds a failed run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# steady-state Var[rbar] = FILTER_VARIANCE_COEFF / T_be for unit-rate white
# noise of variance 1/dt per sample
FILTER_VARIANCE_COEFF = (math.e + 1.0) / (2.0 * (math.e - 1.0))


@dataclass(frozen=True)
class FilterConfig:
    """Response time T_be, detection threshold r_th (< 0), and step dt."""

    t_be: float
    r_th: float
    dt: float

    def __post_init__(self) -> None:
        if self.t_be < self.dt:
            raise ValueError(f"t_be = {self.t_be} shorter than dt = {self.dt}")
        if self.r_th >= 0:
            raise ValueError(f"failure threshold must be negative, got {self.r_th}")

    @property
    def window(self) -> int:
        """Buffer length covering [t - T_be, t]."""
        return math.ceil(self.t_be / self.dt - 1e-9)


class FilterState:
    """Per-channel filtered values rbar plus the raw-sample ring buffer.

    ``shape`` is the channel layout, e.g. (m,) for one trajectory or (B, m)
    for a batch. Updates apply the exact recurrence

        rbar(t+dt) = rbar(t) (1 - dt/T_be)
                     + [e r(t) - r(t - T_be)] dt / ((e-1) T_be)

    Cold start: until the buffer covers a full window the evicted sample is
    taken as 0 and detection is suppressed (``warmed`` is False).
    """

    def __init__(self, cfg: FilterConfig, shape: tuple[int, ...]):
        self.cfg = cfg
        self.shape = shape
        self.rbar = np.zeros(shape)
        self._buffer = np.zeros((cfg.window,) + shape)
        self._pos = 0
        self._count = 0

    @property
    def warmed(self) -> bool:
        return self._count >= self.cfg.window

    def update(self, r_new: np.ndarray) -> np.ndarray:
        """Push one step of raw samples; returns the new rbar array."""
        r_new = np.asarray(r_new, dtype=float)
        if r_new.shape != self.shape:
            raise ValueError(f"sample shape {r_new.shape} != {self.shape}")
        evicted = self._buffer[self._pos] if self.warmed else 0.0
        dt, t_be = self.cfg.dt, self.cfg.t_be
        gain = dt / ((math.e - 1.0) * t_be)
        self.rbar = self.rbar * (1.0 - dt / t_be) + (math.e * r_new - evicted) * gain
        self._buffer[self._pos] = r_new
        self._pos = (self._pos + 1) % self.cfg.window
        self._count += 1
        return self.rbar

    def below_threshold(self) -> np.ndarray:
        """Boolean mask of channels heralding failure; all-False until warmed."""
        if not self.warmed:
            return np.zeros(self.shape, dtype=bool)
        return self.rbar < self.cfg.r_th


def detect_failure(fs: FilterState) -> Optional[int]:
    """Lowest channel index whose filtered value is below threshold, if any.

    For 1-D channel layouts only; batched callers use below_threshold().
    """
    mask = fs.below_threshold()
    if mask.ndim != 1:
        raise ValueError("detect_failure expects a 1-D channel layout")
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


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

    With the exponential window the normalization is N = 1 - e^(-1). Used as
    the integral-form oracle that the discrete recurrence must converge to.
    Returns rbar evaluated just after each sample, matching FilterState
    output alignment (samples[j] is taken at time j*dt).
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
