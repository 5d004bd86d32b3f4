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


@dataclass(frozen=True)
class FilterConfig:
    """Response time T_be, detection threshold r_th (< 0), and step dt."""

    t_be: float
    r_th: float
    dt: float

    def __post_init__(self) -> None:
        for name, value in (("t_be", self.t_be), ("dt", self.dt)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.t_be < self.dt:
            raise ValueError(f"t_be = {self.t_be} shorter than dt = {self.dt}")
        if not -math.inf < self.r_th < 0:
            raise ValueError(f"failure threshold r_th must be negative and finite, "
                             f"got {self.r_th}")

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
    taken as 0 and detection is suppressed; ``warmed`` turns True when the
    ring first wraps. The window and the recurrence's two coefficients are
    fixed by ``cfg`` and computed once.
    """

    def __init__(self, cfg: FilterConfig, shape: tuple[int, ...]):
        self.cfg = cfg
        self.shape = shape
        self.rbar = np.zeros(shape)
        self.warmed = False
        self._window = cfg.window
        self._decay = 1.0 - cfg.dt / cfg.t_be
        self._gain = cfg.dt / ((math.e - 1.0) * cfg.t_be)
        self._buffer = np.zeros((self._window,) + shape)
        self._pos = 0

    def update(self, r_new: np.ndarray) -> np.ndarray:
        """Push one step of raw samples; returns the new rbar array."""
        r_new = np.asarray(r_new, dtype=float)
        if r_new.shape != self.shape:
            raise ValueError(f"sample shape {r_new.shape} != {self.shape}")
        evicted = self._buffer[self._pos] if self.warmed else 0.0
        self.rbar = self.rbar * self._decay + (math.e * r_new - evicted) * self._gain
        self._buffer[self._pos] = r_new
        self._pos += 1
        if self._pos == self._window:
            self._pos = 0
            self.warmed = True
        return self.rbar

    def below_threshold(self) -> np.ndarray:
        """Boolean mask of channels heralding failure; all-False until warmed."""
        if not self.warmed:
            return np.zeros(self.shape, dtype=bool)
        return self.rbar < self.cfg.r_th


def detect_failure(fs: FilterState) -> Optional[int]:
    """Lowest channel index whose filtered value is below threshold, if any;
    None until the filter is warmed.

    For 1-D channel layouts only; batched callers use below_threshold().
    Most steps herald nothing, and one argmin and one compare settle those.
    Any other step, a nan in rbar included (argmin picks it, and it fails the
    compare), reads the mask, whose lowest channel below threshold need not
    hold the lowest value.
    """
    if len(fs.shape) != 1:
        raise ValueError("detect_failure expects a 1-D channel layout")
    if not fs.warmed:
        return None
    rbar = fs.rbar
    if rbar[rbar.argmin()] >= fs.cfg.r_th:
        return None
    below = fs.below_threshold()
    hit = int(below.argmax())
    return hit if below[hit] else None
