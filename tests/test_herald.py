"""Readout filtering and failure heralding: the exponential finite-window
filter recurrence, its integral-form oracle, and threshold detection.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosat.herald import (
    FILTER_VARIANCE_COEFF,
    FilterConfig,
    FilterState,
    detect_failure,
    exponential_window,
    windowed_filter_reference,
)
from zenosat.solver import RunConfig


def run_filter(samples, cfg):
    fs = FilterState(cfg, ())
    return np.array([fs.update(np.asarray(s)) for s in samples])


def test_config_validation_and_window():
    cfg = FilterConfig(t_be=0.5, r_th=-1.0, dt=0.01)
    assert cfg.window == 50
    with pytest.raises(ValueError):
        FilterConfig(t_be=0.005, r_th=-1.0, dt=0.01)
    with pytest.raises(ValueError):
        FilterConfig(t_be=1.0, r_th=0.5, dt=0.01)


def test_default_config_rule():
    run = RunConfig(t_f=200.0, dt=0.01, dt_m=0.0, tau=1.0)
    cfg = run.filter_config(horizon=10.0)
    assert cfg.t_be == pytest.approx(2.0)  # 2 tau dominates 0.1 T_f
    assert cfg.r_th == pytest.approx(-2.5 / math.sqrt(2.0))
    cfg = run.filter_config(horizon=200.0)
    assert cfg.t_be == pytest.approx(20.0)  # 0.1 T_f dominates
    assert cfg.r_th == pytest.approx(-2.5 / math.sqrt(20.0))


def test_variance_coefficient_value():
    assert FILTER_VARIANCE_COEFF == pytest.approx(
        (math.e + 1.0) / (2.0 * (math.e - 1.0))
    )


# ---------------------------------------------------------------- recurrence


def test_constant_input_settles_at_unit_gain():
    cfg = FilterConfig(t_be=0.5, r_th=-1.0, dt=0.005)
    out = run_filter(np.full(400, 3.0), cfg)
    assert out[-1] == pytest.approx(3.0, rel=0.02)


def test_recurrence_matches_integral_reference():
    cfg = FilterConfig(t_be=0.5, r_th=-1.0, dt=0.005)
    rng = np.random.default_rng(4)
    samples = rng.normal(0.0, 1.0, size=600)
    got = run_filter(samples, cfg)
    ref = windowed_filter_reference(samples, cfg.dt, cfg.t_be)
    # compare after warmup; discretization error shrinks with dt
    scale = np.std(samples)
    assert np.max(np.abs(got[cfg.window:] - ref[cfg.window:])) < 0.02 * scale


def test_step_response_reaches_plateau_after_one_window():
    cfg = FilterConfig(t_be=0.5, r_th=-1.0, dt=0.01)
    s1 = -2.0
    samples = np.concatenate([np.zeros(2 * cfg.window), np.full(cfg.window, s1)])
    out = run_filter(samples, cfg)
    assert out[-1] == pytest.approx(s1, rel=0.02)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(0, 1000),
)
def test_filter_is_linear(a, b, seed):
    cfg = FilterConfig(t_be=0.2, r_th=-1.0, dt=0.02)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    combined = run_filter(a * x + b * y, cfg)
    separate = a * run_filter(x, cfg) + b * run_filter(y, cfg)
    assert np.allclose(combined, separate, atol=1e-12)


def test_eviction_after_window():
    # a single spike must leave the filtered value (up to the O(dt) tail)
    # once it ages past the window
    cfg = FilterConfig(t_be=0.2, r_th=-1.0, dt=0.01)
    samples = np.zeros(100)
    samples[10] = 50.0
    out = run_filter(samples, cfg)
    assert out[11] > 1.0  # spike visible immediately after
    assert np.all(np.abs(out[10 + 2 * cfg.window:]) < 0.2)


# ---------------------------------------------------------------- detection


def test_cold_start_suppresses_detection():
    cfg = FilterConfig(t_be=0.5, r_th=-0.01, dt=0.01)
    fs = FilterState(cfg, (2,))
    for _ in range(cfg.window - 1):
        fs.update(np.array([-10.0, -10.0]))
        assert not fs.warmed
        assert not fs.below_threshold().any()
        assert detect_failure(fs) is None
    fs.update(np.array([-10.0, -10.0]))
    assert fs.warmed
    assert detect_failure(fs) == 0


def test_detect_failure_reports_lowest_channel():
    cfg = FilterConfig(t_be=0.05, r_th=-0.5, dt=0.01)
    fs = FilterState(cfg, (3,))
    for _ in range(cfg.window + 5):
        fs.update(np.array([1.0, -5.0, -5.0]))
    assert detect_failure(fs) == 1
    mask = fs.below_threshold()
    assert mask.tolist() == [False, True, True]


def test_detect_failure_requires_one_dimensional_layout():
    cfg = FilterConfig(t_be=0.05, r_th=-0.5, dt=0.01)
    fs = FilterState(cfg, (2, 3))
    with pytest.raises(ValueError):
        detect_failure(fs)


def test_batched_layout_matches_individual_channels():
    cfg = FilterConfig(t_be=0.1, r_th=-0.5, dt=0.01)
    rng = np.random.default_rng(9)
    samples = rng.normal(size=(30, 2, 3))
    fs = FilterState(cfg, (2, 3))
    for s in samples:
        fs.update(s)
    for i in range(2):
        for j in range(3):
            ref = FilterState(cfg, ())
            for s in samples:
                ref.update(s[i, j])
            assert fs.rbar[i, j] == pytest.approx(ref.rbar)


def test_update_shape_check():
    cfg = FilterConfig(t_be=0.1, r_th=-0.5, dt=0.01)
    fs = FilterState(cfg, (2,))
    with pytest.raises(ValueError):
        fs.update(np.zeros(3))


def test_exponential_window_support():
    ages = np.array([-0.1, 0.0, 0.25, 0.5, 0.6])
    w = exponential_window(ages, t_be=0.5)
    assert w[0] == 0.0 and w[4] == 0.0
    assert w[1] == pytest.approx(1.0)
    assert w[2] == pytest.approx(math.exp(-0.5))
    assert w[3] == pytest.approx(math.exp(-1.0))
