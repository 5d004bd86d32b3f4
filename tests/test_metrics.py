"""Run-count and time-to-solution statistics, the phase-transition decision
rule, and exponential scaling fits.
"""

import math

import numpy as np
import pytest

from zenosat.metrics import (
    ScalingFit,
    _decide_instance,
    fit_lambda,
    n_star,
    phase_transition_curve,
    phase_transition_point,
    polynomial_minimum,
    tts_99,
    tts_with_readout,
    unique_bias_success,
)
from zenosat.satcore import TWO_SAT_UNIQUE, TWO_SAT_UNSAT
from zenosat.solver import RunConfig


def test_n_star_values_and_edges():
    assert n_star(0.0) == math.inf
    assert n_star(-0.2) == math.inf
    assert n_star(1.0) == 1.0
    assert n_star(0.5, p_star=0.99) == 7  # ceil(log(0.01)/log(0.5))
    assert n_star(0.1, p_star=0.5) == 7  # ceil(log(0.5)/log(0.9))
    with pytest.raises(ValueError):
        n_star(0.5, p_star=1.0)
    with pytest.raises(ValueError):
        n_star(0.5, p_star=0.0)


def test_tts_definitions_are_consistent():
    p, t_f, dt_m = 0.3, 40.0, 5.0
    assert tts_with_readout(p, 0.99, t_f, dt_m) == n_star(p) * (t_f + dt_m)
    assert tts_99(p, t_f) == pytest.approx(t_f * math.log(0.01) / math.log(0.7))
    assert tts_99(0.0, t_f) == math.inf
    assert tts_99(1.0, t_f) == t_f
    # the ceiled and un-ceiled counts differ by less than one run
    assert abs(tts_with_readout(p, 0.99, t_f, 0.0) - tts_99(p, t_f)) <= t_f


def test_unique_bias_readout_model():
    # no bias or no integration time: uniform guessing
    assert unique_bias_success(0.0, 10.0, 1.0, 3) == pytest.approx(1 / 8)
    assert unique_bias_success(0.9, 0.0, 1.0, 3) == pytest.approx(1 / 8)
    # perfect bias and long readout: certainty
    assert unique_bias_success(1.0, 1e12, 1.0, 3) == pytest.approx(1.0)


# ---------------------------------------------------------------- decisions


def _quick_cfg(mode="average"):
    return RunConfig(t_f=100.0, dt=0.25, dt_m=50.0, mode=mode)


def test_decide_instance_rules():
    # satisfiable: success means some shot verified
    assert _decide_instance((TWO_SAT_UNIQUE, _quick_cfg(), 3, 0)) is True
    # unsatisfiable: success means no shot verified
    assert _decide_instance((TWO_SAT_UNSAT, _quick_cfg(), 1, 0)) in (True, False)


def test_phase_transition_point_is_deterministic():
    cfg = _quick_cfg()
    p1 = phase_transition_point(3, 0.8, 2, cfg, 10, np.random.default_rng(5))
    p2 = phase_transition_point(3, 0.8, 2, cfg, 10, np.random.default_rng(5))
    assert p1 == p2
    assert 0.0 <= p1 <= 1.0


def test_phase_transition_curve_rows():
    cfg = _quick_cfg()
    rows = phase_transition_curve(3, 2, [0.7, 1.4], cfg, 8, seed=2)
    assert [r["alpha"] for r in rows] == [0.7, 1.4]
    for r in rows:
        assert r["n"] == 3 and r["k"] == 2 and r["mode"] == "average"
        assert 0.0 <= r["p_succ"] <= 1.0
    again = phase_transition_curve(3, 2, [0.7, 1.4], cfg, 8, seed=2)
    assert rows == again


def test_easy_regime_classifies_well():
    # low density, long runs: most satisfiable instances should verify
    cfg = RunConfig(t_f=150.0, dt=0.25, dt_m=200.0, mode="average")
    p = phase_transition_point(3, 0.7, 2, cfg, 15, np.random.default_rng(1), shots=3)
    assert p >= 0.7


# ---------------------------------------------------------------- fits


def test_fit_lambda_recovers_exact_exponential():
    points = [(n, 3.0 * 2.0**n) for n in range(4, 9)]
    fit = fit_lambda(points)
    assert fit.lam == pytest.approx(2.0, abs=1e-9)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)
    assert fit.n_range == (4, 8)
    assert isinstance(fit, ScalingFit)


def test_fit_lambda_two_points_and_noise():
    fit = fit_lambda([(4, 10.0), (5, 30.0)])
    assert fit.lam == pytest.approx(3.0)
    assert fit.stderr == 0.0
    rng = np.random.default_rng(0)
    noisy = [(n, 2.0**n * math.exp(rng.normal(0, 0.1))) for n in range(4, 10)]
    fit = fit_lambda(noisy)
    assert fit.stderr > 0.0
    assert abs(fit.lam - 2.0) < 0.3


def test_fit_lambda_input_validation():
    with pytest.raises(ValueError):
        fit_lambda([(4, 10.0)])
    with pytest.raises(ValueError):
        fit_lambda([(4, 10.0), (5, -1.0)])
    with pytest.raises(ValueError):
        fit_lambda([(4, 10.0), (5, math.inf)])


def test_polynomial_minimum_recovers_vertex():
    xs = np.linspace(0.0, 4.0, 21)
    ys = (xs - 1.7) ** 2 + 0.3
    argmin, val = polynomial_minimum(xs, ys, degree=2)
    assert argmin == pytest.approx(1.7, abs=0.01)
    assert val == pytest.approx(0.3, abs=0.01)
