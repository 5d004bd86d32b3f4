"""Run-count and time-to-solution statistics, the phase-transition decision
rule, and exponential scaling fits.
"""

import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import polynomial_minimum, serial_pool, unique_bias_success
from zenosat.metrics import (
    ScalingFit,
    _decide_instance,
    fit_lambda,
    n_star,
    phase_transition_curve,
    pool_map,
    tts_99,
    tts_with_readout,
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


def test_one_alpha_curve_is_deterministic():
    cfg = _quick_cfg()
    p1 = phase_transition_curve(3, 2, [0.8], cfg, 10, seed=5)
    p2 = phase_transition_curve(3, 2, [0.8], cfg, 10, seed=5)
    assert p1 == p2
    assert len(p1) == 1 and 0.0 <= p1[0] <= 1.0
    # two worker processes decide the same instances with the same seeds
    assert phase_transition_curve(3, 2, [0.8], cfg, 10, seed=5, jobs=2) == p1


def test_phase_transition_curve_returns_p_succ_per_alpha():
    # each alpha draws from its own generator, so a curve is its one-alpha
    # curves side by side, and one pool for both alphas changes no value
    cfg = _quick_cfg()
    curve = phase_transition_curve(3, 2, [0.7, 1.4], cfg, 8, seed=2)
    assert all(type(p) is float and 0.0 <= p <= 1.0 for p in curve)
    assert curve == (phase_transition_curve(3, 2, [0.7], cfg, 8, seed=2)
                     + phase_transition_curve(3, 2, [1.4], cfg, 8, seed=2))
    assert phase_transition_curve(3, 2, [0.7, 1.4], cfg, 8, seed=2, jobs=2) == curve


@pytest.mark.parametrize("alphas", [[0.7, 0.7004], [1.4, 0.7, 1.4]],
                         ids=["same-seed", "repeat"])
def test_phase_transition_curve_refuses_alphas_sharing_a_seed(alphas, monkeypatch):
    # round(1000 alpha) seeds each alpha: alphas sharing it would draw the
    # same instances, so they are refused before any instance is drawn
    def no_draw(*args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr("zenosat.metrics.random_instance", no_draw)
    with pytest.raises(ValueError, match="share instances"):
        phase_transition_curve(3, 2, alphas, _quick_cfg(), 2, seed=2)


@pytest.mark.parametrize("jobs, cores, workers", [
    (5000, 64, 8), (5000, 3, 3), (2, 64, 2), (5000, 1, None), (1, 64, None),
])
def test_pool_map_starts_at_most_one_worker_per_task_and_core(jobs, cores, workers,
                                                               monkeypatch):
    # a pool starts all its workers up front, so it is sized by the tasks and
    # the usable cores as well as by jobs; one worker maps in this process
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(sizes))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert pool_map(abs, list(range(-4, 4)), jobs) == [4, 3, 2, 1, 0, 1, 2, 3]
    assert sizes == ([] if workers is None else [workers])


@pytest.mark.parametrize("jobs, cpus, workers", [
    (1, 4, None), (5000, 3, 3), (5000, None, None),
])
def test_pool_map_counts_cores_without_sched_getaffinity(jobs, cpus, workers,
                                                         monkeypatch):
    # sched_getaffinity is Linux only: elsewhere the pool is sized by
    # os.cpu_count(), and a serial map reads neither
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(sizes))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert pool_map(abs, list(range(-4, 4)), jobs) == [4, 3, 2, 1, 0, 1, 2, 3]
    assert sizes == ([] if workers is None else [workers])


def test_easy_regime_classifies_well():
    # low density, long runs: most satisfiable instances should verify
    cfg = RunConfig(t_f=150.0, dt=0.25, dt_m=200.0, mode="average")
    [p] = phase_transition_curve(3, 2, [0.7], cfg, 15, seed=1, shots=3)
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
    with pytest.raises(ValueError, match="distinct n"):
        fit_lambda([(4, 10.0)])
    # the same n twice is one point counted twice, not a fit
    with pytest.raises(ValueError, match="distinct n"):
        fit_lambda([(3, 10.0), (3, 10.0)])
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


def test_import_does_not_load_multiprocessing():
    # the process pool of phase_transition_curve is imported when a run asks
    # for jobs > 1, so `import zenosat` does not pay for multiprocessing
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, zenosat; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
