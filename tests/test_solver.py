"""End-to-end solver runs: the averaged mode, heralded single trials and
restarts, the terminal readout model, and the exact success probability.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CLAUSE_LAYOUTS,
    dense_average_run,
    dense_heralded_run,
    fidelity_pure,
    kron_all,
    solution_state,
    success_probability_by_solution,
    trace_distance,
    unique_bias_success,
)
from zenosat import dynamics, encoding, solver
from zenosat.encoding import ClauseSet, Schedule
from zenosat.qlinalg import plus_density, purity, validate_density
from zenosat.satcore import (
    CnfFormula,
    SolutionSet,
    TWO_SAT_TWO_SOLUTIONS,
    TWO_SAT_UNIQUE,
    TWO_SAT_UNSAT,
    enumerate_solutions,
    evaluate,
    formula,
    random_instance,
    to_bitstring,
)
from zenosat.solver import (
    RunConfig,
    readout,
    run_average,
    run_full,
    run_heralded_restart,
    run_heralded_single,
    success_probability,
)


def cfg_with(**kwargs):
    base = dict(t_f=20.0, dt=0.25, dt_m=50.0, tau=1.0)
    base.update(kwargs)
    return RunConfig(**base)


# ---------------------------------------------------------------- config


def test_run_config_validation():
    with pytest.raises(ValueError):
        cfg_with(mode="bogus")
    with pytest.raises(ValueError):
        cfg_with(t_f=0.1, dt=0.25)
    with pytest.raises(ValueError):
        cfg_with(dt_m=-1.0)
    with pytest.raises(ValueError):
        cfg_with(tau=0.0)
    with pytest.raises(ValueError, match="record_every"):
        cfg_with(record_every=-1)


@pytest.mark.parametrize("key", ["t_f", "dt", "dt_m", "tau"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_run_config_refuses_non_finite_times(key, value):
    # inf t_f would overflow the step count and NaN tau would run to the end
    with pytest.raises(ValueError, match="finite"):
        cfg_with(**{key: value})


def test_continuum_dispatch_threshold():
    assert cfg_with(dt=0.02).continuum
    assert not cfg_with(dt=0.021).continuum


def test_filter_config_defaults():
    cfg = cfg_with(t_f=300.0)
    fc = cfg.filter_config(horizon=300.0)
    assert fc.t_be == pytest.approx(30.0)
    assert fc.r_th == pytest.approx(-2.5 / math.sqrt(30.0))
    # compressed horizons shrink the response window down to the 2 tau floor
    assert cfg.filter_config(horizon=10.0).t_be == pytest.approx(2.0)
    # and never below one step
    assert cfg_with(dt=2.5).filter_config(horizon=10.0).t_be == 2.5


# ---------------------------------------------------------------- average


def test_run_average_is_deterministic_and_valid():
    cfg = cfg_with(t_f=10.0)
    out1 = run_average(TWO_SAT_UNIQUE, cfg)
    out2 = run_average(TWO_SAT_UNIQUE, cfg)
    assert np.array_equal(out1.final_rho, out2.final_rho)
    assert out1.consumed_time == pytest.approx(10.0)
    assert abs(np.trace(out1.final_rho) - 1.0) < 1e-12
    assert np.allclose(out1.final_rho, out1.final_rho.T)


def test_run_average_drags_toward_solution():
    cfg = cfg_with(t_f=200.0, dt=0.02)
    rho = run_average(TWO_SAT_UNIQUE, cfg).final_rho
    phi = solution_state(TWO_SAT_UNIQUE, (True, False), math.pi / 2)
    assert fidelity_pure(rho, phi) > 0.8
    # longer runs do strictly better
    rho_short = run_average(TWO_SAT_UNIQUE, cfg_with(t_f=20.0, dt=0.02)).final_rho
    assert fidelity_pure(rho, phi) > fidelity_pure(rho_short, phi)


def test_run_average_records_diagnostics():
    cfg = cfg_with(t_f=10.0, dt=0.5, record_every=4)
    out = run_average(TWO_SAT_UNIQUE, cfg)
    d = out.diagnostics
    assert set(d) == {"t", "theta", "purity", "z"}
    assert len(d["t"]) == 5  # steps 4, 8, 12, 16, 20
    assert d["z"].shape == (5, 2)
    assert np.all(np.diff(d["theta"]) > 0)


def test_clause_order_independence_in_continuum():
    reordered = CnfFormula(2, TWO_SAT_UNIQUE.clauses[::-1])
    cfg = cfg_with(t_f=20.0, dt=0.02)
    a = run_average(TWO_SAT_UNIQUE, cfg).final_rho
    b = run_average(reordered, cfg).final_rho
    assert trace_distance(a, b) < 1e-3


# final states of continuum averaged runs (t_f = 40, dt = 0.01) as the
# per-step Kronecker fold of the clause operators computed them, and final psi
# of completed continuum heralded-single runs (t_f = 20, dt = 0.01, detection
# off, rng seeds 0 and 1) as the broadcasting sme_step body computed them
CONTINUUM_FINAL_RHO = Path(__file__).parent / "data" / "continuum_final_rho.json"
CONTINUUM_FINAL_PSI = Path(__file__).parent / "data" / "continuum_final_psi.json"


def test_continuum_final_states_are_pinned():
    pinned = json.loads(CONTINUUM_FINAL_RHO.read_text())
    cfg = cfg_with(t_f=40.0, dt=0.01)
    formulas = {"unique2": TWO_SAT_UNIQUE, "two-solutions2": TWO_SAT_TWO_SOLUTIONS,
                "unsat2": TWO_SAT_UNSAT}
    assert sorted(pinned) == sorted(formulas)
    for name, f in formulas.items():
        rho = run_average(f, cfg).final_state
        assert np.max(np.abs(rho - np.array(pinned[name]))) < 1e-12, name
    pinned = json.loads(CONTINUUM_FINAL_PSI.read_text())
    assert sorted(pinned) == ["two-solutions2", "unique2"]
    for name, psis in pinned.items():
        for seed, psi in enumerate(psis):
            cfg = cfg_with(t_f=20.0, dt=0.01, mode="heralded-single", seed=seed)
            out = run_heralded_single(formulas[name], cfg, np.random.default_rng(seed),
                                      detect=False)
            assert not out.failed
            assert np.max(np.abs(out.final_state - np.array(psi))) < 1e-12, (name, seed)


def test_averaged_continuum_run_divides_out_its_trace_on_return():
    # its 4,000 Lindblad steps keep tr rho only up to rounding (2e-13 here),
    # which the run divides out once, when it returns
    rho = run_average(TWO_SAT_UNIQUE, cfg_with(t_f=40.0, dt=0.01)).final_state
    assert abs(np.trace(rho) - 1.0) <= 1e-15


# ---------------------------------------------------------------- step blocks

# (formula, cfg, rng seed or None for an averaged run, steps per block): the
# step count is no multiple of the block, and each abort falls mid-block
BLOCK_CASES = {
    "average-continuum":
        (TWO_SAT_UNIQUE, cfg_with(t_f=10.0, dt=0.01, record_every=7), None, 7),
    "heralded-discrete":
        (TWO_SAT_UNIQUE, cfg_with(t_f=20.0, dt=0.25, record_every=3), 3, 7),
    "abort-discrete": (TWO_SAT_UNSAT, cfg_with(t_f=20.0, dt=0.25, record_every=2), 0, 6),
    "abort-continuum": (TWO_SAT_UNSAT, cfg_with(t_f=20.0, dt=0.01, record_every=50), 0, 7),
}


def _run_blocked(monkeypatch, case, steps_per_block):
    f, cfg, seed, _ = BLOCK_CASES[case]
    if steps_per_block is not None:
        local = 4**f.num_vars if cfg.continuum else 2**f.k
        step_bytes = 8 * f.num_clauses * local
        monkeypatch.setattr(solver, "_BLOCK_BYTES", steps_per_block * step_bytes)
        monkeypatch.setattr(solver, "_THETA_STEPS", 20)  # angles of 2 blocks or 20 steps
    if seed is None:
        return run_average(f, cfg)
    return run_heralded_single(f, cfg, np.random.default_rng(seed))


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_step_blocks_do_not_change_the_run(case, monkeypatch):
    # theta and the clause operators are built a block of steps at a time;
    # where the blocks end must not show in the run
    f, cfg, seed, block = BLOCK_CASES[case]
    default = _run_blocked(monkeypatch, case, None)
    steps = round(default.consumed_time / cfg.dt)
    assert steps % block != 0
    assert default.failed == case.startswith("abort")
    for steps_per_block in (block, 1):
        out = _run_blocked(monkeypatch, case, steps_per_block)
        assert (out.consumed_time, out.failed_at, out.failed_clause) == (
            default.consumed_time, default.failed_at, default.failed_clause)
        for key in ("t", "theta"):
            assert np.array_equal(out.diagnostics[key], default.diagnostics[key])
        if default.failed:
            continue
        if cfg.continuum:  # a matmul over another number of steps may round apart
            assert np.max(np.abs(out.final_state - default.final_state)) < 1e-14
        else:
            assert np.array_equal(out.final_state, default.final_state)


def test_failed_is_derived_from_failed_at():
    aborted = run_heralded_single(TWO_SAT_UNSAT, cfg_with(), np.random.default_rng(0))
    completed = run_full(TWO_SAT_UNIQUE, cfg_with(t_f=2.0, dt=0.01))
    restart = run_full(
        TWO_SAT_UNSAT, cfg_with(t_f=30.0, dt_m=2.0, mode="heralded-restart", seed=1)
    )
    assert aborted.failed and not completed.failed and restart.num_attempts > 1
    for out in (aborted, completed, restart):
        assert out.failed == (out.failed_at is not None) == out.to_dict()["failed"]
        with pytest.raises(AttributeError):
            out.failed = not out.failed


def test_reported_times_stay_python_floats():
    # JSON and CSV output print these; a NumPy scalar reprs as np.float64(...)
    completed = run_full(TWO_SAT_UNIQUE, cfg_with(t_f=2.0, dt=0.01, record_every=10))
    aborted = run_heralded_single(
        TWO_SAT_UNSAT, cfg_with(t_f=20.0, dt=0.25, record_every=4), np.random.default_rng(0)
    )
    assert aborted.failed and type(aborted.failed_at) is float
    for out in (completed, aborted):
        assert type(out.consumed_time) is float
        for key in ("t", "theta"):
            assert out.diagnostics[key].dtype == np.float64


def test_run_aborted_before_its_first_record_reports_empty_diagnostics():
    cfg = cfg_with(t_f=20.0, dt=0.25, record_every=10**6)
    out = run_heralded_single(TWO_SAT_UNSAT, cfg, np.random.default_rng(0))
    assert out.failed
    assert list(out.diagnostics) == ["t", "theta", "purity", "z", "r", "rbar"]
    for values in out.diagnostics.values():
        assert values.shape == (0,) and values.dtype == np.float64
    unrecorded = run_heralded_single(TWO_SAT_UNSAT, cfg_with(), np.random.default_rng(0))
    assert unrecorded.diagnostics is None


def test_continuum_stack_over_the_budget_builds_one_step_per_call(monkeypatch):
    # a one-step stack larger than the block budget is built alone, so a step
    # holds one (m, 2^n, 2^n) stack as the dense memory refusal counts
    shapes = []
    observables = ClauseSet.observables

    def counting(self, theta):
        shapes.append(np.shape(theta))
        return observables(self, theta)

    monkeypatch.setattr(ClauseSet, "observables", counting)
    f = random_instance(6, 4.3, 3, np.random.default_rng(5))
    assert 8 * f.num_clauses * 4**6 > solver._BLOCK_BYTES
    run_average(f, cfg_with(t_f=0.2, dt=0.01))
    assert shapes == [(1,)] * 20
    shapes.clear()
    run_average(TWO_SAT_UNIQUE, cfg_with(t_f=10.0, dt=0.01))
    block = solver._BLOCK_BYTES // (8 * TWO_SAT_UNIQUE.num_clauses * 4**2)
    assert block > 1 and len(shapes) == math.ceil(1000 / block)
    assert shapes[0] == (block,) and sum(s[0] for s in shapes) == 1000


# the schedule rests at theta = 0, at mid-schedule or moves linearly, so a
# whole run covers each part
PLATEAUS = {
    "theta0": Schedule(((0.0, 0.0), (0.99, 0.0), (1.0, math.pi / 2))),
    "mid": Schedule(((0.0, 0.0), (0.01, math.pi / 4), (0.99, math.pi / 4),
                     (1.0, math.pi / 2))),
    "linear": Schedule(),
}


@pytest.mark.parametrize("plateau", sorted(PLATEAUS))
@pytest.mark.parametrize("case", sorted(CLAUSE_LAYOUTS))
def test_local_averaged_run_matches_dense_maps(case, plateau):
    # a discrete averaged run applies each clause's map through its index
    # table; the dense observables give the same final state
    f = CLAUSE_LAYOUTS[case]
    cfg = cfg_with(t_f=10.0, schedule=PLATEAUS[plateau])
    out = run_average(f, cfg)
    assert out.final_state.shape == (1 << f.num_vars,) * 2
    assert np.max(np.abs(out.final_state - dense_average_run(f, cfg))) < 1e-13


def test_frame_body_averaged_run_matches_dense_maps():
    # at n = 8 average_map holds rho as S + S^T with S's rows in clause
    # frames; two steps of a run give the dense maps' final state
    f = random_instance(8, 4.3, 3, np.random.default_rng(8))
    assert f.num_vars >= dynamics._FRAME_QUBITS
    cfg = cfg_with(t_f=0.5, dt=0.25)
    out = run_average(f, cfg)
    assert np.max(np.abs(out.final_state - dense_average_run(f, cfg))) < 1e-12


def test_discrete_averaged_run_needs_no_dense_memory(monkeypatch):
    # memory for exactly the index tables, the frame permutations and
    # _PEAK_DENSITIES density matrices, far less than the dense stacks: the
    # discrete run completes, a continuum run is refused, and one byte less
    # refuses the discrete run
    f = random_instance(6, 4.3, 3, np.random.default_rng(6))
    cs = ClauseSet(f)
    tables = np.dtype(np.intp).itemsize * (2 * cs.m + 1) * cs.dim
    local = tables + 8 * encoding._PEAK_DENSITIES * cs.dim**2
    assert local < 8 * cs.m * cs.dim**2
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": local}
    monkeypatch.setattr(encoding.os, "sysconf", memory.__getitem__)
    out = run_full(f, cfg_with(t_f=5.0))
    assert not out.failed and abs(np.trace(out.final_state) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="physical memory"):
        run_average(f, cfg_with(t_f=1.0, dt=0.02))
    memory["SC_PHYS_PAGES"] = local - 1
    with pytest.raises(ValueError, match="index tables and density matrices"):
        run_average(f, cfg_with(t_f=5.0))


# ---------------------------------------------------------------- readout


def test_readout_exact_on_basis_states():
    # basis index 2 = |10> encodes (true, false)
    rho = np.zeros((4, 4))
    rho[2, 2] = 1.0
    r, candidate = readout(rho, tau=1.0, dt_m=1e9, rng=np.random.default_rng(0))
    assert candidate == (True, False)
    assert r[0] > 0 > r[1]


def test_readout_candidate_prints_its_basis_index():
    # a printed candidate is the basis index it was read from, qubit 1 first
    rng = np.random.default_rng(4)
    for b in range(8):
        psi = np.zeros(8)
        psi[b] = 1.0
        _, candidate = readout(psi, tau=1.0, dt_m=1e12, rng=rng)
        assert to_bitstring(candidate) == format(b, "03b")


def test_readout_error_rate_matches_erf_model():
    rho = np.zeros((2, 2))
    rho[1, 1] = 1.0  # single qubit pinned at |1> (true)
    tau, dt_m = 1.0, 2.0
    rng = np.random.default_rng(5)
    flips = 0
    trials = 20000
    for _ in range(trials):
        _, candidate = readout(rho, tau, dt_m, rng)
        flips += not candidate[0]
    p_flip = 0.5 * (1.0 - math.erf(math.sqrt(dt_m / (2.0 * tau))))
    sigma = math.sqrt(p_flip * (1 - p_flip) / trials)
    assert abs(flips / trials - p_flip) < 4 * sigma


def test_readout_zero_duration_is_pure_noise():
    rho = np.zeros((2, 2))
    rho[1, 1] = 1.0
    rng = np.random.default_rng(8)
    rs = np.array([readout(rho, 1.0, 0.0, rng)[0][0] for _ in range(5000)])
    assert abs(rs.mean()) < 0.05
    assert abs(rs.std() - 1.0) < 0.05


# ---------------------------------------------------------------- success


def test_success_probability_limits():
    rho = np.zeros((4, 4))
    rho[2, 2] = 1.0  # exactly on the unique solution
    assert success_probability(rho, TWO_SAT_UNIQUE, 1.0, 1e12) == pytest.approx(1.0)
    assert success_probability(rho, TWO_SAT_UNIQUE, 1.0, 0.0) == pytest.approx(0.25)
    assert success_probability(plus_density(2), TWO_SAT_UNSAT, 1.0, 50.0) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_success_probability_over_every_assignment_is_one(n):
    # the events sign(r) = s are disjoint, so over all 2^n assignments they
    # cover every readout and sum to 1, with no clip
    rng = np.random.default_rng(n)
    every = SolutionSet(tuple(itertools.product((False, True), repeat=n)))
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi /= np.linalg.norm(psi)
    a = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    f = formula(n, (1,))
    for state in (psi, rho):
        for dt_m in (0.0, 0.3, 5.0):
            assert abs(success_probability(state, f, 1.0, dt_m, every) - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_success_probability_matches_the_sum_over_solutions(n):
    # one pass per qubit over the basis probabilities in place of a pass
    # over all 2^n bit rows per solution; rho is checked to n = 10 (8 MiB)
    rng = np.random.default_rng(n)
    f = random_instance(n, 2.0, min(n, 3), rng)
    sols = enumerate_solutions(f)
    assert sols.count > 0
    psi = rng.standard_normal(2**n)
    psi /= np.linalg.norm(psi)
    states = [psi]
    if n <= 10:
        a = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
        states.append(a @ a.conj().T / np.vdot(a, a).real)
    for state in states:
        for dt_m in (0.0, 0.3, 5.0):
            exact = success_probability_by_solution(state, n, 1.0, dt_m, sols)
            assert abs(success_probability(state, f, 1.0, dt_m, sols) - exact) < 1e-15


def test_success_probability_product_state_closed_form():
    # a diagonal product state with uniform bias z toward the unique solution
    # factorizes into the closed-form per-qubit expression

    z, tau, dt_m = 0.6, 1.0, 3.0
    up = np.diag([(1 - z) / 2, (1 + z) / 2])  # biased toward |1> (true)
    down = np.diag([(1 + z) / 2, (1 - z) / 2])  # biased toward |0> (false)
    rho = kron_all([up, down])  # aligned with solution (true, false)
    got = success_probability(rho, TWO_SAT_UNIQUE, tau, dt_m)
    assert got == pytest.approx(unique_bias_success(z, dt_m, tau, 2), abs=1e-12)


def test_success_probability_matches_monte_carlo_multi_solution():
    cfg = cfg_with(t_f=40.0, dt=0.02, dt_m=0.5)
    rho = run_average(TWO_SAT_TWO_SOLUTIONS, cfg).final_rho
    sols = enumerate_solutions(TWO_SAT_TWO_SOLUTIONS)
    exact = success_probability(rho, TWO_SAT_TWO_SOLUTIONS, cfg.tau, cfg.dt_m, sols)
    rng = np.random.default_rng(12)
    trials = 20000
    hits = 0
    for _ in range(trials):
        _, candidate = readout(rho, cfg.tau, cfg.dt_m, rng)
        hits += evaluate(TWO_SAT_TWO_SOLUTIONS, candidate)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(hits / trials - exact) < 4 * sigma


# ---------------------------------------------------------------- heralded


def test_heralded_single_completes_on_satisfiable_problem():
    cfg = cfg_with(t_f=60.0, dt=0.02)
    out = run_heralded_single(TWO_SAT_UNIQUE, cfg, np.random.default_rng(3))
    assert not out.failed
    assert out.consumed_time == pytest.approx(60.0)
    assert out.final_rho is not None


def test_heralded_single_flags_unsatisfiable_problem():
    cfg = cfg_with(t_f=60.0, dt=0.02)
    hits = 0
    for seed in range(6):
        out = run_heralded_single(TWO_SAT_UNSAT, cfg, np.random.default_rng(seed))
        if out.failed:
            hits += 1
            assert out.failed_at == pytest.approx(out.consumed_time)
            assert out.failed_clause in range(TWO_SAT_UNSAT.num_clauses)
            assert out.final_rho is None
    assert hits >= 4


def test_heralded_single_detection_can_be_disabled():
    cfg = cfg_with(t_f=30.0, dt=0.02)
    out = run_heralded_single(
        TWO_SAT_UNSAT, cfg, np.random.default_rng(0), detect=False
    )
    assert not out.failed
    assert out.consumed_time == pytest.approx(30.0)


@pytest.mark.parametrize("case", ["n6", "n1-k1", "whole-register", "out-of-order"])
def test_pure_engine_matches_dense_kraus_path(case):
    # a discrete heralded run holds psi; the dense-rho Kraus path, given the
    # same generator, draws the same readouts and ends in the same state
    if case == "n6":
        f = random_instance(6, 4.3, 3, np.random.default_rng(6))
    else:
        f = CLAUSE_LAYOUTS[case]
    cfg = cfg_with(t_f=10.0, mode="heralded-single", record_every=1)
    out = run_heralded_single(f, cfg, np.random.default_rng(5), detect=False)
    rho, readouts = dense_heralded_run(f, cfg, np.random.default_rng(5))
    assert out.final_state.shape == (1 << f.num_vars,)
    assert np.array_equal(out.diagnostics["r"], readouts)
    assert np.max(np.abs(out.final_rho - rho)) < 1e-13
    assert np.all(out.diagnostics["purity"] == 1.0)
    # readout statistics are read from |psi|^2 as from diag(rho)
    assert success_probability(out.final_state, f, 1.0, 2.0) == pytest.approx(
        success_probability(rho, f, 1.0, 2.0), abs=1e-14)


@pytest.mark.parametrize("case", ["n6", "n1-k1", "whole-register", "out-of-order"])
def test_pure_engine_matches_dense_kraus_path_in_the_projective_limit(case):
    # at dt/tau = 10^3 the smaller Kraus amplitude underflows to 0 and the
    # ratio of the two is e^(-+1000): every measurement is projective, and psi
    # must stay finite and follow the dense-rho path draw for draw
    if case == "n6":
        f = random_instance(6, 4.3, 3, np.random.default_rng(6))
    else:
        f = CLAUSE_LAYOUTS[case]
    cfg = cfg_with(t_f=10.0, dt=1.0, tau=1e-3, mode="heralded-single", record_every=1)
    out = run_heralded_single(f, cfg, np.random.default_rng(5), detect=False)
    rho, readouts = dense_heralded_run(f, cfg, np.random.default_rng(5))
    assert np.all(np.isfinite(out.final_state))
    assert np.array_equal(out.diagnostics["r"], readouts)
    assert np.max(np.abs(out.final_rho - rho)) < 1e-13


@pytest.mark.parametrize("case", ["n6", *sorted(CLAUSE_LAYOUTS)])
def test_pure_engine_matches_dense_kraus_path_at_intermediate_strength(case):
    # at dt/tau = 400 the smaller Kraus amplitude is e^(-|x|) with |x| near
    # 400: it does not underflow, but its square and the inverse square of a
    # normalization carried as a+/|M_r psi| would, so psi must stay finite
    # and follow the dense-rho path draw for draw. Ten steps, the theta
    # increments of the projective-limit case, give the n6 run violating
    # readouts (r < 0) ahead of further clauses in the same step at
    # generator seed 6.
    if case == "n6":
        f = random_instance(6, 4.3, 3, np.random.default_rng(6))
    else:
        f = CLAUSE_LAYOUTS[case]
    cfg = cfg_with(t_f=4.0, dt=0.4, tau=1e-3, mode="heralded-single", record_every=1)
    out = run_heralded_single(f, cfg, np.random.default_rng(6), detect=False)
    rho, readouts = dense_heralded_run(f, cfg, np.random.default_rng(6))
    x = cfg.dt * np.abs(readouts) / math.sqrt(cfg.tau)
    assert 300.0 < x.min() and x.max() < 700.0
    if case == "n6":
        assert np.any(readouts[:, :-1] < 0.0)
    assert np.all(np.isfinite(out.final_state))
    assert np.array_equal(out.diagnostics["r"], readouts)
    assert np.max(np.abs(out.final_rho - rho)) < 1e-13


@pytest.mark.parametrize("case", ["unique2", "n5"])
def test_continuum_heralded_runs_stay_physical(case):
    # a continuum trajectory holds psi from |+>^n: every final state is a unit
    # vector, a valid density matrix, and pure at every recorded step
    if case == "unique2":
        f = TWO_SAT_UNIQUE
    else:
        f = random_instance(5, 4.3, 3, np.random.default_rng(5))
    cfg = cfg_with(t_f=20.0, dt=0.01, mode="heralded-single", record_every=100)
    for seed in range(20):
        out = run_heralded_single(f, cfg, np.random.default_rng(seed), detect=False)
        assert out.final_state.shape == (1 << f.num_vars,)
        assert abs(np.linalg.norm(out.final_state) - 1.0) < 1e-12
        validate_density(out.final_rho)
        assert np.all(out.diagnostics["purity"] == 1.0)


def test_pure_run_beyond_dense_memory_completes():
    # n = 12, m = 52: the dense stacks would need 26 GiB, the pure run a few MiB
    f = random_instance(12, 4.3, 3, np.random.default_rng(12))
    cfg = RunConfig(t_f=1.0, dt=0.25, dt_m=2.0, mode="heralded-single")
    out = run_full(f, cfg, np.random.default_rng(0))
    assert not out.failed
    assert out.final_state.shape == (4096,)
    assert abs(np.linalg.norm(out.final_state) - 1.0) < 1e-12
    assert out.consumed_time == pytest.approx(3.0)
    assert len(out.candidate) == 12


def test_heralded_restart_solves_within_budget():
    cfg = cfg_with(t_f=80.0, dt=0.02, mode="heralded-restart")
    out = run_full(TWO_SAT_UNIQUE, cfg, np.random.default_rng(1))
    assert out.verified
    assert out.candidate == (True, False)
    assert out.mode == "heralded-restart"
    assert out.consumed_time <= cfg.t_f + 5.0 * cfg.tau + cfg.dt + cfg.dt_m


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(min_value=12.0, max_value=60.0))
def test_heralded_restart_respects_time_budget(seed, t_f):
    cfg = RunConfig(t_f=t_f, dt=0.25, dt_m=0.0, mode="heralded-restart")
    out = run_heralded_restart(TWO_SAT_UNSAT, cfg, np.random.default_rng(seed))
    assert out.num_attempts >= 1
    # total modeled time: budget plus at most one final sub-minimum run
    # and one step of rounding slack per attempt
    assert out.consumed_time <= t_f + 5.0 * cfg.tau + cfg.dt * out.num_attempts


@pytest.mark.parametrize(
    "dt, t_f", [(0.25, 30.0), (0.01, 20.0)], ids=["discrete", "continuum"]
)
def test_restart_builds_one_clause_set_per_run(dt, t_f, monkeypatch):
    # every attempt reuses the run's ClauseSet, so its index tables, frame
    # permutations and position table are built once a run
    built = []
    init = ClauseSet.__init__
    monkeypatch.setattr(
        ClauseSet, "__init__", lambda cs, f: (built.append(f), init(cs, f))[1]
    )
    cfg = RunConfig(t_f=t_f, dt=dt, dt_m=2.0, mode="heralded-restart", seed=1)
    out = run_full(TWO_SAT_UNSAT, cfg)
    assert out.num_attempts == 3 and built == [TWO_SAT_UNSAT]


def test_restart_compresses_schedule_into_remaining_budget():
    # the final attempt still sweeps theta to pi/2 even with a reduced horizon
    cfg = cfg_with(t_f=12.0, dt=0.25, mode="heralded-restart", record_every=1)
    out = run_heralded_restart(TWO_SAT_UNIQUE, cfg, np.random.default_rng(2))
    if not out.failed:
        assert out.diagnostics["theta"][-1] == pytest.approx(math.pi / 2)


# ---------------------------------------------------------------- pipeline


def test_run_full_average_pipeline():
    cfg = cfg_with(t_f=200.0, dt=0.02, mode="average", dt_m=50.0)
    out = run_full(TWO_SAT_UNIQUE, cfg, np.random.default_rng(0))
    assert out.verified
    assert out.candidate_bits == "10"
    assert out.consumed_time == pytest.approx(200.0 + 50.0)
    d = out.to_dict()
    assert d["candidate"] == "10" and d["verified"] is True
    assert json.loads(json.dumps(d)) == d


def test_run_full_failed_run_is_not_verified():
    cfg = cfg_with(t_f=60.0, dt=0.02, mode="heralded-single")
    for seed in range(6):
        out = run_full(TWO_SAT_UNSAT, cfg, np.random.default_rng(seed))
        if out.failed:
            assert out.verified is False
            assert out.candidate is None
            return
    pytest.fail("no heralded failure observed across seeds")


def test_run_full_seeds_are_reproducible():
    cfg = cfg_with(t_f=30.0, dt=0.25, mode="heralded-restart", seed=17)
    a = run_full(TWO_SAT_UNIQUE, cfg)
    b = run_full(TWO_SAT_UNIQUE, cfg)
    assert a.to_dict() == b.to_dict()


def test_custom_schedule_is_used():
    table = ((0.0, 0.0), (0.2, math.pi / 2), (1.0, math.pi / 2))
    cfg = cfg_with(
        t_f=10.0, dt=0.5, schedule=Schedule(table=table),
        record_every=1,
    )
    out = run_average(TWO_SAT_UNIQUE, cfg)
    theta = out.diagnostics["theta"]
    assert theta[-1] == pytest.approx(math.pi / 2)
    assert theta[5] == pytest.approx(math.pi / 2)  # plateau reached at u = 0.25


# ---------------------------------------------------------------- seed for seed

# Values of run_full(formula, RunConfig(t_f, dt, dt_m=2.0, mode, seed)): the
# candidate, failed, failed_at, failed_clause, num_attempts, consumed_time,
# final purity and readout. They pin the order of every rng draw of the four
# kernels (sequential averaged maps, Lindblad, Kraus, stochastic master
# equation), of the restart bookkeeping and of the terminal readout.
SEED_FOR_SEED = {
    ("average", 0.01, TWO_SAT_UNIQUE, 10.0, 3): (
        (False, False), False, None, None, 1, 12.0, 0.3554771967735206,
        [-2.8071280740835878, -0.7043594702739269],
    ),
    ("average", 0.25, TWO_SAT_UNIQUE, 20.0, 3): (
        (False, False), False, None, None, 1, 22.0, 0.37552697523075673,
        [-2.8071280740835878, -0.7043594702739269],
    ),
    ("heralded-restart", 0.01, TWO_SAT_UNIQUE, 10.0, 0): (
        (False, True), False, None, None, 2, 12.0, 1.0,
        [-1.1947141851137637, 0.123108982658095],
    ),
    ("heralded-restart", 0.25, TWO_SAT_UNIQUE, 20.0, 0): (
        (True, False), False, None, None, 2, 22.0, 1.0,
        [1.1136625071407267, -0.009422393098767246],
    ),
    ("heralded-single", 0.01, TWO_SAT_UNSAT, 20.0, 0): (
        None, True, 18.75, 3, 1, 18.75, None, None,
    ),
    ("heralded-single", 0.25, TWO_SAT_UNSAT, 20.0, 0): (
        None, True, 15.25, 2, 1, 15.25, None, None,
    ),
    # three attempts, the last one with detection off
    ("heralded-restart", 0.01, TWO_SAT_UNSAT, 20.0, 1): (
        (True, False), False, None, None, 3, 22.000000000000004, 1.0,
        [0.04945070078321123, -0.319056297829738],
    ),
    ("heralded-restart", 0.25, TWO_SAT_UNSAT, 30.0, 1): (
        (True, True), False, None, None, 3, 32.0, 1.0,
        [1.2365951984086938, 0.6529004993059515],
    ),
}


@pytest.mark.parametrize(
    "case",
    list(SEED_FOR_SEED),
    ids=[f"{m}-dt{dt}-{'unsat2' if f is TWO_SAT_UNSAT else 'unique2'}"
         for m, dt, f, _, _ in SEED_FOR_SEED],
)
def test_outcomes_are_fixed_seed_for_seed(case):
    mode, dt, f, t_f, seed = case
    out = run_full(f, RunConfig(t_f=t_f, dt=dt, dt_m=2.0, mode=mode, seed=seed))
    *exact, pur, r = SEED_FOR_SEED[case]
    assert [
        out.candidate, out.failed, out.failed_at, out.failed_clause,
        out.num_attempts, out.consumed_time,
    ] == exact
    if pur is None:
        assert out.final_rho is None and out.readout_r is None
    else:
        assert purity(out.final_rho) == pytest.approx(pur, abs=1e-12)
        assert out.readout_r == pytest.approx(r, abs=1e-12)
