"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured values (run with -s or see captured
output on failure). Tolerances are stated inline and are not tuned to the
implementation.
"""

import math

import numpy as np
import pytest

from oracles import (
    FILTER_VARIANCE_COEFF,
    fidelity_pure,
    kron_all,
    solution_state,
    trace_distance,
    unique_bias_success,
)
from zenosat.dynamics import lindblad_step, sme_step
from zenosat.encoding import ClauseSet
from zenosat.herald import FilterConfig, FilterState
from zenosat.metrics import (
    fit_lambda,
    n_star,
    phase_transition_curve,
    tts_99,
)
from zenosat.qlinalg import (
    concurrence_2q,
    local_z,
    plus_density,
    plus_state,
    purity,
)
from zenosat.satcore import (
    CnfFormula,
    TWO_SAT_TWO_SOLUTIONS,
    TWO_SAT_UNIQUE,
    TWO_SAT_UNSAT,
    enumerate_solutions,
    evaluate,
    random_instance,
    random_unique_solution_instance,
)
from zenosat.solver import (
    RunConfig,
    readout,
    run_average,
    run_heralded_restart,
    success_probability,
)

TAU = 1.0
SOLUTION = solution_state(TWO_SAT_UNIQUE, (True, False), math.pi / 2)


def report(label: str, ok: bool, detail: str) -> bool:
    print(f"[{label}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def final_state(f, t_f, dt=0.02):
    return run_average(f, RunConfig(t_f=t_f, dt=dt, dt_m=0.0, tau=TAU)).final_rho


# -------------------------------------------------------------- criterion 1


def test_acceptance_01_adiabatic_convergence_unique_solution():
    # measurement rate 1/(4 tau); rate * T_f = 1e4 -> T_f = 4e4 tau
    rho = final_state(TWO_SAT_UNIQUE, t_f=4.0e4)
    fid = fidelity_pure(rho, SOLUTION)
    pur = purity(rho)
    conc = concurrence_2q(rho)
    ok = fid >= 0.99 and pur >= 0.99 and conc <= 0.05
    assert report(
        "acceptance 01 adiabatic convergence",
        ok,
        f"fidelity={fid:.5f} (>=0.99), purity={pur:.5f} (>=0.99), "
        f"concurrence={conc:.2e} (<=0.05)",
    )


# -------------------------------------------------------------- criterion 2


def test_acceptance_02_weaker_steps_win_at_fixed_total_time():
    fids = []
    for dt in (0.01, 0.1, 1.0, 5.0):
        rho = final_state(TWO_SAT_UNIQUE, t_f=20.0, dt=dt)
        fids.append(fidelity_pure(rho, SOLUTION))
    decreasing = all(a > b for a, b in zip(fids, fids[1:]))
    # degenerate limit: a single step at the final angle from the uniform
    # state leaves the diagonal untouched -> fidelity exactly 1/4
    rho = final_state(TWO_SAT_UNIQUE, t_f=0.01, dt=0.01)
    degenerate = fidelity_pure(rho, SOLUTION)
    ok = decreasing and abs(degenerate - 0.25) <= 1e-6
    assert report(
        "acceptance 02 weak-measurement advantage",
        ok,
        f"fidelities={[f'{v:.5f}' for v in fids]} strictly decreasing: "
        f"{decreasing}; degenerate fidelity={degenerate:.8f} (0.25 +- 1e-6)",
    )


# -------------------------------------------------------------- criterion 3


def test_acceptance_03_two_solution_entangled_limit_and_unsat_limit():
    rho = final_state(TWO_SAT_TWO_SOLUTIONS, t_f=4.0e4)
    conc = concurrence_2q(rho)
    pur = purity(rho)
    z1, z2 = local_z(rho)
    ok_pair = conc >= 0.95 and pur >= 0.95 and abs(z1) <= 0.05 and abs(z2) <= 0.05

    rho_u = final_state(TWO_SAT_UNSAT, t_f=4.0e4)
    pur_u = purity(rho_u)
    conc_u = concurrence_2q(rho_u)
    ok_unsat = abs(pur_u - 0.25) <= 0.02 and conc_u <= 0.02
    ok = ok_pair and ok_unsat
    assert report(
        "acceptance 03 degenerate and unsatisfiable limits",
        ok,
        f"two-solution: concurrence={conc:.5f} (>=0.95), purity={pur:.5f} "
        f"(>=0.95), |z|=({abs(z1):.2e},{abs(z2):.2e}) (<=0.05); "
        f"unsat: purity={pur_u:.5f} (0.25+-0.02), concurrence={conc_u:.2e} (<=0.02)",
    )


# -------------------------------------------------------------- criterion 4


def test_acceptance_04_trajectory_ensemble_matches_deterministic_evolution():
    f = TWO_SAT_UNIQUE
    cs = ClauseSet(f)
    t_f, dt, trajectories = 20.0, 0.01, 1000
    steps = int(round(t_f / dt))
    stride = steps // 10
    rng = np.random.default_rng(7)
    batch = np.broadcast_to(plus_state(2), (trajectories, 4)).copy()
    det = plus_density(2)
    dists = []
    for step in range(1, steps + 1):
        theta = (math.pi / 2) * (step * dt / t_f)
        xs = cs.observables(theta)
        batch, _ = sme_step(batch, xs, TAU, dt, rng)
        det = lindblad_step(det, xs, TAU, dt)
        if step % stride == 0:
            dists.append(trace_distance(batch.T @ batch / trajectories, det))
    worst = max(dists)
    ok = len(dists) == 10 and worst < 0.03
    assert report(
        "acceptance 04 ensemble consistency",
        ok,
        f"max trace distance over 10 checkpoints = {worst:.4f} (< 0.03), "
        f"{trajectories} trajectories",
    )


# -------------------------------------------------------------- criterion 5


def test_acceptance_05_filter_variance_and_step_response():
    dt, t_be = 0.01, 0.5
    cfg = FilterConfig(t_be=t_be, r_th=-1.0, dt=dt)
    w = cfg.window
    rng = np.random.default_rng(0)
    total = 4 * w + 100_000
    noise = rng.normal(0.0, 1.0 / math.sqrt(dt), size=total)
    fs = FilterState(cfg, ())
    vals = np.array([fs.update(np.asarray(s)) for s in noise])
    var = float(np.var(vals[4 * w:]))
    target = FILTER_VARIANCE_COEFF / t_be
    ratio = var / target
    ok_var = abs(ratio - 1.0) <= 0.05

    s1 = -1.7
    step_in = np.concatenate([np.zeros(3 * w), np.full(w, s1)])
    fs2 = FilterState(cfg, ())
    out = np.array([fs2.update(np.asarray(s)) for s in step_in])
    settle = out[-1] / s1  # value one window after the step
    ok_step = abs(settle - 1.0) <= 0.02
    ok = ok_var and ok_step
    assert report(
        "acceptance 05 filter statistics",
        ok,
        f"variance ratio={ratio:.4f} (1 +- 0.05 over 1e5 samples), "
        f"step response={settle:.4f} of target one window after the step (1 +- 0.02)",
    )


# -------------------------------------------------------------- criterion 6


def test_acceptance_06_heralded_detection_latency():
    f = TWO_SAT_UNIQUE
    cs = ClauseSet(f)
    xs = cs.observables(math.pi / 2)  # hold the final operators fixed
    dt, t_be = 0.02, 20.0
    cfg = FilterConfig(t_be=t_be, r_th=-2.5 / math.sqrt(t_be), dt=dt)
    w = cfg.window
    trajectories = 500
    rng = np.random.default_rng(42)

    # healthy phase: every trajectory pinned at the solution state
    phi = solution_state(f, (True, False), math.pi / 2)
    batch = np.broadcast_to(phi, (trajectories, 4)).copy()
    fs = FilterState(cfg, (trajectories, cs.m))
    false_alarms = 0
    for _ in range(2 * w):
        batch, readouts = sme_step(batch, xs, TAU, dt, rng)
        fs.update(readouts)
        false_alarms += int(fs.below_threshold().any())

    # inject a failure of clause 0: jump into its violating subspace
    violating = np.zeros(4)
    violating[0] = 1.0  # |00>: both variables false
    batch = np.broadcast_to(violating, (trajectories, 4)).copy()
    latency = np.full(trajectories, np.inf)
    horizon = 2 * w  # 2 * T_be
    for step in range(1, horizon + 1):
        batch, readouts = sme_step(batch, xs, TAU, dt, rng)
        fs.update(readouts)
        hit = fs.below_threshold()[:, 0]
        latency = np.where(hit & np.isinf(latency), step * dt, latency)
    detected = float(np.mean(np.isfinite(latency)))
    median = float(np.median(latency[np.isfinite(latency)])) / t_be
    ok = false_alarms == 0 and detected >= 0.95
    assert report(
        "acceptance 06 detection latency",
        ok,
        f"detected within 2*T_be: {detected:.1%} of {trajectories} (>= 95%), "
        f"median latency {median:.2f} T_be, false alarms={false_alarms}",
    )


# -------------------------------------------------------------- criterion 7


def test_acceptance_07_readout_statistics():
    dt_m = 2.0
    rho = final_state(TWO_SAT_UNIQUE, t_f=20.0, dt=0.25)
    exact = success_probability(rho, TWO_SAT_UNIQUE, TAU, dt_m)
    rng = np.random.default_rng(3)
    trials = 100_000
    hits = 0
    for _ in range(trials):
        _, candidate = readout(rho, TAU, dt_m, rng)
        hits += evaluate(TWO_SAT_UNIQUE, candidate)
    mc = hits / trials
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    ok_mc = abs(mc - exact) <= 3.0 * sigma

    # closed-form special case: diagonal product state with uniform bias
    z = 0.8
    up = np.diag([(1 - z) / 2, (1 + z) / 2])
    down = np.diag([(1 + z) / 2, (1 - z) / 2])
    product = kron_all([up, down])
    lhs = success_probability(product, TWO_SAT_UNIQUE, TAU, dt_m)
    rhs = unique_bias_success(z, dt_m, TAU, 2)
    ok_erf = abs(lhs - rhs) <= 1e-12
    ok = ok_mc and ok_erf
    assert report(
        "acceptance 07 readout statistics",
        ok,
        f"monte carlo={mc:.5f} vs exact={exact:.5f} "
        f"(|diff|={abs(mc - exact):.2e} <= 3 sigma={3 * sigma:.2e}); "
        f"biased-product closed form |diff|={abs(lhs - rhs):.1e} (<=1e-12)",
    )


# -------------------------------------------------------------- criterion 8


@pytest.mark.long
def test_acceptance_08_phase_transition_dip():
    n, instances = 5, 200
    grids = {
        2: ([0.4, 0.8, 1.2, 1.6, 2.0], 1.0, 0.75),
        3: ([2.6, 3.4, 4.2, 5.0, 5.8], 4.26, 1.0),
    }
    tf_list = (10.0, 50.0)
    details = []
    ok = True
    for k, (alphas, alpha_c, window) in grids.items():
        curves = {}
        for mode in ("average", "heralded-restart"):
            for t_f in tf_list:
                cfg = RunConfig(
                    t_f=t_f, dt=0.25, dt_m=50.0, tau=TAU, mode=mode
                )
                curves[(mode, t_f)] = phase_transition_curve(
                    n, k, alphas, cfg, instances, seed=1000 + k
                )
        avg_long = curves[("average", max(tf_list))]
        her_long = curves[("heralded-restart", max(tf_list))]
        dip_idx = int(np.argmin(avg_long))
        dip_alpha = alphas[dip_idx]
        ok_dip = abs(dip_alpha - alpha_c) <= window
        pa, ph = avg_long[dip_idx], her_long[dip_idx]
        sigma = math.sqrt(
            pa * (1 - pa) / instances + ph * (1 - ph) / instances
        )
        ok_her = ph >= pa - 2.0 * sigma
        ok = ok and ok_dip and ok_her
        details.append(
            f"{k}-sat dip at alpha={dip_alpha} (target {alpha_c}+-{window}), "
            f"heralded {ph:.3f} vs average {pa:.3f} at the dip "
            f"(2 sigma={2 * sigma:.3f})"
        )
    assert report("acceptance 08 phase transition", ok, "; ".join(details))


# -------------------------------------------------------------- criterion 9


def _unique_instances(n, count, seed, alpha=2.0, k=2):
    rng = np.random.default_rng([seed, n])
    return [
        random_unique_solution_instance(n, alpha, k, rng) for _ in range(count)
    ]


def _mean_tts(ns, p_by_n, t_f):
    return [(n, tts_99(p_by_n[n], t_f)) for n in ns]


def test_acceptance_09_scaling_anchors():
    # (a) no evolution, projective readout: success probability is exactly
    # 2^-n for unique instances, so the run count doubles per variable
    points = []
    for n in range(4, 8):
        f = _unique_instances(n, 1, seed=90)[0]
        p = success_probability(plus_density(n), f, TAU, dt_m=1e12)
        assert abs(p - 2.0**-n) < 1e-12
        points.append((n, n_star(p) * 1.0))
    lam_a = fit_lambda(points).lam
    ok_a = abs(lam_a - 2.0) <= 0.1

    # (b) and (c): evolved runs at two total times, averaged and heralded
    ns = (4, 5, 6)
    per_n = {n: _unique_instances(n, 4, seed=91) for n in ns}
    lam = {}
    stderr = {}
    for t_f in (3.0, 100.0):
        cfg = RunConfig(t_f=t_f, dt=0.25, dt_m=50.0, tau=TAU, mode="average")
        p_by_n = {
            n: float(
                np.mean(
                    [
                        success_probability(
                            run_average(f, cfg).final_rho, f, TAU, cfg.dt_m
                        )
                        for f in per_n[n]
                    ]
                )
            )
            for n in ns
        }
        fit = fit_lambda(_mean_tts(ns, p_by_n, t_f))
        lam[("average", t_f)] = fit.lam
        stderr[("average", t_f)] = fit.stderr
    ok_b = lam[("average", 100.0)] < lam[("average", 3.0)]

    cfg = RunConfig(
        t_f=100.0, dt=0.25, dt_m=50.0, tau=TAU, mode="heralded-restart"
    )
    rng = np.random.default_rng(92)
    p_by_n = {}
    for n in ns:
        vals = []
        for f in per_n[n]:
            for _ in range(10):
                out = run_heralded_restart(f, cfg, rng)
                vals.append(
                    success_probability(out.final_rho, f, TAU, cfg.dt_m)
                )
        p_by_n[n] = float(np.mean(vals))
    fit_h = fit_lambda(_mean_tts(ns, p_by_n, 100.0))
    tol = fit_h.stderr + stderr[("average", 100.0)]
    ok_c = fit_h.lam <= lam[("average", 100.0)] + tol

    ok = ok_a and ok_b and ok_c
    assert report(
        "acceptance 09 scaling anchors",
        ok,
        f"(a) projective-limit lambda={lam_a:.3f} (2.0 +- 0.1); "
        f"(b) lambda(T_f=100)={lam[('average', 100.0)]:.3f} < "
        f"lambda(T_f=3)={lam[('average', 3.0)]:.3f}: {ok_b}; "
        f"(c) heralded lambda={fit_h.lam:.3f} <= averaged + fit error "
        f"({lam[('average', 100.0)]:.3f} + {tol:.3f}): {ok_c}",
    )


# -------------------------------------------------------------- criterion 10


def test_acceptance_10_property_suite():
    rng = np.random.default_rng(17)
    checks = []

    # measurement operators resolve the identity (quadrature to 1e-6)
    rs = np.linspace(-60.0, 60.0, 400001)
    worst = 0.0
    for tau, dt in [(1.0, 0.5), (1.0, 0.05), (2.0, 0.2)]:
        a2 = np.exp(-dt / 2.0 * (rs - 1.0 / math.sqrt(tau)) ** 2)
        total = np.trapezoid(math.sqrt(dt / (2 * math.pi)) * a2, rs)
        worst = max(worst, abs(total - 1.0))
    checks.append(("completeness", worst, 1e-6))

    # observables square to the identity (1e-9)
    worst = 0.0
    for _ in range(6):
        f = random_instance(5, 2.0, 3, rng)
        xs = ClauseSet(f).observables(float(rng.uniform(0, math.pi / 2)))
        eye = np.eye(32)
        worst = max(worst, float(np.max(np.abs(xs @ xs - eye))))
    checks.append(("observable involution", worst, 1e-9))

    # trace and Hermiticity preserved along every kernel (1e-9 / 1e-10)
    xs = ClauseSet(TWO_SAT_UNIQUE).observables(0.7)
    psi = plus_state(2)
    worst_tr, worst_h = 0.0, 0.0
    for _ in range(200):
        psi, _ = sme_step(psi, xs, TAU, 0.01, rng)
        rho = np.outer(psi, psi)
        worst_tr = max(worst_tr, abs(float(np.trace(rho)) - 1.0))
        worst_h = max(worst_h, float(np.max(np.abs(rho - rho.T))))
    rho = plus_density(2)
    for _ in range(200):
        rho = lindblad_step(rho, xs, TAU, 0.01)
        worst_tr = max(worst_tr, abs(float(np.trace(rho)) - 1.0))
        worst_h = max(worst_h, float(np.max(np.abs(rho - rho.T))))
    checks.append(("trace preservation", worst_tr, 1e-9))
    checks.append(("hermiticity preservation", worst_h, 1e-10))

    # solution states are simultaneous +1 eigenstates (1e-10)
    worst = 0.0
    for _ in range(10):
        f = random_instance(4, 1.5, 2, rng)
        sols = enumerate_solutions(f)
        theta = float(rng.uniform(0, math.pi / 2))
        xs_f = ClauseSet(f).observables(theta)
        for s in sols.assignments:
            phi = solution_state(f, s, theta)
            worst = max(worst, float(np.max(np.abs(xs_f @ phi - phi))))
    checks.append(("solution eigencheck", worst, 1e-10))

    # clause order does not matter in the continuum (< 1e-3)
    cfg = RunConfig(t_f=20.0, dt=0.02, dt_m=0.0, tau=TAU)
    a = run_average(TWO_SAT_UNIQUE, cfg).final_rho
    b = run_average(CnfFormula(2, TWO_SAT_UNIQUE.clauses[::-1]), cfg).final_rho
    checks.append(("clause-order independence", trace_distance(a, b), 1e-3))

    # brute-force enumeration agrees with direct evaluation up to n = 10
    mismatches = 0
    for n, k, alpha in [(6, 3, 3.0), (8, 3, 2.0), (10, 3, 4.0)]:
        f = random_instance(n, alpha, k, rng)
        sols = set(enumerate_solutions(f).assignments)
        for idx in range(1 << n):
            a_ = tuple(bool((idx >> (n - j)) & 1) for j in range(1, n + 1))
            if evaluate(f, a_) != (a_ in sols):
                mismatches += 1
    checks.append(("oracle equivalence", float(mismatches), 0.5))

    ok = all(value <= tol for _, value, tol in checks)
    detail = ", ".join(f"{name}={value:.2e} (<= {tol:g})" for name, value, tol in checks)
    assert report("acceptance 10 property suite", ok, detail)
