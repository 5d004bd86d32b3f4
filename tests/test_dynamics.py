"""State-evolution kernels: sampled generalized measurement, the averaged
map, the deterministic ensemble step, and the stochastic trajectory step.
"""

import copy
import math
import warnings

import numpy as np
import pytest

from oracles import (
    CLAUSE_LAYOUTS,
    average_map_dense,
    clause_observable,
    kraus_measure_gathered,
    lindblad_step_heun,
    lindblad_step_stacked,
    trace_distance,
)
from zenosat import dynamics
from zenosat.dynamics import average_map, kraus_measure, lindblad_step, sme_step
from zenosat.encoding import ClauseSet, frame_permutations
from zenosat.qlinalg import plus_density, plus_state, validate_density
from zenosat.satcore import (
    TWO_SAT_TWO_SOLUTIONS,
    TWO_SAT_UNIQUE,
    TWO_SAT_UNSAT,
    random_instance,
)

CLAUSES = ClauseSet(TWO_SAT_UNIQUE)
X_OBS = CLAUSES.observables(0.8)  # (3, 4, 4) stack
V_OBS = CLAUSES.violating_vectors(0.8)  # (3, 4): the same clauses, pure form
U_OBS = CLAUSES.literal_states(0.8)  # (3, 2, 2): their literal states


def average(rho, i, tau, dt):
    """average_map of clause i alone on a copy of rho, through its index table."""
    index = CLAUSES.index[i:i + 1]
    return average_map(rho.copy(), U_OBS[i:i + 1], tau, dt, index,
                       tuple(frame_permutations(index)))


def measure(psi, i, tau, dt, rng):
    """kraus_measure of clause i alone on a copy of psi, through its frames."""
    frames = tuple(frame_permutations(CLAUSES.index[i:i + 1]))
    out, r = kraus_measure(psi.copy(), V_OBS[i:i + 1], tau, dt, rng, frames)
    return out, r[0]


def random_state(dim, seed):
    psi = np.random.default_rng(seed).normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    rho = a @ a.T
    return rho / np.trace(rho)


KERNEL_CALLS = {
    "kraus_measure": lambda tau, dt: measure(
        plus_state(2), 0, tau, dt, np.random.default_rng(0)
    ),
    "average_map": lambda tau, dt: average(plus_density(2), 0, tau, dt),
    "lindblad_step": lambda tau, dt: lindblad_step(plus_density(2), X_OBS, tau, dt),
    "sme_step": lambda tau, dt: sme_step(
        plus_state(2), X_OBS, tau, dt, np.random.default_rng(0)
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_CALLS))
def test_kernels_refuse_nonpositive_tau_and_dt(kernel):
    call = KERNEL_CALLS[kernel]
    with pytest.raises(ValueError, match="tau"):
        call(0.0, 0.1)
    with pytest.raises(ValueError, match="dt"):
        call(1.0, -0.1)
    call(1.0, 0.01)


# ---------------------------------------------------------------- kraus


def test_kraus_preserves_density_invariants():
    rng = np.random.default_rng(0)
    psi = plus_state(2)
    for _ in range(50):
        psi, r = measure(psi, 0, 1.0, 0.3, rng)
        validate_density(np.outer(psi, psi))
        assert np.isfinite(r)


def test_kraus_fixes_eigenstates_and_readout_moments():
    dt = 0.5
    x = X_OBS[1]
    vals, vecs = np.linalg.eigh(x)
    plus_vec = vecs[:, np.argmax(vals)]
    rho_plus = np.outer(plus_vec, plus_vec)
    rng = np.random.default_rng(1)
    rs = []
    for _ in range(4000):
        out, r = measure(plus_vec, 1, 1.0, dt, rng)
        assert trace_distance(np.outer(out, out), rho_plus) < 1e-12
        rs.append(r)
    rs = np.asarray(rs)
    # mean +1/sqrt(tau), variance 1/dt (sampling error ~ 3 sigma)
    assert abs(rs.mean() - 1.0) < 3.0 / math.sqrt(dt * len(rs))
    assert abs(rs.var() - 1.0 / dt) < 0.15 / dt


KRAUS_CASES = {
    **{f"n{n}": random_instance(n, 4.3, 3, np.random.default_rng(n)) for n in (4, 6, 10)},
    **CLAUSE_LAYOUTS,
}


@pytest.mark.parametrize("case", sorted(KRAUS_CASES))
def test_kraus_measure_matches_the_gathering_reference(case):
    # one permutation per clause between clause frames and one normalization
    # per step give the readouts of a gather and scatter per clause, and psi
    # to rounding, over 400 steps of a sweep from theta = 0 to pi/2
    cs = ClauseSet(KRAUS_CASES[case])
    psi, ref = plus_state(cs.n), plus_state(cs.n)
    rng, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
    for step in range(1, 401):
        vs = cs.violating_vectors(step * math.pi / 800)
        draws = copy.deepcopy(rng)
        psi, r = kraus_measure(psi, vs, 1.0, 0.25, rng, cs.frames)
        ref, r_ref = kraus_measure_gathered(ref, vs, 1.0, 0.25, rng_ref, cs.index)
        assert np.array_equal(r, r_ref), step
        assert np.max(np.abs(psi - ref)) < 1e-14, step
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12, step
        # the step's draws: m uniforms, then m normals z; r = z/sqrt(dt) +- 1/sqrt(tau)
        draws.random(cs.m)
        spread = draws.standard_normal(cs.m) * (1.0 / math.sqrt(0.25))
        assert np.all((r == spread + 1.0) | (r == spread - 1.0)), step
        assert rng.bit_generator.state == draws.bit_generator.state, step  # same next draw


def test_measurement_operators_resolve_identity():
    # integral over readouts of the two squared amplitude profiles, each
    # weighted by sqrt(dt/2pi), must give a resolution of identity
    for tau, dt in [(1.0, 0.5), (2.0, 0.05)]:
        rs = np.linspace(-60.0, 60.0, 400001)
        w = math.sqrt(dt / (2.0 * math.pi))
        a2 = np.exp(-dt / 2.0 * (rs - 1.0 / math.sqrt(tau)) ** 2)
        total = np.trapezoid(w * a2, rs)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_monte_carlo_mean_matches_average_map():
    rho0 = plus_density(2)
    rng = np.random.default_rng(7)
    acc = np.zeros_like(rho0)
    trials = 6000
    for _ in range(trials):
        out, _ = measure(plus_state(2), 0, 1.0, 0.4, rng)
        acc += np.outer(out, out)
    acc /= trials
    expected = average(rho0, 0, 1.0, 0.4)
    assert trace_distance(acc, expected) < 0.02


class QuadratureDraws:
    """A stand-in for kraus_measure's generator: random(size) returns the
    branch for every clause (0 picks the + readout mean, 1 the - one) and
    standard_normal(size) one Gauss-Hermite node x as every clause's z. This
    ties the test to the two draws kraus_measure makes per step,
    random(m) and then standard_normal(m)."""

    def __init__(self, branch, node):
        self.branch, self.node = branch, node

    def random(self, size):
        return np.full(size, self.branch)

    def standard_normal(self, size):
        return np.full(size, self.node)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_kraus_step_averaged_over_its_readout_is_the_average_map(n):
    # with no sampling: the readout of one clause step is the + branch with
    # weight 1 - p or the - branch with weight p, p = |v^T psi|^2, then a
    # Gaussian, integrated by the 80-node probabilists' Gauss-Hermite rule;
    # the weighted psi' psi'^T is one average_map step of psi psi^T, for the
    # first four clauses of a random 3-SAT instance
    cs = ClauseSet(random_instance(n, 4.3, 3, np.random.default_rng(n)))
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / weights.sum()
    psi = random_state(cs.dim, n)
    for theta in (0.3, 1.2):
        us, vs = cs.literal_states(theta), cs.violating_vectors(theta)
        for i in range(4):
            index = cs.index[i:i + 1]
            frames = tuple(frame_permutations(index))
            amp = vs[i] @ psi[index[0]]
            p = float(amp @ amp)
            for dt in (0.02, 0.25, 1.0):
                mean = np.zeros((cs.dim, cs.dim))
                for branch, weight in ((0.0, 1.0 - p), (1.0, p)):
                    for x, w in zip(nodes, weights):
                        out, _ = kraus_measure(psi.copy(), vs[i:i + 1], 1.0, dt,
                                               QuadratureDraws(branch, x), frames)
                        mean += (weight * w) * np.outer(out, out)
                ref = average_map(np.outer(psi, psi), us[i:i + 1], 1.0, dt, index, frames)
                assert np.max(np.abs(mean - ref)) < 1e-10, (theta, i, dt)


def test_average_map_form_and_fixed_points():
    tau, dt = 2.0, 0.7
    x = X_OBS[2]
    rho = random_density(4, 3)
    out = average(rho, 2, tau, dt)
    beta = math.exp(-dt / (2.0 * tau))
    assert np.allclose(out, 0.5 * (1 + beta) * rho + 0.5 * (1 - beta) * (x @ rho @ x))
    validate_density(out)
    # eigenprojectors of x are invariant
    vals, vecs = np.linalg.eigh(x)
    v = vecs[:, 0]
    p = np.outer(v, v)
    assert np.allclose(average(p, 2, tau, dt), p)


@pytest.mark.parametrize("case", sorted(CLAUSE_LAYOUTS))
def test_average_map_matches_dense_map_on_complex_rho(case):
    # the clause-local map equals ((1+beta)/2) rho + ((1-beta)/2) X rho X on a
    # Hermitian rho with complex coherences, and keeps it a density matrix
    cs = ClauseSet(CLAUSE_LAYOUTS[case])
    rng = np.random.default_rng(4)
    a = rng.normal(size=(cs.dim, cs.dim)) + 1j * rng.normal(size=(cs.dim, cs.dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    for theta in (0.0, 0.6, math.pi / 2):
        for u, idx, x in zip(cs.literal_states(theta), cs.index,
                             cs.observables(theta)):
            out = average_map(rho.copy(), u[None], 1.5, 0.4, idx[None],
                              tuple(frame_permutations(idx[None])))
            assert np.max(np.abs(out - average_map_dense(rho, x, 1.5, 0.4))) < 1e-15
            validate_density(out)


def relative_gap(out, ref):
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", [8, 9, 10])
def test_average_map_frame_body_matches_row_gather_and_dense(n, monkeypatch):
    # from _FRAME_QUBITS qubits up, average_map holds rho as S + S^dag with
    # S's rows in clause frames; it agrees with the row-gather body (forced by
    # raising the crossover) over all m clauses, and with the dense map for
    # one clause, on real and complex Hermitian rho (the map is linear, so
    # they need not be positive); at theta = pi/2 every literal state has a
    # zero entry
    assert n >= dynamics._FRAME_QUBITS
    f = random_instance(n, 4.3, 3, np.random.default_rng(n))
    cs = ClauseSet(f)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(cs.dim, cs.dim))
    b = a + 1j * rng.normal(size=(cs.dim, cs.dim))
    states = [a + a.T, b + b.conj().T]
    one = cs.index[:1], tuple(frame_permutations(cs.index[:1]))
    for theta in (0.0, 0.6, math.pi / 2):
        us = cs.literal_states(theta)
        x = clause_observable(f, 0).observable(theta)
        for rho in states:
            framed = average_map(rho.copy(), us, 1.5, 0.4, cs.index, cs.frames)
            single = average_map(rho.copy(), us[:1], 1.5, 0.4, *one)
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_FRAME_QUBITS", n + 1)
                rows = average_map(rho.copy(), us, 1.5, 0.4, cs.index, cs.frames)
                single_rows = average_map(rho.copy(), us[:1], 1.5, 0.4, *one)
            assert relative_gap(framed, rows) < 1e-14
            assert relative_gap(single, single_rows) < 1e-14
            dense = average_map_dense(rho.real, x, 1.5, 0.4)
            if np.iscomplexobj(rho):
                dense = dense + 1j * average_map_dense(rho.imag, x, 1.5, 0.4)
            assert relative_gap(single, dense) < 1e-14


# ---------------------------------------------------------------- lindblad


def test_lindblad_step_preserves_invariants():
    rho = plus_density(2)
    for _ in range(100):
        rho = lindblad_step(rho, X_OBS, tau=1.0, dt=0.01)
    validate_density(rho)


@pytest.mark.parametrize("batch", [3, 5, 1])
def test_lindblad_step_refuses_a_batch_of_rhos(batch):
    # a (3, 4, 4) stack against unique2's three observables would broadcast
    # and pair rho_i with X_i without an error
    rhos = np.stack([random_density(4, s) for s in range(batch)])
    with pytest.raises(ValueError, match="one"):
        lindblad_step(rhos, X_OBS, tau=1.0, dt=0.01)


@pytest.mark.parametrize("n", [2, 5])
def test_lindblad_step_matches_the_stacked_reference(n):
    # one product of the stacked observables in place of a sum over two
    # per-clause stacks, and no division by the trace
    f = TWO_SAT_UNIQUE if n == 2 else random_instance(n, 4.3, 3, np.random.default_rng(0))
    xs = ClauseSet(f).observables(0.8)
    for rho in (random_density(1 << n, seed) for seed in range(3)):
        out = lindblad_step(rho, xs, tau=1.0, dt=0.01)
        assert np.max(np.abs(out - lindblad_step_stacked(rho, xs, 1.0, 0.01))) < 1e-15


@pytest.mark.parametrize("f", [TWO_SAT_UNIQUE, TWO_SAT_TWO_SOLUTIONS, TWO_SAT_UNSAT],
                         ids=["unique2", "two-solutions2", "unsat2"])
def test_lindblad_steps_keep_the_trace_without_dividing(f):
    # X_i^2 = 1 keeps tr rho, so over a 4,000-step run from theta = 0 to pi/2
    # (dt = 0.01, T_f = 40) only rounding moves it, about linearly in the steps
    steps = 4000
    xs = ClauseSet(f).observables((math.pi / 2.0) * np.arange(1, steps + 1) / steps)
    rho = plus_density(2)
    for x in xs:
        rho = lindblad_step(rho, x, tau=1.0, dt=0.01)
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_lindblad_matches_sequential_maps_to_second_order():
    # one simultaneous deterministic step agrees with sequentially applied
    # averaged maps up to O(dt^2)
    rho0 = random_density(4, 11)
    errs = []
    for dt in (0.02, 0.01):
        seq = rho0.copy()
        for i in range(len(X_OBS)):
            seq = average(seq, i, 1.0, dt)
        sim = lindblad_step(rho0, X_OBS, tau=1.0, dt=dt)
        errs.append(trace_distance(seq, sim))
    assert errs[0] < 5e-4
    assert errs[1] < errs[0] / 3.0  # better than first-order shrinkage


def test_heun_step_agrees_with_euler_at_small_dt():
    rho0 = random_density(4, 13)
    euler = lindblad_step(rho0, X_OBS, tau=1.0, dt=0.005)
    heun = lindblad_step_heun(rho0, X_OBS, tau=1.0, dt=0.005)
    assert trace_distance(euler, heun) < 1e-4


def test_large_step_warning():
    with pytest.warns(UserWarning, match="first-order"):
        lindblad_step(plus_density(2), X_OBS, tau=1.0, dt=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lindblad_step(plus_density(2), X_OBS, tau=1.0, dt=0.05)


# ---------------------------------------------------------------- stochastic


def gauss_hermite_noise(dt, m, nodes=24):
    """Tensor Gauss-Hermite rule for m independent N(0, dt) increments: the
    (nodes^m, m) dW points and their weights, which sum to 1."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    idx = np.indices((nodes,) * m).reshape(m, -1).T  # every node per component
    return math.sqrt(dt) * x[idx], np.prod(w[idx] / w.sum(), axis=1)


class GivenIncrements:
    """A stand-in for sme_step's generator: normal(0, sqrt(dt), size) returns
    the given dW increments, which must have the requested size."""

    def __init__(self, dw):
        self.dw = np.asarray(dw)

    def normal(self, mean, sigma, size):
        assert mean == 0.0 and self.dw.shape == size
        return self.dw


def test_sme_mean_step_is_lindblad_step_to_first_order():
    # the mean of psi' psi'^T over dW, exact by quadrature, differs from the
    # Lindblad step by O(dt^2): 4x less per halving of dt
    psi = random_state(4, 5)
    errs = []
    for dt in (0.02, 0.01, 0.005, 0.0025):
        dw, weights = gauss_hermite_noise(dt, len(X_OBS))
        out, _ = sme_step(np.broadcast_to(psi, (len(dw), 4)), X_OBS, 1.0, dt,
                          GivenIncrements(dw))
        mean = np.einsum("b,bi,bj->ij", weights, out, out)
        det = lindblad_step(np.outer(psi, psi), X_OBS, 1.0, dt)
        errs.append(np.max(np.abs(mean - det)))
    assert errs[0] <= 2e-4, errs
    assert all(a >= 3.0 * b for a, b in zip(errs, errs[1:])), errs


def test_sme_readout_uses_same_noise_as_update():
    psi = random_state(4, 5)
    dw = np.array([0.03, -0.02, 0.05])
    dt = 0.01
    _, readouts = sme_step(psi, X_OBS, 4.0, dt, GivenIncrements(dw))
    expect = np.array([psi @ x @ psi for x in X_OBS])
    assert np.allclose(readouts, expect / 2.0 + dw / dt)
    # with dw = 0 the emitted readout is the expectation over sqrt(tau)
    _, readouts = sme_step(psi, X_OBS, 4.0, dt, GivenIncrements(np.zeros(3)))
    assert np.allclose(readouts, expect / 2.0)


def test_sme_preserves_invariants_along_trajectory():
    rng = np.random.default_rng(21)
    psi = plus_state(2)
    for _ in range(300):
        psi, _ = sme_step(psi, X_OBS, tau=1.0, dt=0.01, rng=rng)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    validate_density(np.outer(psi, psi))


def test_sme_batched_matches_single_given_same_noise():
    # the batched (broadcasting) and one-trajectory (.dot) bodies, on real
    # states and stacks and on complex states, also under a complex Hermitian
    # stack U X U^dag (U a random unitary), whose squares stay the identity
    rng = np.random.default_rng(2)
    real = np.stack([random_state(4, s) for s in range(4)])
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=real.shape))
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rotated = u @ X_OBS @ u.conj().T
    tau, dt = 2.0, 0.01
    for psis, stack in ((real, X_OBS), (real * phases, X_OBS), (real * phases, rotated)):
        dw = rng.normal(0.0, 0.1, size=(4, 3))
        out, readouts = sme_step(psis, stack, tau, dt, GivenIncrements(dw))
        for i in range(4):
            single, r_single = sme_step(psis[i], stack, tau, dt, GivenIncrements(dw[i]))
            assert np.allclose(out[i], single)
            assert np.allclose(readouts[i], r_single)
            # the Kraus expression: M = 1 + (dt/2sqrt(tau)) sum_i r_i X_i with
            # r_i = <X_i>/sqrt(tau) + dW_i/dt, psi' = M psi / |M psi|
            psi = psis[i]
            expect = np.array([psi.conj() @ x @ psi for x in stack]).real
            r = expect / math.sqrt(tau) + dw[i] / dt
            step = (np.eye(4) + dt / (2.0 * math.sqrt(tau)) * np.tensordot(r, stack, 1)) @ psi
            step /= np.linalg.norm(step)
            for got, r_got in ((out[i], readouts[i]), (single, r_single)):
                assert r_got.dtype == float
                assert np.max(np.abs(r_got - r)) < 1e-13
                assert np.max(np.abs(got - step)) < 1e-13


def test_sme_ensemble_mean_tracks_deterministic_step():
    # quick weak-convergence check: 300 trajectories, 60 steps
    rng = np.random.default_rng(33)
    batch = np.broadcast_to(plus_state(2), (300, 4)).copy()
    det = plus_density(2)
    for _ in range(60):
        batch, _ = sme_step(batch, X_OBS, tau=1.0, dt=0.01, rng=rng)
        det = lindblad_step(det, X_OBS, tau=1.0, dt=0.01)
    assert trace_distance(batch.T @ batch / len(batch), det) < 0.05
