"""Theta-parameterized encoding objects: encoded states, clause projectors
and observables, schedules, solution states, and the co-rotating frame.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CLAUSE_LAYOUTS,
    clause_observable,
    diabatic_hamiltonian,
    encoded_state,
    kron_all,
    q_frame,
    ry,
    solution_state,
    violating_state,
    zeno_g,
)
from zenosat import encoding, solver
from zenosat.encoding import ClauseSet, Schedule
from zenosat.qlinalg import plus_density, plus_state
from zenosat.satcore import (
    SatError,
    TWO_SAT_TWO_SOLUTIONS,
    TWO_SAT_UNIQUE,
    enumerate_solutions,
    random_instance,
)

THETAS = [0.0, 0.3, 0.8, math.pi / 4, math.pi / 2]


def test_ry_composition_and_unitarity():
    a, b = 0.7, -1.3
    assert np.allclose(ry(a) @ ry(b), ry(a + b))
    assert np.allclose(ry(a) @ ry(a).T, np.eye(2))
    # generator check: ry(t) = exp(-i t sigma_y / 2)
    eps = 1e-6
    deriv = (ry(eps) - np.eye(2)) / eps
    assert np.allclose(deriv, np.array([[0.0, -0.5], [0.5, 0.0]]), atol=1e-6)


def test_encoded_state_endpoints():
    # theta = 0: both truth values sit at |+>
    assert np.allclose(encoded_state(0.0, True), plus_state(1))
    assert np.allclose(encoded_state(0.0, False), plus_state(1))
    # theta = pi/2: true at |1>, false at |0>
    assert np.allclose(encoded_state(math.pi / 2, True), [0.0, 1.0])
    assert np.allclose(encoded_state(math.pi / 2, False), [1.0, 0.0])


@pytest.mark.parametrize("theta", THETAS)
def test_violating_state_orthogonal_to_satisfying_value(theta):
    # a positive literal is satisfied by true, a negated one by false
    assert np.dot(violating_state(theta, False), encoded_state(theta, True)) == (
        pytest.approx(0.0, abs=1e-12)
    )
    assert np.dot(violating_state(theta, True), encoded_state(theta, False)) == (
        pytest.approx(0.0, abs=1e-12)
    )


@pytest.mark.parametrize("case", sorted(CLAUSE_LAYOUTS))
def test_violating_vectors_match_rotated_plus_reference(case):
    # the closed form of each literal's factor against ry(pi +- theta)|+>,
    # multiplied out in literal order, over a theta grid past [0, pi/2]
    f = CLAUSE_LAYOUTS[case]
    cs = ClauseSet(f)
    for theta in np.linspace(-math.pi, 2.0 * math.pi, 91):
        ref = [clause_observable(f, i).local_vector(theta) for i in range(cs.m)]
        assert np.max(np.abs(cs.violating_vectors(theta) - ref)) <= 1e-15


# ---------------------------------------------------------------- schedule


def test_linear_schedule():
    s = Schedule()
    assert s.theta(0.0) == 0.0
    assert s.theta(1.0) == pytest.approx(math.pi / 2)
    assert s.theta(0.5) == pytest.approx(math.pi / 4)
    # clamped outside [0, 1]
    assert s.theta(-1.0) == 0.0
    assert s.theta(2.0) == pytest.approx(math.pi / 2)
    # the default table's two rows interpolate to (pi/2) u bit for bit
    us = np.concatenate([
        np.random.default_rng(3).random(10_000), np.arange(4001) * 0.01 / 40.0,
        np.arange(1, 683) * 0.25 / 170.5, [0.0, 1.0],
    ])
    assert np.array_equal(s.theta(us), (math.pi / 2) * us)
    assert all(s.theta(u) == (math.pi / 2) * u for u in us[::50].tolist())
    clipped = np.array([-2.0, -1e-300, 1.0 + 1e-12, 3.0])
    assert np.array_equal(s.theta(clipped), [0.0, 0.0, math.pi / 2, math.pi / 2])
    assert s.theta(-0.5) == 0.0 and s.theta(7.0) == math.pi / 2


def test_custom_schedule_interpolates():
    s = Schedule(table=((0.0, 0.0), (0.5, 1.0), (1.0, math.pi / 2)))
    assert s.theta(0.25) == pytest.approx(0.5)
    assert s.theta(0.75) == pytest.approx((1.0 + math.pi / 2) / 2)


def _rebuilt_table_theta(table, fraction):
    # reference: Schedule.theta with the table's arrays built on every call
    u = min(max(fraction, 0.0), 1.0)
    us = np.array([row[0] for row in table])
    ths = np.array([row[1] for row in table])
    return float(np.clip(np.interp(u, us, ths), 0.0, math.pi / 2.0))


@pytest.mark.parametrize("table", [
    ((0.0, 0.0), (0.5, 1.0), (1.0, math.pi / 2)),
    ((0, 0), (0.25, 0.2), (0.25, 0.4), (0.7, 0.4), (1, math.pi / 2)),  # jump, plateau
    ((0.0, 0.0), (0.999, 1e-3), (1.0, math.pi / 2)),
], ids=["bend", "jump-plateau", "late"])
def test_custom_schedule_arrays_built_once_keep_theta_bitwise(table):
    s = Schedule(table=table)
    for u in np.linspace(-0.1, 1.1, 601).tolist():
        assert s.theta(u) == _rebuilt_table_theta(table, u)
    # the cached arrays are not fields: equality and hashing see the table only
    assert s == Schedule(table=table)
    assert hash(s) == hash(Schedule(table=table))


@pytest.mark.parametrize("table", [
    ((0.0, 0.0), (1.0, math.pi / 2)),
    ((0.0, 0.0), (0.5, 1.0), (1.0, math.pi / 2)),
    ((0, 0), (0.25, 0.2), (0.25, 0.4), (0.7, 0.4), (1, math.pi / 2)),
], ids=["linear", "bend", "jump-plateau"])
def test_schedule_theta_of_an_array_is_the_stacked_scalar_thetas(table):
    s = Schedule(table=table)
    us = np.linspace(-0.3, 1.3, 801)
    scalars = [s.theta(u) for u in us.tolist()]
    assert all(np.ndim(th) == 0 and isinstance(th, float) for th in scalars)
    assert np.array_equal(s.theta(us), scalars)
    assert s.theta(us.reshape(-1, 3)).shape == (267, 3)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(table=((0.0, 0.0),))
    with pytest.raises(ValueError):
        Schedule(table=((0.0, 0.5), (1.0, math.pi / 2)))  # theta(0) != 0
    with pytest.raises(ValueError):
        Schedule(table=((0.0, 0.0), (1.0, 1.0)))  # theta(1) != pi/2
    with pytest.raises(ValueError):
        Schedule(
            table=((0.0, 0.0), (0.6, 1.2), (0.4, 0.3), (1.0, math.pi / 2))
        )  # non-monotone fractions


@pytest.mark.parametrize("row", [(math.nan, 1.0), (0.5, math.nan), (0.5, math.inf)],
                         ids=["nan-fraction", "nan-theta", "inf-theta"])
def test_schedule_refuses_non_finite_entries(row):
    # a NaN compares false with every bound, so it would pass the order checks
    with pytest.raises(ValueError, match="finite"):
        Schedule(table=((0.0, 0.0), row, (1.0, math.pi / 2)))


# ---------------------------------------------------------------- projectors


def test_projector_final_form_rules_out_all_false():
    # clause (x1 or x2): at theta = pi/2 the violating state is |00>
    p = clause_observable(TWO_SAT_UNIQUE, 0).projector(math.pi / 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(p, expected, atol=1e-12)


@pytest.mark.parametrize("theta", THETAS)
def test_projector_and_observable_algebra(theta):
    for i in range(TWO_SAT_UNIQUE.num_clauses):
        obs = clause_observable(TWO_SAT_UNIQUE, i)
        p = obs.projector(theta)
        x = obs.observable(theta)
        assert np.allclose(p, p.T, atol=1e-12)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.trace(p) == pytest.approx(1.0)  # rank one
        assert np.allclose(x @ x, np.eye(4), atol=1e-12)
        assert np.trace(x) == pytest.approx(2.0)  # dim - 2 * rank


@pytest.mark.parametrize("case", [0, 1, 2, 3, *CLAUSE_LAYOUTS])
def test_clause_set_matches_per_clause_reference(case):
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, min(3, n) + 1))
        f = random_instance(n, 1.5, k, rng)
        thetas = [float(rng.uniform(0.0, math.pi / 2))]
    else:
        f = CLAUSE_LAYOUTS[case]
        thetas = [0.8]
    cs = ClauseSet(f)
    psi = np.random.default_rng(99).normal(size=cs.dim)
    # the m+1 frames carry psi through every clause's block and back
    assert len(cs.frames) == cs.m + 1
    block = psi[cs.frames[0]]
    for idx, perm in zip(cs.index, cs.frames[1:]):
        assert np.array_equal(block, psi[idx])
        block = block.ravel()[perm]
    assert np.array_equal(block.ravel(), psi)
    for theta in [0.0, *thetas, math.pi / 2]:
        xs = cs.observables(theta)
        vs = cs.violating_vectors(theta)
        for i in range(f.num_clauses):
            ref = clause_observable(f, i)
            assert np.allclose(xs[i], ref.observable(theta), atol=1e-13)
            # the pure form: P_i psi = v_i (v_i^T block), scattered back
            assert np.allclose(vs[i], ref.local_vector(theta), atol=1e-15)
            p_psi = np.empty(cs.dim)
            p_psi[cs.index[i]] = np.outer(vs[i], vs[i] @ psi[cs.index[i]])
            assert np.allclose(p_psi, ref.projector(theta) @ psi, atol=1e-13)


# the formulas the scattered observable stacks are checked on: random
# k = 2 and k = 3 instances plus every special clause layout
STACK_CASES = {
    "k2": random_instance(4, 2.0, 2, np.random.default_rng(21)),
    "k3": random_instance(5, 2.0, 3, np.random.default_rng(22)),
    **CLAUSE_LAYOUTS,
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_observable_basis_matches_per_clause_reference(case):
    f = STACK_CASES[case]
    cs = ClauseSet(f)
    refs = [clause_observable(f, i) for i in range(f.num_clauses)]
    for theta in np.linspace(0.0, math.pi / 2, 50).tolist():
        xs = cs.observables(theta)
        for x, ref in zip(xs, refs):
            assert np.max(np.abs(x - ref.observable(theta))) < 1e-14


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_clause_operators_of_an_array_are_the_stacked_scalar_ones(case):
    # the solver builds a block of steps in one call; each step's operators
    # must be the ones a scalar call gives, and laid out contiguously
    cs = ClauseSet(STACK_CASES[case])
    thetas = np.linspace(-0.2, math.pi / 2 + 0.2, 37)
    vs = cs.violating_vectors(thetas)
    assert vs.flags.c_contiguous
    assert np.array_equal(vs, [cs.violating_vectors(t) for t in thetas.tolist()])
    xs = cs.observables(thetas)
    assert xs.shape == (37, cs.m, cs.dim, cs.dim) and xs.flags.c_contiguous
    scalars = np.array([cs.observables(t) for t in thetas.tolist()])
    assert np.max(np.abs(xs - scalars)) <= 1e-15


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_violating_vectors_are_the_fold_of_the_literal_states(case):
    # average_map folds the literal states it is given with the helper that
    # violating_vectors uses, so the Kraus and averaged kernels see one v
    cs = ClauseSet(STACK_CASES[case])
    for theta in (0.7, np.linspace(-0.2, math.pi / 2 + 0.2, 37)):
        us = cs.literal_states(theta)
        assert us.shape == np.shape(theta) + (cs.m, cs.k, 2)
        folded = [kron_all(list(literals)) for literals in us.reshape(-1, cs.k, 2)]
        vs = cs.violating_vectors(theta)
        assert np.array_equal(vs, np.reshape(folded, vs.shape))


def test_stack_build_holds_no_stack_and_is_counted_by_the_refusal(monkeypatch):
    # a ClauseSet keeps only its index and position tables once a stack is
    # built, one build peaks below the _PEAK_STACKS stacks the dense refusal
    # counts, and a register one byte short of that count plus the tables is
    # refused before any stack is built
    f = random_instance(6, 4.0, 3, np.random.default_rng(0))
    cs = ClauseSet(f)
    stack = 8 * cs.m * cs.dim**2
    tracemalloc.start()
    try:
        cs.observables(0.3)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = cs.index.nbytes + cs._positions.nbytes
    assert (current - tables) / stack == pytest.approx(0.0, abs=0.01)
    assert peak / stack < encoding._PEAK_STACKS, peak / stack
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": encoding._PEAK_STACKS * stack + tables}
    monkeypatch.setattr(encoding.os, "sysconf", memory.__getitem__)
    ClauseSet(f).require_memory()
    memory["SC_PHYS_PAGES"] -= 1
    refused = ClauseSet(f)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense operators"):
            refused.observables(0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack / 10, peak / stack


def test_clause_set_refuses_when_a_step_exceeds_memory(monkeypatch):
    stack = 8 * TWO_SAT_UNIQUE.num_clauses * 4**TWO_SAT_UNIQUE.num_vars
    memory = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(encoding.os, "sysconf", memory.__getitem__)
    # one (m, 2^n, 2^n) stack fits, but a step's temporaries do not
    memory["SC_PHYS_PAGES"] = 2 * stack
    with pytest.raises(ValueError, match="physical memory"):
        ClauseSet(TWO_SAT_UNIQUE).observables(0.0)
    memory["SC_PHYS_PAGES"] = 10 * stack
    ClauseSet(TWO_SAT_UNIQUE).observables(0.0)


def test_refusal_constant_follows_measured_step_peak():
    # the dense refusal counts _PEAK_STACKS stacks per step: every continuum
    # kernel, with the observables it is given, must peak below that, and the
    # worst within one stack of it
    f = random_instance(7, 4.0, 3, np.random.default_rng(0))
    cs = ClauseSet(f)
    assert cs.m == 28
    stack = 8 * cs.m * cs.dim**2
    states = {"lindblad_step": plus_density(f.num_vars), "sme_step": plus_state(f.num_vars)}
    cs.observables(0.0)  # the cached tables are counted apart from a step's peak
    peaks = {}
    for name, state in states.items():
        kernel = getattr(solver, name)
        tracemalloc.start()
        try:
            rng = (np.random.default_rng(1),) if name == "sme_step" else ()
            kernel(state, cs.observables(0.7), 1.0, 0.01, *rng)
            peaks[name] = tracemalloc.get_traced_memory()[1] / stack
        finally:
            tracemalloc.stop()
    assert all(peak < encoding._PEAK_STACKS for peak in peaks.values()), peaks
    assert max(peaks.values()) > encoding._PEAK_STACKS - 1, peaks
    # the psi step allocates no stack beyond the observables it is given
    assert peaks["sme_step"] <= peaks["lindblad_step"] + 0.1, peaks


def test_pure_refusal_constant_follows_measured_step_peak():
    # a pure run counts its index tables and frame permutations plus
    # _PEAK_VECTORS state vectors, psi included; the Kraus step must peak
    # below that, and within one state vector of it
    f = random_instance(12, 4.3, 3, np.random.default_rng(0))
    cs = ClauseSet(f)
    psi, frames, vs = plus_state(f.num_vars), cs.frames, cs.violating_vectors(0.7)
    tracemalloc.start()
    try:
        solver.kraus_measure(psi, vs, 1.0, 0.25, np.random.default_rng(1), frames=frames)
        peak = tracemalloc.get_traced_memory()[1] / (8 * cs.dim)
    finally:
        tracemalloc.stop()
    assert 1.0 + peak < encoding._PEAK_VECTORS, peak
    assert 1.0 + peak > encoding._PEAK_VECTORS - 1, peak
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_averaged_refusal_constant_follows_measured_step_peak():
    # a discrete averaged run counts its index tables and frame permutations
    # plus _PEAK_DENSITIES density matrices, rho included; one averaged step
    # of all m clauses (the frame body at n = 9), in place on rho, must peak
    # below that, and within one density matrix of it
    f = random_instance(9, 4.3, 3, np.random.default_rng(0))
    cs = ClauseSet(f)
    rho, index, frames = plus_density(f.num_vars), cs.index, cs.frames
    us = cs.literal_states(0.7)
    tracemalloc.start()
    try:
        out = solver.average_map(rho, us, 1.0, 0.25, index=index, frames=frames)
        peak = tracemalloc.get_traced_memory()[1] / rho.nbytes
    finally:
        tracemalloc.stop()
    assert 1.0 + peak < encoding._PEAK_DENSITIES, peak
    assert 1.0 + peak > encoding._PEAK_DENSITIES - 1, peak
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_pure_run_needs_no_dense_memory(monkeypatch):
    f = random_instance(12, 4.3, 3, np.random.default_rng(0))
    cs = ClauseSet(f)
    # the index tables and the m+1 frame permutations, plus the state vectors
    tables = np.dtype(np.intp).itemsize * (2 * cs.m + 1)
    vectors = (tables + 8 * encoding._PEAK_VECTORS) * cs.dim
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": vectors}
    monkeypatch.setattr(encoding.os, "sysconf", memory.__getitem__)
    cs.require_memory("psi")
    with pytest.raises(ValueError, match="physical memory"):
        cs.require_memory("dense")
    memory["SC_PHYS_PAGES"] = vectors - 1
    with pytest.raises(ValueError, match="index tables and state vectors"):
        cs.require_memory("psi")


# ---------------------------------------------------------------- solutions


@pytest.mark.parametrize("theta", THETAS)
def test_solution_state_is_simultaneous_plus_one_eigenstate(theta):
    for f in (TWO_SAT_UNIQUE, TWO_SAT_TWO_SOLUTIONS):
        cs = ClauseSet(f)
        xs = cs.observables(theta)
        for s in enumerate_solutions(f).assignments:
            phi = solution_state(f, s, theta)
            for x in xs:
                assert np.allclose(x @ phi, phi, atol=1e-10)


def test_solution_state_rejects_non_solutions():
    with pytest.raises(SatError):
        solution_state(TWO_SAT_UNIQUE, (False, False), 0.3)


@pytest.mark.parametrize("theta", THETAS)
def test_frame_freezes_solution_state(theta):
    s = (True, False)
    q = q_frame(s, theta)
    phi = solution_state(TWO_SAT_UNIQUE, s, theta)
    fixed = q.T @ phi
    # basis index 2 = |10>: qubit 1 at |1> (true), qubit 2 at |0> (false)
    expected = np.zeros(4)
    expected[2] = 1.0
    assert np.allclose(fixed, expected, atol=1e-12)
    assert np.allclose(q @ q.T, np.eye(4), atol=1e-12)


def test_frame_transformed_observables_block_diagonal():
    """In the co-rotating frame the three clause observables of the
    unique-solution pair problem take a frozen block-diagonal form with a
    theta-independent solution slot (basis index 2).

    Reference matrices were derived by hand from the single-qubit algebra:
    each observable acts as identity outside a 2x2 block that rotates at
    angle 2*theta, except the middle clause which is fully diagonal.
    """
    theta = 0.8
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    refs = [
        np.array(
            [[c2, s2, 0, 0], [s2, -c2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        ),
        np.diag([1.0, -1.0, 1.0, 1.0]),
        np.array(
            [[1, 0, 0, 0], [0, -c2, 0, s2], [0, 0, 1, 0], [0, s2, 0, c2]]
        ),
    ]
    q = q_frame((True, False), theta)
    xs = ClauseSet(TWO_SAT_UNIQUE).observables(theta)
    for x, ref in zip(xs, refs):
        framed = q.T @ x @ q
        assert np.allclose(framed, ref, atol=1e-12)
        # solution row/column is theta-independent identity
        assert framed[2, 2] == pytest.approx(1.0)
        assert np.allclose(framed[2, [0, 1, 3]], 0.0, atol=1e-12)


# ---------------------------------------------------------------- diagnostics


def test_zeno_diagnostic_vanishes_only_on_common_eigenstates():
    theta = 0.7
    cs = ClauseSet(TWO_SAT_UNIQUE)
    xs = cs.observables(theta)
    phi = solution_state(TWO_SAT_UNIQUE, (True, False), theta)
    assert zeno_g(np.outer(phi, phi), xs, tau=1.0) == pytest.approx(0.0, abs=1e-10)
    rho = np.full((4, 4), 0.25)  # the uniform initial state
    assert zeno_g(rho, xs, tau=1.0) > 0.01
    # scales as 1/tau
    assert zeno_g(rho, xs, tau=2.0) == pytest.approx(zeno_g(rho, xs, tau=1.0) / 2)


def test_diabatic_generator_matches_solution_state_motion():
    s = (True, False)
    theta, eps, theta_dot = 0.6, 1e-6, 1.0
    h = diabatic_hamiltonian(s, theta_dot)
    assert np.allclose(h, h.conj().T)
    phi0 = solution_state(TWO_SAT_UNIQUE, s, theta)
    phi1 = solution_state(TWO_SAT_UNIQUE, s, theta + eps)
    numeric = (phi1 - phi0) / eps
    analytic = -1j * h @ phi0
    assert np.allclose(numeric, analytic, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=math.pi / 2), st.integers(0, 100))
def test_observable_square_identity_random_instances(theta, seed):
    rng = np.random.default_rng(seed)
    f = random_instance(4, 1.5, 3, rng)
    xs = ClauseSet(f).observables(theta)
    eye = np.eye(16)
    for x in xs:
        assert np.max(np.abs(x @ x - eye)) < 1e-12
