"""Theta-parameterized encoding objects: encoded states, clause projectors
and observables, schedules, solution states, and the co-rotating frame.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosat import encoding
from zenosat.encoding import (
    ClauseSet,
    Schedule,
    clause_observable,
    diabatic_hamiltonian,
    encoded_state,
    q_frame,
    ry,
    solution_state,
    violating_state,
    zeno_g,
)
from zenosat.qlinalg import kron_all, plus_state
from zenosat.satcore import (
    SatError,
    TWO_SAT_TWO_SOLUTIONS,
    TWO_SAT_UNIQUE,
    enumerate_solutions,
    formula,
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


# ---------------------------------------------------------------- schedule


def test_linear_schedule():
    s = Schedule()
    assert s.theta(0.0) == 0.0
    assert s.theta(1.0) == pytest.approx(math.pi / 2)
    assert s.theta(0.5) == pytest.approx(math.pi / 4)
    # clamped outside [0, 1]
    assert s.theta(-1.0) == 0.0
    assert s.theta(2.0) == pytest.approx(math.pi / 2)


def test_custom_schedule_interpolates():
    s = Schedule(kind="custom", table=((0.0, 0.0), (0.5, 1.0), (1.0, math.pi / 2)))
    assert s.theta(0.25) == pytest.approx(0.5)
    assert s.theta(0.75) == pytest.approx((1.0 + math.pi / 2) / 2)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(kind="quadratic")
    with pytest.raises(ValueError):
        Schedule(kind="custom", table=((0.0, 0.0),))
    with pytest.raises(ValueError):
        Schedule(kind="custom", table=((0.0, 0.5), (1.0, math.pi / 2)))  # theta(0) != 0
    with pytest.raises(ValueError):
        Schedule(kind="custom", table=((0.0, 0.0), (1.0, 1.0)))  # theta(1) != pi/2
    with pytest.raises(ValueError):
        Schedule(
            kind="custom", table=((0.0, 0.0), (0.6, 1.2), (0.4, 0.3), (1.0, math.pi / 2))
        )  # non-monotone fractions
    with pytest.raises(ValueError):
        Schedule(kind="linear", table=((0.0, 0.0), (1.0, math.pi / 2)))


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


# formulas whose clause layout the random instances rarely or never produce
CLAUSE_LAYOUTS = {
    "n1-k1": formula(1, [-1]),
    "whole-register": formula(3, [1, -2, 3], [-3, -1, 2]),
    "n7": formula(7, [1, -4, 7], [-2, 3, -6], [5, 6, -1]),
    "out-of-order": formula(4, [3, -1, 2], [-4, 2, -3]),
}


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
    for theta in [0.0, *thetas, math.pi / 2]:
        ps = cs.projectors(theta)
        xs = cs.observables(theta)
        for i in range(f.num_clauses):
            ref = clause_observable(f, i)
            assert np.allclose(ps[i], ref.projector(theta), atol=1e-13)
            assert np.allclose(xs[i], ref.observable(theta), atol=1e-13)


def test_clause_set_refuses_when_a_step_exceeds_memory(monkeypatch):
    stack = 8 * TWO_SAT_UNIQUE.num_clauses * 4**TWO_SAT_UNIQUE.num_vars
    memory = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(encoding.os, "sysconf", memory.__getitem__)
    # one (m, 2^n, 2^n) stack fits, but a step's temporaries do not
    memory["SC_PHYS_PAGES"] = 2 * stack
    with pytest.raises(ValueError, match="physical memory"):
        ClauseSet(TWO_SAT_UNIQUE)
    memory["SC_PHYS_PAGES"] = 10 * stack
    ClauseSet(TWO_SAT_UNIQUE)


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
