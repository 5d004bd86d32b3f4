"""Dense qubit linear algebra: tensor embedding, partial trace, and the
state metrics (purity, fidelity, concurrence, trace distance).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosat.qlinalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ZHAT,
    concurrence_2q,
    embed_on_qubits,
    fidelity_pure,
    kron_all,
    local_z,
    num_qubits,
    plus_density,
    plus_state,
    purity,
    reduced_density,
    trace_distance,
    validate_density,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def density(vec):
    return np.outer(vec, np.conj(vec))


def test_readout_axis_convention():
    # |1> carries z = +1, |0> carries z = -1
    assert ZHAT @ KET1 == pytest.approx(KET1)
    assert ZHAT @ KET0 == pytest.approx(-KET0)
    assert np.allclose(ZHAT, -SIGMA_Z)


def test_num_qubits():
    assert num_qubits(2) == 1
    assert num_qubits(16) == 4
    with pytest.raises(ValueError):
        num_qubits(6)


def test_kron_all_matches_nested_kron():
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(2, 2)) for _ in range(3)]
    expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.allclose(kron_all(mats), expected)


def test_plus_state_and_density():
    v = plus_state(3)
    assert v == pytest.approx(np.full(8, 1 / np.sqrt(8)))
    rho = plus_density(3)
    assert np.trace(rho) == pytest.approx(1.0)
    assert purity(rho) == pytest.approx(1.0)
    assert np.allclose(rho, density(v))


# ---------------------------------------------------------------- embedding


def test_embed_single_qubit_matches_explicit_kron():
    eye = np.eye(2)
    for j, expected in [
        (1, kron_all([SIGMA_X, eye, eye])),
        (2, kron_all([eye, SIGMA_X, eye])),
        (3, kron_all([eye, eye, SIGMA_X])),
    ]:
        assert np.allclose(embed_on_qubits(SIGMA_X, [j], 3), expected)


def test_embed_respects_target_order():
    rng = np.random.default_rng(1)
    op = rng.normal(size=(4, 4))
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[2 * b + a, 2 * a + b] = 1.0
    # op on (2, 1) is the swapped operator on (1, 2)
    direct = embed_on_qubits(op, [2, 1], 2)
    assert np.allclose(direct, swap @ op @ swap)
    # and identity embedding leaves any register untouched
    assert np.allclose(embed_on_qubits(np.eye(4), [3, 1], 3), np.eye(8))


def test_embed_acts_trivially_elsewhere():
    op = embed_on_qubits(SIGMA_X, [2], 3)
    state = kron_all([KET0, KET0, KET1])
    flipped = kron_all([KET0, KET1, KET1])
    assert np.allclose(op @ state, flipped)


def test_embed_validation():
    with pytest.raises(ValueError):
        embed_on_qubits(SIGMA_X, [1, 1], 3)
    with pytest.raises(ValueError):
        embed_on_qubits(SIGMA_X, [4], 3)
    with pytest.raises(ValueError):
        embed_on_qubits(np.eye(4), [1], 3)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.data(),
)
def test_embedded_operators_on_disjoint_qubits_commute(n, data):
    targets = data.draw(
        st.lists(st.integers(min_value=1, max_value=n), min_size=2, max_size=2, unique=True)
    )
    a = embed_on_qubits(SIGMA_X, [targets[0]], n)
    b = embed_on_qubits(SIGMA_Z, [targets[1]], n)
    assert np.allclose(a @ b, b @ a)


# ---------------------------------------------------------------- metrics


def test_purity_and_fidelity():
    rho = density(BELL)
    assert purity(rho) == pytest.approx(1.0)
    assert purity(np.eye(4) / 4) == pytest.approx(0.25)
    assert fidelity_pure(rho, BELL) == pytest.approx(1.0)
    assert fidelity_pure(np.eye(4) / 4, BELL) == pytest.approx(0.25)


def test_concurrence_anchors():
    assert concurrence_2q(density(BELL)) == pytest.approx(1.0)
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert concurrence_2q(density(psi_minus)) == pytest.approx(1.0)
    product = density(kron_all([KET0, KET1]))
    assert concurrence_2q(product) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_2q(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        concurrence_2q(np.eye(8) / 8)


def test_reduced_density_of_product_state():
    a, b, c = KET1, plus_state(1), KET0
    rho = density(kron_all([a, b, c]))
    assert np.allclose(reduced_density(rho, 1), density(a))
    assert np.allclose(reduced_density(rho, 2), density(b))
    assert np.allclose(reduced_density(rho, 3), density(c))


def test_reduced_density_of_bell_state_is_maximally_mixed():
    rho = density(BELL)
    for j in (1, 2):
        assert np.allclose(reduced_density(rho, j), np.eye(2) / 2)


def test_local_z_values():
    rho = density(kron_all([KET1, KET0, plus_state(1)]))
    assert local_z(rho, 1) == pytest.approx(1.0)
    assert local_z(rho, 2) == pytest.approx(-1.0)
    assert local_z(rho, 3) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        local_z(rho, 4)


def test_trace_distance():
    assert trace_distance(density(KET0), density(KET1)) == pytest.approx(1.0)
    assert trace_distance(density(KET0), density(KET0)) == pytest.approx(0.0)
    plus = density(plus_state(1))
    assert trace_distance(density(KET0), plus) == pytest.approx(1 / np.sqrt(2))


def test_validate_density():
    validate_density(plus_density(2))
    with pytest.raises(ValueError):
        validate_density(np.array([[0.5, 0.2], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        validate_density(np.eye(2))  # trace 2
    neg = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        validate_density(neg)
    validate_density(neg, check_positivity=False)
    with pytest.raises(ValueError):
        validate_density(np.eye(3) / 3)  # not a qubit register


def test_pauli_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z, ZHAT):
        assert np.allclose(s @ s, np.eye(2))
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)
