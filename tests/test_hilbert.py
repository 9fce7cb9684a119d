"""Basis layout, elementary operators and expectation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usctraj.errors import HermiticityError
from usctraj.hilbert import (
    OperatorMatrix,
    build_layout,
    elementary_operators,
    expectation,
)


def test_layout_dimensions_and_index_order():
    layout = build_layout(5)
    assert layout.n_fock == 5
    assert layout.dimension == 20
    # index = 4 n + 2 s1 + s2 with s = 1 for the excited qubit state
    assert layout.index(0, 0, 0) == 0
    assert layout.index(0, 0, 1) == 1
    assert layout.index(0, 1, 0) == 2
    assert layout.index(2, 1, 1) == 11
    assert layout.index(4, 0, 1) == 17


def test_layout_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_layout(0)
    layout = build_layout(3)
    with pytest.raises(ValueError):
        layout.index(3, 0, 0)
    with pytest.raises(ValueError):
        layout.index(1, 2, 0)


def test_basis_state_is_unit_vector():
    layout = build_layout(4)
    psi = layout.basis_state(2, 1, 0)
    assert psi.shape == (16,)
    assert psi[layout.index(2, 1, 0)] == 1.0
    assert np.linalg.norm(psi) == 1.0


def test_number_operator_diagonal():
    layout = build_layout(6)
    ops = elementary_operators(layout)
    n_op = ops["a_dag"].matrix @ ops["a"].matrix
    diag = np.real(np.diag(n_op))
    for n in range(6):
        for s1 in (0, 1):
            for s2 in (0, 1):
                assert diag[layout.index(n, s1, s2)] == pytest.approx(n)


def test_ladder_commutator_below_truncation():
    layout = build_layout(7)
    ops = elementary_operators(layout)
    a = ops["a"].matrix
    comm = a @ a.conj().T - a.conj().T @ a
    # identity except on the highest Fock manifold, the usual truncation artifact
    block = comm[: 4 * 6, : 4 * 6]
    np.testing.assert_allclose(block, np.eye(24), atol=1e-14)
    top = np.diag(comm)[4 * 6 :]
    np.testing.assert_allclose(top, -6.0, atol=1e-14)


def test_pauli_operators_square_to_identity():
    layout = build_layout(3)
    ops = elementary_operators(layout)
    eye = np.eye(layout.dimension)
    for name in ("sx1", "sx2", "sz1", "sz2"):
        m = ops[name].matrix
        np.testing.assert_allclose(m @ m, eye, atol=1e-14)
        assert ops[name].hermitian


def test_sz_sign_convention():
    # excited state is the +1 eigenstate of sigma_z
    layout = build_layout(2)
    ops = elementary_operators(layout)
    psi_e = layout.basis_state(0, 1, 0)
    psi_g = layout.basis_state(0, 0, 0)
    assert expectation(ops["sz1"], psi_e) == pytest.approx(1.0)
    assert expectation(ops["sz1"], psi_g) == pytest.approx(-1.0)


def test_qubit_operators_act_on_their_own_qubit():
    layout = build_layout(2)
    ops = elementary_operators(layout)
    psi = layout.basis_state(1, 0, 1)
    flipped = ops["sx1"].matrix @ psi
    target = layout.basis_state(1, 1, 1)
    np.testing.assert_allclose(flipped, target, atol=1e-15)
    flipped2 = ops["sx2"].matrix @ psi
    target2 = layout.basis_state(1, 0, 0)
    np.testing.assert_allclose(flipped2, target2, atol=1e-15)


def test_operator_matrix_dagger_and_hermiticity_check():
    layout = build_layout(2)
    ops = elementary_operators(layout)
    a = ops["a"]
    assert not a.hermitian
    np.testing.assert_array_equal(ops["a_dag"].matrix, a.matrix.conj().T)
    with pytest.raises(HermiticityError):
        OperatorMatrix(layout, a.matrix, hermitian=True)


def test_expectation_rejects_wrong_shape():
    layout = build_layout(2)
    ops = elementary_operators(layout)
    psi = np.zeros(5, dtype=complex)
    with pytest.raises(Exception):
        expectation(ops["sz1"], psi)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_expectation_of_hermitian_operator_is_real(seed):
    layout = build_layout(3)
    ops = elementary_operators(layout)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    psi /= np.linalg.norm(psi)
    h = ops["sx1"].matrix + ops["sz2"].matrix + ops["a"].matrix + ops["a_dag"].matrix
    val = expectation(OperatorMatrix(layout, h, hermitian=True), psi)
    assert isinstance(val, float)
    direct = np.vdot(psi, h @ psi)
    assert abs(val - direct.real) < 1e-12
    assert abs(direct.imag) < 1e-12
