"""Dressed-basis diagonalization and positive-frequency jump operators."""

import numpy as np
import pytest

from usctraj.dressed import (
    CHANNEL_LABELS,
    DEGENERACY_TOL,
    diagonalize,
    jump_channels,
    positive_frequency,
)
from usctraj.errors import HermiticityError
from usctraj.hilbert import OperatorMatrix, build_layout, elementary_operators
from usctraj.model import SystemParams, full_hamiltonian
from usctraj.system import OBSERVABLE_LABELS


@pytest.fixture(scope="module")
def dressed_default():
    layout = build_layout(6)
    p = SystemParams(omega_c=1.98)
    h = full_hamiltonian(p, layout)
    return layout, p, diagonalize(h)


def test_energies_ascending_and_consistent(dressed_default):
    layout, p, basis = dressed_default
    assert np.all(np.diff(basis.eigenvalues) >= 0)
    h = full_hamiltonian(p, layout).matrix
    v = basis.eigenvectors
    recon = v @ np.diag(basis.eigenvalues) @ v.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-12)


def test_eigenvector_phase_convention(dressed_default):
    _, _, basis = dressed_default
    for k in range(basis.eigenvectors.shape[1]):
        v = basis.eigenvectors[:, k]
        pivot = np.argmax(np.abs(v))
        assert v[pivot].real > 0
        assert abs(v[pivot].imag) < 1e-14


def test_diagonalize_is_bitwise_reproducible(dressed_default):
    layout, p, basis = dressed_default
    again = diagonalize(full_hamiltonian(p, layout))
    np.testing.assert_array_equal(again.eigenvectors, basis.eigenvectors)
    np.testing.assert_array_equal(again.eigenvalues, basis.eigenvalues)


def test_frame_round_trip(dressed_default):
    layout, _, basis = dressed_default
    rng = np.random.default_rng(3)
    op = rng.normal(size=(layout.dimension,) * 2) + 1j * rng.normal(
        size=(layout.dimension,) * 2
    )
    back = basis.to_product(basis.to_dressed(op))
    np.testing.assert_allclose(back, op, atol=1e-12)


def test_diagonalize_requires_hermitian_flag(dressed_default):
    layout, _, _ = dressed_default
    ops = elementary_operators(layout)
    with pytest.raises(HermiticityError):
        diagonalize(ops["a"])


def test_positive_frequency_is_strictly_lowering(dressed_default):
    layout, _, basis = dressed_default
    ops = elementary_operators(layout)
    x_quad = OperatorMatrix(
        layout, ops["a"].matrix + ops["a_dag"].matrix, hermitian=True
    )
    s_plus = positive_frequency(x_quad, basis)
    # in the energy-ordered dressed basis the operator must be strictly
    # upper triangular: it only connects higher levels to lower ones
    dressed_mat = basis.to_dressed(s_plus)
    assert np.max(np.abs(np.tril(dressed_mat))) < 1e-12


def test_positive_and_negative_parts_reassemble(dressed_default):
    layout, _, basis = dressed_default
    ops = elementary_operators(layout)
    s = ops["sx1"]
    s_plus = positive_frequency(s, basis)
    total = s_plus + s_plus.conj().T
    # the dropped diagonal/degenerate block is all that can differ
    dressed_rest = basis.to_dressed(s.matrix - total)
    e = basis.eigenvalues
    off_degenerate = np.abs(e[np.newaxis, :] - e[:, np.newaxis]) > DEGENERACY_TOL
    assert np.max(np.abs(dressed_rest[off_degenerate])) < 1e-12


def test_positive_frequency_skips_degenerate_pairs():
    # resonant qubits: |0,e,g> and |0,g,e> are exactly degenerate in the
    # bare limit; no matrix element may connect them
    layout = build_layout(4)
    p = SystemParams(g=1e-8, omega_c=2.0)
    basis = diagonalize(full_hamiltonian(p, layout))
    ops = elementary_operators(layout)
    s_plus = positive_frequency(ops["sx1"], basis)
    dressed_mat = basis.to_dressed(s_plus)
    e = basis.eigenvalues
    degenerate = np.abs(e[np.newaxis, :] - e[:, np.newaxis]) <= DEGENERACY_TOL
    assert np.max(np.abs(dressed_mat[degenerate])) < 1e-12


def test_positive_frequency_requires_hermitian(dressed_default):
    layout, _, basis = dressed_default
    ops = elementary_operators(layout)
    with pytest.raises(HermiticityError):
        positive_frequency(ops["a"], basis)


def test_channel_labels_rates_and_count():
    layout = build_layout(6)
    p = SystemParams(
        omega_c=1.98, kappa=1e-4, gamma1=2e-4, gamma2=3e-4, gamma_c=4e-4
    )
    basis = diagonalize(full_hamiltonian(p, layout))
    plus, rate_vector = jump_channels(p, basis)
    assert plus.shape == (len(CHANNEL_LABELS), layout.dimension, layout.dimension)
    assert rate_vector.shape == (len(CHANNEL_LABELS),)
    rates = dict(zip(CHANNEL_LABELS, rate_vector))
    assert rates["cavity"] == 1e-4
    assert rates["qubit1"] == 2e-4
    assert rates["qubit2"] == 3e-4
    # the collective channel carries half its nominal rate by convention
    assert rates["collective"] == 2e-4


def test_zero_rate_channels_are_retained(dressed_default):
    _, p, basis = dressed_default
    plus, rates = jump_channels(p, basis)  # all rates zero by default
    assert len(plus) == len(rates) == len(CHANNEL_LABELS)
    assert all(rate == 0.0 for rate in rates)


def test_channel_minus_is_adjoint_of_plus(dressed_default):
    # S^- is the energy-raising part of the same quadrature, taken on its own
    layout, _, basis = dressed_default
    p = SystemParams(omega_c=1.98, kappa=1e-4, gamma1=1e-4, gamma2=1e-4, gamma_c=1e-4)
    ops = elementary_operators(layout)
    quadratures = [ops["a"].matrix + ops["a_dag"].matrix, ops["sx1"].matrix,
                   ops["sx2"].matrix, ops["sx1"].matrix + ops["sx2"].matrix]
    e = basis.eigenvalues
    raising = e[np.newaxis, :] < e[:, np.newaxis] - DEGENERACY_TOL
    plus, _ = jump_channels(p, basis)
    for s_plus, quad in zip(plus, quadratures):
        s_minus = basis.to_product(np.where(raising, basis.to_dressed(quad), 0.0))
        np.testing.assert_allclose(s_minus, s_plus.conj().T, rtol=0, atol=1e-12)


def test_collective_channel_is_sum_of_local_ones(dressed_default):
    _, _, basis = dressed_default
    p = SystemParams(omega_c=1.98, gamma_c=1e-4)
    channels = dict(zip(CHANNEL_LABELS, jump_channels(p, basis)[0]))
    total = channels["qubit1"] + channels["qubit2"]
    np.testing.assert_allclose(channels["collective"], total, atol=1e-13)


def test_ground_state_is_dark(dressed_default):
    _, _, basis = dressed_default
    p = SystemParams(omega_c=1.98, kappa=1e-4, gamma1=1e-4, gamma2=1e-4, gamma_c=1e-4)
    gs = basis.ground_state
    for s_plus in jump_channels(p, basis)[0]:
        assert np.linalg.norm(s_plus @ gs) < 1e-12


def test_loss_operators_are_positive_semidefinite(dressed_default):
    # S^- S^+ drives the no-jump decay; it must never produce a negative
    # jump probability
    _, _, basis = dressed_default
    p = SystemParams(omega_c=1.98, kappa=1e-4, gamma1=1e-4, gamma2=1e-4, gamma_c=1e-4)
    for s_plus in jump_channels(p, basis)[0]:
        m = s_plus.conj().T @ s_plus
        evals = np.linalg.eigvalsh(m)
        assert evals.min() > -1e-12


def test_bare_limit_recovers_textbook_operators():
    # g -> 0: the cavity channel becomes the bare annihilation operator and
    # the qubit channels become bare lowering operators
    layout = build_layout(5)
    p = SystemParams(g=1e-6, omega_c=2.0, kappa=1e-4, gamma1=1e-4, gamma2=1e-4)
    basis = diagonalize(full_hamiltonian(p, layout))
    channels = dict(zip(CHANNEL_LABELS, jump_channels(p, basis)[0]))
    ops = elementary_operators(layout)
    np.testing.assert_allclose(channels["cavity"], ops["a"].matrix, atol=1e-4)
    psi_e = layout.basis_state(0, 1, 0)
    lowered = channels["qubit1"] @ psi_e
    target = layout.basis_state(0, 0, 0)
    assert abs(np.vdot(target, lowered)) > 1 - 1e-4
    assert np.linalg.norm(lowered) == pytest.approx(1.0, abs=1e-4)


def test_local_jump_lands_in_single_qubit_excitation(system_eff):
    # apply the qubit-1 channel to the oscillating photon-pair superposition:
    # only the two-excitation component responds and the result is the
    # lone-excitation state |0,g,e> with the amplitude's phase attached
    sys = system_eff
    layout = sys.layout
    pair = layout.basis_state(1, 0, 0)
    doubly = layout.basis_state(0, 1, 1)
    angle = 0.7
    psi = np.cos(angle) * pair - 1j * np.sin(angle) * doubly
    q1 = sys.plus_stack[CHANNEL_LABELS.index("qubit1")]
    out = q1 @ psi
    out /= np.linalg.norm(out)
    target = -1j * layout.basis_state(0, 0, 1)
    fidelity = abs(np.vdot(target, out)) ** 2
    assert fidelity > 1 - 1e-10
    # phase must match too, not just the ray
    assert np.vdot(target, out).real > 1 - 1e-10


def test_collective_jump_prepares_symmetric_superposition(system_eff):
    sys = system_eff
    layout = sys.layout
    doubly = layout.basis_state(0, 1, 1)
    psi = -1j * doubly
    coll = sys.plus_stack[CHANNEL_LABELS.index("collective")]
    out = coll @ psi
    out /= np.linalg.norm(out)
    target = (-1j / np.sqrt(2)) * (
        layout.basis_state(0, 0, 1) + layout.basis_state(0, 1, 0)
    )
    assert abs(np.vdot(target, out)) ** 2 > 1 - 1e-10


def test_observables_are_the_first_three_channels():
    # the engines and the LME record rows 0..2 of the S^+ stack under these names
    assert CHANNEL_LABELS[:3] == OBSERVABLE_LABELS
