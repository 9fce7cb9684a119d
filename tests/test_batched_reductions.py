"""Batched numpy reductions that equal the per-state ones bit for bit.

A kernel that advances B trajectories as one (B, d) array can only keep the
per-trajectory bytes if each batched reduction sums in the order of its
per-state form.  These are the forms that do on the installed numpy/BLAS;
a numpy or BLAS upgrade that breaks one fails here instead of changing
output bytes quietly.

The same holds for two deterministic layers rewritten for speed: the LME's
matmul dissipator and observable read, which must equal the einsum calls
they replace, and the full Hamiltonian summed from pieces built once per
calibration.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from usctraj.hilbert import build_layout, elementary_operators
from usctraj.lme import _dissipator, _generator_parts
from usctraj.mcwf import _chunk_amplitudes, _norm, _top_fock
from usctraj.model import SystemParams, _full_matrix, _full_terms, full_hamiltonian
from usctraj.system import TOP_FOCK

SIZES = [(d, b) for d in (24, 40) for b in (1, 2, 3, 17, 256, 2000)]


def _states(d, b, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(b, d)) + 1j * rng.normal(size=(b, d))


@pytest.mark.parametrize("d, b", SIZES)
def test_stacked_matvec_equals_the_per_state_product(d, b):
    u = _states(d, d, 1)
    psi = _states(d, b, 2)
    batched = np.matmul(u[None], psi[:, :, None])[..., 0]
    for row, state in zip(batched, psi):
        np.testing.assert_array_equal(row, u @ state)


@pytest.mark.parametrize("d, b", SIZES)
def test_stacked_inner_product_equals_vdot(d, b):
    psi, amp = _states(d, b, 3), _states(d, b, 4)
    batched = np.matmul(psi.conj()[:, None, :], amp[:, :, None])[:, 0, 0]
    for z, state, a in zip(batched, psi, amp):
        assert z == np.vdot(state, a)


@pytest.mark.parametrize("d, b", SIZES)
def test_strided_vecdot_equals_the_norm_dot(d, b):
    # on the strided .real/.imag views, as _norm reads them; contiguous
    # copies sum in another order
    psi = _states(d, b, 5)
    norms = np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))
    for n, state in zip(norms, psi):
        assert n == _norm(state)


@pytest.mark.parametrize("d, b", SIZES)
def test_stacked_channel_amplitudes_and_their_inner_products(d, b):
    # the homodyne kernel's (B, n, d) monitored-channel amplitudes and <S+>
    plus = _states(d, 4 * d, 6).reshape(4, d, d)
    phi = _states(d, b, 7)
    amps = np.matmul(plus[None], phi[:, None, :, None])[..., 0]
    z = np.vecdot(phi[:, None], amps)
    for state, row_amps, row_z in zip(phi, amps, z):
        for m in range(len(plus)):
            np.testing.assert_array_equal(row_amps[m], plus[m] @ state)
            assert row_z[m] == np.vdot(state, row_amps[m])


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("d, b", SIZES)
def test_row_broadcast_coefficient_multiply(d, b, kind):
    # real coefficients in the qsd convention, complex ones as printed
    amps = _states(d, 4 * b, 8).reshape(b, 4, d)
    coef = _states(4, b, 9)
    if kind == "real":
        coef = coef.real.copy()
    batched = coef[:, :, None] * amps
    for row_coef, row_amps, row in zip(coef, amps, batched):
        for c, amp, got in zip(row_coef, row_amps, row):
            np.testing.assert_array_equal(got, c * amp)


@pytest.mark.parametrize("d, b", SIZES)
def test_row_division_by_the_batched_norm(d, b):
    phi = _states(d, b, 10)
    norms = np.sqrt(np.vecdot(phi.real, phi.real) + np.vecdot(phi.imag, phi.imag))
    for row, state in zip(phi / norms[:, None], phi):
        np.testing.assert_array_equal(row, state / _norm(state))


@pytest.mark.parametrize("d, b", SIZES)
def test_batched_top_fock_read_equals_vdot(d, b):
    # on the strided tail view of a (B, d) stack; einsum sums in another order
    psi = _states(d, b, 11)
    top = _top_fock(psi)
    for got, state in zip(top, psi):
        assert got == np.vdot(state[TOP_FOCK], state[TOP_FOCK]).real


@pytest.mark.parametrize("d, b", SIZES)
def test_chunk_amplitudes_equal_the_per_state_jump_probabilities(d, b):
    # the jump and observable amplitudes and squared norms of every row, as
    # the per-state expressions give them
    plus = _states(d, 4 * d, 12).reshape(4, d, d)
    psi = _states(d, b, 13)
    amps, sq = _chunk_amplitudes(psi, plus)
    for state, row_amps, row_sq in zip(psi, amps, sq):
        want = plus @ state
        np.testing.assert_array_equal(row_amps, want)
        np.testing.assert_array_equal(row_sq, np.einsum("md,md->m", want.conj(), want).real)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", (24, 40))
def test_lme_dissipator_matmuls_equal_the_einsum(d, seed):
    # four channels with a nonzero collective rate; random non-Hermitian r
    plus = _states(d, 4 * d, 20 + seed).reshape(4, d, d)
    system = SimpleNamespace(
        dimension=d, plus_stack=plus, rates=np.array([4e-5, 3e-5, 2e-5, 5e-5])
    )
    r = _states(d, d, 30 + seed)
    parts = _generator_parts(r, system)
    decay = parts[-1]
    want = np.einsum(
        "m,mij,jk,mlk->il", system.rates, plus, r, plus.conj(), optimize=True
    )
    want -= 0.5 * (decay @ r + r @ decay)
    assert _same_bits(_dissipator(r, *parts), want)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", (24, 40))
def test_lme_observable_read_equals_the_einsum(d, seed):
    # the (d^2, 3) observable columns and row product of evolve_lme
    obs = _states(d, 3 * d, 40 + seed).reshape(3, d, d)
    r = _states(d, d, 50 + seed)
    obs_cols = obs.transpose(2, 1, 0).reshape(d * d, 3)
    got = (r.reshape(1, d * d) @ obs_cols)[0]
    assert _same_bits(got, np.einsum("mij,ji->m", obs, r, optimize=True))


@pytest.mark.parametrize("wc", (1.8, 1.93, 2.0, 2.0137, 2.2))
def test_full_hamiltonian_equals_the_shared_pieces_build(wc):
    layout = build_layout(10)
    p = SystemParams(delta=0.003, g=0.12)
    terms = _full_terms(p, layout)
    ops = {k: v.matrix for k, v in elementary_operators(layout).items()}
    a, ad = ops["a"], ops["a_dag"]
    literal = (
        wc * (ad @ a)
        + 0.5 * p.omega_q1 * ops["sz1"]
        + 0.5 * p.omega_q2 * ops["sz2"]
        + p.g * (a + ad) @ (
            (ops["sx1"] + ops["sx2"]) * np.cos(p.theta)
            + (ops["sz1"] + ops["sz2"]) * np.sin(p.theta)
        )
    )
    built = full_hamiltonian(replace(p, omega_c=wc), layout).matrix
    assert _same_bits(built, _full_matrix(wc, terms))
    assert _same_bits(built, literal)
