"""Batched numpy reductions that equal the per-state ones bit for bit.

A kernel that advances B trajectories as one (B, d) array can only keep the
per-trajectory bytes if each batched reduction sums in the order of its
per-state form.  These are the forms that do on the installed numpy/BLAS;
a numpy or BLAS upgrade that breaks one fails here instead of changing
output bytes quietly.
"""

import numpy as np
import pytest

from usctraj.mcwf import _norm

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


@pytest.mark.skipif(not hasattr(np, "vecdot"), reason="np.vecdot needs numpy >= 2")
@pytest.mark.parametrize("d, b", SIZES)
def test_strided_vecdot_equals_the_norm_dot(d, b):
    # on the strided .real/.imag views, as _norm reads them; contiguous
    # copies sum in another order
    psi = _states(d, b, 5)
    norms = np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))
    for n, state in zip(norms, psi):
        assert n == _norm(state)
