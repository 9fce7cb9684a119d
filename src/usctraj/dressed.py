"""Dressed eigenbasis and positive-frequency (excitation-annihilating) jump operators.

In the ultrastrong-coupling regime the bare lowering operators are the wrong
jump operators: the dressed ground state contains virtual excitations, and
bare a or sigma_- would predict emission out of it.  The consistent
construction keeps, for each system-bath coupling quadrature S = s + s^dag,
only the matrix elements that lower the system energy,

    S^+ = sum_{j,k: E_k > E_j} <j|S|k> |j><k|,

expanded over the eigenstates of the same Hamiltonian that drives the
coherent evolution.  S^+ annihilates the dressed ground state by
construction, and quantum jumps connect dressed states directly.

A channel is its position m in ``CHANNEL_LABELS``: ``jump_channels`` returns
the four S^+ matrices as one (4, d, d) stack and their rates as one (4,)
vector in that order, and every engine reads row m of both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError
from .hilbert import OperatorMatrix, elementary_operators
from .model import SystemParams

DEGENERACY_TOL = 1e-9

CHANNEL_LABELS = ("cavity", "qubit1", "qubit2", "collective")


@dataclass(frozen=True)
class DressedBasis:
    """Sorted eigensystem of a Hermitian system Hamiltonian.

    Eigenvalues ascend; eigenvector columns are orthonormal with the phase
    convention that each column's largest-magnitude component is real and
    positive, making repeated construction bitwise reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: OperatorMatrix

    @property
    def ground_state(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    def to_dressed(self, op: np.ndarray) -> np.ndarray:
        v = self.eigenvectors
        return v.conj().T @ op @ v

    def to_product(self, op_dressed: np.ndarray) -> np.ndarray:
        v = self.eigenvectors
        return v @ op_dressed @ v.conj().T


def diagonalize(h: OperatorMatrix) -> DressedBasis:
    """Diagonalize a Hermitian operator with a deterministic phase convention."""
    if not h.hermitian:
        raise HermiticityError("diagonalize requires an operator flagged hermitian")
    evals, evecs = np.linalg.eigh(h.matrix)
    # fix each column's phase: largest-magnitude component real positive
    lead = np.argmax(np.abs(evecs), axis=0)
    pivots = evecs[lead, np.arange(evecs.shape[1])]
    evecs = evecs * (np.abs(pivots) / pivots)[np.newaxis, :]
    return DressedBasis(eigenvalues=evals, eigenvectors=evecs, source=h)


def positive_frequency(s: OperatorMatrix, basis: DressedBasis) -> np.ndarray:
    """Keep the energy-lowering matrix elements of a Hermitian coupling operator.

    Elements between levels closer than the degeneracy tolerance belong to
    neither the raising nor the lowering part and are dropped, which keeps
    (S^+)^dag equal to the complementary sum exactly.
    """
    if not s.hermitian:
        raise HermiticityError("positive_frequency requires a Hermitian coupling operator")
    e = basis.eigenvalues
    lowering = e[np.newaxis, :] > e[:, np.newaxis] + DEGENERACY_TOL
    s_dressed = basis.to_dressed(s.matrix)
    return basis.to_product(np.where(lowering, s_dressed, 0.0))


def jump_channels(p: SystemParams, basis: DressedBasis) -> tuple[np.ndarray, np.ndarray]:
    """S^+ stack (4, d, d) and rates (4,) of the channels, in ``CHANNEL_LABELS`` order.

    cavity: rate kappa, quadrature a + a^dag; qubit1/qubit2: rates gamma1,
    gamma2, quadratures sigma_x; collective: rate gamma_c / 2 with operator
    C1^+ + C2^+ (the factor 1/2 is part of the rate convention, so the
    dissipator reads (gamma_c/2) D[C1^+ + C2^+]).  Zero-rate channels are
    kept so channel positions are the same for every parameter set.
    """
    layout = basis.source.layout
    ops = elementary_operators(layout)
    x_quad = OperatorMatrix(layout, ops["a"].matrix + ops["a_dag"].matrix, hermitian=True)
    x_plus = positive_frequency(x_quad, basis)
    c1_plus = positive_frequency(ops["sx1"], basis)
    c2_plus = positive_frequency(ops["sx2"], basis)
    plus_stack = np.stack([x_plus, c1_plus, c2_plus, c1_plus + c2_plus])
    return plus_stack, np.array([p.kappa, p.gamma1, p.gamma2, p.gamma_c / 2.0])
