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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class JumpChannel:
    """One dissipation channel: a rate and its dressed lowering operator.

    ``operator_plus`` is S^+ (lowers the energy), ``operator_minus`` its
    adjoint.  Zero-rate channels are kept so channel indices are stable
    across parameter sets.
    """

    label: str
    rate: float
    operator_plus: OperatorMatrix
    operator_minus: OperatorMatrix = field(repr=False)

    def __post_init__(self):
        if self.label not in CHANNEL_LABELS:
            raise ValueError(f"unknown channel label {self.label!r}")
        if self.rate < 0:
            raise ValueError(f"channel rate must be >= 0, got {self.rate}")


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


def positive_frequency(s: OperatorMatrix, basis: DressedBasis) -> OperatorMatrix:
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
    s_plus = basis.to_product(np.where(lowering, s_dressed, 0.0))
    return OperatorMatrix(s.layout, s_plus, hermitian=False,
                          name=(s.name + "^+") if s.name else "S^+")


def jump_channels(p: SystemParams, basis: DressedBasis) -> list[JumpChannel]:
    """The four dissipation channels dressed in the given basis.

    cavity: rate kappa, quadrature a + a^dag; qubit1/qubit2: rates gamma1,
    gamma2, quadratures sigma_x; collective: rate gamma_c / 2 with operator
    C1^+ + C2^+ (the factor 1/2 is part of the rate convention, so the
    dissipator reads (gamma_c/2) D[C1^+ + C2^+]).
    """
    ops = elementary_operators(basis.source.layout)
    layout = basis.source.layout
    x_quad = OperatorMatrix(layout, ops["a"].matrix + ops["a_dag"].matrix,
                            hermitian=True, name="a+a_dag")
    x_plus = positive_frequency(x_quad, basis)
    c1_plus = positive_frequency(ops["sx1"], basis)
    c2_plus = positive_frequency(ops["sx2"], basis)
    coll_plus = OperatorMatrix(layout, c1_plus.matrix + c2_plus.matrix,
                               hermitian=False, name="C1^+ + C2^+")

    def chan(label, rate, plus):
        return JumpChannel(label=label, rate=rate, operator_plus=plus,
                           operator_minus=plus.dagger())

    return [
        chan("cavity", p.kappa, x_plus),
        chan("qubit1", p.gamma1, c1_plus),
        chan("qubit2", p.gamma2, c2_plus),
        chan("collective", p.gamma_c / 2.0, coll_plus),
    ]
