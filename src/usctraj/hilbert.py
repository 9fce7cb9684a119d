"""Truncated cavity (x) qubit (x) qubit Hilbert space and elementary operators.

Conventions
-----------
Product kets are ordered |n> (x) |q1> (x) |q2> with the photon number n the
slowest index, then qubit 1, then qubit 2.  Within each qubit |g> precedes
|e>, and |e> is the +1 eigenstate of sigma_z, so the bare qubit energy is
+wq/2 for |e>.  The flat index of |n, s1, s2> is 4*n + 2*s1 + s2 with s = 0
for g and s = 1 for e.  Everything is dense: the paper-scale dimension never
exceeds 64, where dense eigensolvers and matrix exponentials win.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, HermiticityError, TruncationError

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class BasisLayout:
    """Index bookkeeping for the truncated product space.

    Attributes
    ----------
    n_fock : int
        Cavity Fock truncation; kept states are |0> .. |n_fock - 1>.
    dimension : int
        Total dimension, always 4 * n_fock.
    """

    n_fock: int
    dimension: int

    def index(self, n: int, s1: int, s2: int) -> int:
        """Flat index of |n, s1, s2> with s = 0 for g, 1 for e."""
        if not (0 <= n < self.n_fock and s1 in (0, 1) and s2 in (0, 1)):
            raise DimensionMismatchError(
                f"state (n={n}, s1={s1}, s2={s2}) outside layout with n_fock={self.n_fock}"
            )
        return 4 * n + 2 * s1 + s2

    def basis_state(self, n: int, s1: int, s2: int) -> np.ndarray:
        """Unit vector for the product ket |n, s1, s2>."""
        psi = np.zeros(self.dimension, dtype=complex)
        psi[self.index(n, s1, s2)] = 1.0
        return psi


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator with basis metadata and an optional hermiticity pledge."""

    layout: BasisLayout
    matrix: np.ndarray
    hermitian: bool = False
    name: str = field(default="", compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.layout.dimension, self.layout.dimension):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match layout dimension {self.layout.dimension}"
            )
        object.__setattr__(self, "matrix", m)
        if self.hermitian:
            asym = np.max(np.abs(m - m.conj().T))
            if asym >= HERMITICITY_TOL:
                raise HermiticityError(
                    f"operator {self.name or '<unnamed>'} flagged hermitian but max |M - M^dag| = {asym:.3e}"
                )


def build_layout(n_fock: int) -> BasisLayout:
    """Validate the truncation and return the index layout.

    n_fock must be at least 2: one photon plus vacuum is the minimum needed to
    host the one-photon-two-atom manifold and counter-rotating admixtures.
    """
    if int(n_fock) != n_fock or n_fock < 2:
        raise TruncationError(f"n_fock must be an integer >= 2, got {n_fock!r}")
    return BasisLayout(n_fock=int(n_fock), dimension=4 * int(n_fock))


def elementary_operators(layout: BasisLayout) -> dict[str, OperatorMatrix]:
    """Elementary operators embedded in the full product space.

    Returns a dict with keys: a, a_dag, sx1, sx2, sz1, sz2, sp1, sp2, sm1,
    sm2, identity.  The cavity annihilator satisfies a|n> = sqrt(n)|n-1> with
    the top Fock row truncated; Pauli operators act on their own qubit factor.
    """
    nf = layout.n_fock
    a_cav = np.diag(np.sqrt(np.arange(1, nf, dtype=float)), k=1)
    i_cav = np.eye(nf)
    i2 = np.eye(2)
    # qubit basis order (g, e); e is the +1 eigenstate of sigma_z
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[-1.0, 0.0], [0.0, 1.0]])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g|
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|

    def embed(c, q1, q2):
        return np.kron(c, np.kron(q1, q2)).astype(complex)

    mats = {
        "a": embed(a_cav, i2, i2),
        "a_dag": embed(a_cav.T, i2, i2),
        "sx1": embed(i_cav, sx, i2),
        "sx2": embed(i_cav, i2, sx),
        "sz1": embed(i_cav, sz, i2),
        "sz2": embed(i_cav, i2, sz),
        "sp1": embed(i_cav, sp, i2),
        "sp2": embed(i_cav, i2, sp),
        "sm1": embed(i_cav, sm, i2),
        "sm2": embed(i_cav, i2, sm),
        "identity": embed(i_cav, i2, i2),
    }
    hermitian_names = {"sx1", "sx2", "sz1", "sz2", "identity"}
    return {
        name: OperatorMatrix(layout, m, hermitian=name in hermitian_names, name=name)
        for name, m in mats.items()
    }


def expectation(op: OperatorMatrix, psi: np.ndarray) -> complex | float:
    """<psi|M|psi>; returns a real float when the operator is flagged Hermitian."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (op.layout.dimension,):
        raise DimensionMismatchError(
            f"state shape {psi.shape} does not match operator dimension {op.layout.dimension}"
        )
    val = complex(np.vdot(psi, op.matrix @ psi))
    if op.hermitian:
        return val.real
    return val
