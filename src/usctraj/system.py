"""One-stop assembly of a dissipative system: Hamiltonian, dressed channels, observables.

Builds everything the trajectory engines share: the chosen Hamiltonian (full
or effective), its dressed basis, the four jump channels dressed in that same
basis, the non-Hermitian matrix driving the no-jump evolution, and named
initial states.  Jump operators always come from the Hamiltonian that also
generates the coherent dynamics; mixing the two pictures would let a "jump"
raise the energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dressed import DressedBasis, JumpChannel, diagonalize, jump_channels
from .errors import ConfigError
from .hilbert import BasisLayout, OperatorMatrix, build_layout
from .model import SystemParams, effective_hamiltonian, full_hamiltonian

HAMILTONIAN_CHOICES = ("full", "effective")

INITIAL_STATE_LABELS = (
    "1gg", "0ee", "0eg", "0ge", "chi_plus", "chi_minus", "dressed_gs",
)

OBSERVABLE_LABELS = ("cavity", "qubit1", "qubit2")


def non_hermitian_matrix(h: np.ndarray, channels: list[JumpChannel]) -> np.ndarray:
    """H - (i/2) sum_m gamma_m S^-_m S^+_m as a plain matrix."""
    decay = sum(
        c.rate * (c.operator_minus.matrix @ c.operator_plus.matrix) for c in channels
    )
    return h - 0.5j * decay


@dataclass(frozen=True)
class DissipativeSystem:
    """Immutable bundle shared by the MCWF, homodyne, and Lindblad engines.

    ``plus_stack`` stacks the four channel S^+ matrices as an array with
    shape (4, dim, dim) in the fixed channel order (cavity, qubit1, qubit2,
    collective); ``rates`` holds the matching rates.  The first three rows
    double as the recorded observables <S^- S^+> = ||S^+ psi||^2.
    """

    params: SystemParams
    layout: BasisLayout
    hamiltonian: OperatorMatrix
    basis: DressedBasis
    channels: tuple[JumpChannel, ...]
    h_nh: np.ndarray
    plus_stack: np.ndarray
    rates: np.ndarray

    @property
    def dimension(self) -> int:
        return self.layout.dimension

    def initial_state(self, label: str) -> np.ndarray:
        """Named initial states used throughout: bare kets, qubit Bell-like
        superpositions chi_pm = (|0,e,g> +/- |0,g,e>)/sqrt(2), and the
        dressed ground state."""
        lay = self.layout
        if label == "1gg":
            return lay.basis_state(1, 0, 0)
        if label == "0ee":
            return lay.basis_state(0, 1, 1)
        if label == "0eg":
            return lay.basis_state(0, 1, 0)
        if label == "0ge":
            return lay.basis_state(0, 0, 1)
        if label in ("chi_plus", "chi_minus"):
            sign = 1.0 if label == "chi_plus" else -1.0
            psi = lay.basis_state(0, 1, 0) + sign * lay.basis_state(0, 0, 1)
            return psi / np.sqrt(2.0)
        if label == "dressed_gs":
            return self.basis.ground_state.copy()
        raise ConfigError(
            f"unknown initial state {label!r}; choose from {INITIAL_STATE_LABELS}"
        )


def build_system(
    p: SystemParams,
    n_fock: int = 10,
    hamiltonian: str = "full",
    include_qubit_exchange: bool | None = None,
) -> DissipativeSystem:
    """Assemble the system for a given Hamiltonian choice.

    Calibration of omega_c is the caller's responsibility (see
    ``model.calibrate_resonance``); this builder takes the parameters as
    given.
    """
    if hamiltonian not in HAMILTONIAN_CHOICES:
        raise ConfigError(
            f"hamiltonian must be one of {HAMILTONIAN_CHOICES}, got {hamiltonian!r}"
        )
    layout = build_layout(n_fock)
    if hamiltonian == "full":
        h = full_hamiltonian(p, layout)
    else:
        h = effective_hamiltonian(p, layout, include_qubit_exchange)
    basis = diagonalize(h)
    channels = tuple(jump_channels(p, basis))
    plus_stack = np.stack([c.operator_plus.matrix for c in channels])
    rates = np.array([c.rate for c in channels])
    return DissipativeSystem(
        params=p,
        layout=layout,
        hamiltonian=h,
        basis=basis,
        channels=channels,
        h_nh=non_hermitian_matrix(h.matrix, list(channels)),
        plus_stack=plus_stack,
        rates=rates,
    )
