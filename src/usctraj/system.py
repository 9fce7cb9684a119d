"""The assembled system every engine takes: Hamiltonian, dressed channels, observables.

Every engine takes a ``DissipativeSystem`` first and steps on ``step_grid``.
It holds the chosen Hamiltonian (full or effective), its dressed basis, the
S^+ stack and rate vector of the four jump channels dressed in that same
basis (channel m is row m, in ``CHANNEL_LABELS`` order), the non-Hermitian
matrix driving the no-jump evolution, and named initial states.  Jump
operators always come from the Hamiltonian that also generates the coherent
dynamics; mixing the two pictures would let a "jump" raise the energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dressed import DressedBasis, diagonalize, jump_channels
from .errors import ConfigError
from .hilbert import BasisLayout, OperatorMatrix, build_layout
from .model import SystemParams, effective_hamiltonian, full_hamiltonian

HAMILTONIAN_CHOICES = ("full", "effective")

INITIAL_STATE_LABELS = (
    "1gg", "0ee", "0eg", "0ge", "chi_plus", "chi_minus", "dressed_gs",
)

OBSERVABLE_LABELS = ("cavity", "qubit1", "qubit2")

# Basis indices of the highest Fock level (the layout puts the photon number
# first); every engine reports their largest population as top_fock_peak.
TOP_FOCK = slice(-4, None)


def step_grid(t_final: float, dt: float, record_every: int) -> tuple[int, np.ndarray]:
    """Number of steps of a run and the step indices every engine records."""
    n_steps = int(round(t_final / dt))
    return n_steps, np.arange(0, n_steps + 1, record_every)


def non_hermitian_matrix(h: np.ndarray, plus: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """H - (i/2) sum_m gamma_m S^-_m S^+_m as a plain matrix."""
    decay = sum(rate * (s.conj().T @ s) for s, rate in zip(plus, rates))
    return h - 0.5j * decay


@dataclass(frozen=True)
class DissipativeSystem:
    """Immutable bundle shared by the MCWF, homodyne, and Lindblad engines.

    ``plus_stack`` stacks the four channel S^+ matrices as an array with
    shape (4, dim, dim) in ``CHANNEL_LABELS`` order (cavity, qubit1, qubit2,
    collective); ``rates`` holds the matching rates.  The first three rows
    double as the recorded observables <S^- S^+> = ||S^+ psi||^2, so
    ``OBSERVABLE_LABELS`` is ``CHANNEL_LABELS[:3]``.
    """

    params: SystemParams
    layout: BasisLayout
    hamiltonian: OperatorMatrix
    basis: DressedBasis
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
    plus_stack, rates = jump_channels(p, basis)
    return DissipativeSystem(
        params=p,
        layout=layout,
        hamiltonian=h,
        basis=basis,
        h_nh=non_hermitian_matrix(h.matrix, plus_stack, rates),
        plus_stack=plus_stack,
        rates=rates,
    )
