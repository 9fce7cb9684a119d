"""Dressed-picture Lindblad master-equation integrator.

The density matrix evolves under

    d rho/dt = -i [H, rho] + sum_m gamma_m ( S+_m rho S-_m
                                             - {S-_m S+_m, rho} / 2 ),

with the dressed S^+ and rates of the ``DissipativeSystem`` the trajectory
engines take: ``evolve_lme(system, rho0, ...)`` and
``lindblad_rhs(rho, system)`` read them from it, on the shared
``step_grid``, so trajectory ensemble averages can be compared pointwise
against this baseline.  Integration is classical RK4 on the dense matrix;
the dimensions in play (<= 64) make sparsity or superoperator tricks
unnecessary.

One wrinkle: the commutator part of the generator carries every Bohr
frequency of H, and dt = 0.5 times the full spectral spread of the
photon ladder lands far outside the RK4 stability interval (|z| <= 2.8
on the imaginary axis), so a plain RK4 step at the grid spacing would
amplify roundoff on the fastest coherences; stabilizing it by brute
substepping still damps those coherences unevenly, which is not a
completely positive perturbation and drags eigenvalues below zero on
long runs.  Each step is therefore Strang-split: an exact unitary
half-step (cached from the eigendecomposition of H), RK4 over dt on the
dissipative generator alone (whose scale gamma * dt ~ 1e-5 makes the
truncation error negligible), and a second unitary half-step.  The
composition is completely positive to machine precision, and each part
is exact or machine-accurate, so the observables agree with a heavily
substepped reference integration at the 1e-8 level.

The dissipator is three matmuls on operands laid out once per run:
``left`` = S^+ as a (d, M d) matrix indexed [j, (m, i)], ``right`` = the
per-channel transpose of conj(S^+) (a view) and the rates as an (M, 1)
column.  ``r.T @ left`` gives S^+_m r for all channels at once, a stacked
product with ``right`` gives S^+_m r S^-_m, and a (d^2, M) @ (M, 1) product
sums them with their rates.  This is the contraction path
``jk,mij->mik``, ``mik,mlk->mil``, ``mil,m->il`` that numpy's
``einsum("m,mij,jk,mlk->il", ..., optimize=True)`` picks for every
dimension the layouts allow (d = 4 n_fock >= 8), with the same transposes,
copies and BLAS calls it runs, so the result is bitwise equal to that einsum
without its per-call path search.  The recorded observables are read the
same way, ``r.reshape(1, d^2) @ obs_cols``, as ``einsum("mij,ji->m", ...)``
does.  ``tests/test_batched_reductions.py`` pins both equalities, so a
numpy or BLAS upgrade that changes either fails there instead of changing
output bytes.  The exact Liouvillian (expm of the d^2 x d^2 generator)
stays rejected: at n_fock = 10 it needs a 1600^2 matrix exponential that
takes about 9 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    HermiticityError,
    IntegratorInstabilityError,
)
from .hilbert import BasisLayout
from .system import OBSERVABLE_LABELS, TOP_FOCK, DissipativeSystem, step_grid

TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
# Construction-time floor for eigenvalues of a state; the integrator guard
# below is looser because RK4 transients ride on top of roundoff.
EIGENVALUE_FLOOR = -1e-8
POSITIVITY_GUARD = -1e-6

# Steps between full eigenvalue checks during integration; the last step
# is always checked, and so is rho0.  Trace and Hermiticity are cheap and
# checked every step.
POSITIVITY_INTERVAL = 200


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix on a basis layout.

    Raises on construction unless the matrix is Hermitian within
    ``HERMITICITY_TOL``, has unit trace within ``TRACE_TOL``, and has no
    eigenvalue below ``EIGENVALUE_FLOOR``.
    """

    layout: BasisLayout
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        d = self.layout.dimension
        if m.shape != (d, d):
            raise DimensionMismatchError(
                f"density matrix shape {m.shape} does not match layout dimension {d}"
            )
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise HermiticityError(
                f"density matrix deviates from Hermitian by {herm:.3e}"
            )
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        lo = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {lo:.3e} below floor")


def density_from_state(psi: np.ndarray, layout: BasisLayout) -> DensityMatrix:
    """Pure-state projector |psi><psi| as a validated DensityMatrix."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return DensityMatrix(layout, np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class ExpectationSeries:
    """Time grid, named expectation values, final matrix, peak top-Fock population."""

    time_grid: np.ndarray
    expectations: dict[str, np.ndarray]
    final_matrix: np.ndarray
    top_fock_peak: float


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, DensityMatrix):
        return op.entries
    return np.asarray(op, dtype=complex)


def _generator_parts(
    r: np.ndarray, system: DissipativeSystem
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_dissipator``'s constant operands ``left``, ``right`` and
    ``rates_col`` (laid out as the module docstring says) and ``decay`` =
    sum_m gamma_m S-_m S+_m.

    Raises DimensionMismatchError unless the state ``r`` is d x d.
    """
    d = system.dimension
    if r.shape != (d, d):
        raise DimensionMismatchError(
            f"state shape {r.shape} does not match system dimension {d}"
        )
    plus, rates = system.plus_stack, system.rates
    decay = np.einsum("m,mji,mjk->ik", rates, plus.conj(), plus, optimize=True)
    left = plus.transpose(2, 0, 1).reshape(d, len(rates) * d)
    right = plus.conj().transpose(0, 2, 1)
    return left, right, rates.reshape(-1, 1), decay


def _dissipator(
    r: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    rates_col: np.ndarray,
    decay: np.ndarray,
) -> np.ndarray:
    """Incoherent part of the generator only (operands from ``_generator_parts``)."""
    d = len(r)
    # S+_m r S-_m for every channel, as (m, i, l), then the rate-weighted sum
    sandwich = (r.T @ left).reshape(d, -1, d).transpose(1, 2, 0) @ right
    out = (sandwich.transpose(1, 2, 0).reshape(d * d, -1) @ rates_col).reshape(d, d)
    out -= 0.5 * (decay @ r + r @ decay)
    return out


def lindblad_rhs(rho, system: DissipativeSystem) -> np.ndarray:
    """d rho/dt for the dressed-picture master equation of ``system``.

    ``rho`` is a DensityMatrix or an array; only its entries are used, so
    unnormalized matrices are accepted (the trace of the result is zero
    regardless).  Each channel contributes gamma_m D[S+_m].
    """
    r = _as_matrix(rho)
    parts = _generator_parts(r, system)
    hm = system.hamiltonian.matrix
    return -1j * (hm @ r - r @ hm) + _dissipator(r, *parts)


def _check_state(r: np.ndarray, t: float, positivity: bool) -> None:
    """Raise IntegratorInstabilityError unless r, the state at time t, passes
    the trace and Hermiticity guards, and the positivity guard if asked."""
    tr_err = abs(r.trace().real - 1.0)
    if tr_err > TRACE_TOL:
        raise IntegratorInstabilityError(f"trace drifted by {tr_err:.3e} at t = {t:g}")
    herm = np.max(np.abs(r - r.conj().T))
    if herm > HERMITICITY_TOL:
        raise IntegratorInstabilityError(f"Hermiticity degraded to {herm:.3e} at t = {t:g}")
    if positivity:
        lo = np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min()
        if lo < POSITIVITY_GUARD:
            raise IntegratorInstabilityError(
                f"eigenvalue {lo:.3e} below positivity guard at t = {t:g}"
            )


def evolve_lme(
    system: DissipativeSystem,
    rho0,
    t_final: float,
    dt: float,
    record_every: int = 1,
) -> ExpectationSeries:
    """Integrate the master equation and record channel occupations.

    The recorded observables are Tr(S^-_m S^+_m rho) for the first three
    channels (cavity, qubit1, qubit2), matching the per-trajectory
    observables ||S^+_m psi||^2, so ensemble means are directly comparable.
    Each dt step is Strang-split (exact unitary half-step, RK4 on the
    dissipator, unitary half-step); see the module docstring.

    Raises
    ------
    DimensionMismatchError
        If ``rho0`` is not d x d for the system's dimension d.
    IntegratorInstabilityError
        If the trace leaves 1 by more than ``TRACE_TOL``, Hermiticity
        degrades past ``HERMITICITY_TOL``, or an eigenvalue falls below
        ``POSITIVITY_GUARD`` in rho0, at a periodic check or after the last
        step.  rho0 is checked before the first step, so a run with no steps
        checks it too.
    """
    n_steps, rec_steps = step_grid(t_final, dt, record_every)
    r = _as_matrix(rho0).copy()
    hm = system.hamiltonian.matrix
    parts = _generator_parts(r, system)
    # Observable matrices S^- S^+ per recorded channel (unweighted by rate),
    # as (d^2, 3) columns indexed [(j, i), m] so that one row-times-matrix
    # product reads Tr(S^-_m S^+_m r) for all three.
    d = system.dimension
    obs = np.stack([p.conj().T @ p for p in system.plus_stack[:3]])
    obs_cols = obs.transpose(2, 1, 0).reshape(d * d, len(obs))

    energies, modes = np.linalg.eigh(0.5 * (hm + hm.conj().T))
    u_half = (modes * np.exp(-0.5j * dt * energies)) @ modes.conj().T
    u_half_dag = u_half.conj().T

    series = np.empty((len(rec_steps), len(OBSERVABLE_LABELS)))

    _check_state(r, 0.0, positivity=True)
    rec = 0
    peak = 0.0
    for k in range(n_steps + 1):
        peak = max(peak, float(r.diagonal()[TOP_FOCK].real.sum()))
        if rec < len(rec_steps) and k == rec_steps[rec]:
            series[rec] = (r.reshape(1, d * d) @ obs_cols)[0].real
            rec += 1
        if k == n_steps:
            break
        r = u_half @ r @ u_half_dag
        k1 = _dissipator(r, *parts)
        k2 = _dissipator(r + 0.5 * dt * k1, *parts)
        k3 = _dissipator(r + 0.5 * dt * k2, *parts)
        k4 = _dissipator(r + dt * k3, *parts)
        r += (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        r = u_half @ r @ u_half_dag
        _check_state(
            r, (k + 1) * dt, (k + 1) % POSITIVITY_INTERVAL == 0 or k + 1 == n_steps
        )

    expectations = {lbl: series[:, i] for i, lbl in enumerate(OBSERVABLE_LABELS)}
    return ExpectationSeries(
        time_grid=rec_steps * dt, expectations=expectations, final_matrix=r,
        top_fock_peak=peak,
    )
