"""Closed-form propagators and expectations on the two analytic 2-dimensional subspaces.

Between jumps the effective model confines the state to one of two manifolds:

* one-photon-two-atom, spanned by (|1,g,g>, |0,e,e>): cavity decay kappa acts
  on the first member, the summed qubit rate Gamma = gamma1 + gamma2 +
  gamma_c on the second, and omega3 couples them;
* qubit-qubit, spanned by (|0,e,g>, |0,g,e>): reached after a qubit jump,
  with half splitting delta, exchange coupling omega2, local rates gamma1 /
  gamma2 on the respective members, and the collective channel coupling the
  symmetric combination.

Both 2x2 non-Hermitian Hamiltonians are exponentiated in closed form.  The
propagators are unnormalized by design; expectation functions renormalize.
Complex oscillation parameters (overdamped regimes) are covered by analytic
continuation, and every formula is even in the square root, so the branch
choice cannot matter.

For the qubit-qubit manifold two conventions of the oscillation parameter
zeta are provided.  "model" is the exact exponential of the subspace
Hamiltonian, with zeta^2 = (4 omega2 - i gamma_c)^2 - (dgamma + 4 i delta)^2
where dgamma = gamma1 - gamma2.  "printed" weights the detuning as
(dgamma + i delta) in both zeta and the diagonal; the two agree whenever
delta = 0 and differ otherwise.  The engine equivalence tests single out
"model"; "printed" is retained for comparison.
"""

from __future__ import annotations

import numpy as np

from .model import SystemParams, effective_couplings

ZETA_VARIANTS = ("model", "printed")


def _sinq(t: np.ndarray, x: complex) -> np.ndarray:
    """sin(x t / 4) / x, continuous through x = 0 where it equals t / 4."""
    t = np.asarray(t, dtype=float)
    return (t / 4.0) * np.sinc(x * t / (4.0 * np.pi))


def big_gamma(p: SystemParams) -> float:
    """Total qubit loss rate Gamma = gamma1 + gamma2 + gamma_c."""
    return p.gamma1 + p.gamma2 + p.gamma_c


def eta_parameter(p: SystemParams) -> complex:
    """Oscillation parameter of the one-photon-two-atom manifold.

    eta = sqrt((4 omega3)^2 - (kappa - Gamma)^2); real when the coupling
    dominates the rate imbalance, imaginary when overdamped.
    """
    ec = effective_couplings(p)
    return complex(np.emath.sqrt((4.0 * ec.omega3) ** 2 - (p.kappa - big_gamma(p)) ** 2))


def one_photon_subspace_hamiltonian(p: SystemParams, energy: float = 0.0) -> np.ndarray:
    """The 2x2 non-Hermitian Hamiltonian on (|1,g,g>, |0,e,e>)."""
    ec = effective_couplings(p)
    return np.array(
        [
            [energy - 0.5j * p.kappa, ec.omega3],
            [ec.omega3, energy - 0.5j * big_gamma(p)],
        ],
        dtype=complex,
    )


def qq_subspace_hamiltonian(
    p: SystemParams, delta: float | None = None, energy: float = 0.0
) -> np.ndarray:
    """The 2x2 non-Hermitian Hamiltonian on (|0,e,g>, |0,g,e>).

    ``delta`` overrides the bare half splitting (callers matching a dressed
    effective Hamiltonian pass the dressed value); cavity decay plays no
    role in this manifold.
    """
    ec = effective_couplings(p)
    d = p.delta if delta is None else delta
    g1, g2, gc = p.gamma1, p.gamma2, p.gamma_c
    return np.array(
        [
            [energy + d - 0.5j * g1 - 0.25j * gc, ec.omega2 - 0.25j * gc],
            [ec.omega2 - 0.25j * gc, energy - d - 0.5j * g2 - 0.25j * gc],
        ],
        dtype=complex,
    )


def u_1p2a(t, p: SystemParams, energy: float = 0.0) -> np.ndarray:
    """Propagator on (|1,g,g>, |0,e,e>), shape t.shape + (2, 2).

    ``energy`` is the common manifold energy; the default drops the global
    phase, matching the corotating convention of the closed-form result.
    """
    ec = effective_couplings(p)
    gam = big_gamma(p)
    eta = eta_parameter(p)
    t = np.asarray(t, dtype=float)
    damp = np.exp(-0.25 * (p.kappa + gam) * t) * np.exp(-1j * energy * t)
    c = np.cos(eta * t / 4.0)
    s_over = _sinq(t, eta)
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = damp * (c - (p.kappa - gam) * s_over)
    out[..., 1, 1] = damp * (c + (p.kappa - gam) * s_over)
    out[..., 0, 1] = out[..., 1, 0] = damp * (-4.0j * ec.omega3 * s_over)
    return out


def expectations_1p2a(t, p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (<X^- X^+>, <C_i^- C_i^+>) starting from |1,g,g>.

    The qubit value is common to both qubits in this manifold.  Evaluated
    from the state amplitudes, so the normalization denominator
    1 - ((kappa - Gamma)/eta) sin(eta t/2) + 2 ((kappa - Gamma)/eta)^2
    sin^2(eta t/4) arises with the cross term linear in sin(eta t/2).
    """
    column = u_1p2a(t, p)[..., 0]
    pa = np.abs(column[..., 0]) ** 2
    pb = np.abs(column[..., 1]) ** 2
    norm = pa + pb
    return pa / norm, pb / norm


def _qq_weights(p: SystemParams, delta: float, variant: str) -> tuple[complex, complex, complex]:
    """(zeta, diagonal weight, off-diagonal weight) for the chosen convention."""
    if variant not in ZETA_VARIANTS:
        raise ValueError(f"zeta variant must be one of {ZETA_VARIANTS}, got {variant!r}")
    ec = effective_couplings(p)
    dgamma = p.gamma1 - p.gamma2
    off = 4.0 * ec.omega2 - 1j * p.gamma_c
    diag = dgamma + (4.0j if variant == "model" else 1.0j) * delta
    zeta = complex(np.emath.sqrt(off**2 - diag**2))
    return zeta, diag, off


def zeta_parameter(p: SystemParams, zeta_variant: str = "model", delta: float | None = None) -> complex:
    """Oscillation parameter of the qubit-qubit manifold."""
    d = p.delta if delta is None else delta
    zeta, _, _ = _qq_weights(p, d, zeta_variant)
    return zeta


def u_qq(
    t,
    p: SystemParams,
    zeta_variant: str = "model",
    delta: float | None = None,
    energy: float = 0.0,
) -> np.ndarray:
    """Propagator on (|0,e,g>, |0,g,e>), shape t.shape + (2, 2).

    With ``zeta_variant="model"`` this is exactly exp(-i H t) for the
    subspace Hamiltonian of ``qq_subspace_hamiltonian``.
    """
    d = p.delta if delta is None else delta
    zeta, diag, off = _qq_weights(p, d, zeta_variant)
    gam = big_gamma(p)
    t = np.asarray(t, dtype=float)
    damp = np.exp(-0.25 * gam * t) * np.exp(-1j * energy * t)
    c = np.cos(zeta * t / 4.0)
    s_over = _sinq(t, zeta)
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = damp * (c - diag * s_over)
    out[..., 1, 1] = damp * (c + diag * s_over)
    out[..., 0, 1] = out[..., 1, 0] = damp * (-1j * off * s_over)
    return out


def _qq_expectations(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized qubit excitation numbers from unnormalized qq amplitudes."""
    p_eg = np.abs(phi[..., 0]) ** 2
    p_ge = np.abs(phi[..., 1]) ** 2
    norm = p_eg + p_ge
    return p_eg / norm, p_ge / norm


def qq_expectations_after_local_jump(
    t,
    p: SystemParams,
    zeta_variant: str = "model",
    delta: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(<C1^- C1^+>, <C2^- C2^+>) after a qubit-1 jump left -i|0,g,e>.

    For identical qubits with collective decay the curves are damped
    sinusoids converging to 1/2 (the no-jump evolution filters toward the
    antisymmetric dark state); on the rotating-wave branch with gamma_c = 0
    they freeze at (0, 1).
    """
    u = u_qq(t, p, zeta_variant=zeta_variant, delta=delta)
    phi = u @ np.array([0.0, -1.0j])
    return _qq_expectations(phi)


def qq_expectations_after_collective_jump(
    t,
    p: SystemParams,
    zeta_variant: str = "model",
    delta: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(<C1^- C1^+>, <C2^- C2^+>) after a collective jump left chi^+.

    chi^+ = (|0,e,g> + |0,g,e>)/sqrt(2) is stationary for identical qubits;
    detuning and rate imbalance tilt the populations, with gamma1 > gamma2
    draining qubit 1 and filling qubit 2.
    """
    u = u_qq(t, p, zeta_variant=zeta_variant, delta=delta)
    phi = u @ (np.array([-1.0j, -1.0j]) / np.sqrt(2.0))
    return _qq_expectations(phi)
