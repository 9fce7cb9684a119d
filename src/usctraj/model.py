"""System parameters, full and effective Hamiltonians, and resonance calibration.

The full Hamiltonian couples two qubits to one cavity mode through both
transverse (sigma_x) and longitudinal (sigma_z) quadratures,

    H = wc a^dag a + (wq1/2) sz1 + (wq2/2) sz2
        + g (a + a^dag) [(sx1 + sx2) cos(theta) + (sz1 + sz2) sin(theta)],

with wq1 = w0 + delta and wq2 = w0 - delta.  Near the two-excitation
resonance wc ~ 2 w0 a perturbative expansion to third order in g produces an
effective model containing a qubit-qubit exchange term (rate omega2, active
only for near-identical qubits), a photon-pair-of-excitations exchange term
(rate omega3, the one-photon-two-atom coupling), and diagonal dressing
shifts.  All frequencies are expressed in units of w0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import CalibrationError, ConfigError, SingularCouplingError
from .hilbert import BasisLayout, OperatorMatrix, elementary_operators

USC_WARNING_FRACTION = 0.3


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and frequencies, all in units of omega0.

    Parameters
    ----------
    omega0 : float
        Mean qubit frequency; the unit of every other rate (normally 1.0).
    delta : float
        Half the qubit splitting: wq1 = omega0 + delta, wq2 = omega0 - delta.
    omega_c : float
        Cavity frequency, nominally near 2 * omega0.
    g : float
        Qubit-cavity coupling rate (same for both qubits).
    theta : float
        Mixing angle between transverse and longitudinal coupling.
    kappa : float
        Cavity decay rate.
    gamma1, gamma2 : float
        Local qubit de-excitation rates.
    gamma_c : float
        Collective qubit emission rate.
    """

    omega0: float = 1.0
    delta: float = 0.0
    omega_c: float = 2.0
    g: float = 0.1
    theta: float = np.pi / 6
    kappa: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma_c: float = 0.0

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ConfigError(f"omega0 must be positive, got {self.omega0}")
        for name in ("kappa", "gamma1", "gamma2", "gamma_c"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.g < 0:
            raise ConfigError(f"g must be >= 0, got {self.g}")
        for wq in (self.omega_q1, self.omega_q2):
            detuning = abs(self.omega_c - wq)
            if self.g > USC_WARNING_FRACTION * detuning:
                warnings.warn(
                    f"g = {self.g} exceeds {USC_WARNING_FRACTION} of the cavity-qubit "
                    f"detuning |omega_c - omega_q| = {detuning:.4g}; the perturbative "
                    "effective model is unreliable here",
                    UserWarning,
                    stacklevel=2,
                )

    @property
    def omega_q1(self) -> float:
        return self.omega0 + self.delta

    @property
    def omega_q2(self) -> float:
        return self.omega0 - self.delta


@dataclass(frozen=True)
class EffectiveCouplings:
    """Closed-form couplings and shifts of the third-order effective model.

    omega2 is the qubit-qubit exchange rate; it is set to zero when the
    detuning makes the exchange off-resonant (rotating-wave branch).  omega3 couples |1,g,g> and |0,e,e>.  a1 and
    a2 are the second-order dressing coefficients of each qubit; the diagonal
    shifts they generate move |1,g,g> up and |0,e,e> down by a1 + a2.
    """

    omega2: float
    omega3: float
    a1: float
    a2: float


def effective_couplings(
    p: SystemParams, include_qubit_exchange: bool | None = None
) -> EffectiveCouplings:
    """Evaluate the perturbative couplings and dressing coefficients.

    Parameters
    ----------
    p : SystemParams
    include_qubit_exchange : bool or None
        Force the qubit-qubit exchange term on or off.  The default (None)
        keeps it when |delta| < |omega2|, where the exchange is resonant
        enough to matter, and drops it otherwise (rotating-wave branch).

    Raises
    ------
    SingularCouplingError
        If |delta| >= omega0 (the perturbative denominators vanish).
    """
    w0, d, g, th = p.omega0, p.delta, p.g, p.theta
    if abs(d) >= w0:
        raise SingularCouplingError(
            f"|delta| = {abs(d)} >= omega0 = {w0}: perturbative denominators vanish"
        )
    c2 = np.cos(th) ** 2
    omega2_formula = -4.0 * g**2 * c2 / (3.0 * w0)
    omega3 = (
        -8.0 * g**3 * c2 * np.sin(th) * (3.0 * w0**2 + d**2)
        / ((w0**2 - d**2) * (9.0 * w0**2 - d**2))
    )
    a1 = 2.0 * g**2 * c2 * (w0 + d) / ((w0 - d) * (3.0 * w0 + d))
    a2 = 2.0 * g**2 * c2 * (w0 - d) / ((w0 + d) * (3.0 * w0 - d))
    if include_qubit_exchange is None:
        include_qubit_exchange = abs(d) < abs(omega2_formula)
    omega2 = omega2_formula if include_qubit_exchange else 0.0
    return EffectiveCouplings(
        omega2=omega2,
        omega3=float(omega3),
        a1=float(a1),
        a2=float(a2),
    )


def _full_terms(p: SystemParams, layout: BasisLayout) -> tuple[np.ndarray, ...]:
    """The omega_c-independent pieces of the full Hamiltonian.

    Returns a^dag a, (wq1/2) sz1, (wq2/2) sz2 and the coupling term, for
    ``_full_matrix`` to add up at any omega_c.
    """
    ops = elementary_operators(layout)
    a, ad = ops["a"].matrix, ops["a_dag"].matrix
    sx1, sx2 = ops["sx1"].matrix, ops["sx2"].matrix
    sz1, sz2 = ops["sz1"].matrix, ops["sz2"].matrix
    return (
        ad @ a,
        0.5 * p.omega_q1 * sz1,
        0.5 * p.omega_q2 * sz2,
        p.g * (a + ad) @ (
            (sx1 + sx2) * np.cos(p.theta) + (sz1 + sz2) * np.sin(p.theta)
        ),
    )


def _full_matrix(wc: float, terms: tuple[np.ndarray, ...]) -> np.ndarray:
    """H = wc a^dag a + the ``_full_terms``, summed left to right.

    The order is that of the formula, ((wc N + sz1 term) + sz2 term) +
    coupling; adding wc N to a prebuilt sum of the rest rounds differently.
    """
    num, qubit1, qubit2, coupling = terms
    return wc * num + qubit1 + qubit2 + coupling


def full_hamiltonian(p: SystemParams, layout: BasisLayout) -> OperatorMatrix:
    """Assemble the full qubit-qubit-cavity Hamiltonian on the product basis."""
    h = _full_matrix(p.omega_c, _full_terms(p, layout))
    return OperatorMatrix(layout, h, hermitian=True, name="H_full")


def effective_hamiltonian(
    p: SystemParams,
    layout: BasisLayout,
    include_qubit_exchange: bool | None = None,
) -> OperatorMatrix:
    """Assemble the effective Hamiltonian (bare + shifts + exchange terms).

    The diagonal dressing shifts are kept explicitly rather than absorbed
    into redefined frequencies, so the model reproduces the detunings of the
    full Hamiltonian at the same nominal parameters; pairing this with
    ``calibrate_resonance(..., which="effective")`` puts the one-photon
    manifold exactly on resonance.
    """
    ec = effective_couplings(p, include_qubit_exchange)
    ops = elementary_operators(layout)
    a, ad = ops["a"].matrix, ops["a_dag"].matrix
    sz1, sz2 = ops["sz1"].matrix, ops["sz2"].matrix
    sp1, sp2 = ops["sp1"].matrix, ops["sp2"].matrix
    sm1, sm2 = ops["sm1"].matrix, ops["sm2"].matrix
    num = ad @ a
    zz = sz1 + sz2
    h = (
        p.omega_c * num
        + 0.5 * p.omega_q1 * sz1
        + 0.5 * p.omega_q2 * sz2
        - (ec.a1 * sz1 + ec.a2 * sz2) @ num
        - (p.g**2 * np.sin(p.theta) ** 2 / (2.0 * p.omega0)) * (zz @ zz)
        - 0.5 * ec.a1 * sz1
        - 0.5 * ec.a2 * sz2
        + ec.omega2 * (sm1 @ sp2 + sp1 @ sm2)
        + ec.omega3 * (a @ sp1 @ sp2 + ad @ sm1 @ sm2)
    )
    return OperatorMatrix(layout, h, hermitian=True, name="H_eff")


def _pair_gap(h: np.ndarray, idx_a: int, idx_b: int) -> float:
    """Gap between the two eigenlevels carrying the most weight on two kets."""
    evals, evecs = np.linalg.eigh(h)
    weight = np.abs(evecs[idx_a, :]) ** 2 + np.abs(evecs[idx_b, :]) ** 2
    order = np.argsort(weight)
    i, j = order[-1], order[-2]
    return abs(evals[i] - evals[j])


def calibrate_resonance(
    p: SystemParams, layout: BasisLayout, which: str = "full"
) -> SystemParams:
    """Tune omega_c so |1,g,g> and |0,e,e> become degenerate after dressing.

    For ``which="full"`` the gap between the two full-Hamiltonian dressed
    levels with maximal weight on |1,g,g> and |0,e,e> is minimized by a
    coarse scan followed by a golden-section refinement (tolerance 1e-7 on
    omega_c).  At the minimum the residual gap is the avoided-crossing width
    2|omega3|.  For ``which="effective"`` the second-order shifts are known
    in closed form and the resonance omega_c = 2 omega0 - 2 (a1 + a2) is
    exact; no scan is needed.

    Returns a copy of ``p`` with omega_c replaced.

    Raises
    ------
    CalibrationError
        If the starting omega_c is more than 0.2 omega0 from 2 omega0, or
        the scan finds no interior gap minimum.
    """
    two_w0 = 2.0 * p.omega0
    if abs(p.omega_c - two_w0) > 0.2 * p.omega0:
        raise CalibrationError(
            f"starting omega_c = {p.omega_c} is outside the scan window "
            f"[{two_w0 - 0.2 * p.omega0}, {two_w0 + 0.2 * p.omega0}]"
        )
    if which == "effective":
        ec = effective_couplings(p)
        return replace(p, omega_c=two_w0 - 2.0 * (ec.a1 + ec.a2))
    if which != "full":
        raise ConfigError(f"which must be 'full' or 'effective', got {which!r}")
    if p.g == 0:
        return replace(p, omega_c=p.omega_q1 + p.omega_q2)

    idx_1gg = layout.index(1, 0, 0)
    idx_0ee = layout.index(0, 1, 1)
    terms = _full_terms(p, layout)

    def gap(wc: float) -> float:
        return _pair_gap(_full_matrix(wc, terms), idx_1gg, idx_0ee)

    lo, hi = two_w0 - 0.2 * p.omega0, two_w0 + 0.2 * p.omega0
    grid = np.linspace(lo, hi, 81)
    gaps = [gap(w) for w in grid]
    k = int(np.argmin(gaps))
    if k == 0 or k == len(grid) - 1:
        raise CalibrationError(
            "no interior gap minimum in the scan window; the one-photon "
            "anticrossing is outside omega_c in [1.8, 2.2] omega0"
        )
    res = minimize_scalar(
        gap,
        bracket=(grid[k - 1], grid[k], grid[k + 1]),
        method="golden",
        options={"xtol": 1e-8},
    )
    return replace(p, omega_c=float(res.x))
