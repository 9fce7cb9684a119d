"""Hamiltonians, perturbative couplings and resonance calibration."""

import numpy as np
import pytest

from usctraj import model
from usctraj.errors import CalibrationError
from usctraj.hilbert import build_layout, elementary_operators
from usctraj.model import (
    EffectiveCouplings,
    SystemParams,
    calibrate_resonance,
    effective_couplings,
    effective_hamiltonian,
    full_hamiltonian,
)

# Frozen third-order values for the default operating point
# (g = 0.1, theta = pi/6, delta = 0): the exchange and pair couplings
# come out at exactly -1e-2 and -1e-3, a ratio of ten.
OMEGA2_DEFAULT = -0.01
OMEGA3_DEFAULT = -0.001
SHIFT_DEFAULT = 0.005
# Calibrated cavity frequencies at the default point.
OMEGA_C_EFFECTIVE = 1.98
OMEGA_C_FULL = 1.979789054203827


def test_default_couplings_frozen_values():
    c = effective_couplings(SystemParams())
    assert c.omega2 == pytest.approx(OMEGA2_DEFAULT, abs=1e-15)
    assert c.omega3 == pytest.approx(OMEGA3_DEFAULT, abs=1e-15)
    assert abs(c.omega2) / abs(c.omega3) == pytest.approx(10.0, abs=1e-12)
    assert c.a1 == pytest.approx(SHIFT_DEFAULT, abs=1e-15)
    assert c.a2 == pytest.approx(SHIFT_DEFAULT, abs=1e-15)


def test_couplings_continuous_in_detuning():
    c0 = effective_couplings(SystemParams(delta=0.0))
    c1 = effective_couplings(SystemParams(delta=1e-8))
    assert c1.omega3 == pytest.approx(c0.omega3, rel=1e-6)
    assert c1.a1 == pytest.approx(c0.a1, rel=1e-6)
    assert c1.a2 == pytest.approx(c0.a2, rel=1e-6)


def test_coupling_angle_dependence():
    # cos^2 theta prefactor: theta = pi/2 kills both couplings
    c = effective_couplings(SystemParams(theta=np.pi / 2))
    assert abs(c.omega2) < 1e-30
    assert abs(c.omega3) < 1e-30
    # theta = 0 keeps omega2 but removes the odd-order pair coupling
    c0 = effective_couplings(SystemParams(theta=0.0))
    assert c0.omega3 == 0.0
    assert c0.omega2 == pytest.approx(-4 * 0.01 / 3, abs=1e-15)


def test_full_hamiltonian_is_hermitian_and_bare_limit():
    layout = build_layout(5)
    p = SystemParams(g=0.0, omega_c=2.0)
    h = full_hamiltonian(p, layout)
    assert h.hermitian
    evals = np.linalg.eigvalsh(h.matrix)
    # bare spectrum: 2 n + (s1 + s2 - 1), lowest entries known exactly
    assert evals[0] == pytest.approx(-1.0, abs=1e-14)
    assert evals[1] == pytest.approx(0.0, abs=1e-14)
    assert evals[2] == pytest.approx(0.0, abs=1e-14)
    assert evals[3] == pytest.approx(1.0, abs=1e-14)


def test_full_hamiltonian_matches_operator_assembly():
    layout = build_layout(4)
    p = SystemParams(delta=0.07)
    ops = elementary_operators(layout)
    x = ops["a"].matrix + ops["a_dag"].matrix
    n_op = ops["a_dag"].matrix @ ops["a"].matrix
    expected = (
        p.omega_c * n_op
        + 0.5 * (p.omega0 + p.delta) * ops["sz1"].matrix
        + 0.5 * (p.omega0 - p.delta) * ops["sz2"].matrix
        + p.g
        * x
        @ (
            np.cos(p.theta) * (ops["sx1"].matrix + ops["sx2"].matrix)
            + np.sin(p.theta) * (ops["sz1"].matrix + ops["sz2"].matrix)
        )
    )
    h = full_hamiltonian(p, layout)
    np.testing.assert_allclose(h.matrix, expected, atol=1e-14)


def test_exchange_branch_follows_detuning():
    layout = build_layout(4)
    # |delta| above the exchange scale: rotating-wave branch, no exchange term
    p_split = SystemParams(delta=0.02)
    h_split = effective_hamiltonian(p_split, layout)
    # |delta| below: exchange term present, visible in the qq off-diagonal
    p_close = SystemParams(delta=0.005)
    h_close = effective_hamiltonian(p_close, layout)
    i_eg = layout.index(0, 1, 0)
    i_ge = layout.index(0, 0, 1)
    assert h_split.matrix[i_eg, i_ge] == 0.0
    assert h_close.matrix[i_eg, i_ge] != 0.0
    c = effective_couplings(p_close)
    assert h_close.matrix[i_eg, i_ge] == pytest.approx(c.omega2, abs=1e-15)


def test_exchange_override_flag():
    layout = build_layout(4)
    p = SystemParams(delta=0.02)
    i_eg = layout.index(0, 1, 0)
    i_ge = layout.index(0, 0, 1)
    h_on = effective_hamiltonian(p, layout, include_qubit_exchange=True)
    h_off = effective_hamiltonian(p, layout, include_qubit_exchange=False)
    assert h_on.matrix[i_eg, i_ge] != 0.0
    assert h_off.matrix[i_eg, i_ge] == 0.0


def test_pair_coupling_connects_photon_and_two_excitations():
    layout = build_layout(4)
    p = SystemParams()
    h = effective_hamiltonian(p, layout)
    c = effective_couplings(p)
    i_1gg = layout.index(1, 0, 0)
    i_0ee = layout.index(0, 1, 1)
    assert h.matrix[i_1gg, i_0ee] == pytest.approx(c.omega3, abs=1e-15)


def test_usc_regime_warning():
    with pytest.warns(UserWarning):
        effective_couplings(SystemParams(g=0.4))
    # well inside the perturbative window: silent
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        effective_couplings(SystemParams(g=0.1))


def test_calibration_effective_closed_form(layout6):
    p = calibrate_resonance(SystemParams(), layout6, which="effective")
    assert isinstance(p, SystemParams)
    assert p.omega_c == pytest.approx(OMEGA_C_EFFECTIVE, abs=1e-12)
    # everything else untouched
    assert p.g == 0.1
    assert p.delta == 0.0


def test_calibration_full_frozen_value(layout10):
    p = calibrate_resonance(SystemParams(), layout10, which="full")
    assert p.omega_c == pytest.approx(OMEGA_C_FULL, abs=1e-9)


def test_calibration_actually_centers_the_anticrossing(layout10):
    # at the calibrated point the pair states are split symmetrically, so
    # detuning the cavity either way must increase the gap asymmetry
    p = calibrate_resonance(SystemParams(), layout10, which="full")

    def gap(omega_c):
        import dataclasses

        q = dataclasses.replace(p, omega_c=omega_c)
        evals = np.linalg.eigvalsh(full_hamiltonian(q, layout10).matrix)
        return evals[4] - evals[3]

    g0 = gap(p.omega_c)
    assert gap(p.omega_c + 5e-4) > g0
    assert gap(p.omega_c - 5e-4) > g0


def test_calibration_rejects_far_detuned_start(layout6):
    with pytest.raises(CalibrationError):
        calibrate_resonance(SystemParams(omega_c=1.5), layout6, which="full")


# (g, delta, theta, starting omega_c, n_fock): the presets' point, their
# detunings and fig5's delta_max, weaker and stronger couplings, other mixing
# angles, starts off 2 omega0 and the three truncations the presets and
# workloads use
GOLDEN_CASES = [
    (0.1, 0.0, np.pi / 6, 2.0, 10),
    (0.1, 0.15, np.pi / 6, 2.0, 10),
    (0.1, 0.3, np.pi / 6, 2.0, 10),
    (0.1, 0.0, np.pi / 6, 2.0, 6),
    (0.1, 0.0, np.pi / 6, 2.0, 4),
    (0.1, 0.01, np.pi / 6, 1.9, 10),
    (0.1, 0.05, np.pi / 6, 2.1, 6),
    (0.02, 0.0, np.pi / 6, 2.0, 10),
    (0.02, 0.05, 0.3, 2.1, 4),
    (0.02, 0.01, 1.0, 1.9, 6),
    (0.05, 0.0, 0.3, 2.0, 6),
    (0.05, 0.15, 1.0, 2.0, 10),
    (0.05, 0.01, np.pi / 6, 2.1, 4),
    (0.05, 0.05, np.pi / 6, 1.9, 10),
    (0.15, 0.0, np.pi / 6, 2.0, 10),
    (0.15, 0.01, 0.3, 2.0, 10),
    (0.15, 0.05, 1.0, 2.1, 6),
    (0.15, 0.15, np.pi / 6, 1.9, 4),
    (0.1, 0.0, 0.3, 2.0, 10),
    (0.1, 0.0, 1.0, 2.0, 10),
]


@pytest.mark.parametrize("g, delta, theta, omega_c, n_fock", GOLDEN_CASES)
def test_full_calibration_is_scipy_golden_section_bit_for_bit(
    monkeypatch, g, delta, theta, omega_c, n_fock
):
    from scipy.optimize import minimize_scalar

    evaluations = []
    pair_gap = model._pair_gap
    monkeypatch.setattr(model, "_pair_gap", lambda *a: evaluations.append(a) or pair_gap(*a))
    refinements = []
    golden = model._golden_minimum

    def spy(f, xa, xb, xc):
        refinements.append((f, (xa, xb, xc), len(evaluations)))
        return golden(f, xa, xb, xc)

    monkeypatch.setattr(model, "_golden_minimum", spy)
    p = SystemParams(g=g, delta=delta, theta=theta, omega_c=omega_c)
    calibrated = calibrate_resonance(p, build_layout(n_fock), which="full")
    total = len(evaluations)
    [(gap, bracket, scanned)] = refinements
    res = minimize_scalar(gap, bracket=bracket, method="golden", options={"xtol": 1e-8})
    assert calibrated.omega_c == res.x
    assert total - scanned == res.nfev
    if (g, delta, theta, omega_c, n_fock) == GOLDEN_CASES[0]:
        assert total == 112


def test_a_bracket_whose_minimum_ties_is_a_calibration_error():
    # the scan's argmin is the first minimum, so a tie is with the right neighbour
    for f in (lambda x: max(x, 1.0), lambda x: min(x, 1.0), lambda x: 1.0):
        with pytest.raises(CalibrationError, match="does not enclose a minimum"):
            model._golden_minimum(f, 0.0, 1.0, 2.0)
    with pytest.raises(CalibrationError, match="not increasing"):
        model._golden_minimum(lambda x: abs(x - 1.0), 2.0, 1.0, 0.0)


def test_a_scan_minimum_tied_with_its_neighbour_is_a_calibration_error(monkeypatch, layout6):
    # gaps fall to 0 at omega_c = 2 and stay there, so the first scan minimum
    # ties with the point after it
    monkeypatch.setattr(model, "_full_matrix", lambda wc, terms: wc)
    monkeypatch.setattr(model, "_pair_gap", lambda wc, a, b: max(2.0 - wc, 0.0))
    with pytest.raises(CalibrationError, match="does not enclose a minimum"):
        calibrate_resonance(SystemParams(), layout6, which="full")


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(omega0=-1.0)
    with pytest.raises(ValueError):
        SystemParams(kappa=-1e-5)
    with pytest.warns(UserWarning):
        # delta = omega0 puts one qubit at zero frequency: the perturbative
        # formulas blow up, reported as a ValueError after the regime warning
        with pytest.raises(ValueError):
            effective_couplings(SystemParams(delta=1.0))


def test_effective_and_full_spectra_agree_at_low_energy(layout10):
    # a two-point check; the dense detuning scan lives in the acceptance suite
    for delta in (0.0, 0.2):
        base = SystemParams(delta=delta)
        p = calibrate_resonance(base, layout10, which="full")
        ev_full = np.linalg.eigvalsh(full_hamiltonian(p, layout10).matrix)
        ev_eff = np.linalg.eigvalsh(effective_hamiltonian(p, layout10).matrix)
        lowest_full = ev_full[:6] - ev_full[0]
        lowest_eff = ev_eff[:6] - ev_eff[0]
        assert np.max(np.abs(lowest_full - lowest_eff)) < 2e-3


def test_couplings_dataclass_is_frozen():
    c = effective_couplings(SystemParams())
    assert isinstance(c, EffectiveCouplings)
    with pytest.raises(AttributeError):
        c.omega2 = 0.0
