"""Lindblad master equation: generator identities and the split integrator."""

import dataclasses

import numpy as np
import pytest

from usctraj.errors import (
    DimensionMismatchError,
    HermiticityError,
    IntegratorInstabilityError,
)
from usctraj.hilbert import build_layout
from usctraj.lme import (
    POSITIVITY_INTERVAL,
    DensityMatrix,
    density_from_state,
    evolve_lme,
    lindblad_rhs,
)
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.oracles import expectations_1p2a
from usctraj.system import build_system


@pytest.fixture(scope="module")
def small_system():
    layout = build_layout(6)
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=4e-5)
    p = calibrate_resonance(base, layout, which="effective")
    return build_system(p, n_fock=6, hamiltonian="effective")


def test_density_matrix_validation():
    layout = build_layout(2)
    eye = np.eye(layout.dimension) / layout.dimension
    DensityMatrix(layout, eye)  # maximally mixed is fine
    with pytest.raises(HermiticityError):
        m = eye.astype(complex).copy()
        m[0, 1] = 1e-3
        DensityMatrix(layout, m)
    with pytest.raises(ValueError):
        DensityMatrix(layout, 2.0 * eye)  # trace 2
    with pytest.raises(ValueError):
        m = eye.copy()
        m[0, 0] += 0.5
        m[1, 1] -= 0.5  # eigenvalue well below zero
        DensityMatrix(layout, m)


def test_density_from_state_normalizes():
    layout = build_layout(2)
    rho = density_from_state(3.0 * layout.basis_state(0, 1, 0), layout)
    assert rho.entries.trace().real == pytest.approx(1.0, abs=1e-14)


def test_rhs_is_traceless_and_hermiticity_preserving(small_system):
    sys = small_system
    rng = np.random.default_rng(0)
    a = rng.normal(size=(sys.dimension,) * 2) + 1j * rng.normal(size=(sys.dimension,) * 2)
    r = a @ a.conj().T
    r /= r.trace().real
    rhs = lindblad_rhs(r, sys)
    assert abs(rhs.trace()) < 1e-15
    np.testing.assert_allclose(rhs, rhs.conj().T, atol=1e-15)


def test_ground_state_is_stationary(small_system):
    sys = small_system
    rho_gs = density_from_state(sys.basis.ground_state, sys.layout)
    rhs = lindblad_rhs(rho_gs, sys)
    assert np.max(np.abs(rhs)) < 1e-10


def test_cavity_decay_matches_textbook_exponential():
    # single dissipation channel, no coupling: photon number decays at kappa
    layout = build_layout(6)
    p = SystemParams(g=0.0, omega_c=2.0, kappa=1e-3)
    system = build_system(p, n_fock=6, hamiltonian="full")
    rho0 = density_from_state(system.initial_state("1gg"), system.layout)
    series = evolve_lme(system, rho0, 3000.0, 0.5, record_every=100)
    expected = np.exp(-1e-3 * series.time_grid)
    np.testing.assert_allclose(series.expectations["cavity"], expected, atol=1e-6)


def test_unitary_limit_matches_subspace_oscillation(p_resonant):
    # no dissipation: the master equation reduces to the pure pair exchange
    system = build_system(p_resonant, n_fock=6, hamiltonian="effective")
    rho0 = density_from_state(system.initial_state("1gg"), system.layout)
    series = evolve_lme(system, rho0, 2000.0, 0.5, record_every=20)
    pc, _ = expectations_1p2a(series.time_grid, p_resonant)
    np.testing.assert_allclose(series.expectations["cavity"], pc, atol=1e-8)


def test_step_halving_converges(small_system):
    sys = small_system
    rho0 = density_from_state(sys.initial_state("1gg"), sys.layout)
    coarse = evolve_lme(sys, rho0, 400.0, 0.5, record_every=16)
    fine = evolve_lme(sys, rho0, 400.0, 0.25, record_every=32)
    np.testing.assert_array_equal(coarse.time_grid, fine.time_grid)
    for label in coarse.expectations:
        np.testing.assert_allclose(
            coarse.expectations[label], fine.expectations[label], atol=1e-8
        )


def test_final_matrix_is_physical(small_system):
    sys = small_system
    rho0 = density_from_state(sys.initial_state("0ee"), sys.layout)
    series = evolve_lme(sys, rho0, 1000.0, 0.5, record_every=100)
    m = series.final_matrix
    assert abs(m.trace().real - 1.0) < 1e-8
    np.testing.assert_allclose(m, m.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(m).min() > -1e-8


def test_decayed_population_reaches_ground_state():
    # with every channel active the excitation must eventually drain;
    # check the total recorded occupation shrinks substantially
    layout = build_layout(6)
    base = SystemParams(kappa=2e-3, gamma1=2e-3, gamma2=2e-3, gamma_c=2e-3)
    p = calibrate_resonance(base, layout, which="effective")
    sys = build_system(p, n_fock=6, hamiltonian="effective")
    rho0 = density_from_state(sys.initial_state("1gg"), sys.layout)
    series = evolve_lme(sys, rho0, 3000.0, 0.5, record_every=500)
    total0 = sum(v[0] for v in series.expectations.values())
    total1 = sum(v[-1] for v in series.expectations.values())
    assert total1 < 0.05 * total0


def test_rejects_mismatched_hamiltonian(small_system):
    # a state of another dimension than the system's Hamiltonian
    sys = small_system
    other = build_system(sys.params, n_fock=4, hamiltonian="effective")
    rho0 = density_from_state(other.initial_state("1gg"), other.layout)
    with pytest.raises(DimensionMismatchError):
        evolve_lme(sys, rho0, 10.0, 0.5)
    with pytest.raises(DimensionMismatchError):
        lindblad_rhs(rho0, sys)


def test_top_fock_peak_covers_every_step():
    # at n_fock = 2 the pair exchange fills the top Fock level mid-run; one
    # step at a time from each final matrix retraces the same run
    base = SystemParams(kappa=4e-4, gamma1=2e-4, gamma2=2e-4)
    p = calibrate_resonance(base, build_layout(2), which="effective")
    system = build_system(p, n_fock=2, hamiltonian="effective")
    rho = density_from_state(system.initial_state("0ee"), system.layout).entries
    series = evolve_lme(system, rho, 1500.0, 0.5)
    tops = [rho.diagonal()[-4:].real.sum()]
    for _ in range(3000):
        rho = evolve_lme(system, rho, 0.5, 0.5).final_matrix
        tops.append(rho.diagonal()[-4:].real.sum())
    assert series.top_fock_peak == pytest.approx(max(tops), rel=1e-12)
    assert series.top_fock_peak > max(0.5, tops[0], tops[-1])


def test_positivity_guard_checks_the_last_step():
    # negated rates make the generator push a pure start below zero at once
    # (a gain, not a loss): runs shorter than the check interval must raise
    # at their last step, longer ones at the first periodic check
    system = build_system(
        SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5), n_fock=3, hamiltonian="effective"
    )
    gain = dataclasses.replace(system, rates=-system.rates)
    rho0 = density_from_state(system.initial_state("1gg"), system.layout)
    for n_steps, at in (
        (1, 1),
        (POSITIVITY_INTERVAL - 1, POSITIVITY_INTERVAL - 1),
        (POSITIVITY_INTERVAL + 1, POSITIVITY_INTERVAL),
    ):
        with pytest.raises(
            IntegratorInstabilityError, match=f"positivity guard at t = {at * 0.5:g}$"
        ):
            evolve_lme(gain, rho0, n_steps * 0.5, 0.5)


def test_a_run_without_steps_checks_rho0():
    # t_final < dt / 2 takes no step; rho0 must still pass every guard
    system = build_system(
        SystemParams(kappa=2e-3, gamma1=2e-3, gamma2=2e-3), n_fock=3, hamiltonian="effective"
    )
    pair, doubly = system.layout.index(1, 0, 0), system.layout.index(0, 1, 1)
    negative = np.zeros((system.dimension,) * 2, dtype=complex)
    negative[pair, pair], negative[doubly, doubly] = 1.01, -0.01
    doubled = np.zeros_like(negative)
    doubled[pair, pair] = 2.0
    skewed = negative.copy()
    skewed[pair, pair], skewed[doubly, doubly], skewed[pair, doubly] = 1.0, 0.0, 1e-3
    for rho0, match in (
        (negative, "positivity guard at t = 0$"),
        (doubled, "trace drifted by 1.000e\\+00 at t = 0$"),
        (skewed, "Hermiticity degraded to 1.000e-03 at t = 0$"),
    ):
        for t_final in (0.0, 0.2):
            with pytest.raises(IntegratorInstabilityError, match=match):
                evolve_lme(system, rho0, t_final, 0.5)
