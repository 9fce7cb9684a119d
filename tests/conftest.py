"""Shared fixtures: prebuilt layouts and dissipative systems.

Building a system diagonalizes the Hamiltonian and dresses the jump
operators, so the common configurations are session-scoped.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from usctraj import ensemble, mcwf
from usctraj.hilbert import build_layout
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.system import OBSERVABLE_LABELS, build_system, step_grid


@pytest.fixture(scope="session")
def layout6():
    return build_layout(6)


@pytest.fixture(scope="session")
def layout10():
    return build_layout(10)


@pytest.fixture(scope="session")
def p_resonant(layout6):
    """Lossless resonant parameters, effective-exact calibration."""
    return calibrate_resonance(SystemParams(), layout6, which="effective")


@pytest.fixture(scope="session")
def p_paper_rates(layout6):
    """The headline dissipative configuration: kappa = gamma = 4e-5."""
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=0.0)
    return calibrate_resonance(base, layout6, which="effective")


@pytest.fixture(scope="session")
def system_eff(p_paper_rates):
    return build_system(p_paper_rates, n_fock=6, hamiltonian="effective")


@pytest.fixture(scope="session")
def p_full10(layout10):
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=0.0)
    return calibrate_resonance(base, layout10, which="full")


@pytest.fixture(scope="session")
def system_full10(p_full10):
    return build_system(p_full10, n_fock=10, hamiltonian="full")


@pytest.fixture(scope="session")
def trajectories_alone():
    """The trajectories of a run_ensemble call, each run on its own.

    Returns one (series, jumps, final, peak) tuple per trajectory: its (3, T)
    observables, its jumps as (time, channel, dp) tuples, its final state and
    its top-Fock peak.  A grouped trajectory is ``ensemble._sample_grouped``
    over the run's flows; a direct one is ``mcwf.run_trajectory``.
    """

    def run(system, psi0, t_final, n, dt=0.5, master_seed=0, record_every=1,
            method="grouped"):
        if method == "direct":
            rows = [
                mcwf.run_trajectory(
                    system, psi0, t_final, dt=dt, seed=master_seed, traj_index=i,
                    record_every=record_every,
                )
                for i in range(n)
            ]
            return [
                (r.expectations[:, 0], list(zip(r.jump_time, r.jump_channel, r.jump_dp)),
                 r.final_states[0], r.top_fock_peak)
                for r in rows
            ]
        n_steps, rec_steps = step_grid(t_final, dt, record_every)
        propagator = expm(-1j * system.h_nh * dt)
        flows = ensemble._discover_flows(psi0, system, propagator, n_steps, dt)
        powers = ensemble._binary_powers(propagator, n_steps)
        alone = []
        for i in range(n):
            series = np.empty((len(OBSERVABLE_LABELS), rec_steps.size))
            alone.append((series, *ensemble._sample_grouped(
                i, flows, system, master_seed, n_steps, dt, rec_steps, powers, series
            )))
        return alone

    return run


def assert_allclose(actual, desired, atol=0.0, rtol=1e-7):
    np.testing.assert_allclose(actual, desired, atol=atol, rtol=rtol)
