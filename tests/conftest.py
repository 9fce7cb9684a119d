"""Shared fixtures: prebuilt layouts and dissipative systems.

Building a system diagonalizes the Hamiltonian and dresses the jump
operators, so the common configurations are session-scoped.
"""

import numpy as np
import pytest

from usctraj import ensemble
from usctraj.hilbert import build_layout
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.system import build_system


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


@pytest.fixture()
def run_with_records(monkeypatch):
    """run_ensemble that also returns the trajectory records it collected."""
    collect = ensemble.collect

    def run(*args, **kwargs):
        records = []

        def keep(rows, n, horizon):
            records.extend(rows)
            return collect(records, n, horizon)

        monkeypatch.setattr(ensemble, "collect", keep)
        return ensemble.run_ensemble(*args, **kwargs), records

    return run


def assert_allclose(actual, desired, atol=0.0, rtol=1e-7):
    np.testing.assert_allclose(actual, desired, atol=atol, rtol=rtol)
