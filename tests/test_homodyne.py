"""Diffusive (homodyne) unravelling: continuity, drift modes, mixed detection, step defaults."""

import numpy as np
import pytest

from usctraj.dressed import CHANNEL_LABELS
from usctraj.errors import ConfigError
from usctraj.ensemble import run_ensemble
from usctraj.mcwf import DRIFT_MODES, run_trajectory
from usctraj.system import build_system


def test_drift_modes_exported():
    assert DRIFT_MODES == ("as-printed", "qsd")


def test_full_homodyne_never_jumps(hom_system):
    sys = hom_system
    rec = run_trajectory(
        sys, sys.initial_state("1gg"), 500.0, dt=0.1, seed=2,
        record_every=10, homodyne_channels=CHANNEL_LABELS, drift_mode="qsd",
    )
    assert rec.jump_time.size == 0
    assert abs(np.linalg.norm(rec.final_states[0]) - 1.0) < 1e-12


def test_increments_are_bounded(hom_system):
    # diffusive records must be continuous: per-step observable changes stay
    # small compared to a jump discontinuity (which is order one)
    sys = hom_system
    rec = run_trajectory(
        sys, sys.initial_state("1gg"), 400.0, dt=0.1, seed=5,
        homodyne_channels=CHANNEL_LABELS, drift_mode="qsd",
    )
    steps = np.abs(np.diff(rec.rows[0], axis=1))
    assert steps.max() < 0.05


def test_lossless_homodyne_equals_jump_unravelling(p_resonant):
    # with all rates zero the measurement back-action vanishes and both
    # unravellings reduce to the same deterministic Schrodinger evolution
    system = build_system(p_resonant, n_fock=6, hamiltonian="effective")
    psi0 = system.initial_state("1gg")
    hom = run_trajectory(
        system, psi0, 300.0, dt=0.5, seed=3, homodyne_channels=CHANNEL_LABELS,
        drift_mode="qsd", record_every=2,
    )
    jmp = run_trajectory(system, psi0, 300.0, dt=0.5, seed=3, record_every=2)
    np.testing.assert_allclose(hom.rows[0], jmp.rows[0], atol=1e-10)


def test_drift_mode_changes_the_path(hom_system):
    sys = hom_system
    runs = {}
    for mode in DRIFT_MODES:
        runs[mode] = run_trajectory(
            sys, sys.initial_state("1gg"), 200.0, dt=0.1, seed=4,
            homodyne_channels=CHANNEL_LABELS, drift_mode=mode,
        )
    # same noise words, different drift: paths must differ across modes
    assert not np.array_equal(
        runs["qsd"].final_states, runs["as-printed"].final_states
    )


def test_mixed_detection_produces_jumps(hom_system):
    # cavity homodyned, qubits photodetected: qubit jumps remain possible
    sys = hom_system
    found = None
    for seed in range(40):
        rec = run_trajectory(
            sys, sys.initial_state("0ee"), 3000.0, dt=0.1, seed=seed,
            record_every=50, homodyne_channels=("cavity",), drift_mode="qsd",
        )
        if rec.jump_time.size:
            found = rec
            break
    assert found is not None, "no qubit jump in 40 seeds"
    assert all(CHANNEL_LABELS[m] in ("qubit1", "qubit2") for m in found.jump_channel)
    assert abs(np.linalg.norm(found.final_states[0]) - 1.0) < 1e-12


def test_unknown_channel_and_mode_rejected(hom_system):
    sys = hom_system
    with pytest.raises(ConfigError):
        run_trajectory(
            sys, sys.initial_state("1gg"), 10.0, dt=0.1,
            homodyne_channels=("laser",),
        )
    with pytest.raises(ConfigError):
        run_trajectory(
            sys, sys.initial_state("1gg"), 10.0, dt=0.1,
            homodyne_channels=CHANNEL_LABELS, drift_mode="sideways",
        )


def test_qsd_ensemble_mean_decays(hom_system):
    # a single conditioned record may wander up (measurement back-action
    # concentrates occupation), but the ensemble mean must decay
    sys = hom_system
    finals = []
    for i in range(30):
        rec = run_trajectory(
            sys, sys.initial_state("1gg"), 500.0, dt=0.1, seed=11,
            traj_index=i, record_every=100, homodyne_channels=CHANNEL_LABELS,
            drift_mode="qsd",
        )
        total = rec.rows[0].sum(axis=0)
        assert total[0] == pytest.approx(1.0, abs=1e-6)
        finals.append(total[-1])
    assert np.mean(finals) < 0.98


def test_an_omitted_step_depends_on_the_unravelling(hom_system):
    # 0.5 for photodetection, 0.1 once any channel is homodyned
    psi0 = hom_system.initial_state("1gg")
    for channels, dt in [((), 0.5), (("cavity",), 0.1), (CHANNEL_LABELS, 0.1)]:
        common = dict(homodyne_channels=channels, record_every=2)
        alone = run_trajectory(hom_system, psi0, 3.0, **common)
        batch = run_ensemble(hom_system, psi0, 3.0, 2, **common)
        for result in (alone, batch):
            np.testing.assert_array_equal(result.time_grid, np.arange(0, 3.0 / dt + 1, 2) * dt)
        np.testing.assert_array_equal(
            alone.rows[0], run_trajectory(hom_system, psi0, 3.0, dt=dt, **common).rows[0]
        )
