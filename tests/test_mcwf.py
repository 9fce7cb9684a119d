"""Monte-Carlo wave-function trajectories: stepping, jumps, reproducibility."""

import dataclasses

import numpy as np
import pytest

from scipy.linalg import expm

from usctraj import mcwf
from usctraj.errors import (
    ConfigError,
    DimensionMismatchError,
    NumericalInconsistencyError,
    TimestepError,
)
from usctraj.hilbert import build_layout
from usctraj.mcwf import (
    JumpEvent,
    TrajectoryRecord,
    _check_dp,
    _first_jump,
    _jump_probabilities,
    _select_channel,
    collect,
    ensemble_average,
    run_trajectory,
)
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.oracles import expectations_1p2a
from usctraj.rng import PURPOSE_CHANNEL, PURPOSE_JUMP, uniform_words
from usctraj.system import build_system


@pytest.fixture(scope="module")
def balanced_params():
    """kappa equals the total qubit rate: the pair oscillation is undamped."""
    layout = build_layout(6)
    base = SystemParams(kappa=8e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=0.0)
    return calibrate_resonance(base, layout, which="effective")


def test_trajectory_record_structure(system_eff):
    rec = run_trajectory(system_eff, system_eff.initial_state("1gg"), 100.0, dt=0.5, seed=4)
    assert isinstance(rec, TrajectoryRecord)
    assert rec.time_grid[0] == 0.0
    assert rec.time_grid[-1] == pytest.approx(100.0)
    assert set(rec.expectations) == {"cavity", "qubit1", "qubit2"}
    # initial state |1,g,g>: one detectable photon, no qubit excitation
    assert rec.expectations["cavity"][0] == pytest.approx(1.0, abs=1e-3)
    assert rec.expectations["qubit1"][0] < 1e-3
    assert rec.expectations["qubit2"][0] < 1e-3


def test_final_state_stays_normalized(system_eff):
    rec = run_trajectory(system_eff, system_eff.initial_state("1gg"), 2000.0, dt=0.5, seed=0)
    assert abs(np.linalg.norm(rec.final_state) - 1.0) < 1e-12


def test_trajectory_is_deterministic(system_eff):
    a = run_trajectory(system_eff, system_eff.initial_state("1gg"), 500.0, dt=0.5, seed=9)
    b = run_trajectory(system_eff, system_eff.initial_state("1gg"), 500.0, dt=0.5, seed=9)
    np.testing.assert_array_equal(a.final_state, b.final_state)
    for label in a.expectations:
        np.testing.assert_array_equal(a.expectations[label], b.expectations[label])
    assert len(a.jumps) == len(b.jumps)
    for ja, jb in zip(a.jumps, b.jumps):
        assert ja.time == jb.time and ja.channel == jb.channel


def test_trajectories_differ_across_index(system_eff):
    a = run_trajectory(system_eff, system_eff.initial_state("1gg"), 3000.0, dt=0.5, seed=9, traj_index=0)
    b = run_trajectory(system_eff, system_eff.initial_state("1gg"), 3000.0, dt=0.5, seed=9, traj_index=1)
    differs = any(
        not np.array_equal(a.expectations[k], b.expectations[k])
        for k in a.expectations
    ) or len(a.jumps) != len(b.jumps)
    assert differs


def test_no_jump_segment_matches_pair_subspace_solution(balanced_params):
    # kappa = gamma1 + gamma2 makes the conditional pair dynamics a pure
    # cosine exchange; the trajectory before its first jump must follow it
    p = balanced_params
    system = build_system(p, n_fock=6, hamiltonian="effective")
    rec = run_trajectory(system, system.initial_state("1gg"), 1500.0, dt=0.5, seed=3)
    first_jump = rec.jumps[0].time if rec.jumps else np.inf
    assert first_jump > 1500.0, "need a jump-free window for this seed"
    pc, pq = expectations_1p2a(rec.time_grid, p)
    np.testing.assert_allclose(rec.expectations["cavity"], pc, atol=1e-8)
    np.testing.assert_allclose(rec.expectations["qubit1"], pq, atol=1e-8)
    np.testing.assert_allclose(rec.expectations["qubit2"], pq, atol=1e-8)


def test_cavity_jump_empties_the_system(system_eff):
    # a cavity click from the photon-pair flow lands in the true vacuum:
    # every observable must collapse to numerical zero afterwards
    rec = run_trajectory(system_eff, system_eff.initial_state("1gg"), 6000.0, dt=0.5, seed=1)
    cavity_jumps = [j for j in rec.jumps if j.channel == "cavity"]
    assert cavity_jumps, "seed expected to produce a cavity jump"
    t_jump = cavity_jumps[0].time
    after = rec.time_grid > t_jump
    for label in ("cavity", "qubit1", "qubit2"):
        assert np.max(rec.expectations[label][after]) < 1e-10


def test_local_jump_starts_exchange_oscillation(system_eff):
    # after a qubit-1 click the surviving excitation swaps between the
    # qubits at the exchange frequency; qubit populations must sum to ~1
    rec = run_trajectory(
        system_eff, system_eff.initial_state("1gg"), 5000.0, dt=0.5, seed=11,
    )
    q1_jumps = [j for j in rec.jumps if j.channel == "qubit1"]
    assert q1_jumps, "seed expected to produce a qubit-1 jump"
    t_jump = q1_jumps[0].time
    window = (rec.time_grid > t_jump) & (rec.time_grid <= t_jump + 1000.0)
    total = rec.expectations["qubit1"][window] + rec.expectations["qubit2"][window]
    np.testing.assert_allclose(total, 1.0, atol=1e-6)
    # the partner qubit population must actually move
    assert np.ptp(rec.expectations["qubit1"][window]) > 0.5


def test_timestep_guard_fires_for_coarse_steps():
    layout = build_layout(4)
    p = calibrate_resonance(
        SystemParams(kappa=0.25), layout, which="effective"
    )
    system = build_system(p, n_fock=4, hamiltonian="effective")
    with pytest.raises(TimestepError):
        run_trajectory(system, system.initial_state("1gg"), 50.0, dt=1.0, seed=0)


def test_halving_the_step_changes_little(balanced_params):
    p = balanced_params
    system = build_system(p, n_fock=6, hamiltonian="effective")
    coarse = run_trajectory(system, system.initial_state("1gg"), 400.0, dt=0.5, seed=3)
    fine = run_trajectory(
        system, system.initial_state("1gg"), 400.0, dt=0.25, seed=3, record_every=2,
    )
    assert not coarse.jumps and not fine.jumps
    np.testing.assert_allclose(
        coarse.expectations["cavity"], fine.expectations["cavity"], atol=1e-9
    )


def test_jump_event_validation():
    with pytest.raises(ValueError):
        JumpEvent(time=-1.0, channel="cavity", pre_jump_norm_probabilities=np.zeros(4))


def test_non_hermitian_hamiltonian_assembly(system_eff):
    h_nh = system_eff.h_nh
    np.testing.assert_allclose(
        0.5 * (h_nh + h_nh.conj().T), system_eff.hamiltonian.matrix, atol=1e-15
    )
    anti = h_nh - h_nh.conj().T
    # i (H_nh - H_nh^dag) = sum gamma_m S^- S^+ must be positive semidefinite
    decay = np.linalg.eigvalsh(1j * anti)
    assert decay.min() >= -1e-15
    assert decay.max() > 0


def test_ensemble_average_statistics():
    grid = np.linspace(0.0, 1.0, 5)

    def make(vals):
        return TrajectoryRecord(
            time_grid=grid,
            expectations={"cavity": np.full(5, vals), "qubit1": np.zeros(5),
                          "qubit2": np.zeros(5)},
            jumps=[], final_state=np.array([1.0 + 0j]), top_fock_peak=0.0,
        )

    avg = ensemble_average(collect([make(1.0), make(3.0)], 2))
    np.testing.assert_allclose(avg.means["cavity"], 2.0)
    # sample std with ddof=1 is sqrt(2); SE divides by sqrt(n)
    np.testing.assert_allclose(avg.standard_errors["cavity"], 1.0)
    assert avg.n_trajectories == 2


def test_ensemble_average_rejects_mismatched_grids():
    series = {"cavity": np.zeros(5), "qubit1": np.zeros(5), "qubit2": np.zeros(5)}
    a = TrajectoryRecord(
        time_grid=np.linspace(0, 1, 5),
        expectations=series, jumps=[],
        final_state=np.array([1.0 + 0j]), top_fock_peak=0.0,
    )
    b = TrajectoryRecord(
        time_grid=np.linspace(0, 2, 5),
        expectations=series, jumps=[],
        final_state=np.array([1.0 + 0j]), top_fock_peak=0.0,
    )
    with pytest.raises(Exception):
        ensemble_average(collect([a, b], 2))
    with pytest.raises(DimensionMismatchError, match="time grids differ"):
        collect([a, b], 2)


def test_collect_takes_exactly_n_records():
    rec = TrajectoryRecord(
        time_grid=np.linspace(0, 1, 5),
        expectations={"cavity": np.zeros(5), "qubit1": np.zeros(5), "qubit2": np.zeros(5)},
        jumps=[], final_state=np.array([1.0 + 0j]), top_fock_peak=0.0,
    )
    assert collect(iter([rec, rec]), 2).n_trajectories == 2
    with pytest.raises(ConfigError, match="got 0"):
        collect(iter([]), 1)
    with pytest.raises(ConfigError, match="got 1"):
        collect([rec], 2)


def test_store_states_shape(system_eff):
    rec = run_trajectory(
        system_eff, system_eff.initial_state("1gg"), 50.0, dt=0.5, seed=0, record_every=10,
        store_states=True,
    )
    assert rec.states is not None
    assert rec.states.shape == (len(rec.time_grid), system_eff.dimension)
    norms = np.linalg.norm(rec.states, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def _reference_run(system, psi0, t_final, dt, seed, traj_index, record_every):
    """The direct engine one step at a time: (series, jumps, final, states).

    Each random word is read by its own index: threshold k at step k,
    channel word q at the q-th jump.
    """
    psi = np.asarray(psi0, dtype=complex)
    propagator = expm(-1j * system.h_nh * dt)
    plus_stack, rates = system.plus_stack, system.rates
    n_steps = int(round(t_final / dt))
    rec_steps = np.arange(0, n_steps + 1, record_every)
    series = np.empty((3, rec_steps.size))
    snapshots = np.empty((rec_steps.size, psi.size), dtype=complex)
    jumps = []
    rec_i = 0
    for k in range(n_steps + 1):
        if rec_i < rec_steps.size and k == rec_steps[rec_i]:
            amps3 = plus_stack[:3] @ psi
            series[:, rec_i] = np.einsum("md,md->m", amps3.conj(), amps3).real
            snapshots[rec_i] = psi
            rec_i += 1
        if k == n_steps:
            break
        dp, amps = _jump_probabilities(psi, dt, plus_stack, rates)
        _check_dp(dp)
        if dp.sum() <= uniform_words(seed, traj_index, PURPOSE_JUMP, k, 1)[0]:
            phi = propagator @ psi
            psi = phi / np.linalg.norm(phi)
        else:
            eps_prime = uniform_words(seed, traj_index, PURPOSE_CHANNEL, len(jumps), 1)[0]
            m = _select_channel(dp, eps_prime)
            psi = amps[m] / np.linalg.norm(amps[m])
            jumps.append(((k + 1) * dt, system.channels[m].label, dp))
    return series, jumps, psi, snapshots


@pytest.fixture(scope="module")
def busy_system():
    """Jumps every few hundred steps, a collective channel included."""
    layout = build_layout(4)
    base = SystemParams(kappa=2e-3, gamma1=3e-3, gamma2=2e-3, gamma_c=1e-3)
    p = calibrate_resonance(base, layout, which="effective")
    return build_system(p, n_fock=4, hamiltonian="effective")


@pytest.fixture(scope="module")
def busy_references(busy_system):
    """Per-step reference runs keyed by (init, t_final, record_every, index)."""
    refs = {}
    for case in [
        ("0ee", 1500.0, 1),
        ("1gg", 1000.5, 7),
        ("0ee", 600.0, 5),
        ("1gg", 0.5, 1),
        ("1gg", 0.0, 1),
    ]:
        init, t_final, record_every = case
        for traj_index in range(6):
            refs[case + (traj_index,)] = _reference_run(
                busy_system, busy_system.initial_state(init), t_final, 0.5, 11,
                traj_index, record_every,
            )
    return refs


@pytest.mark.parametrize("chunk0, chunk_max", [(1, 1), (1, 4), (3, 5), (16, 512)])
def test_chunked_engine_equals_the_per_step_reference(
    busy_system, busy_references, chunk0, chunk_max, monkeypatch
):
    monkeypatch.setattr(mcwf, "_STEP_CHUNK0", chunk0)
    monkeypatch.setattr(mcwf, "_STEP_CHUNK_MAX", chunk_max)
    system, n_jumps = busy_system, 0
    for key, (series, jumps, final, states) in busy_references.items():
        init, t_final, record_every, traj_index = key
        psi0 = system.initial_state(init)
        rec = run_trajectory(
            system, psi0, t_final, dt=0.5, seed=11, traj_index=traj_index,
            record_every=record_every, store_states=True,
        )
        for row, label in zip(series, ("cavity", "qubit1", "qubit2")):
            np.testing.assert_array_equal(rec.expectations[label], row)
        np.testing.assert_array_equal(rec.states, states)
        np.testing.assert_array_equal(rec.final_state, final)
        assert [(j.time, j.channel) for j in rec.jumps] == [j[:2] for j in jumps]
        for got, ref in zip(rec.jumps, jumps):
            np.testing.assert_array_equal(got.pre_jump_norm_probabilities, ref[2])
        n_jumps += len(jumps)
    assert n_jumps > 20


@pytest.mark.parametrize("chunk_max", [4, 512])
def test_start_cache_reproduces_uncached_trajectories(busy_system, chunk_max, monkeypatch):
    monkeypatch.setattr(mcwf, "_STEP_CHUNK_MAX", chunk_max)
    psi0 = busy_system.initial_state("1gg")
    cache, first_jumps = {}, []
    for traj_index in range(12):
        kwargs = dict(dt=0.5, seed=3, traj_index=traj_index, record_every=3)
        ref = run_trajectory(busy_system, psi0, 800.0, **kwargs)
        got = run_trajectory(busy_system, psi0, 800.0, start_cache=cache, **kwargs)
        for label in ref.expectations:
            np.testing.assert_array_equal(got.expectations[label], ref.expectations[label])
        np.testing.assert_array_equal(got.final_state, ref.final_state)
        assert [(j.time, j.channel) for j in got.jumps] == [(j.time, j.channel) for j in ref.jumps]
        for a, b in zip(got.jumps, ref.jumps):
            np.testing.assert_array_equal(a.pre_jump_norm_probabilities, b.pre_jump_norm_probabilities)
        first_jumps.append(ref.jumps[0].time if ref.jumps else None)
    # later trajectories jump inside chunks an earlier one cached, at many ages
    assert len(cache) > 1
    assert len({t for t in first_jumps if t is not None}) >= 8


def test_chunked_engine_stops_at_the_reference_timestep_error(monkeypatch):
    # dp grows with the cavity population; a jump may come before the cap
    layout = build_layout(4)
    p = calibrate_resonance(SystemParams(kappa=2e-3), layout, which="effective")
    system = build_system(p, n_fock=4, hamiltonian="effective")
    psi0 = system.initial_state("0ee")

    def outcome(run, *args, **kwargs):
        try:
            rec = run(*args, **kwargs)
        except TimestepError as err:
            return str(err)
        return [j[:2] for j in rec[1]] if isinstance(rec, tuple) else [
            (j.time, j.channel) for j in rec.jumps
        ]

    for chunk_max in (1, 512):
        monkeypatch.setattr(mcwf, "_STEP_CHUNK_MAX", chunk_max)
        outcomes, cache = [], {}
        for traj_index in range(8):
            ref = outcome(_reference_run, system, psi0, 6000.0, 60.0, 2, traj_index, 1)
            for start_cache in (None, cache):
                got = outcome(
                    run_trajectory, system, psi0, 6000.0, dt=60.0, seed=2,
                    traj_index=traj_index, start_cache=start_cache,
                )
                assert got == ref
            outcomes.append(ref)
        assert any(isinstance(o, str) for o in outcomes)
        assert any(isinstance(o, list) and o for o in outcomes)


def test_first_jump_follows_the_per_step_rule():
    eps = np.array([0.1, 0.05, 0.06, 0.0])
    # a total equal to its threshold does not fire (strict comparison)
    level = np.array([[0.05, 0.05], [0.025, 0.025], [0.03, 0.03], [0.0, 0.0]])
    assert _first_jump(level, eps) == 4
    level[2, 0] = 0.04
    assert _first_jump(level, eps) == 2
    # a zero-probability row never fires, even against a zero threshold
    assert _first_jump(np.zeros((4, 2)), eps) == 4
    # the step cap raises only when no earlier row fires
    capped = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [0.0, 0.0]])
    with pytest.raises(TimestepError):
        _first_jump(capped, eps)
    capped[1] = [0.03, 0.03]
    assert _first_jump(capped, eps) == 1
    assert _first_jump(np.empty((0, 2)), np.empty(0)) == 0


def test_top_fock_peak_covers_every_visited_state():
    # at n_fock = 2 the pair exchange fills the top Fock level mid-run; with
    # record_every = 1 every visited state is a recorded row, pre-jump ones too
    base = SystemParams(kappa=4e-4, gamma1=2e-4, gamma2=2e-4)
    p = calibrate_resonance(base, build_layout(2), which="effective")
    system = build_system(p, n_fock=2, hamiltonian="effective")
    psi0 = system.initial_state("0ee")
    cache, peaks = {}, []
    for traj_index in range(6):
        rec = run_trajectory(
            system, psi0, 3000.0, seed=5, traj_index=traj_index, store_states=True
        )
        top = np.sum(np.abs(rec.states[:, -4:]) ** 2, axis=1)
        assert rec.top_fock_peak == pytest.approx(top.max(), rel=1e-12)
        cached = run_trajectory(
            system, psi0, 3000.0, seed=5, traj_index=traj_index, start_cache=cache
        )
        assert cached.top_fock_peak == rec.top_fock_peak
        peaks.append((rec.top_fock_peak, top[0], top[-1]))
    # the peak lies inside the run, above both its ends
    assert any(peak > 0.5 and peak > max(first, last) for peak, first, last in peaks)
