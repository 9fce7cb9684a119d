"""Monte-Carlo wave-function trajectories: stepping, jumps, reproducibility."""

import dataclasses

import numpy as np
import pytest
from conftest import (
    Raised,
    assert_batch_equals_references,
    assert_row_equals,
    make_result,
    outcome,
    reference_run,
)

from usctraj import mcwf
from usctraj.dressed import CHANNEL_LABELS
from usctraj.errors import (
    ConfigError,
    DimensionMismatchError,
    InitialStateError,
    TimestepError,
)
from usctraj.hilbert import build_layout
from usctraj.ensemble import run_ensemble
from usctraj.lme import density_from_state, evolve_lme
from usctraj.mcwf import (
    EnsembleResult,
    _fires,
    ensemble_average,
    run_trajectory,
)
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.oracles import expectations_1p2a
from usctraj.system import OBSERVABLE_LABELS, build_system


@pytest.fixture(scope="module")
def balanced_params():
    """kappa equals the total qubit rate: the pair oscillation is undamped."""
    layout = build_layout(6)
    base = SystemParams(kappa=8e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=0.0)
    return calibrate_resonance(base, layout, which="effective")


def test_trajectory_record_structure(system_eff):
    rec = run_trajectory(system_eff, system_eff.initial_state("1gg"), 100.0, dt=0.5, seed=4)
    assert isinstance(rec, EnsembleResult)
    assert rec.n_trajectories == 1 and rec.states is None
    assert rec.time_grid[0] == 0.0
    assert rec.time_grid[-1] == pytest.approx(100.0)
    assert np.shape(rec.rows) == (1, len(OBSERVABLE_LABELS), rec.time_grid.size)
    assert rec.final_states.shape == (1, system_eff.dimension)
    # initial state |1,g,g>: one detectable photon, no qubit excitation
    cavity, qubit1, qubit2 = rec.rows[0]
    assert cavity[0] == pytest.approx(1.0, abs=1e-3)
    assert qubit1[0] < 1e-3
    assert qubit2[0] < 1e-3


def test_final_state_stays_normalized(system_eff):
    rec = run_trajectory(system_eff, system_eff.initial_state("1gg"), 2000.0, dt=0.5, seed=0)
    assert abs(np.linalg.norm(rec.final_states[0]) - 1.0) < 1e-12


def test_trajectory_is_deterministic(system_eff):
    a = run_trajectory(system_eff, system_eff.initial_state("1gg"), 500.0, dt=0.5, seed=9)
    b = run_trajectory(system_eff, system_eff.initial_state("1gg"), 500.0, dt=0.5, seed=9)
    np.testing.assert_array_equal(a.final_states, b.final_states)
    np.testing.assert_array_equal(a.rows[0], b.rows[0])
    np.testing.assert_array_equal(a.jump_time, b.jump_time)
    np.testing.assert_array_equal(a.jump_channel, b.jump_channel)


def test_trajectories_differ_across_index(system_eff):
    a = run_trajectory(system_eff, system_eff.initial_state("1gg"), 3000.0, dt=0.5, seed=9, traj_index=0)
    b = run_trajectory(system_eff, system_eff.initial_state("1gg"), 3000.0, dt=0.5, seed=9, traj_index=1)
    differs = (
        not np.array_equal(a.rows[0], b.rows[0])
        or a.jump_time.size != b.jump_time.size
    )
    assert differs


def test_no_jump_segment_matches_pair_subspace_solution(balanced_params):
    # kappa = gamma1 + gamma2 makes the conditional pair dynamics a pure
    # cosine exchange; the trajectory before its first jump must follow it
    p = balanced_params
    system = build_system(p, n_fock=6, hamiltonian="effective")
    rec = run_trajectory(system, system.initial_state("1gg"), 1500.0, dt=0.5, seed=3)
    first_jump = rec.jump_time[0] if rec.jump_time.size else np.inf
    assert first_jump > 1500.0, "need a jump-free window for this seed"
    pc, pq = expectations_1p2a(rec.time_grid, p)
    cavity, qubit1, qubit2 = rec.rows[0]
    np.testing.assert_allclose(cavity, pc, atol=1e-8)
    np.testing.assert_allclose(qubit1, pq, atol=1e-8)
    np.testing.assert_allclose(qubit2, pq, atol=1e-8)


def test_cavity_jump_empties_the_system(system_eff):
    # a cavity click from the photon-pair flow lands in the true vacuum:
    # every observable must collapse to numerical zero afterwards
    rec = run_trajectory(system_eff, system_eff.initial_state("1gg"), 6000.0, dt=0.5, seed=1)
    cavity_jumps = rec.jump_time[rec.jump_channel == CHANNEL_LABELS.index("cavity")]
    assert cavity_jumps.size, "seed expected to produce a cavity jump"
    t_jump = cavity_jumps[0]
    after = rec.time_grid > t_jump
    for series in rec.rows[0]:
        assert np.max(series[after]) < 1e-10


def test_local_jump_starts_exchange_oscillation(system_eff):
    # after a qubit-1 click the surviving excitation swaps between the
    # qubits at the exchange frequency; qubit populations must sum to ~1
    rec = run_trajectory(
        system_eff, system_eff.initial_state("1gg"), 5000.0, dt=0.5, seed=11,
    )
    q1_jumps = rec.jump_time[rec.jump_channel == CHANNEL_LABELS.index("qubit1")]
    assert q1_jumps.size, "seed expected to produce a qubit-1 jump"
    t_jump = q1_jumps[0]
    window = (rec.time_grid > t_jump) & (rec.time_grid <= t_jump + 1000.0)
    _, qubit1, qubit2 = rec.rows[0][:, window]
    np.testing.assert_allclose(qubit1 + qubit2, 1.0, atol=1e-6)
    # the partner qubit population must actually move
    assert np.ptp(qubit1) > 0.5


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
    assert coarse.jump_time.size == fine.jump_time.size == 0
    np.testing.assert_allclose(coarse.rows[0][0], fine.rows[0][0], atol=1e-9)


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


def _constant_rows(values, grid):
    """An ensemble whose cavity row i is values[i] on grid, with no jumps."""
    series = np.zeros((len(OBSERVABLE_LABELS), len(values), 5))
    series[0] = np.asarray(values)[:, None]
    return make_result([(row, []) for row in series.swapaxes(0, 1)], grid)


def test_ensemble_average_statistics():
    avg = ensemble_average(_constant_rows([1.0, 3.0], np.linspace(0.0, 1.0, 5)))
    np.testing.assert_allclose(avg.means["cavity"], 2.0)
    # sample std with ddof=1 is sqrt(2); SE divides by sqrt(n)
    np.testing.assert_allclose(avg.standard_errors["cavity"], 1.0)
    assert avg.n_trajectories == 2


@pytest.mark.parametrize("n", [1, 2, 17, 4000])
@pytest.mark.parametrize("magnitude", [1e-12, 1e-6, 1.0, 10.0])
def test_streamed_statistics_are_numpys_mean_and_std(n, magnitude):
    # pass 1 (the rows added up, divided by N) and pass 2 (the squared
    # deviations added up row by row) give the bits of mean(axis=0) and
    # std(axis=0, ddof=1) / sqrt(N) over each observable's (N, T) stack,
    # whatever sequence holds the rows.  The first four columns
    # are shared by every row, as before a grouped ensemble's first jump:
    # -0.0, 0.5 and 2.0 have exact means and so an SE of exactly 0
    rng = np.random.default_rng(n)
    series = rng.random((len(OBSERVABLE_LABELS), n, 40)) * magnitude
    series[:, :, :3] = [-0.0, 0.5, 2.0]
    series[:, :, 3] = series[:, :1, 3]
    grid = np.linspace(0.0, 1.0, 40)
    listed = make_result([(series[:, i].copy(), []) for i in range(n)], grid)
    stored = dataclasses.replace(listed, rows=series.swapaxes(0, 1))
    for avg in map(ensemble_average, (stored, listed)):
        for stack, label in zip(series, OBSERVABLE_LABELS):
            assert avg.means[label].tobytes() == stack.mean(axis=0).tobytes()
            se = stack.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(40)
            assert avg.standard_errors[label].tobytes() == se.tobytes()
            assert (avg.standard_errors[label][:3] == 0.0).all()


def test_ensemble_average_rejects_mismatched_grids():
    with pytest.raises(DimensionMismatchError, match="time grid"):
        ensemble_average(_constant_rows([0.0, 0.0], np.linspace(0, 2, 6)))


def test_store_states_shape(system_eff):
    rec = run_trajectory(
        system_eff, system_eff.initial_state("1gg"), 50.0, dt=0.5, seed=0, record_every=10,
        store_states=True,
    )
    assert rec.states is not None
    assert rec.states.shape == (1, len(rec.time_grid), system_eff.dimension)
    np.testing.assert_array_equal(rec.states[0, -1], rec.final_states[0])
    norms = np.linalg.norm(rec.states, axis=2)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


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
            refs[case + (traj_index,)] = reference_run(
                busy_system, busy_system.initial_state(init), t_final, 0.5, 11,
                traj_index, record_every,
            )
    return refs


def _assert_kernel_equals_the_references(system, references):
    """One direct batch per case, and every trajectory run alone with its
    states, equal the per-step reference runs.  Where every step is
    recorded, the top-Fock peak is that of the reference's states."""
    n_jumps, peaks = 0, []
    cases = sorted({key[:3] for key in references})
    for init, t_final, record_every in cases:
        psi0 = system.initial_state(init)
        batch = run_ensemble(
            system, psi0, t_final, 6, dt=0.5, master_seed=11, record_every=record_every,
            method="direct",
        )
        for traj_index in range(6):
            ref = references[(init, t_final, record_every, traj_index)]
            assert_row_equals(batch, traj_index, ref)
            _, jumps, _, states = ref
            rec = run_trajectory(
                system, psi0, t_final, dt=0.5, seed=11, traj_index=traj_index,
                record_every=record_every, store_states=True,
            )
            assert_row_equals(rec, 0, ref)
            if record_every == 1:
                assert rec.top_fock_peak == mcwf._top_fock(states).max()
                peaks.append(rec.top_fock_peak)
            n_jumps += len(jumps)
        if record_every == 1:
            assert batch.top_fock_peak == max(peaks[-6:])
    assert n_jumps > 20


@pytest.mark.parametrize("block", [1, 7, mcwf._WORD_BLOCK])
def test_kernel_equals_the_per_step_reference(busy_system, busy_references, block, monkeypatch):
    # word blocks of 1 and 7 steps end inside every run
    monkeypatch.setattr(mcwf, "_WORD_BLOCK", block)
    _assert_kernel_equals_the_references(busy_system, busy_references)


@pytest.mark.parametrize("word_block, history_rows", [(1, 4), (3, 5)])
def test_chunked_engine_equals_the_per_step_reference(
    busy_system, busy_references, word_block, history_rows, monkeypatch
):
    # the kernel works in two kinds of chunk: random words read a block of
    # steps at a time and visited states reduced a buffer at a time; both
    # end inside every run here, out of step with each other
    monkeypatch.setattr(mcwf, "_WORD_BLOCK", word_block)
    monkeypatch.setattr(mcwf, "_HISTORY_ROWS", history_rows)
    _assert_kernel_equals_the_references(busy_system, busy_references)


@pytest.mark.parametrize("history_rows", [1, mcwf._HISTORY_ROWS])
def test_shared_row_trajectories_equal_single_runs(busy_system, history_rows, monkeypatch):
    # all twelve start on the shared row and split off at their first jumps;
    # with history_rows = 1 the top-Fock history is reduced at every step
    monkeypatch.setattr(mcwf, "_HISTORY_ROWS", history_rows)
    psi0 = busy_system.initial_state("1gg")
    common = dict(dt=0.5, record_every=3)
    batch = run_ensemble(busy_system, psi0, 800.0, 12, master_seed=3, method="direct", **common)
    singles = [
        run_trajectory(busy_system, psi0, 800.0, seed=3, traj_index=j, **common)
        for j in range(12)
    ]
    for j, rec in enumerate(singles):
        assert_row_equals(batch, j, rec)
    assert batch.top_fock_peak == max(rec.top_fock_peak for rec in singles)
    # the trajectories leave the shared row at many different steps
    first_jumps = {rec.jump_time[0] for rec in singles if rec.jump_time.size}
    assert len(first_jumps) >= 8


def _assert_batch_raises_the_earliest(system, psi0, t_final, dt, seed, n):
    """Each row alone does what the reference does, and the batch of n rows
    raises the error of the earliest step, the lowest row there.  Returns
    the reference outcomes and that row."""
    refs = [outcome(reference_run, system, psi0, t_final, dt, seed, j, 1) for j in range(n)]
    for j, ref in enumerate(refs):
        alone = outcome(run_trajectory, system, psi0, t_final, dt=dt, seed=seed, traj_index=j)
        assert_batch_equals_references(alone, [ref])
    batch = outcome(run_ensemble, system, psi0, t_final, n, dt=dt, master_seed=seed, method="direct")
    first = assert_batch_equals_references(batch, refs)
    assert first is not None
    return refs, first


def test_a_batch_stops_at_the_earliest_reference_timestep_error():
    # dp grows with the cavity population; a jump may come before the cap.
    # Rows that have not jumped reach the cap together, on the shared row.
    layout = build_layout(4)
    p = calibrate_resonance(SystemParams(kappa=2e-3), layout, which="effective")
    system = build_system(p, n_fock=4, hamiltonian="effective")
    refs, _ = _assert_batch_raises_the_earliest(
        system, system.initial_state("0ee"), 6000.0, 60.0, 2, 8
    )
    assert sum(isinstance(ref, Raised) for ref in refs) > 1
    assert any(not isinstance(ref, Raised) and ref[1] for ref in refs)


def test_a_batch_raises_the_error_of_its_earliest_failing_row(busy_system, monkeypatch):
    # the selected jump norms lie between 0.44 and 1; at this floor every
    # row raises at a jump, row 5 first (t = 168) and row 0 at t = 236: the
    # batch must raise row 5's error, not row 0's
    monkeypatch.setattr(mcwf, "JUMP_NORM_FLOOR", 0.99)
    refs, first = _assert_batch_raises_the_earliest(
        busy_system, busy_system.initial_state("0ee"), 1500.0, 0.5, 11, 8
    )
    assert first != min(j for j, ref in enumerate(refs) if isinstance(ref, Raised))


def test_first_jump_follows_the_per_step_rule():
    # a total equal to its threshold does not fire (strict comparison)
    assert not _fires(np.array([0.03, 0.03]), 0.06)
    assert _fires(np.array([0.04, 0.03]), 0.06)
    # a zero-probability step never fires, even against a zero threshold
    assert not _fires(np.zeros(2), 0.0)
    # a capped row raises, whatever its threshold
    for eps in (0.0, 0.5, 0.99):
        with pytest.raises(TimestepError):
            _fires(np.array([0.1, 0.0]), eps)


def test_trajectories_live_together_on_the_shared_row_decide_alone(busy_system):
    # at dt = 10 the jump bound passes MAX_DP_PER_STEP, so every trajectory
    # is live at every step: all 6 are live together on the shared row at
    # step 0, and those that have not jumped stay so until they do
    dt, psi0 = 10.0, busy_system.initial_state("0ee")
    scale = dt * busy_system.rates
    assert mcwf._jump_reach(busy_system.plus_stack, scale, psi0) == np.inf
    result = run_ensemble(busy_system, psi0, 400.0, 6, dt=dt, master_seed=11, method="direct")
    for j in range(6):
        alone = run_trajectory(busy_system, psi0, 400.0, dt=dt, seed=11, traj_index=j)
        assert_row_equals(result, j, alone)
        assert_row_equals(result, j, reference_run(busy_system, psi0, 400.0, dt, 11, j, 1))
    first_jumps = result.jump_time[np.r_[True, np.diff(result.jump_traj) != 0]]
    assert result.jump_traj.size and len(set(first_jumps.tolist())) > 1


def test_top_fock_peak_covers_every_visited_state():
    # at n_fock = 2 the pair exchange fills the top Fock level mid-run; with
    # record_every = 1 every visited state is a recorded row, pre-jump ones too
    base = SystemParams(kappa=4e-4, gamma1=2e-4, gamma2=2e-4)
    p = calibrate_resonance(base, build_layout(2), which="effective")
    system = build_system(p, n_fock=2, hamiltonian="effective")
    psi0 = system.initial_state("0ee")
    peaks = []
    for traj_index in range(6):
        rec = run_trajectory(
            system, psi0, 3000.0, seed=5, traj_index=traj_index, store_states=True
        )
        top = np.sum(np.abs(rec.states[0, :, -4:]) ** 2, axis=1)
        assert rec.top_fock_peak == pytest.approx(top.max(), rel=1e-12)
        peaks.append((rec.top_fock_peak, top[0], top[-1]))
    # the peak lies inside the run, above both its ends
    assert any(peak > 0.5 and peak > max(first, last) for peak, first, last in peaks)
    batch = run_ensemble(system, psi0, 3000.0, 6, master_seed=5, method="direct")
    assert batch.top_fock_peak == max(peak for peak, _, _ in peaks)


@pytest.mark.parametrize(
    "t_final, dt, record_every",
    [(-1.0, 0.5, 1), (10.0, -0.5, 1), (10.0, 0.0, 1), (10.0, np.nan, 1), (np.inf, 0.5, 1),
     (np.nan, 0.5, 1), (10.0, np.inf, 1), (10.0, 0.5, 0)],
)
@pytest.mark.parametrize(
    "engine", ["run_trajectory", "homodyne", "direct", "grouped", "lme"],
)
def test_every_engine_rejects_a_bad_step_grid(system_eff, engine, t_final, dt, record_every):
    psi0 = system_eff.initial_state("1gg")
    grid = dict(dt=dt, record_every=record_every)
    runs = {
        "run_trajectory": lambda: run_trajectory(system_eff, psi0, t_final, **grid),
        "homodyne": lambda: run_trajectory(
            system_eff, psi0, t_final, homodyne_channels=CHANNEL_LABELS, **grid
        ),
        "direct": lambda: run_ensemble(system_eff, psi0, t_final, 2, method="direct", **grid),
        "grouped": lambda: run_ensemble(system_eff, psi0, t_final, 2, method="grouped", **grid),
        "lme": lambda: evolve_lme(
            system_eff, density_from_state(psi0, system_eff.layout), t_final, **grid
        ),
    }
    with pytest.raises(ConfigError):
        runs[engine]()



@pytest.mark.parametrize("fill", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
@pytest.mark.parametrize("engine", ["run_trajectory", "homodyne", "direct", "grouped"])
def test_every_engine_rejects_an_unusable_initial_state(system_eff, engine, fill):
    psi0 = np.zeros(system_eff.dimension, dtype=complex)
    psi0[0] = fill
    runs = {
        "run_trajectory": lambda: run_trajectory(system_eff, psi0, 10.0),
        "homodyne": lambda: run_trajectory(
            system_eff, psi0, 10.0, homodyne_channels=("cavity",)
        ),
        "direct": lambda: run_ensemble(system_eff, psi0, 10.0, 2, method="direct"),
        "grouped": lambda: run_ensemble(system_eff, psi0, 10.0, 2, method="grouped"),
    }
    with pytest.raises(InitialStateError):
        runs[engine]()
