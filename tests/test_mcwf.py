"""The trajectory kernel under every unravelling: stepping, jumps, reproducibility.

One reference harness covers the kernel: each case of the table below runs
alone and as one batch against ``conftest.reference_run``, under the
knob settings of its group.
"""

import dataclasses
from typing import NamedTuple

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
from usctraj.rng import PURPOSE_CHANNEL, PURPOSE_JUMP, PURPOSE_NOISE, RawWords
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
    psi0 = system_eff.initial_state("1gg")
    a, b = (run_trajectory(system_eff, psi0, 500.0, dt=0.5, seed=9) for _ in range(2))
    np.testing.assert_array_equal(a.final_states, b.final_states)
    np.testing.assert_array_equal(a.rows[0], b.rows[0])
    np.testing.assert_array_equal(a.jump_time, b.jump_time)
    np.testing.assert_array_equal(a.jump_channel, b.jump_channel)


def test_trajectories_differ_across_index(system_eff):
    psi0 = system_eff.initial_state("1gg")
    a, c = (run_trajectory(system_eff, psi0, 3000.0, dt=0.5, seed=9, traj_index=j) for j in (0, 1))
    assert not np.array_equal(a.rows[0], c.rows[0])
    assert not np.array_equal(a.final_states, c.final_states)


@pytest.mark.parametrize(
    "kwargs",
    [dict(dt=0.1, seed=8, record_every=5, homodyne_channels=CHANNEL_LABELS, drift_mode="qsd")],
    ids=["homodyne"],
)
def test_a_trajectory_is_fixed_by_its_seed_and_index(hom_system, kwargs):
    psi0 = hom_system.initial_state("1gg")
    a, b = (run_trajectory(hom_system, psi0, 200.0, **kwargs) for _ in range(2))
    np.testing.assert_array_equal(a.final_states, b.final_states)
    np.testing.assert_array_equal(a.rows[0], b.rows[0])
    np.testing.assert_array_equal(a.jump_time, b.jump_time)
    np.testing.assert_array_equal(a.jump_channel, b.jump_channel)
    a, c = (run_trajectory(hom_system, psi0, 200.0, traj_index=j, **kwargs) for j in (0, 1))
    assert not np.array_equal(a.rows[0], c.rows[0])
    assert not np.array_equal(a.final_states, c.final_states)


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
def systems():
    """The kernel's test systems at n_fock 4, by name, and one at n_fock 2.

    "weak" jumps every few hundred steps at dt = 0.5, a collective channel
    included; "strong" and "strong-full" (its full Hamiltonian) do so at
    dt = 0.1; "cavity" decays through its cavity alone; "pair" is small
    enough for the pair exchange to fill its top Fock level.
    """
    def built(n_fock=4, hamiltonian="effective", **rates):
        p = calibrate_resonance(SystemParams(**rates), build_layout(n_fock), which="effective")
        return build_system(p, n_fock=n_fock, hamiltonian=hamiltonian)

    strong = dict(kappa=1e-2, gamma1=2e-2, gamma2=1.5e-2, gamma_c=1e-2)
    return {
        "weak": built(kappa=2e-3, gamma1=3e-3, gamma2=2e-3, gamma_c=1e-3),
        "strong": built(**strong),
        "strong-full": built(hamiltonian="full", **strong),
        "cavity": built(kappa=2e-3),
        "pair": built(n_fock=2, kappa=4e-4, gamma1=2e-4, gamma2=2e-4),
    }


class Case(NamedTuple):
    """Trajectories 0..n-1 of one seeded family, as the kernel and the reference run them."""

    system: str  # a key of ``systems``
    init: str
    t_final: float
    dt: float | None
    seed: int
    n: int
    record_every: int = 1
    homodyne_channels: tuple[str, ...] = ()
    drift_mode: str = "qsd"


def _alone(systems, case, j):
    """Trajectory j of a case run alone, with its states, or the error it raised."""
    system = systems[case.system]
    return outcome(
        run_trajectory, system, system.initial_state(case.init), case.t_final, dt=case.dt,
        seed=case.seed, traj_index=j, record_every=case.record_every, store_states=True,
        homodyne_channels=case.homodyne_channels, drift_mode=case.drift_mode,
    )


def _batch(systems, case):
    """A case run as one direct ensemble, or the error it raised."""
    system = systems[case.system]
    return outcome(
        run_ensemble, system, system.initial_state(case.init), case.t_final, case.n,
        dt=case.dt, master_seed=case.seed, record_every=case.record_every, method="direct",
        homodyne_channels=case.homodyne_channels, drift_mode=case.drift_mode,
    )


@pytest.fixture(scope="module")
def references(systems):
    """The per-step reference outcomes of a case, computed once per jump-norm floor."""
    computed = {}

    def get(case):
        key = case, mcwf.JUMP_NORM_FLOOR
        if key not in computed:
            system = systems[case.system]
            computed[key] = [
                outcome(
                    reference_run, system, system.initial_state(case.init), case.t_final,
                    case.dt, case.seed, j, case.record_every, case.homodyne_channels,
                    case.drift_mode,
                )
                for j in range(case.n)
            ]
        return computed[key]

    return get


def _assert_kernel_equals_the_references(systems, cases, references):
    """Each trajectory of each case run alone, and each case as one batch,
    equal the per-step references; returns the numbers of jumps and raises.

    A batch raises the error of its row that raised at the earliest step,
    the lowest such row on a tie (``assert_batch_equals_references``).
    Where every step is recorded, the top-Fock peaks are those of the
    reference's states.
    """
    n_jumps = n_raised = 0
    for case in cases:
        refs, peaks = references(case), []
        for j, ref in enumerate(refs):
            alone = _alone(systems, case, j)
            assert_batch_equals_references(alone, [ref])
            if isinstance(ref, Raised):
                n_raised += 1
                continue
            n_jumps += len(ref[1])
            if case.record_every == 1:
                assert alone.top_fock_peak == mcwf._top_fock(ref[3]).max()
                peaks.append(alone.top_fock_peak)
        batch = _batch(systems, case)
        if assert_batch_equals_references(batch, refs) is None and peaks:
            assert batch.top_fock_peak == max(peaks)
    return n_jumps, n_raised


_WEAK_CASES = [
    Case("weak", init, t_final, 0.5, 11, 6, record_every)
    for init, t_final, record_every in [
        ("0ee", 1500.0, 1), ("1gg", 1000.5, 7), ("0ee", 600.0, 5), ("1gg", 0.5, 1),
        ("1gg", 0.0, 1),
    ]
]
_STRONG_CASES = [
    Case(system, init, t_final, 0.1, 13, 3, record_every, channels, drift)
    for system, init, t_final, record_every, channels, drift in [
        ("strong", "1gg", 60.0, 1, CHANNEL_LABELS, "qsd"),
        ("strong", "1gg", 60.0, 3, CHANNEL_LABELS, "as-printed"),
        ("strong", "1gg", 60.0, 7, CHANNEL_LABELS, "as-printed"),
        ("strong", "0ee", 150.0, 5, ("cavity",), "qsd"),
        ("strong", "0ee", 150.0, 4, ("cavity",), "as-printed"),
        ("strong", "0ee", 150.0, 1, ("cavity", "collective"), "as-printed"),
        ("strong-full", "0ee", 150.0, 5, ("cavity",), "qsd"),
        ("strong", "0ee", 150.0, 5, (), "qsd"),
    ]
]


# Word blocks of 1, 3 and 7 steps end inside every run, so the noise words
# a jump left unread are read again at many refills.  The kernel works in
# two kinds of chunk, random words read a block of steps at a time and
# visited states reduced a buffer at a time: at (1, 4) and (3, 5) both end
# inside every run, out of step with each other.  The selected jump norms
# of the strong cases lie between 0.985 and 1: at a floor of 0.995 some
# jumps collapse and others raise, and the kernel must do exactly what the
# reference does under that floor.
@pytest.mark.parametrize(
    "cases, knobs, min_jumps, raises",
    [
        pytest.param(_WEAK_CASES, {"_WORD_BLOCK": 1}, 21, False, id="1"),
        pytest.param(_WEAK_CASES, {"_WORD_BLOCK": 7}, 21, False, id="7"),
        pytest.param(_WEAK_CASES, {}, 21, False, id="4096"),
        pytest.param(_WEAK_CASES, {"_WORD_BLOCK": 1, "_HISTORY_ROWS": 4}, 21, False, id="1-4"),
        pytest.param(_WEAK_CASES, {"_WORD_BLOCK": 3, "_HISTORY_ROWS": 5}, 21, False, id="3-5"),
        pytest.param(_STRONG_CASES, {"_WORD_BLOCK": 1}, 10, False, id="strong-1"),
        pytest.param(_STRONG_CASES, {"_WORD_BLOCK": 3}, 10, False, id="strong-3"),
        pytest.param(_STRONG_CASES, {"_WORD_BLOCK": 7}, 10, False, id="strong-7"),
        pytest.param(_STRONG_CASES, {}, 10, False, id="strong-4096"),
        pytest.param(
            _STRONG_CASES, {"JUMP_NORM_FLOOR": 0.995}, 1, True, id="strong-floor-0.995"
        ),
    ],
)
def test_kernel_equals_the_per_step_reference(
    systems, references, cases, knobs, min_jumps, raises, monkeypatch
):
    for name, value in knobs.items():
        monkeypatch.setattr(mcwf, name, value)
    n_jumps, n_raised = _assert_kernel_equals_the_references(systems, cases, references)
    assert n_jumps >= min_jumps
    assert (n_raised > 0) is raises


@pytest.mark.parametrize(
    "case, purposes",
    [(_STRONG_CASES[7], {PURPOSE_JUMP, PURPOSE_CHANNEL}), (_STRONG_CASES[0], {PURPOSE_NOISE})],
    ids=["photodetection", "full-homodyne"],
)
def test_runs_that_need_no_words_draw_none(systems, references, case, purposes, monkeypatch):
    # photodetection reads no noise words, full homodyne no threshold or
    # channel words: the purposes the runs read are exactly those they need
    # (the photodetection runs jump, so they read channel words)
    read = set()

    class Recorded(RawWords):
        def __call__(self, master_seed, traj_index, purpose, start, count):
            read.add(purpose)
            return super().__call__(master_seed, traj_index, purpose, start, count)

    monkeypatch.setattr(mcwf, "RawWords", Recorded)
    _assert_kernel_equals_the_references(systems, [case], references)
    assert read == purposes


@pytest.mark.parametrize(
    "case, knobs, min_first_jumps",
    [
        # all twelve start on the shared row and split off at their first
        # jumps; with history_rows = 1 the top-Fock history is reduced at
        # every step
        pytest.param(
            Case("weak", "1gg", 800.0, 0.5, 3, 12, 3), {"_HISTORY_ROWS": 1}, 8,
            id="shared-row-history-1",
        ),
        pytest.param(Case("weak", "1gg", 800.0, 0.5, 3, 12, 3), {}, 8, id="shared-row"),
        # a budget of 100 words cuts the 17-row batch into blocks of 2 steps
        # and each single run into blocks of 50; the rows jump at different
        # steps, so their noise offsets part
        pytest.param(
            Case("strong", "0ee", 150.0, 0.1, 13, 17, 5, ("cavity",)),
            {"_WORD_BUDGET": 100}, 5, id="homodyne-word-budget-100",
        ),
    ],
)
def test_ensemble_rows_equal_single_runs(systems, case, knobs, min_first_jumps, monkeypatch):
    for name, value in knobs.items():
        monkeypatch.setattr(mcwf, name, value)
    batch = _batch(systems, case)
    singles = [_alone(systems, case, j) for j in range(case.n)]
    for j, rec in enumerate(singles):
        assert_row_equals(batch, j, rec)
    assert batch.top_fock_peak == max(rec.top_fock_peak for rec in singles)
    # the trajectories first jump, and so leave any shared row, at many different steps
    first_jumps = {rec.jump_time[0] for rec in singles if rec.jump_time.size}
    assert len(first_jumps) >= min_first_jumps


@pytest.mark.parametrize(
    "case, floor, first_is_lowest, completes",
    [
        # the selected jump norms lie between 0.44 and 1; at this floor every
        # row raises at a jump, row 5 first (t = 168) and row 0 at t = 236:
        # the batch must raise row 5's error, not row 0's
        pytest.param(
            Case("weak", "0ee", 1500.0, 0.5, 11, 8), 0.99, False, False,
            id="photodetection-jump-norm-floor",
        ),
        # at this floor rows 0 and 3..7 raise, row 5 first (step 255, row 0
        # at 588): the batch must raise row 5's error, not row 0's
        pytest.param(
            Case("strong", "0ee", 150.0, 0.1, 13, 8, 1, ("cavity", "collective"), "as-printed"),
            0.995, False, True, id="mixed-jump-norm-floor",
        ),
        # dp grows with the cavity population; a jump may come before the
        # cap.  Rows that have not jumped reach the cap together, on the
        # shared row, and the lowest of them raises
        pytest.param(
            Case("cavity", "0ee", 6000.0, 60.0, 2, 8), mcwf.JUMP_NORM_FLOOR,
            True, True, id="timestep-cap",
        ),
    ],
)
def test_a_batch_raises_the_error_of_its_earliest_failing_row(
    systems, references, case, floor, first_is_lowest, completes, monkeypatch
):
    monkeypatch.setattr(mcwf, "JUMP_NORM_FLOOR", floor)
    refs = references(case)
    for j, ref in enumerate(refs):
        assert_batch_equals_references(_alone(systems, case, j), [ref])
    first = assert_batch_equals_references(_batch(systems, case), refs)
    raising = [j for j, ref in enumerate(refs) if isinstance(ref, Raised)]
    assert first is not None and len(raising) > 1
    assert (first == raising[0]) is first_is_lowest
    # some row runs to the end after a jump
    assert any(not isinstance(ref, Raised) and ref[1] for ref in refs) is completes


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


@pytest.mark.parametrize(
    "case, raised_at, min_first_jumps",
    [
        # at dt = 10 every trajectory is live at every step: all 6 are live
        # together on the shared row at step 0, and those that have not
        # jumped stay so until they do
        pytest.param(
            Case("weak", "0ee", 400.0, 10.0, 11, 6), [None] * 6, 2, id="photodetection"
        ),
        # at dt = 6 every threshold word counts; from 0ee each row fails the
        # dp guard at its first step, with the reference's error
        pytest.param(
            Case("strong", "0ee", 60.0, 6.0, 13, 5, 1, ("cavity",)), [0] * 5, 0, id="mixed"
        ),
    ],
)
def test_past_the_jump_bound_every_row_decides_alone(
    systems, references, case, raised_at, min_first_jumps
):
    # the jump bound passes MAX_DP_PER_STEP, so no threshold word is skipped
    system = systems[case.system]
    jump_idx = [m for m, label in enumerate(CHANNEL_LABELS) if label not in case.homodyne_channels]
    reach = mcwf._jump_reach(
        system.plus_stack[jump_idx], case.dt * system.rates[jump_idx],
        system.initial_state(case.init),
    )
    assert reach == np.inf
    refs = references(case)
    assert [ref.step if isinstance(ref, Raised) else None for ref in refs] == raised_at
    _assert_kernel_equals_the_references(systems, [case], references)
    first_jumps = {ref[1][0][0] for ref in refs if not isinstance(ref, Raised) and ref[1]}
    assert len(first_jumps) >= min_first_jumps


def test_jump_reach_bounds_the_jump_probability_of_every_state(systems):
    # worst cases are the top right-singular vectors of each S+; random
    # states and an unnormalized psi0 must stay below the bound as well
    rng = np.random.default_rng(0)
    for system in (systems["strong"], systems["strong-full"]):
        d = system.dimension
        for jump_idx in ([1, 2, 3], [1, 3], [0, 1, 2, 3]):
            stack, scale = system.plus_stack[jump_idx], 0.1 * system.rates[jump_idx]
            for psi0 in (system.initial_state("0ee"), 2.0 * system.initial_state("1gg")):
                reach = mcwf._jump_reach(stack, scale, psi0)
                assert reach < mcwf.MAX_DP_PER_STEP
                states = rng.normal(size=(200, d)) + 1j * rng.normal(size=(200, d))
                states /= np.linalg.norm(states, axis=1)[:, None]
                states = np.concatenate(
                    [states, np.linalg.svd(stack)[2][:, 0].conj(), psi0[None]]
                )
                dp = scale * mcwf._chunk_amplitudes(states, stack)[1]
                assert dp.sum(axis=1).max() < reach
            assert mcwf._jump_reach(stack, 60 * scale, psi0) == np.inf


def test_a_jump_bound_just_below_the_cap_is_kept():
    # one channel with ||S+|| = 1 on a normalized state: the bound is the
    # scale times the slack, a relative 1e-10 below MAX_DP_PER_STEP
    stack, psi0 = np.eye(3, dtype=complex)[None], np.array([1.0, 0.0, 0.0], dtype=complex)
    bound = mcwf.MAX_DP_PER_STEP * (1.0 - 1e-10)
    scale = np.array([bound / (1.0 + mcwf._BOUND_SLACK)])
    reach = mcwf._jump_reach(stack, scale, psi0)
    assert reach < mcwf.MAX_DP_PER_STEP
    assert reach == pytest.approx(bound, rel=1e-15)


@pytest.mark.parametrize(
    "case",
    [
        Case("pair", "0ee", 3000.0, None, 5, n, 1, channels)
        for channels, n in [((), 6), (CHANNEL_LABELS, 1), (("cavity",), 1)]
    ],
    ids=["photodetection", "full-homodyne", "mixed"],
)
def test_top_fock_peak_covers_every_visited_state(systems, case):
    # at n_fock = 2 the pair exchange fills the top Fock level mid-run; with
    # record_every = 1 every visited state is a recorded row, pre-jump ones too
    peaks = []
    for j in range(case.n):
        rec = _alone(systems, case, j)
        top = np.sum(np.abs(rec.states[0, :, -4:]) ** 2, axis=1)
        assert rec.top_fock_peak == pytest.approx(top.max(), rel=1e-12)
        peaks.append((rec.top_fock_peak, top[0], top[-1]))
    # the peak lies inside the run, above both its ends
    assert any(peak > 0.5 and peak > max(first, last) for peak, first, last in peaks)
    if case.n > 1:  # a batch of one row is that row run alone
        assert _batch(systems, case).top_fock_peak == max(peak for peak, _, _ in peaks)


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
