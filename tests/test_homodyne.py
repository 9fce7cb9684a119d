"""Diffusive (homodyne) unravelling: continuity, determinism, mixed detection."""

from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import expm

from usctraj import mcwf
from usctraj.dressed import CHANNEL_LABELS
from usctraj.errors import ConfigError, NumericalInconsistencyError, TimestepError
from usctraj.hilbert import build_layout
from usctraj.ensemble import run_ensemble
from usctraj.mcwf import DRIFT_MODES, run_trajectory
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.rng import (
    PURPOSE_CHANNEL,
    PURPOSE_JUMP,
    PURPOSE_NOISE,
    normal_words,
    uniform_words,
)
from usctraj.system import build_system


@pytest.fixture(scope="module")
def hom_system():
    layout = build_layout(6)
    base = SystemParams(kappa=4e-4, gamma1=4e-4, gamma2=4e-4, gamma_c=0.0)
    p = calibrate_resonance(base, layout, which="effective")
    return build_system(p, n_fock=6, hamiltonian="effective")


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
    steps = np.abs(np.diff(rec.expectations[:, 0], axis=1))
    assert steps.max() < 0.05


def test_determinism_and_traj_index_variation(hom_system):
    sys = hom_system
    common = dict(
        dt=0.1, seed=8, record_every=5, homodyne_channels=CHANNEL_LABELS, drift_mode="qsd"
    )
    a = run_trajectory(sys, sys.initial_state("1gg"), 200.0, **common)
    b = run_trajectory(sys, sys.initial_state("1gg"), 200.0, **common)
    np.testing.assert_array_equal(a.final_states, b.final_states)
    c = run_trajectory(
        sys, sys.initial_state("1gg"), 200.0, dt=0.1, seed=8,
        record_every=5, homodyne_channels=CHANNEL_LABELS, drift_mode="qsd", traj_index=1,
    )
    assert not np.array_equal(a.final_states, c.final_states)


def test_zero_noise_reduces_to_deterministic_drift(hom_system):
    sys = hom_system
    a = _zero_noise_rows(
        sys, sys.initial_state("1gg"), 100.0, 0.1, 0, [0], 1, CHANNEL_LABELS, "qsd"
    )
    b = _zero_noise_rows(
        sys, sys.initial_state("1gg"), 100.0, 0.1, 99, [0], 1, CHANNEL_LABELS, "qsd"
    )
    np.testing.assert_array_equal(a.final_states, b.final_states)
    np.testing.assert_array_equal(a.expectations, b.expectations)


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
    np.testing.assert_allclose(hom.expectations, jmp.expectations, atol=1e-10)


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
        total = rec.expectations[:, 0].sum(axis=0)
        assert total[0] == pytest.approx(1.0, abs=1e-6)
        finals.append(total[-1])
    assert np.mean(finals) < 0.98


def _at_step(err, k):
    """err, marked with the step k at which the reference raised it."""
    err.step = k
    return err


def _reference_homodyne(
    system, psi0, t_final, dt, seed, traj_index, record_every,
    homodyne_channels, drift_mode, zero_noise=False,
):
    """The homodyne engine one step at a time: (series, jumps, final, states).

    Each random word is read by its own index: threshold k at step k,
    channel word q at the q-th jump, and the noise words in order of use.
    Channel m is row m of the system's S^+ stack and rate vector.
    """
    psi = np.asarray(psi0, dtype=complex)
    hom = [m for m, label in enumerate(CHANNEL_LABELS) if label in homodyne_channels]
    jump = [m for m, label in enumerate(CHANNEL_LABELS) if label not in homodyne_channels]
    propagator = expm(-1j * system.h_nh * dt)
    n_steps = int(round(t_final / dt))
    rec_steps = np.arange(0, n_steps + 1, record_every)
    series = np.empty((3, rec_steps.size))
    snapshots = np.empty((rec_steps.size, psi.size), dtype=complex)
    jumps = []
    rec_i = 0
    drawn = 0  # noise words consumed
    for k in range(n_steps + 1):
        if rec_i < rec_steps.size and k == rec_steps[rec_i]:
            amps3 = system.plus_stack[:3] @ psi
            series[:, rec_i] = np.einsum("md,md->m", amps3.conj(), amps3).real
            snapshots[rec_i] = psi
            rec_i += 1
        if k == n_steps:
            break
        if jump:
            amps = system.plus_stack[jump] @ psi
            dp = dt * system.rates[jump] * np.einsum("md,md->m", amps.conj(), amps).real
            if dp.max() >= mcwf.MAX_DP_PER_STEP or dp.sum() >= 1.0:
                raise TimestepError(f"jump probabilities {dp} too large; reduce dt")
            if dp.sum() > uniform_words(seed, traj_index, PURPOSE_JUMP, k, 1)[0]:
                eps_prime = uniform_words(seed, traj_index, PURPOSE_CHANNEL, len(jumps), 1)[0]
                cum = np.cumsum(dp)
                m = int(np.searchsorted(cum / cum[-1], eps_prime, side="right"))
                norm = np.linalg.norm(amps[m])
                if norm < mcwf.JUMP_NORM_FLOOR:
                    raise _at_step(NumericalInconsistencyError(
                        f"channel {CHANNEL_LABELS[jump[m]]} selected but ||S^+ psi|| = {norm:.3e}"
                    ), k)
                psi = amps[m] / norm
                jumps.append(((k + 1) * dt, jump[m], dp))
                continue
        if zero_noise:
            dw = np.zeros(len(hom))
        else:
            words = [normal_words(seed, traj_index, PURPOSE_NOISE, drawn + i, 1)[0]
                     for i in range(len(hom))]
            dw = np.sqrt(dt) * np.array(words)
            drawn += len(hom)
        phi = propagator @ psi
        back = np.zeros_like(phi)
        for m, w in zip(hom, dw):
            rate = float(system.rates[m])
            amp = system.plus_stack[m] @ phi
            z = np.vdot(phi, amp)
            if drift_mode == "qsd":
                x = 2.0 * z.real
                back += (rate * x * dt + np.sqrt(rate) * w) * amp
            else:
                drift = rate**2 * (np.conj(z) - z)
                back += -0.5 * (drift * dt + rate * w) * amp
        phi = phi + back
        psi = phi / np.linalg.norm(phi)
    return series, jumps, psi, snapshots


@pytest.fixture(scope="module")
def busy_hom_systems():
    """Qubit jumps every few hundred steps, a collective channel included."""
    base = SystemParams(kappa=1e-2, gamma1=2e-2, gamma2=1.5e-2, gamma_c=1e-2)
    p = calibrate_resonance(base, build_layout(4), which="effective")
    return {
        "effective": build_system(p, n_fock=4, hamiltonian="effective"),
        "full": build_system(p, n_fock=4, hamiltonian="full"),
    }


# (hamiltonian, initial state, t_final, record_every, monitored, drift, zero_noise)
_REFERENCE_CASES = [
    ("effective", "1gg", 60.0, 1, CHANNEL_LABELS, "qsd", False),
    ("effective", "1gg", 60.0, 3, CHANNEL_LABELS, "as-printed", False),
    ("effective", "1gg", 60.0, 7, CHANNEL_LABELS, "as-printed", False),
    ("effective", "0ee", 150.0, 5, ("cavity",), "qsd", False),
    ("effective", "0ee", 150.0, 4, ("cavity",), "as-printed", False),
    ("effective", "0ee", 150.0, 1, ("cavity", "collective"), "as-printed", False),
    ("full", "0ee", 150.0, 5, ("cavity",), "qsd", False),
    ("effective", "0ee", 150.0, 5, ("cavity",), "qsd", True),
    ("effective", "1gg", 40.0, 2, CHANNEL_LABELS, "qsd", True),
]


class _Raised(NamedTuple):
    """A run that raised: its message and, for the reference, the step."""

    message: str
    step: int | None = None


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except NumericalInconsistencyError as err:
        return _Raised(str(err), getattr(err, "step", None))


def _references(systems):
    """Per-step reference outcomes keyed by reference case plus traj_index."""
    refs = {}
    for case in _REFERENCE_CASES:
        ham, init, t_final, record_every, monitored, drift, zero_noise = case
        system = systems[ham]
        for traj_index in range(3):
            refs[case + (traj_index,)] = _outcome(
                _reference_homodyne, system, system.initial_state(init), t_final, 0.1,
                13, traj_index, record_every, monitored, drift, zero_noise,
            )
    return refs


@pytest.fixture(scope="module")
def hom_references(busy_hom_systems):
    return _references(busy_hom_systems)


def _zero_noise_rows(system, psi0, t_final, dt, seed, rows, record_every,
                     homodyne_channels, drift_mode, store_states=False):
    """The kernel's rows with every Wiener increment 0; only ``_run_rows`` takes that."""
    monitored = mcwf._monitored(homodyne_channels, drift_mode, dt)[0]
    return mcwf._run_rows(
        system, psi0, t_final, dt, seed, rows, record_every, monitored, drift_mode,
        zero_noise=True, store_states=store_states,
    )


def _engine_outcome(systems, key):
    ham, init, t_final, record_every, monitored, drift, zero_noise, traj_index = key
    system = systems[ham]
    if zero_noise:
        return _outcome(
            _zero_noise_rows, system, system.initial_state(init), t_final, 0.1, 13,
            [traj_index], record_every, monitored, drift, store_states=True,
        )
    return _outcome(
        run_trajectory, system, system.initial_state(init), t_final,
        dt=0.1, seed=13, traj_index=traj_index, record_every=record_every,
        homodyne_channels=monitored, drift_mode=drift, store_states=True,
    )


def _batch_outcome(systems, case, n):
    """Rows 0..n-1 of a reference case, run as one ensemble."""
    ham, init, t_final, record_every, monitored, drift, zero_noise = case
    system = systems[ham]
    if zero_noise:
        return _outcome(
            _zero_noise_rows, system, system.initial_state(init), t_final, 0.1, 13,
            range(n), record_every, monitored, drift,
        )
    return _outcome(
        run_ensemble, system, system.initial_state(init), t_final, n,
        dt=0.1, master_seed=13, record_every=record_every,
        homodyne_channels=monitored, drift_mode=drift,
    )


def _assert_matches_reference(result, j, ref, monitored):
    """Row j of the engine's result equals the reference; ``monitored`` as in the key.

    The states are compared where the result stored them.  The engine
    records the probabilities of all four channels per jump, the reference
    those of the photodetected channels; the homodyned ones read 0.
    """
    series, jumps, final, states = ref
    np.testing.assert_array_equal(result.expectations[:, j], series)
    if result.states is not None:
        np.testing.assert_array_equal(result.states[j], states)
    np.testing.assert_array_equal(result.final_states[j], final)
    sel = result.jump_traj == j
    assert list(zip(result.jump_time[sel], result.jump_channel[sel])) == [
        jump[:2] for jump in jumps
    ]
    detected = [m for m, label in enumerate(CHANNEL_LABELS) if label not in monitored]
    for dp, want in zip(result.jump_dp[sel], jumps):
        assert dp.shape == (len(CHANNEL_LABELS),)
        np.testing.assert_array_equal(dp[detected], want[2])
        np.testing.assert_array_equal(np.delete(dp, detected), 0.0)


def _first_raised(refs):
    """The row whose reference raised at the earliest step, lowest on a tie."""
    raised = [(ref.step, j) for j, ref in enumerate(refs) if isinstance(ref, _Raised)]
    return min(raised)[1] if raised else None


def _compare_with_reference(systems, refs):
    """Run the engine on every reference key, alone and as one batch per case.

    A batch raises the error of its row that raised at the earliest step,
    the lowest such row on a tie (``_first_raised``).  Counts the jumps and
    the raises.
    """
    n_jumps = n_raised = 0
    for key, ref in refs.items():
        rec = _engine_outcome(systems, key)
        if isinstance(ref, _Raised):
            assert rec == _Raised(ref.message)
            n_raised += 1
        else:
            _assert_matches_reference(rec, 0, ref, monitored=key[4])
            n_jumps += len(ref[1])
    for case in _REFERENCE_CASES:
        rows = [refs[case + (j,)] for j in range(3)]
        batch = _batch_outcome(systems, case, len(rows))
        first = _first_raised(rows)
        if first is not None:
            assert batch == _Raised(rows[first].message)
        else:
            for j, ref in enumerate(rows):
                _assert_matches_reference(batch, j, ref, monitored=case[4])
    return n_jumps, n_raised


def test_homodyne_engine_equals_the_per_step_reference(
    busy_hom_systems, hom_references, monkeypatch
):
    # word blocks of 1, 3 and 7 steps end inside every run, so the noise
    # words a jump left unread are read again at many refills
    for block in (1, 3, 7, mcwf._WORD_BLOCK):
        monkeypatch.setattr(mcwf, "_WORD_BLOCK", block)
        n_jumps, n_raised = _compare_with_reference(busy_hom_systems, hom_references)
        assert n_raised == 0
        assert n_jumps >= 10


def test_homodyne_engine_raises_at_the_reference_norm_floor(busy_hom_systems, monkeypatch):
    # the selected jump norms here lie between 0.985 and 1; with the floor
    # inside that range some jumps collapse and others raise, and the engine
    # must do exactly what the reference does
    monkeypatch.setattr(mcwf, "JUMP_NORM_FLOOR", 0.995)
    n_jumps, n_raised = _compare_with_reference(
        busy_hom_systems, _references(busy_hom_systems)
    )
    assert n_raised > 0
    assert n_jumps > 0


def test_a_batch_raises_the_error_of_its_earliest_failing_row(busy_hom_systems, monkeypatch):
    # at this floor rows 0 and 3..7 raise, row 5 first (step 255, row 0 at
    # 588): the batch must raise row 5's error, not row 0's
    monkeypatch.setattr(mcwf, "JUMP_NORM_FLOOR", 0.995)
    case = ("effective", "0ee", 150.0, 1, ("cavity", "collective"), "as-printed", False)
    ham, init, t_final, record_every, monitored, drift, zero_noise = case
    system = busy_hom_systems[ham]
    rows = [
        _outcome(
            _reference_homodyne, system, system.initial_state(init), t_final, 0.1, 13, j,
            record_every, monitored, drift, zero_noise,
        )
        for j in range(8)
    ]
    first = _first_raised(rows)
    lowest = min(j for j, ref in enumerate(rows) if isinstance(ref, _Raised))
    assert first is not None and first != lowest
    assert _batch_outcome(busy_hom_systems, case, len(rows)) == _Raised(rows[first].message)


def _assert_same_row(result, j, rec):
    """Row j of an ensemble equals the one row of a single run."""
    np.testing.assert_array_equal(result.expectations[:, j], rec.expectations[:, 0])
    np.testing.assert_array_equal(result.final_states[j], rec.final_states[0])
    sel = result.jump_traj == j
    np.testing.assert_array_equal(result.jump_time[sel], rec.jump_time)
    np.testing.assert_array_equal(result.jump_channel[sel], rec.jump_channel)
    np.testing.assert_array_equal(result.jump_dp[sel], rec.jump_dp)


def test_ensemble_rows_equal_single_runs(busy_hom_systems, monkeypatch):
    # a budget of 100 words cuts the 17-row batch into blocks of 2 steps and
    # each single run into blocks of 50; the rows jump at different steps, so
    # their noise offsets part
    monkeypatch.setattr(mcwf, "_WORD_BUDGET", 100)
    system = busy_hom_systems["effective"]
    psi0 = system.initial_state("0ee")
    common = dict(dt=0.1, record_every=5, homodyne_channels=("cavity",), drift_mode="qsd")
    result = run_ensemble(system, psi0, 150.0, 17, master_seed=13, **common)
    singles = [
        run_trajectory(system, psi0, 150.0, seed=13, traj_index=j, **common)
        for j in range(17)
    ]
    for j, rec in enumerate(singles):
        _assert_same_row(result, j, rec)
    assert result.top_fock_peak == max(rec.top_fock_peak for rec in singles)
    first_jumps = {rec.jump_time[0] for rec in singles if rec.jump_time.size}
    assert len(first_jumps) >= 5


def test_jump_reach_bounds_the_jump_probability_of_every_state(busy_hom_systems):
    # worst cases are the top right-singular vectors of each S+; random
    # states and an unnormalized psi0 must stay below the bound as well
    rng = np.random.default_rng(0)
    for system in busy_hom_systems.values():
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


def test_a_step_past_the_jump_bound_checks_every_row(busy_hom_systems):
    # at dt = 6 the bound passes MAX_DP_PER_STEP, so every threshold word
    # counts; from 0ee each row fails the dp guard at its first step
    system = busy_hom_systems["effective"]
    psi0 = system.initial_state("0ee")
    common = dict(dt=6.0, homodyne_channels=("cavity",), drift_mode="qsd")
    with pytest.raises(TimestepError) as alone:
        run_trajectory(system, psi0, 60.0, seed=13, **common)
    with pytest.raises(TimestepError) as batch:
        run_ensemble(system, psi0, 60.0, 5, master_seed=13, **common)
    assert str(batch.value) == str(alone.value)


def _no_words(*args):
    raise AssertionError("this run must draw no words from this stream")


@pytest.mark.parametrize(
    "case, stream",
    [
        (("effective", "0ee", 150.0, 5, ("cavity",), "qsd", True), "normal_words"),
        (("effective", "1gg", 60.0, 1, CHANNEL_LABELS, "qsd", False), "uniform_words"),
    ],
    ids=["zero-noise-mixed", "full-homodyne"],
)
def test_runs_that_need_no_words_draw_none(
    busy_hom_systems, hom_references, case, stream, monkeypatch
):
    monkeypatch.setattr(mcwf, stream, _no_words)
    n_jumps = 0
    for traj_index in range(3):
        ref = hom_references[case + (traj_index,)]
        rec = _engine_outcome(busy_hom_systems, case + (traj_index,))
        _assert_matches_reference(rec, 0, ref, monitored=case[4])
        n_jumps += len(ref[1])
    batch = _batch_outcome(busy_hom_systems, case, 3)
    for traj_index in range(3):
        _assert_matches_reference(
            batch, traj_index, hom_references[case + (traj_index,)], monitored=case[4]
        )
    if stream == "normal_words":
        assert n_jumps > 0  # the zero-noise mixed run still reads its jump words


def test_top_fock_peak_covers_every_visited_state():
    # at n_fock = 2 the pair exchange fills the top Fock level mid-run;
    # with record_every = 1 every visited state is a recorded row
    base = SystemParams(kappa=4e-4, gamma1=2e-4, gamma2=2e-4)
    p = calibrate_resonance(base, build_layout(2), which="effective")
    system = build_system(p, n_fock=2, hamiltonian="effective")
    for monitored in (CHANNEL_LABELS, ("cavity",)):
        rec = run_trajectory(
            system, system.initial_state("0ee"), 3000.0, seed=5,
            homodyne_channels=monitored, store_states=True,
        )
        top = np.sum(np.abs(rec.states[0, :, -4:]) ** 2, axis=1)
        assert rec.top_fock_peak == pytest.approx(top.max(), rel=1e-12)
        assert rec.top_fock_peak > max(0.5, top[0], top[-1])


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
            alone.expectations, run_trajectory(hom_system, psi0, 3.0, dt=dt, **common).expectations
        )
