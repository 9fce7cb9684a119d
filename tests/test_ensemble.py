"""Vectorized ensemble driver versus the reference per-trajectory loop.

The grouped driver exploits that between jumps all trajectories sharing an
entry state follow the same deterministic flow.  Its contract: jump times,
channels, and first-jump probability vectors are identical to the direct
loop; observables agree exactly on the first segment and to rounding noise
after jumps (post-jump states are stored with a canonical global phase).
"""

import os
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import ndtri

from usctraj import ensemble, mcwf, workers
from usctraj.dressed import CHANNEL_LABELS
from usctraj.ensemble import ENSEMBLE_METHODS, run_ensemble
from usctraj.errors import ConfigError, NumericalInconsistencyError, TimestepError
from usctraj.hilbert import build_layout
from usctraj.lme import density_from_state, evolve_lme
from usctraj.mcwf import JUMP_NORM_FLOOR, MAX_DP_PER_STEP, ensemble_average, run_trajectory
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.rng import PURPOSE_JUMP, RawWords, raw_thresholds
from usctraj.system import OBSERVABLE_LABELS, build_system

N_TRAJ = 40
T_FINAL = 3000.0


def first_jumps(result):
    """Position in the jump columns of each jumping trajectory's first jump."""
    return np.flatnonzero(np.diff(result.jump_traj, prepend=-1))


def first_jump_times(result):
    """Each trajectory's first jump time, inf where it never jumps."""
    times = np.full(result.n_trajectories, np.inf)
    first = first_jumps(result)
    times[result.jump_traj[first]] = result.jump_time[first]
    return times


@pytest.fixture(scope="module")
def busy_params():
    """Rates high enough that most trajectories jump at least once."""
    layout = build_layout(6)
    base = SystemParams(kappa=4e-4, gamma1=5e-4, gamma2=3e-4, gamma_c=2e-4)
    return calibrate_resonance(base, layout, which="effective")


@pytest.fixture(scope="module")
def busy_systems(busy_params):
    """The busy parameters assembled with each Hamiltonian at n_fock = 6."""
    return {
        ham: build_system(busy_params, n_fock=6, hamiltonian=ham)
        for ham in ("effective", "full")
    }


@pytest.fixture(scope="module")
def grouped_and_direct(busy_systems):
    system = busy_systems["effective"]
    psi0 = system.initial_state("1gg")
    common = dict(dt=0.5, master_seed=11, record_every=4)
    grouped = run_ensemble(system, psi0, T_FINAL, N_TRAJ, method="grouped", **common)
    direct = run_ensemble(system, psi0, T_FINAL, N_TRAJ, method="direct", **common)
    return grouped, direct


def test_method_names_exported():
    assert ENSEMBLE_METHODS == ("auto", "grouped", "direct")


def test_jump_log_identical(grouped_and_direct):
    grouped, direct = grouped_and_direct
    assert grouped.n_trajectories == direct.n_trajectories == N_TRAJ
    np.testing.assert_array_equal(grouped.jump_traj, direct.jump_traj)
    np.testing.assert_array_equal(grouped.jump_time, direct.jump_time)
    np.testing.assert_array_equal(grouped.jump_channel, direct.jump_channel)
    total = grouped.jump_traj.size
    assert total > 10, "scenario expected to produce plenty of jumps"


def test_first_jump_probabilities_bitwise(grouped_and_direct):
    grouped, direct = grouped_and_direct
    first = first_jumps(grouped)
    assert first.size > 0
    np.testing.assert_array_equal(grouped.jump_dp[first], direct.jump_dp[first])


def test_observables_before_first_jump_bitwise(grouped_and_direct):
    grouped, direct = grouped_and_direct
    for i, t_first in enumerate(first_jump_times(grouped)):
        head = grouped.time_grid < t_first
        np.testing.assert_array_equal(
            grouped.rows[i][:, head], direct.rows[i][:, head]
        )


def test_observables_after_jumps_close(grouped_and_direct):
    grouped, direct = grouped_and_direct
    worst = np.max(np.abs(np.asarray(grouped.rows) - np.asarray(direct.rows)))
    assert worst < 1e-10


def test_final_states_agree_up_to_global_phase(grouped_and_direct):
    grouped, direct = grouped_and_direct
    for g, d in zip(grouped.final_states, direct.final_states):
        overlap = abs(np.vdot(g, d))
        assert overlap > 1.0 - 1e-12


def test_auto_uses_direct_loop_on_the_full_hamiltonian(busy_systems):
    # full-Hamiltonian jump images are not ray-constant, so auto must fall
    # back and reproduce the reference loop exactly
    system = busy_systems["full"]
    psi0 = system.initial_state("1gg")
    result = run_ensemble(
        system, psi0, 200.0, 3, dt=0.5, master_seed=5, record_every=2, method="auto",
    )
    for i in range(result.n_trajectories):
        ref = run_trajectory(
            system, psi0, 200.0, dt=0.5, seed=5, traj_index=i, record_every=2,
        )
        np.testing.assert_array_equal(result.rows[i], ref.rows[0])
        np.testing.assert_array_equal(result.final_states[i], ref.final_states[0])


def test_grouped_refuses_ungroupable_dynamics(busy_systems):
    system = busy_systems["full"]
    with pytest.raises(ConfigError):
        run_ensemble(
            system, system.initial_state("1gg"), 200.0, 3, dt=0.5, master_seed=5,
            method="grouped",
        )


def test_timestep_error_raised_by_both_methods():
    layout = build_layout(4)
    p = calibrate_resonance(SystemParams(kappa=0.25), layout, which="effective")
    system = build_system(p, n_fock=4, hamiltonian="effective")
    for method in ("grouped", "direct"):
        with pytest.raises(TimestepError, match="reduce dt"):
            run_ensemble(
                system, system.initial_state("1gg"), 50.0, 2, dt=1.0, master_seed=0,
                method=method,
            )


def test_lossless_ensemble_never_jumps(p_resonant):
    system = build_system(p_resonant, n_fock=6, hamiltonian="effective")
    result = run_ensemble(
        system, system.initial_state("1gg"), 500.0, 4, dt=0.5, master_seed=7,
        record_every=10, method="grouped",
    )
    assert result.jump_traj.size == 0
    # all trajectories identical: no randomness enters without dissipation
    cavity = [row[0] for row in result.rows]
    for row in cavity[1:]:
        np.testing.assert_array_equal(row, cavity[0])


def test_ensemble_size_does_not_change_results(busy_systems):
    # the direct kernel advances the ensemble as one batch; a larger
    # ensemble must not change the first trajectories by a single bit
    system = busy_systems["full"]
    psi0 = system.initial_state("1gg")
    common = dict(dt=0.5, master_seed=3, record_every=4, method="direct")
    three = run_ensemble(system, psi0, 400.0, 3, **common)
    six = run_ensemble(system, psi0, 400.0, 6, **common)
    assert six.n_trajectories == 6
    np.testing.assert_array_equal(np.asarray(three.rows), six.rows[:3])
    head = six.jump_traj < 3
    np.testing.assert_array_equal(three.jump_traj, six.jump_traj[head])
    np.testing.assert_array_equal(three.jump_time, six.jump_time[head])


def test_unknown_method_rejected(busy_systems):
    system = busy_systems["effective"]
    with pytest.raises(ConfigError):
        run_ensemble(
            system, system.initial_state("1gg"), 100.0, 1, master_seed=0, method="fancy",
        )


def _jump_probabilities(psi, dt, plus_stack, rates):
    """dp_m and the jump amplitudes S^+_m psi (rows) of one state."""
    amps = plus_stack @ psi
    dp = dt * rates * np.einsum("md,md->m", amps.conj(), amps).real
    return dp, amps


def test_a_grouped_run_raises_the_kernel_norm_floor_error(busy_systems, monkeypatch):
    # the grouped sampler reads the kernel's floor and raises its message:
    # trajectory 0 is sampled first and raises what it raises run alone,
    # in the first of W blocks
    monkeypatch.setattr(mcwf, "JUMP_NORM_FLOOR", 0.99)
    system = busy_systems["effective"]
    psi0 = system.initial_state("1gg")
    with pytest.raises(NumericalInconsistencyError) as alone:
        run_trajectory(system, psi0, T_FINAL, dt=0.5, seed=11)
    for w in (1, 2, 3):
        monkeypatch.setattr(workers, "W", w)
        with pytest.raises(NumericalInconsistencyError) as grouped:
            run_ensemble(system, psi0, T_FINAL, 8, dt=0.5, master_seed=11, method="grouped")
        assert "selected but ||S^+ psi|| = " in str(grouped.value)
        assert str(grouped.value) == str(alone.value)


def _reference_build_flow(state0, system, propagator, n_steps, dt):
    """The flow builder one step at a time, with the per-state expressions.

    It keeps the whole (4, n_steps) ``dp`` and the (3, n_steps + 1) ``obs``
    beside the fields of ``ensemble._Flow``.
    """
    plus_stack, rates = system.plus_stack, system.rates
    n_channels = rates.size
    dp = np.empty((n_channels, n_steps))
    obs = np.empty((3, n_steps + 1))
    top = np.empty(n_steps + 1)
    refs = [None] * n_channels
    psi = state0
    for k in range(n_steps + 1):
        dp_k, amps = _jump_probabilities(psi, dt, plus_stack, rates)
        obs[:, k] = np.einsum("md,md->m", amps[:3].conj(), amps[:3]).real
        top[k] = np.sum(np.abs(psi[-4:]) ** 2)
        norms = np.linalg.norm(amps, axis=1)
        if k < n_steps:
            dp[:, k] = dp_k
        for m in range(n_channels):
            if rates[m] == 0.0 or norms[m] <= JUMP_NORM_FLOOR:
                continue
            if refs[m] is None:
                refs[m] = amps[m] / norms[m]
            elif abs(abs(np.vdot(refs[m], amps[m])) - norms[m]) > ensemble.RAY_TOL * norms[m]:
                raise ensemble._Ungroupable()
        if k == n_steps:
            break
        phi = propagator @ psi
        psi = phi / np.linalg.norm(phi)
    viol = np.flatnonzero((dp.max(axis=0) >= MAX_DP_PER_STEP) | (dp.sum(axis=0) >= 1.0))
    return SimpleNamespace(
        state0=state0,
        dp=dp,
        threshold=raw_thresholds(dp.sum(axis=0)),
        obs=obs,
        top_peak=np.maximum.accumulate(top),
        image_flow=np.full(n_channels, -1, dtype=int),
        image_state=[None if r is None else ensemble._canonical_phase(r) for r in refs],
        first_violation=int(viol[0]) if viol.size else n_steps + 1,
        dark=bool(dp.max(initial=0.0) == 0.0),
    )


def _assert_flow_matches(got, ref):
    """A built flow against the per-step reference, as its sampler reads it.

    The dp column the flow forms at each age is the reference's, bit for
    bit, and so are the thresholds, observables, images and guard ages.
    """
    for age in range(ref.dp.shape[1]):
        np.testing.assert_array_equal(got.dp(age), ref.dp[:, age], strict=True)
    for name in ("threshold", "obs"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), strict=True)
    np.testing.assert_allclose(got.top_peak, ref.top_peak, rtol=1e-13, atol=0.0)
    for a, b in zip(got.image_state, ref.image_state, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)
    assert (got.first_violation, got.dark) == (ref.first_violation, ref.dark)


@pytest.fixture(scope="module")
def busy_effective(busy_systems):
    system = busy_systems["effective"]
    return system, expm(-1j * system.h_nh * 0.5)


@pytest.mark.parametrize("chunk", [1, 3, 4, ensemble._FLOW_CHUNK])
def test_chunked_flows_equal_the_per_step_reference(busy_effective, chunk, monkeypatch):
    system, propagator = busy_effective
    monkeypatch.setattr(ensemble, "_FLOW_CHUNK", chunk)
    # the root flow and the flows its jump images enter
    entries = [system.initial_state("1gg")]
    root = _reference_build_flow(entries[0], system, propagator, 2 * chunk + 3, 0.5)
    entries += [s for s in root.image_state if s is not None]
    for n_steps in sorted({1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3}):
        for state0 in entries:
            ref = _reference_build_flow(state0, system, propagator, n_steps, 0.5)
            got = ensemble._build_flow(state0, system, propagator, n_steps, 0.5)
            _assert_flow_matches(got, ref)


def test_grouped_refuses_a_ray_broken_after_the_first_chunk(busy_systems, monkeypatch):
    # a one-state first chunk only sets the reference images; the full
    # Hamiltonian's step-dependent dressing breaks the ray at the next state
    monkeypatch.setattr(ensemble, "_FLOW_CHUNK", 1)
    system = busy_systems["full"]
    propagator = expm(-1j * system.h_nh * 0.5)
    psi0 = system.initial_state("1gg")
    ensemble._build_flow(psi0, system, propagator, 0, 0.5)
    with pytest.raises(ensemble._Ungroupable):
        ensemble._build_flow(psi0, system, propagator, 1, 0.5)
    with pytest.raises(ConfigError):
        run_ensemble(system, psi0, 200.0, 3, dt=0.5, master_seed=5, method="grouped")


def test_grouped_top_fock_peak_matches_the_direct_engine(trajectories_alone):
    # at n_fock = 2 the pair exchange fills the top Fock level mid-run
    base = SystemParams(kappa=4e-4, gamma1=2e-4, gamma2=2e-4)
    p = calibrate_resonance(base, build_layout(2), which="effective")
    system = build_system(p, n_fock=2, hamiltonian="effective")
    psi0 = system.initial_state("0ee")
    runs = {}
    for method in ("grouped", "direct"):
        result = run_ensemble(system, psi0, 3000.0, 12, master_seed=5, method=method)
        alone = trajectories_alone(system, psi0, 3000.0, 12, master_seed=5, method=method)
        # the ensemble keeps the largest peak of its trajectories
        assert result.top_fock_peak == max(peak for *_, peak in alone)
        runs[method] = alone
    for (_, g_jumps, _, g_peak), (_, d_jumps, _, d_peak) in zip(runs["grouped"], runs["direct"]):
        assert [j[0] for j in g_jumps] == [j[0] for j in d_jumps]
        assert g_peak == pytest.approx(d_peak, rel=1e-12)
    assert max(peak for *_, peak in runs["grouped"]) > 0.5


@pytest.fixture(scope="module")
def grouped_alone(busy_systems, trajectories_alone):
    """Each trajectory of the grouped run of ``grouped_and_direct``, sampled on its own."""
    system = busy_systems["effective"]
    return trajectories_alone(
        system, system.initial_state("1gg"), T_FINAL, N_TRAJ, dt=0.5, master_seed=11,
        record_every=4,
    )


def test_grouped_rows_equal_trajectories_sampled_alone(grouped_and_direct, grouped_alone):
    # row j of the grouped result is trajectory j sampled on its own, bit
    # for bit
    grouped, _ = grouped_and_direct
    alone = grouped_alone
    # the result keeps segment tables, not rows: the row accessor, and the
    # stack numpy builds through it, stitch them again
    assert len(grouped.rows) == grouped.n_trajectories == N_TRAJ
    np.testing.assert_array_equal(grouped.rows[-1], alone[-1][0])
    with pytest.raises(IndexError):
        grouped.rows[N_TRAJ]
    stack = np.asarray(grouped.rows)
    for j, (series, jumps, final, _) in enumerate(alone):
        np.testing.assert_array_equal(grouped.rows[j], series)
        np.testing.assert_array_equal(stack[j], series)
        np.testing.assert_array_equal(grouped.final_states[j], final)
        sel = grouped.jump_traj == j
        assert list(zip(grouped.jump_time[sel], grouped.jump_channel[sel])) == [
            jump[:2] for jump in jumps
        ]
        for got, jump in zip(grouped.jump_dp[sel], jumps):
            np.testing.assert_array_equal(got, jump[2])
    assert grouped.jump_traj.size == sum(len(jumps) for _, jumps, *_ in alone) > 10
    assert grouped.top_fock_peak == max(peak for *_, peak in alone)


def test_grouped_final_states_are_rebuilt_as_computed_right_away(
    grouped_and_direct, grouped_alone
):
    # the result keeps no final state: each is rebuilt from the trajectory's
    # last segment when read, with the bits of computing it right away
    grouped, _ = grouped_and_direct
    finals = grouped.final_states
    eager = np.array([final for _, _, final, _ in grouped_alone])
    assert len(finals) == N_TRAJ and eager.shape == (N_TRAJ, grouped.final_states[0].size)
    np.testing.assert_array_equal(np.asarray(finals), eager, strict=True)
    for j in (0, 1, N_TRAJ - 1, -1, -2, -N_TRAJ):
        np.testing.assert_array_equal(finals[j], eager[j], strict=True)
    for s in (slice(None), slice(3, 9, 2), slice(None, None, -3), slice(5, 5)):
        np.testing.assert_array_equal(finals[s], eager[s], strict=True)
    for j in (N_TRAJ, -N_TRAJ - 1):
        with pytest.raises(IndexError):
            finals[j]


def test_grouped_columns_equal_the_per_trajectory_records(
    busy_systems, grouped_and_direct, grouped_alone
):
    # the jump columns and segment tables a grouped run appends to are the
    # per-trajectory records put together as lists and zipped into arrays
    grouped, direct = grouped_and_direct
    log = [(i, *jump) for i, (_, jumps, _, _) in enumerate(grouped_alone) for jump in jumps]
    traj, times, channels, dps = zip(*log)
    want = dict(
        jump_traj=np.array(traj, dtype=int), jump_time=np.array(times, dtype=float),
        jump_channel=np.array(channels, dtype=int),
        jump_dp=np.array(dps, dtype=float).reshape(len(log), len(CHANNEL_LABELS)),
    )
    assert len(log) > N_TRAJ
    for name, column in want.items():
        np.testing.assert_array_equal(getattr(grouped, name), column, strict=True)
        assert getattr(direct, name).dtype == column.dtype
    # the table: each trajectory enters flow 0 at step 0, then after each
    # jump the image flow of its channel at the step after the jump
    system = busy_systems["effective"]
    flows = ensemble._discover_flows(
        system.initial_state("1gg"), system, expm(-1j * system.h_nh * 0.5),
        int(T_FINAL / 0.5), 0.5,
    )
    entries, flow_ids, starts = [], [], [0]
    for _, jumps, _, _ in grouped_alone:
        fid = 0
        entries.append(0)
        flow_ids.append(fid)
        for t, m, _ in jumps:
            fid = int(flows[fid].image_flow[m])
            entries.append(int(t / 0.5))
            flow_ids.append(fid)
        starts.append(len(entries))
    for result_items in (grouped.rows, grouped.final_states):
        for name, column in zip(("entries", "flow_ids", "starts"), (entries, flow_ids, starts)):
            got = getattr(result_items, name)
            np.testing.assert_array_equal(got, np.array(column), strict=True)


@pytest.mark.parametrize(
    "s",
    [slice(1, 3), slice(None), slice(2, 2), slice(None, None, -1), slice(-3, None, 2),
     slice(30, 5, -7), slice(N_TRAJ - 2, N_TRAJ + 5), slice(N_TRAJ + 1, None),
     slice(-N_TRAJ - 9, 2)],
    ids=["1:3", ":", "empty", "reversed", "-3::2", "30:5:-7", "past-the-end", "out-of-range",
         "before-the-start"],
)
def test_grouped_rows_slice_like_the_kernels(grouped_and_direct, s):
    # a slice of either engine's rows is the (k, 3, T) stack of rows[j] for
    # j in range(N)[s]
    picked = range(N_TRAJ)[s]
    for result in grouped_and_direct:
        got = np.asarray(result.rows[s])
        assert got.shape == np.shape(grouped_and_direct[1].rows[s])
        assert got.shape == (len(picked), 3, result.time_grid.size)
        for row, j in zip(got, picked, strict=True):
            np.testing.assert_array_equal(row, result.rows[j], strict=True)
        # and so do their final states, (k, d) complex
        got = np.asarray(result.final_states[s])
        assert got.shape == np.shape(grouped_and_direct[1].final_states[s])
        assert got.dtype == complex
        for state, j in zip(got, picked, strict=True):
            np.testing.assert_array_equal(state, result.final_states[j], strict=True)


def test_the_largest_master_seed_reads_the_same_words_on_both_engines(busy_systems):
    # 2**64 - 1 is the largest seed the uint64 key holds; both engines read
    # it through the one reader, with no cast through float (no warning)
    system = busy_systems["effective"]
    psi0 = system.initial_state("1gg")
    common = dict(dt=0.5, master_seed=2**64 - 1, record_every=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grouped = run_ensemble(system, psi0, T_FINAL, 12, method="grouped", **common)
        direct = run_ensemble(system, psi0, T_FINAL, 12, method="direct", **common)
    assert grouped.jump_traj.size > 12
    np.testing.assert_array_equal(grouped.jump_traj, direct.jump_traj)
    np.testing.assert_array_equal(grouped.jump_time, direct.jump_time)
    np.testing.assert_array_equal(grouped.jump_channel, direct.jump_channel)
    first = first_jumps(grouped)
    np.testing.assert_array_equal(grouped.jump_dp[first], direct.jump_dp[first])
    for method in ENSEMBLE_METHODS:
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            run_ensemble(system, psi0, 10.0, 2, method=method, **dict(common, master_seed=2**64))


def test_an_ensemble_of_no_trajectories_is_rejected(busy_systems):
    system = busy_systems["effective"]
    psi0 = system.initial_state("1gg")
    for method in ENSEMBLE_METHODS:
        with pytest.raises(ConfigError, match="n_trajectories"):
            run_ensemble(system, psi0, 100.0, 0, method=method)
    with pytest.raises(ConfigError, match="n_trajectories"):
        run_ensemble(system, psi0, 100.0, 0, homodyne_channels=CHANNEL_LABELS)


@pytest.mark.parametrize("channels", [("cavity",), CHANNEL_LABELS], ids=["mixed", "full"])
def test_auto_builds_no_flow_for_a_homodyned_run(busy_systems, channels, monkeypatch):
    def discover(*args):
        raise AssertionError("a homodyned run must not build flows")

    monkeypatch.setattr(ensemble, "_discover_flows", discover)
    system = busy_systems["effective"]
    psi0 = system.initial_state("0ee")
    common = dict(dt=0.1, master_seed=3, record_every=5, homodyne_channels=channels)
    auto = run_ensemble(system, psi0, 60.0, 3, **common)
    direct = run_ensemble(system, psi0, 60.0, 3, method="direct", **common)
    np.testing.assert_array_equal(np.asarray(auto.rows), np.asarray(direct.rows))
    np.testing.assert_array_equal(auto.final_states, direct.final_states)
    with pytest.raises(ConfigError, match="grouped"):
        run_ensemble(system, psi0, 60.0, 3, method="grouped", **common)


def test_a_dark_flow_is_built_from_zeros_without_a_chain(busy_effective, monkeypatch):
    # |0,g,g> is closed under U and every jump operator's column there is 0:
    # the flow the qubits decay into is built from zeros, no amplitude read
    system, propagator = busy_effective
    dark = system.layout.basis_state(0, 0, 0)
    assert ensemble._is_dark(dark, system.plus_stack, propagator)
    ref = _reference_build_flow(dark, system, propagator, 700, 0.5)
    assert ref.dark and not ref.obs.any()

    def no_chain(*args):
        raise AssertionError("a dark flow must not compute amplitudes")

    monkeypatch.setattr(ensemble, "_chunk_amplitudes", no_chain)
    got = ensemble._build_flow(dark, system, propagator, 700, 0.5)
    _assert_flow_matches(got, ref)
    np.testing.assert_array_equal(got.top_peak, ref.top_peak)
    np.testing.assert_array_equal(got.image_flow, ref.image_flow)
    assert got.image_state == ref.image_state == [None] * ref.dp.shape[0]
    # it holds nothing but zeros
    assert not (got.sq.any() or got.threshold.any() or got.top_peak.any())


def test_a_flow_holds_one_table_and_builds_it_chunk_by_chunk(busy_effective, monkeypatch):
    # per age a flow keeps its squared amplitude norms, one threshold word
    # and its top-Fock peak, and the build holds nothing else that grows
    # with the horizon: its temporaries are a chunk's
    system, propagator = busy_effective
    monkeypatch.setattr(ensemble, "_FLOW_CHUNK", 16)
    n_steps = 20000
    tracemalloc.start()
    try:
        flow = ensemble._build_flow(system.initial_state("1gg"), system, propagator, n_steps, 0.5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not flow.dark and flow.channels.size == 4
    per_age = 8 * (flow.channels.size + 2) * (n_steps + 1)
    assert sum(a.nbytes for a in (flow.sq, flow.threshold, flow.top_peak)) <= per_age
    assert held <= per_age + 16384  # the entry and image states, the small fields
    assert peak - held <= 8 * (n_steps + 1)


def test_the_busy_run_reaches_its_dark_flow(busy_effective):
    system, propagator = busy_effective
    flows = ensemble._discover_flows(
        system.initial_state("1gg"), system, propagator, 40, 0.5
    )
    dark = [f for f in flows if f.dark]
    assert len(dark) == 1
    assert ensemble._is_dark(dark[0].state0, system.plus_stack, propagator)


def test_zero_rate_flows_equal_the_per_step_reference(system_eff, monkeypatch):
    # gamma_c = 0: the collective channel gets no amplitudes and a dp row of 0
    assert system_eff.rates[3] == 0.0 and np.all(system_eff.rates[:3] > 0.0)
    propagator = expm(-1j * system_eff.h_nh * 0.5)
    monkeypatch.setattr(ensemble, "_FLOW_CHUNK", 7)
    entries = [system_eff.initial_state("1gg"), system_eff.initial_state("0ee")]
    for state0 in entries + [system_eff.initial_state("chi_plus")]:
        ref = _reference_build_flow(state0, system_eff, propagator, 30, 0.5)
        got = ensemble._build_flow(state0, system_eff, propagator, 30, 0.5)
        _assert_flow_matches(got, ref)
        assert 3 not in got.channels and got.sq.shape == (3, 31)
        assert not any(got.dp(age)[3] for age in range(30))


def test_the_ray_check_reads_the_kernel_norm_floor(busy_effective, monkeypatch):
    # a floor above every amplitude norm leaves no channel an image
    system, propagator = busy_effective
    psi0 = system.initial_state("1gg")
    assert any(s is not None for s in
               ensemble._build_flow(psi0, system, propagator, 20, 0.5).image_state)
    top = np.linalg.norm(system.plus_stack, 2, axis=(1, 2)).max()
    monkeypatch.setattr(mcwf, "JUMP_NORM_FLOOR", 2.0 * top)
    flow = ensemble._build_flow(psi0, system, propagator, 20, 0.5)
    assert all(image is None for image in flow.image_state)


def test_grouped_refusal_says_why(busy_systems, busy_effective, monkeypatch):
    full = busy_systems["full"]
    common = dict(dt=0.5, master_seed=5, method="grouped")
    with pytest.raises(ConfigError, match=r"\(the \w+ jump images leave their ray at flow age \d+\)"):
        run_ensemble(full, full.initial_state("1gg"), 200.0, 3, **common)
    monkeypatch.setattr(ensemble, "FLOW_CAP", 1)
    system, _ = busy_effective
    with pytest.raises(ConfigError, match=r"\(more than 1 distinct flows\)"):
        run_ensemble(system, system.initial_state("1gg"), 200.0, 3, **common)


def test_a_total_probability_of_one_raises_before_its_decision_is_read():
    # raw_thresholds saturates at sum(dp) >= 1 (the word with u = 1 - 2**-53
    # would not fire); such an age is a guard violation, so the sampler
    # raises once its scan reaches it, whatever the decision there
    n_steps = 12
    sq = np.zeros((4, n_steps + 1))
    sq[:, 5] = [0.3, 0.3, 0.3, 0.3]
    flow = ensemble._Flow(
        state0=np.ones(2, dtype=complex), channels=np.arange(4), scale=np.ones(4), sq=sq,
        threshold=raw_thresholds(sq[:, :n_steps].sum(axis=0)), top_peak=np.zeros(n_steps + 1),
        image_flow=np.full(4, -1), image_state=[None] * 4, first_violation=5,
    )
    assert flow.threshold[5] == np.uint64(2**64 - 2**11)
    np.testing.assert_array_equal(flow.dp(5), [0.3, 0.3, 0.3, 0.3])
    system = SimpleNamespace(rates=np.ones(4))
    with pytest.raises(TimestepError, match="reduce dt"):
        ensemble._sample_grouped(
            0, [flow], system, 0, n_steps, 0.5, RawWords(), mcwf._JumpColumns(),
            ensemble._Segments(),
        )


# word windows of the grouped sampler: one word, a few, and the default,
# which the 6000 steps of T_FINAL also cross
WINDOWS = pytest.mark.parametrize("window", [1, 7, mcwf._WORD_BLOCK], ids=["1", "7", "default"])


@WINDOWS
def test_each_threshold_word_is_read_once(busy_systems, monkeypatch, window):
    # a segment scans the words its predecessor read past the jump before
    # it reads on; per trajectory the windows tile the stream from word 0
    monkeypatch.setattr(mcwf, "_WORD_BLOCK", window)
    windows = {}

    class Recorded(RawWords):
        def __call__(self, master_seed, traj_index, purpose, start, count):
            if purpose == PURPOSE_JUMP:
                windows.setdefault(traj_index, []).append((start, count))
            return super().__call__(master_seed, traj_index, purpose, start, count)

    monkeypatch.setattr(ensemble, "RawWords", Recorded)
    monkeypatch.setattr(workers, "W", 1)  # the spy sees only this process's reads
    system = busy_systems["effective"]
    result = run_ensemble(
        system, system.initial_state("1gg"), T_FINAL, 12, dt=0.5, master_seed=11,
        method="grouped",
    )
    assert result.jump_traj.size > 12
    for traj_windows in windows.values():
        starts = [start for start, _ in traj_windows]
        ends = [start + count for start, count in traj_windows]
        assert starts == [0] + ends[:-1]
        assert max(count for _, count in traj_windows) <= window


def test_grouped_statistics_hold_no_rows(system_eff, monkeypatch):
    # a grouped run and its average hold the jumps and one segment table
    # entry per trajectory and jump, never the (3, N, T) rows: 4500 more
    # trajectories grow the peak far less than their rows would
    monkeypatch.setattr(workers, "W", 1)  # tracemalloc sees only this process
    psi0 = system_eff.initial_state("1gg")

    def traced_peak(n):
        tracemalloc.start()
        try:
            result = run_ensemble(system_eff, psi0, 3000.0, n, dt=0.5, master_seed=1,
                                  record_every=5, method="grouped")
            ensemble_average(result)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rows = 3 * 4500 * 1201 * 8  # bytes of 4500 rows at T = 3000 / (0.5 * 5) + 1
    assert traced_peak(5000) - traced_peak(500) < rows / 20


def test_grouped_means_match_the_master_equation(layout6):
    # At each of the 2 x 3 x 61 (gamma_c, observable, time) points,
    # |mean - LME| <= z SE + 3/N: z is the two-sided Bonferroni bound for a
    # family-wise false-fail rate of 1e-3 (z = 4.69), and 3/N is criterion
    # 08's allowance for points where all trajectories share one state.  N
    # is set so that a cavity rate 5 % off, which moves the cavity mean by
    # up to 0.016, fails this rule
    n, points = 20_000, 61
    z = ndtri(1.0 - 1e-3 / (2 * 2 * len(OBSERVABLE_LABELS) * points))
    for gamma_c, seed in [(0.0, 21), (2e-3, 22)]:
        base = SystemParams(kappa=2e-3, gamma1=2e-3, gamma2=2e-3, gamma_c=gamma_c)
        p = calibrate_resonance(base, layout6, which="effective")
        system = build_system(p, n_fock=6, hamiltonian="effective")
        psi0 = system.initial_state("1gg")
        avg = ensemble_average(run_ensemble(
            system, psi0, 3000.0, n, dt=0.5, master_seed=seed, record_every=100,
            method="grouped",
        ))
        lme = evolve_lme(system, density_from_state(psi0, layout6), 3000.0, 0.5, record_every=100)
        assert avg.time_grid.size == points
        for label in OBSERVABLE_LABELS:
            dev = np.abs(avg.means[label] - lme.expectations[label])
            allowed = z * avg.standard_errors[label] + 3.0 / n
            worst = int(np.argmax(dev / allowed))
            assert dev[worst] <= allowed[worst], (gamma_c, label, avg.time_grid[worst])


@WINDOWS
def test_each_jump_is_the_first_threshold_crossing_of_its_segment(monkeypatch, window):
    # brute force: a segment that entered flow f at step e jumps at the
    # first step j >= e whose threshold word lies below f's threshold at
    # age j - e, read here from a fresh reader over the rest of the run;
    # the next segment enters at j + 1, and a last segment never crosses.
    # Windows shorter than a segment make its scan cross window edges.
    # At g = 0.24 the qubit exchange swaps |0,e,g> and |0,g,e> fast enough
    # that the qubit1 jump probability moves by up to 1e-3 a step, so in
    # about 1 segment in 70 a word falls between two adjacent thresholds
    p = calibrate_resonance(
        SystemParams(g=0.24, kappa=0.01, gamma1=0.1, gamma2=0.005, gamma_c=0.01),
        build_layout(4), which="effective",
    )
    system = build_system(p, n_fock=4, hamiltonian="effective")
    psi0 = system.initial_state("0ee")
    n_steps, dt, seed = 400, 0.5, 3
    monkeypatch.setattr(mcwf, "_WORD_BLOCK", window)
    result = run_ensemble(system, psi0, n_steps * dt, 600, dt=dt, master_seed=seed,
                          method="grouped")
    flows = ensemble._discover_flows(psi0, system, expm(-1j * system.h_nh * dt), n_steps, dt)
    rows = result.rows
    read_words = RawWords()
    crossings = 0
    for i in range(result.n_trajectories):
        lo, hi = rows.starts[i], rows.starts[i + 1]
        entries, flow_ids = rows.entries[lo:hi], rows.flow_ids[lo:hi]
        times = result.jump_time[result.jump_traj == i]
        assert times.size == entries.size - 1
        for s, (entry, fid) in enumerate(zip(entries, flow_ids)):
            words = read_words(seed, i, PURPOSE_JUMP, entry, n_steps - entry)
            crossed = np.flatnonzero(words < flows[fid].threshold[: n_steps - entry])
            if s + 1 < entries.size:
                assert crossed.size and entry + crossed[0] == entries[s + 1] - 1
                assert times[s] == (entry + crossed[0] + 1) * dt
                crossings += 1
            else:
                assert crossed.size == 0
    assert crossings > 1000


def _discover_on_discovery(psi0, system, propagator, n_steps, dt):
    """The flow closure with each flow built as soon as it is discovered.

    The order in which ``ensemble._discover_flows`` raises its errors: the
    first flow, in order of discovery, that fails, or the cap.
    """
    flows = [ensemble._build_flow(psi0, system, propagator, n_steps, dt)]
    pending = [0]
    while pending:
        flow = flows[pending.pop(0)]
        for m, image in enumerate(flow.image_state):
            if image is None:
                continue
            for gid, g in enumerate(flows):
                if abs(np.vdot(g.state0, image)) > 1.0 - ensemble.RAY_TOL:
                    flow.image_flow[m] = gid
                    break
            else:
                if len(flows) >= ensemble.FLOW_CAP:
                    raise ensemble._Ungroupable(f"more than {ensemble.FLOW_CAP} distinct flows")
                flows.append(ensemble._build_flow(image, system, propagator, n_steps, dt))
                flow.image_flow[m] = len(flows) - 1
                pending.append(len(flows) - 1)
    return flows


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, ensemble.FLOW_CAP])
@pytest.mark.parametrize(
    "planted",
    [{}, {2: "ray"}, {4: "ray"}, {2: "ray", 4: "ray"}, {3: "ray", 4: "step"},
     {2: "step", 3: "ray"}, {1: "ray", 4: "ray"}, {0: "step"}],
    ids=["none", "2", "4", "2+4", "3+4", "2+3", "dark+4", "root"],
)
def test_flow_discovery_is_that_of_building_each_flow_on_discovery(
    busy_effective, monkeypatch, cap, planted, chunk=ensemble._FLOW_CHUNK
):
    # five flows: the root, its dark cavity image (1) and three qubit images
    # (2-4), popped last in first out.  Builds planted to fail by flow id
    # raise a ray break or a timestep error; with any W the flows, their ids
    # and images, or the error are those of building each flow on discovery.
    # The default chunk holds all 60 steps, so the head discovery finds
    # every flow and one workers.run call builds the lit ones; the short
    # heads below see a part of the steps
    monkeypatch.setattr(ensemble, "_FLOW_CHUNK", chunk)
    system, propagator = busy_effective
    psi0 = system.initial_state("1gg")
    entries = [f.state0 for f in ensemble._discover_flows(psi0, system, propagator, 60, 0.5)]
    assert len(entries) == 5
    build = ensemble._build_flow

    def planted_build(state0, *args):
        flow = build(state0, *args)
        for fid, kind in planted.items():
            if abs(np.vdot(entries[fid], state0)) > 1.0 - ensemble.RAY_TOL:
                error = ensemble._Ungroupable if kind == "ray" else TimestepError
                raise error(f"planted in flow {fid}")
        return flow

    monkeypatch.setattr(ensemble, "_build_flow", planted_build)
    monkeypatch.setattr(ensemble, "FLOW_CAP", cap)
    want = _outcome(lambda: _discover_on_discovery(psi0, system, propagator, 60, 0.5))
    for w in (1, 2, 3):
        monkeypatch.setattr(workers, "W", w)
        got = _outcome(lambda: ensemble._discover_flows(psi0, system, propagator, 60, 0.5))
        if isinstance(want, tuple):
            assert got == want, w
            continue
        assert [f.state0.tobytes() for f in got] == [f.state0.tobytes() for f in want]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.image_flow, b.image_flow, strict=True)
            np.testing.assert_array_equal(a.sq, b.sq, strict=True)
            np.testing.assert_array_equal(a.threshold, b.threshold, strict=True)


@pytest.mark.parametrize("chunk", [1, 16])
@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, ensemble.FLOW_CAP])
@pytest.mark.parametrize(
    "planted",
    [{}, {2: "ray"}, {4: "ray"}, {2: "ray", 4: "ray"}, {3: "ray", 4: "step"},
     {2: "step", 3: "ray"}, {1: "ray", 4: "ray"}, {0: "step"}],
    ids=["none", "2", "4", "2+4", "3+4", "2+3", "dark+4", "root"],
)
def test_flow_discovery_from_a_short_head_is_that_of_building_each_flow_on_discovery(
    busy_effective, monkeypatch, cap, planted, chunk
):
    # a head of age 0 alone, or of 15 of the 60 steps: the qubit channels of
    # the root first light up after age 0, so chunk 1 finds them in later rounds
    test_flow_discovery_is_that_of_building_each_flow_on_discovery(
        busy_effective, monkeypatch, cap, planted, chunk
    )


@pytest.fixture(scope="module")
def cascade():
    """Two photons and two excited qubits, uncoupled: 12 flows in five rounds.

    The rounds hold flows 0, 1-3, 4-7, 8-10 and the dark 11, and every
    flow but the last has two or three images.
    """
    p = SystemParams(g=0.0, omega_c=2.0, kappa=2e-3, gamma1=2e-3, gamma2=3e-3)
    system = build_system(p, n_fock=4, hamiltonian="effective")
    return system, expm(-1j * system.h_nh * 0.5), system.layout.basis_state(2, 1, 1)


@pytest.mark.parametrize("cap", [2, 3, 5, ensemble.FLOW_CAP])
@pytest.mark.parametrize(
    "planted", [{}, {2: "ray"}, {3: "step", 5: "ray"}, {6: "ray"}],
    ids=["none", "2", "3+5", "6"],
)
def test_deep_flow_discovery_is_that_of_building_each_flow_on_discovery(
    cascade, monkeypatch, cap, planted, chunk=ensemble._FLOW_CHUNK
):
    # five rounds tell breadth-first ids from any other order; flows are
    # planted to fail by their place in the reference, caps 2 and 3 fall
    # among the flows of round 2 and cap 5 among those of round 3
    monkeypatch.setattr(ensemble, "_FLOW_CHUNK", chunk)
    system, propagator, psi0 = cascade
    reference = _discover_on_discovery(psi0, system, propagator, 60, 0.5)
    assert len(reference) == 12 and reference[11].dark
    entries = [f.state0 for f in reference]
    build = ensemble._build_flow

    def planted_build(state0, *args):
        flow = build(state0, *args)
        for fid, kind in planted.items():
            if abs(np.vdot(entries[fid], state0)) > 1.0 - ensemble.RAY_TOL:
                error = ensemble._Ungroupable if kind == "ray" else TimestepError
                raise error(f"planted in flow {fid}")
        return flow

    monkeypatch.setattr(ensemble, "_build_flow", planted_build)
    monkeypatch.setattr(ensemble, "FLOW_CAP", cap)
    want = _outcome(lambda: _discover_on_discovery(psi0, system, propagator, 60, 0.5))
    for w in (1, 2, 3):
        monkeypatch.setattr(workers, "W", w)
        got = _outcome(lambda: ensemble._discover_flows(psi0, system, propagator, 60, 0.5))
        if isinstance(want, tuple):
            assert got == want, w
            continue
        assert [f.state0.tobytes() for f in got] == [f.state0.tobytes() for f in want]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.image_flow, b.image_flow, strict=True)
            np.testing.assert_array_equal(a.sq, b.sq, strict=True)
            np.testing.assert_array_equal(a.threshold, b.threshold, strict=True)


@pytest.mark.parametrize("chunk", [1, 16])
@pytest.mark.parametrize("cap", [2, 3, 5, ensemble.FLOW_CAP])
@pytest.mark.parametrize(
    "planted", [{}, {2: "ray"}, {3: "step", 5: "ray"}, {6: "ray"}],
    ids=["none", "2", "3+5", "6"],
)
def test_deep_flow_discovery_from_a_short_head_is_that_of_building_each_flow_on_discovery(
    cascade, monkeypatch, cap, planted, chunk
):
    test_deep_flow_discovery_is_that_of_building_each_flow_on_discovery(
        cascade, monkeypatch, cap, planted, chunk
    )


def _logged_discovery(busy_effective, monkeypatch, log, n_steps):
    """The flows from 1gg over n_steps at W = 2, with the builds in log and the workers.run batches.

    A build is logged as its entry state's hex bytes, its horizon and the
    pid of the process that ran it; a batch as the hex bytes of its states.
    """
    system, propagator = busy_effective
    monkeypatch.setattr(workers, "W", 2)
    build, run, calls = ensemble._build_flow, workers.run, []

    def logged_build(state0, *args):
        with open(log, "a") as builds:  # appended to by forked workers too
            builds.write(f"{state0.tobytes().hex()} {args[2]} {os.getpid()}\n")
        return build(state0, *args)

    def logged_run(batch):
        calls.append([call.args[0].args[0].tobytes().hex() for call in batch])
        return run(batch)

    monkeypatch.setattr(ensemble, "_build_flow", logged_build)
    monkeypatch.setattr(workers, "run", logged_run)
    flows = ensemble._discover_flows(system.initial_state("1gg"), system, propagator, n_steps, 0.5)
    return flows, calls, [line.split() for line in log.read_text().splitlines()]


def test_one_call_builds_every_lit_flow_and_no_state_twice(busy_effective, monkeypatch, tmp_path):
    # 600 steps, more than one chunk: the head discovery finds all five
    # flows, so one workers.run call builds the root and its lit images
    # side by side, and the dark one is built here
    flows, calls, builds = _logged_discovery(busy_effective, monkeypatch, tmp_path / "log", 600)
    assert [f.dark for f in flows] == [False, True, False, False, False]
    assert calls == [[f.state0.tobytes().hex() for f in flows if not f.dark]]
    full = sorted(state for state, n_steps, _ in builds if n_steps == "600")
    assert full == sorted(f.state0.tobytes().hex() for f in flows)
    head = [n_steps for _, n_steps, _ in builds if n_steps != "600"]
    assert head == [str(ensemble._FLOW_CHUNK - 1)] * 5


def test_a_state_the_head_missed_is_built_here_once(busy_effective, monkeypatch, tmp_path):
    # a head of age 0 alone misses the qubit images of the root: the one
    # workers.run call prefetches the lit states the head found, and each
    # state it missed is built here, at full horizon, when discovery reaches it
    monkeypatch.setattr(ensemble, "_FLOW_CHUNK", 1)
    flows, calls, builds = _logged_discovery(busy_effective, monkeypatch, tmp_path / "log", 60)
    states = [f.state0.tobytes().hex() for f in flows]
    assert len(states) == 5
    dark = {s for s, f in zip(states, flows) if f.dark}
    hinted = [state for state, n_steps, _ in builds if n_steps == "0"]
    assert calls == [[s for s in hinted if s not in dark]]
    full = [(state, pid) for state, n_steps, pid in builds if n_steps == "60"]
    assert sorted(state for state, _ in full) == sorted(states)
    missed = [s for s in states if s not in hinted]
    assert len(missed) == 3
    here = {state for state, pid in full if pid == str(os.getpid())}
    assert here.issuperset(missed)


def test_a_deep_cascade_runs_the_same_bytes_at_every_w(cascade, monkeypatch):
    # trajectories that walk several rounds of flows deep
    system, _, psi0 = cascade
    runs = []
    for w in (1, 2, 3):
        monkeypatch.setattr(workers, "W", w)
        runs.append(run_ensemble(system, psi0, 1500.0, 13, dt=0.5, master_seed=4,
                                 record_every=10, method="grouped"))
    assert runs[0].jump_traj.size > 2 * 13 and len(set(runs[0].rows.flow_ids)) > 5
    _assert_same_runs(runs)


def test_grouped_refusals_read_the_same_at_every_w(busy_systems, monkeypatch):
    # the refusals of a grouped run read the same at every W
    full, effective = busy_systems["full"], busy_systems["effective"]
    messages = {}
    for w in (1, 2, 3):
        monkeypatch.setattr(workers, "W", w)
        for name, system, cap in [("ray", full, 16), ("cap", effective, 1), ("cap3", effective, 3)]:
            monkeypatch.setattr(ensemble, "FLOW_CAP", cap)
            with pytest.raises(ConfigError) as refused:
                run_ensemble(system, system.initial_state("1gg"), 200.0, 3, dt=0.5,
                             master_seed=5, method="grouped")
            messages.setdefault(name, set()).add(str(refused.value))
    assert all(len(texts) == 1 for texts in messages.values())
    assert "more than 3 distinct flows" in messages["cap3"].pop()


@pytest.mark.parametrize("n", [1, 2, 13])
def test_grouped_runs_are_the_same_bytes_at_every_w(busy_systems, monkeypatch, n):
    # trajectories sampled in W contiguous blocks, concatenated in order
    system = busy_systems["effective"]
    psi0 = system.initial_state("1gg")
    runs = []
    for w in (1, 2, 3):
        monkeypatch.setattr(workers, "W", w)
        runs.append(run_ensemble(system, psi0, T_FINAL, n, dt=0.5, master_seed=11,
                                 record_every=4, method="grouped"))
    assert runs[0].jump_traj.size > (n > 2)
    _assert_same_runs(runs)


def _assert_same_runs(runs):
    """Grouped results with the same bytes: rows, final states, jumps, segments, peak."""
    one = runs[0]
    for other in runs[1:]:
        np.testing.assert_array_equal(np.asarray(other.rows), np.asarray(one.rows), strict=True)
        np.testing.assert_array_equal(
            np.asarray(other.final_states), np.asarray(one.final_states), strict=True
        )
        for name in ("jump_traj", "jump_time", "jump_channel", "jump_dp"):
            np.testing.assert_array_equal(getattr(other, name), getattr(one, name), strict=True)
        for name in ("entries", "flow_ids", "starts"):
            np.testing.assert_array_equal(
                getattr(other.rows, name), getattr(one.rows, name), strict=True
            )
        assert other.top_fock_peak == one.top_fock_peak


@pytest.mark.parametrize("error", [TimestepError, NumericalInconsistencyError])
@pytest.mark.parametrize(
    "planted", [{1, 9}, {5, 6}, {9, 10}, {12}, {7, 3}],
    ids=["first-block", "block-edge", "later-block", "last", "unordered"],
)
def test_a_grouped_run_raises_the_error_of_its_lowest_failing_trajectory(
    busy_systems, monkeypatch, error, planted
):
    # 13 trajectories in 1, 2 or 3 blocks; the planted trajectories fail
    # after they are sampled, whichever block holds them
    sample = ensemble._sample_grouped

    def planted_sample(traj_index, *args):
        peak = sample(traj_index, *args)
        if traj_index in planted:
            raise error(f"planted in trajectory {traj_index}")
        return peak

    monkeypatch.setattr(ensemble, "_sample_grouped", planted_sample)
    system = busy_systems["effective"]
    for w in (1, 2, 3):
        monkeypatch.setattr(workers, "W", w)
        with pytest.raises(error, match=f"^planted in trajectory {min(planted)}$"):
            run_ensemble(system, system.initial_state("1gg"), 200.0, 13, dt=0.5,
                         master_seed=11, method="grouped")
