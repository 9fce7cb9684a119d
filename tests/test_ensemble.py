"""Vectorized ensemble driver versus the reference per-trajectory loop.

The grouped driver exploits that between jumps all trajectories sharing an
entry state follow the same deterministic flow.  Its contract: jump times,
channels, and first-jump probability vectors are identical to the direct
loop; observables agree exactly on the first segment and to rounding noise
after jumps (post-jump states are stored with a canonical global phase).
"""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from usctraj import ensemble, mcwf
from usctraj.dressed import CHANNEL_LABELS
from usctraj.ensemble import ENSEMBLE_METHODS, run_ensemble
from usctraj.errors import ConfigError, NumericalInconsistencyError, TimestepError
from usctraj.hilbert import build_layout
from usctraj.mcwf import JUMP_NORM_FLOOR, MAX_DP_PER_STEP, ensemble_average, run_trajectory
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.rng import PURPOSE_JUMP, RawWords
from usctraj.system import build_system

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
            grouped.expectations[:, i, head], direct.expectations[:, i, head]
        )


def test_observables_after_jumps_close(grouped_and_direct):
    grouped, direct = grouped_and_direct
    worst = np.max(np.abs(grouped.expectations - direct.expectations))
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
        np.testing.assert_array_equal(result.expectations[:, i], ref.expectations[:, 0])
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
    cavity = result.expectations[0]
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
    np.testing.assert_array_equal(three.expectations, six.expectations[:, :3])
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
    # trajectory 0 is sampled first and raises what it raises run alone
    monkeypatch.setattr(mcwf, "JUMP_NORM_FLOOR", 0.99)
    system = busy_systems["effective"]
    psi0 = system.initial_state("1gg")
    with pytest.raises(NumericalInconsistencyError) as alone:
        run_trajectory(system, psi0, T_FINAL, dt=0.5, seed=11)
    with pytest.raises(NumericalInconsistencyError) as grouped:
        run_ensemble(system, psi0, T_FINAL, 8, dt=0.5, master_seed=11, method="grouped")
    assert "selected but ||S^+ psi|| = " in str(grouped.value)
    assert str(grouped.value) == str(alone.value)


def _reference_build_flow(state0, system, propagator, n_steps, dt):
    """The flow builder one step at a time, with the per-state expressions."""
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
    return ensemble._Flow(
        state0=state0,
        dp=dp,
        dp_sum=dp.sum(axis=0),
        obs=obs,
        top_peak=np.maximum.accumulate(top),
        image_flow=np.full(n_channels, -1, dtype=int),
        image_state=[None if r is None else ensemble._canonical_phase(r) for r in refs],
        first_violation=int(viol[0]) if viol.size else n_steps + 1,
        dark=bool(dp.max(initial=0.0) == 0.0),
    )


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
            for name in ("dp", "dp_sum", "obs"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
            np.testing.assert_allclose(got.top_peak, ref.top_peak, rtol=1e-13, atol=0.0)
            assert len(got.image_state) == len(ref.image_state)
            for a, b in zip(got.image_state, ref.image_state):
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_array_equal(a, b)
            assert got.first_violation == ref.first_violation
            assert got.dark == ref.dark


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


def test_grouped_rows_equal_trajectories_sampled_alone(
    busy_systems, grouped_and_direct, trajectories_alone
):
    # row j of the grouped result is trajectory j sampled on its own, bit
    # for bit
    grouped, _ = grouped_and_direct
    system = busy_systems["effective"]
    alone = trajectories_alone(
        system, system.initial_state("1gg"), T_FINAL, N_TRAJ, dt=0.5, master_seed=11,
        record_every=4,
    )
    # the result keeps segment tables, not rows: the row accessor, and the
    # stack built on the first read of expectations, stitch them again
    assert len(grouped.rows) == grouped.n_trajectories == N_TRAJ
    np.testing.assert_array_equal(grouped.rows[-1], alone[-1][0])
    with pytest.raises(IndexError):
        grouped.rows[N_TRAJ]
    for j, (series, jumps, final, _) in enumerate(alone):
        np.testing.assert_array_equal(grouped.rows[j], series)
        np.testing.assert_array_equal(grouped.expectations[:, j], series)
        np.testing.assert_array_equal(grouped.final_states[j], final)
        sel = grouped.jump_traj == j
        assert list(zip(grouped.jump_time[sel], grouped.jump_channel[sel])) == [
            jump[:2] for jump in jumps
        ]
        for got, jump in zip(grouped.jump_dp[sel], jumps):
            np.testing.assert_array_equal(got, jump[2])
    assert grouped.jump_traj.size == sum(len(jumps) for _, jumps, *_ in alone) > 10
    assert grouped.top_fock_peak == max(peak for *_, peak in alone)


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
    np.testing.assert_array_equal(auto.expectations, direct.expectations)
    np.testing.assert_array_equal(auto.final_states, direct.final_states)
    with pytest.raises(ConfigError, match="grouped"):
        run_ensemble(system, psi0, 60.0, 3, method="grouped", **common)


def _assert_flows_equal(got, ref):
    for name in ("dp", "dp_sum", "obs", "top_peak", "threshold", "image_flow"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
    assert got.image_state == ref.image_state == [None] * ref.dp.shape[0]
    assert (got.first_violation, got.dark) == (ref.first_violation, ref.dark)


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
    _assert_flows_equal(ensemble._build_flow(dark, system, propagator, 700, 0.5), ref)


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
        for name in ("dp", "dp_sum", "obs", "threshold"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        assert not got.dp[3].any()
        for a, b in zip(got.image_state, ref.image_state):
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)
        assert (got.first_violation, got.dark) == (ref.first_violation, ref.dark)


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
    # raw_thresholds saturates at dp_sum >= 1 (the word with u = 1 - 2**-53
    # would not fire); such an age is a guard violation, so the sampler
    # raises once its scan reaches it, whatever the decision there
    n_steps = 12
    dp = np.zeros((4, n_steps))
    dp[:, 5] = [0.3, 0.3, 0.3, 0.3]
    flow = ensemble._Flow(
        state0=np.ones(2, dtype=complex), dp=dp, dp_sum=dp.sum(axis=0),
        obs=np.zeros((3, n_steps + 1)), top_peak=np.zeros(n_steps + 1),
        image_flow=np.full(4, -1), image_state=[None] * 4, first_violation=5,
    )
    assert flow.threshold[5] == np.uint64(2**64 - 2**11)
    system = SimpleNamespace(rates=np.ones(4))
    with pytest.raises(TimestepError, match="reduce dt"):
        ensemble._sample_grouped(0, [flow], system, 0, n_steps, 0.5, [], RawWords())


def test_each_threshold_word_is_read_once(busy_systems, monkeypatch):
    # a segment scans the words its predecessor read past the jump before
    # it reads on; per trajectory the windows tile the stream from word 0
    windows = {}

    class Recorded(RawWords):
        def __call__(self, master_seed, traj_index, purpose, start, count):
            if purpose == PURPOSE_JUMP:
                windows.setdefault(traj_index, []).append((start, count))
            return super().__call__(master_seed, traj_index, purpose, start, count)

    monkeypatch.setattr(ensemble, "RawWords", Recorded)
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


def test_grouped_statistics_hold_no_rows(system_eff):
    # a grouped run and its average hold the final states, the jumps and one
    # segment table entry per trajectory and jump, never the (3, N, T) rows:
    # 4500 more trajectories grow the peak far less than their rows would
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
