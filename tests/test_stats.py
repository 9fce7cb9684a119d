"""Jump-time histograms: binning, merging, and the statistics they reveal."""

import io

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from usctraj.dressed import CHANNEL_LABELS
from usctraj.ensemble import run_ensemble
from usctraj.errors import ConfigError
from usctraj.hilbert import build_layout
from usctraj.mcwf import EnsembleResult, _jump_columns, ensemble_average
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.stats import (
    NORMALIZATION_MODES,
    JumpHistogram,
    _edges,
    conditional_second_jump_histogram,
    first_jump_histogram,
    write_histogram_csv,
)
from usctraj.system import OBSERVABLE_LABELS, build_system

GRID = np.linspace(0.0, 100.0, 11)


def make_record(jump_specs, series=None):
    """One trajectory on GRID as (series, jumps).

    jump_specs: list of (time, channel label); series: (3, 11) observables
    or zeros.  The jumps come back as (time, channel) pairs.
    """
    if series is None:
        series = np.zeros((3, GRID.size))
    return series, [(t, CHANNEL_LABELS.index(c)) for t, c in jump_specs]


def make_result(records):
    """The ensemble of (series, jumps) trajectories on GRID, whose last point is the horizon."""
    jumps = [(i, t, m, np.zeros(4)) for i, (_, log) in enumerate(records) for t, m in log]
    return EnsembleResult(
        time_grid=GRID,
        horizon=GRID[-1],
        expectations=np.stack([series for series, _ in records], axis=1),
        final_states=np.ones((len(records), 1), dtype=complex),
        top_fock_peak=0.0,
        **_jump_columns(jumps),
    )


def test_first_jump_binning_and_edges():
    records = [
        make_record([(5.0, "cavity")]),
        make_record([(10.0, "qubit1")]),     # exactly on an inner edge: next bin
        make_record([(100.0, "qubit2")]),    # final edge: included in last bin
        make_record([]),                     # no jumps: no contribution
    ]
    hist = first_jump_histogram(make_result(records), bin_width=10.0)
    assert hist.n_bins == 10
    assert hist.trajectory_count == 3
    idx = {lbl: i for i, lbl in enumerate(CHANNEL_LABELS)}
    assert hist.counts[idx["cavity"], 0] == 1
    assert hist.counts[idx["qubit1"], 1] == 1
    assert hist.counts[idx["qubit2"], 9] == 1
    assert hist.counts.sum() == 3


def test_first_jump_channel_filter():
    records = [
        make_record([(5.0, "cavity"), (20.0, "qubit1")]),
        make_record([(15.0, "qubit1")]),
    ]
    # a detector blind to the cavity sees the qubit jump as "first"...
    hist = first_jump_histogram(
        make_result(records), 10.0, channels_filter=("qubit1", "qubit2")
    )
    assert hist.trajectory_count == 2
    idx = {lbl: i for i, lbl in enumerate(CHANNEL_LABELS)}
    assert hist.counts[idx["qubit1"], 2] == 1
    assert hist.counts[idx["qubit1"], 1] == 1
    # ...whereas the cavity-covering detector stops at the cavity click
    full = first_jump_histogram(make_result(records), 10.0)
    assert full.counts[idx["cavity"], 0] == 1
    assert full.counts[idx["qubit1"], 2] == 0


def test_conditional_histogram_clock_restart():
    records = [
        make_record([(10.0, "qubit1"), (35.0, "qubit2")]),   # waits 25
        make_record([(50.0, "qubit1"), (55.0, "cavity")]),   # waits 5
        make_record([(10.0, "cavity"), (20.0, "qubit1")]),   # wrong trigger
        make_record([(10.0, "qubit1")]),                     # only one jump
    ]
    hist = conditional_second_jump_histogram(make_result(records), "qubit1", 10.0)
    assert hist.trajectory_count == 2
    idx = {lbl: i for i, lbl in enumerate(CHANNEL_LABELS)}
    assert hist.counts[idx["qubit2"], 2] == 1
    assert hist.counts[idx["cavity"], 0] == 1


def test_conditional_histogram_empty_is_valid():
    hist = conditional_second_jump_histogram(
        make_result([make_record([])]), "collective", 10.0
    )
    assert hist.trajectory_count == 0
    assert hist.counts.sum() == 0
    np.testing.assert_array_equal(hist.ratios("per-bin"), 0.0)


def test_ratio_modes():
    records = [
        make_record([(5.0, "cavity")]),
        make_record([(6.0, "qubit1")]),
        make_record([(15.0, "qubit1")]),
    ]
    hist = first_jump_histogram(make_result(records), 10.0)
    per_bin = hist.ratios("per-bin")
    sums = per_bin.sum(axis=0)
    np.testing.assert_allclose(sums[0], 1.0)
    np.testing.assert_allclose(sums[1], 1.0)
    assert sums[2:].max() == 0.0
    per_channel = hist.ratios("per-channel-total")
    idx = {lbl: i for i, lbl in enumerate(CHANNEL_LABELS)}
    np.testing.assert_allclose(per_channel[idx["qubit1"]].sum(), 1.0)
    absolute = hist.ratios("absolute")
    np.testing.assert_array_equal(absolute, hist.counts.astype(float))
    with pytest.raises(ConfigError):
        hist.ratios("percent")
    assert NORMALIZATION_MODES == ("per-bin", "per-channel-total", "absolute")


def test_merge_requires_matching_shape():
    a = first_jump_histogram(make_result([make_record([(5.0, "cavity")])]), 10.0)
    b = first_jump_histogram(make_result([make_record([(5.0, "cavity")])]), 20.0)
    with pytest.raises(ConfigError):
        a.merge(b)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=24),
       st.randoms(use_true_random=False))
def test_merge_is_order_independent(channel_picks, rnd):
    # histogram of everything == merge of any partition, in any order
    labels = list(CHANNEL_LABELS)
    records = [
        make_record([(float(5 + 90 * rnd.random()), labels[c])]) for c in channel_picks
    ]
    whole = first_jump_histogram(make_result(records), 10.0)
    cut = rnd.randrange(1, len(records))
    left = first_jump_histogram(make_result(records[:cut]), 10.0)
    right = first_jump_histogram(make_result(records[cut:]), 10.0)
    for merged in (left.merge(right), right.merge(left)):
        np.testing.assert_array_equal(merged.counts, whole.counts)
        assert merged.trajectory_count == whole.trajectory_count


def test_validation_errors():
    with pytest.raises(ConfigError):
        first_jump_histogram(make_result([make_record([])]), -1.0)
    with pytest.raises(ConfigError):
        first_jump_histogram(
            make_result([make_record([])]), 10.0, channels_filter=("laser",)
        )
    with pytest.raises(ConfigError):
        conditional_second_jump_histogram(make_result([make_record([])]), "laser", 10.0)
    with pytest.raises(ConfigError):
        JumpHistogram(
            bin_edges=np.array([0.0, 1.0]),
            counts=-np.ones((4, 1), dtype=np.int64),
            trajectory_count=0,
        )


def test_csv_round_trip():
    records = [
        make_record([(5.0, "cavity")]),
        make_record([(6.0, "qubit1")]),
    ]
    hist = first_jump_histogram(make_result(records), 10.0)
    buf = io.StringIO()
    write_histogram_csv(hist, buf, mode="absolute")
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# bin_start,bin_end,")
    assert lines[1] == "# trajectories=2"
    data = np.loadtxt(io.StringIO("\n".join(lines[2:])), delimiter=",")
    assert data.shape == (hist.n_bins, 2 + len(CHANNEL_LABELS))
    np.testing.assert_array_equal(data[:, 2:].T, hist.counts)


@pytest.fixture(scope="module")
def decay_records():
    """Pure cavity decay: no qubit coupling, jump times exponential."""
    layout = build_layout(4)
    p = calibrate_resonance(
        SystemParams(theta=np.pi / 2, kappa=2e-3), layout, which="effective"
    )
    system = build_system(p, n_fock=4, hamiltonian="effective")
    return run_ensemble(
        system, system.initial_state("1gg"), 6000.0, 800, dt=0.5, master_seed=21,
        record_every=100, method="grouped",
    )


def test_first_jump_times_are_exponential(decay_records):
    # decoupled lossy cavity: waiting times follow Exp(kappa)
    first = np.flatnonzero(np.diff(decay_records.jump_traj, prepend=-1))
    times = decay_records.jump_time[first]
    assert times.size > 700
    result = scipy.stats.kstest(times, "expon", args=(0.0, 1.0 / 2e-3))
    assert result.pvalue > 1e-3


def test_survival_fraction_matches_rate(decay_records):
    n = decay_records.n_trajectories
    survivors = n - np.unique(decay_records.jump_traj).size
    expected = n * np.exp(-2e-3 * 6000.0)
    # binomial fluctuation window, about 4 sigma
    sigma = np.sqrt(expected)
    assert abs(survivors - expected) < 4.0 * max(sigma, 1.0)


def test_histograms_count_jumps_after_the_last_sample():
    # record_every = 3 does not divide the 2000 steps: the last sample is at
    # 999.0, but jumps land up to the last step at 1000.0, and every
    # trajectory's first jump and clock-restart wait must still be counted
    p = SystemParams(kappa=4e-4, gamma1=4e-4, gamma2=4e-4)
    system = build_system(p, n_fock=4, hamiltonian="effective")
    result = run_ensemble(
        system, system.initial_state("1gg"), 1000.0, 20000, dt=0.5, master_seed=3,
        record_every=3, method="grouped",
    )
    traj, channel = result.jump_traj, result.jump_channel
    first = np.flatnonzero(np.diff(traj, prepend=-1))
    assert result.time_grid[-1] == 999.0
    assert np.any(result.jump_time[first] > 999.0)
    followed = first[first + 1 < traj.size]
    followed = followed[traj[followed + 1] == traj[followed]]
    for width in (333.0, 999.0, 2000.0):
        assert first_jump_histogram(result, width).trajectory_count == first.size
        for m, trigger in enumerate(CHANNEL_LABELS):
            hist = conditional_second_jump_histogram(result, trigger, width)
            assert hist.trajectory_count == np.count_nonzero(channel[followed] == m)


# ---------------------------------------------------------------------------
# The per-trajectory loops the columnar statistics replaced, kept as
# references.  A trajectory is (series, jumps, ...), each jump (time, channel, ...).


def _reference_bin_index(t, edges):
    """Half-open bins [lo, hi); the final edge is included in the last bin."""
    if t < edges[0] or t > edges[-1]:
        return None
    return min(int(np.searchsorted(edges, t, side="right")) - 1, edges.size - 2)


def _reference_first_jump_histogram(records, horizon, bin_width, channels_filter=None):
    if channels_filter is None:
        channels_filter = CHANNEL_LABELS
    edges = _edges(horizon, bin_width)
    counts = np.zeros((len(CHANNEL_LABELS), edges.size - 1), dtype=np.int64)
    contributed = 0
    for _, jumps, *_ in records:
        for time, channel, *_ in jumps:
            if CHANNEL_LABELS[channel] not in channels_filter:
                continue
            b = _reference_bin_index(time, edges)
            if b is not None:
                counts[channel, b] += 1
                contributed += 1
            break
    return edges, counts, contributed


def _reference_conditional_histogram(records, horizon, trigger_channel, bin_width):
    edges = _edges(horizon, bin_width)
    counts = np.zeros((len(CHANNEL_LABELS), edges.size - 1), dtype=np.int64)
    contributed = 0
    for _, jumps, *_ in records:
        if len(jumps) < 2 or CHANNEL_LABELS[jumps[0][1]] != trigger_channel:
            continue
        (t1, *_), (t2, second, *_) = jumps[:2]
        b = _reference_bin_index(t2 - t1, edges)
        if b is not None:
            counts[second, b] += 1
            contributed += 1
    return edges, counts, contributed


def _reference_ensemble_average(records):
    n = len(records)
    means, errors = {}, {}
    for k, label in enumerate(OBSERVABLE_LABELS):
        stack = np.stack([series[k] for series, *_ in records])
        means[label] = stack.mean(axis=0)
        if n > 1:
            errors[label] = stack.std(axis=0, ddof=1) / np.sqrt(n)
        else:
            errors[label] = np.zeros(stack.shape[1])
    return means, errors


def _assert_same_histogram(hist, reference):
    edges, counts, contributed = reference
    np.testing.assert_array_equal(hist.bin_edges, edges)
    np.testing.assert_array_equal(hist.counts, counts)
    assert hist.counts.dtype == counts.dtype
    assert hist.trajectory_count == contributed


def _assert_matches_the_loops(records, result, horizon, bin_widths, filters=(None,)):
    """Histograms, means and SEs of ``result`` equal the per-trajectory loops'.

    ``horizon`` is the time of the runs' last step, where the bins end.
    """
    for width in bin_widths:
        for channels in filters:
            _assert_same_histogram(
                first_jump_histogram(result, width, channels_filter=channels),
                _reference_first_jump_histogram(records, horizon, width, channels),
            )
        for trigger in CHANNEL_LABELS:
            _assert_same_histogram(
                conditional_second_jump_histogram(result, trigger, width),
                _reference_conditional_histogram(records, horizon, trigger, width),
            )
    avg = ensemble_average(result)
    means, errors = _reference_ensemble_average(records)
    assert avg.n_trajectories == len(records)
    for label in means:
        np.testing.assert_array_equal(avg.means[label], means[label])
        np.testing.assert_array_equal(avg.standard_errors[label], errors[label])


@pytest.fixture(scope="module")
def busy_system():
    """Every channel fires within a few thousand time units."""
    base = SystemParams(kappa=4e-4, gamma1=5e-4, gamma2=3e-4, gamma_c=2e-4)
    p = calibrate_resonance(base, build_layout(6), which="effective")
    return {
        ham: build_system(p, n_fock=6, hamiltonian=ham) for ham in ("effective", "full")
    }


@pytest.mark.parametrize(
    "hamiltonian, method, n_traj",
    [("effective", "grouped", 200), ("full", "direct", 12)],
)
def test_columnar_statistics_equal_the_record_loops_on_an_ensemble(
    busy_system, trajectories_alone, hamiltonian, method, n_traj
):
    system = busy_system[hamiltonian]
    args = (system, system.initial_state("1gg"), 3000.0, n_traj)
    common = dict(dt=0.5, master_seed=17, record_every=20)
    result = run_ensemble(*args, method=method, **common)
    records = trajectories_alone(*args, method=method, **common)
    assert len(records) == n_traj
    n_jumps = [len(jumps) for _, jumps, *_ in records]
    assert result.jump_traj.size == sum(n_jumps)
    assert max(n_jumps) >= 2 and min(n_jumps) <= 1
    _assert_matches_the_loops(
        records, result, 3000.0, (50.0, 100.0, 700.0),
        (None, ("qubit1", "qubit2"), ("collective",)),
    )


# Times on inner edges (10, 20, 30), on the final edge (100) and past it.
_TIMES = st.one_of(
    st.sampled_from([0.0, 10.0, 20.0, 30.0, 99.99, 100.0, 100.5, 150.0]),
    st.floats(min_value=0.0, max_value=160.0),
)
_TRAJECTORY = st.lists(
    st.tuples(_TIMES, st.sampled_from(CHANNEL_LABELS)), min_size=0, max_size=5
).map(sorted)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_TRAJECTORY, min_size=1, max_size=8),
    st.one_of(st.none(), st.sets(st.sampled_from(CHANNEL_LABELS)).map(tuple)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([[]], None, 0)  # N = 1, J = 0
@example([[], []], ("qubit1",), 1)  # J = 0
@example([[(0.0, "qubit1"), (100.0, "qubit2"), (150.0, "collective")]], None, 2)
@example(
    [[(10.0, "qubit1"), (30.0, "cavity"), (100.0, "qubit2")], [], [(100.5, "cavity")],
     [(20.0, "qubit1"), (30.0, "qubit1"), (130.0, "collective"), (150.0, "cavity")]],
    ("cavity", "qubit2"), 3,
)
def test_columnar_statistics_equal_the_record_loops_on_any_jump_log(
    trajectories, channels, seed
):
    rng = np.random.default_rng(seed)
    records = [make_record(jumps, rng.random((3, GRID.size))) for jumps in trajectories]
    result = make_result(records)
    assert result.jump_traj.size == sum(len(jumps) for jumps in trajectories)
    _assert_matches_the_loops(records, result, GRID[-1], (10.0, 7.0, 250.0), (None, channels))
