"""Jump-time histograms: binning, merging, and the statistics they reveal."""

import io

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from usctraj.dressed import CHANNEL_LABELS
from usctraj.ensemble import run_ensemble
from usctraj.errors import ConfigError
from usctraj.hilbert import build_layout
from usctraj.mcwf import JumpEvent, TrajectoryRecord
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.stats import (
    NORMALIZATION_MODES,
    JumpHistogram,
    conditional_second_jump_histogram,
    first_jump_histogram,
    write_histogram_csv,
)
from usctraj.system import build_system

GRID = np.linspace(0.0, 100.0, 11)
P0 = SystemParams()


def make_record(jump_specs, traj_index=0):
    """jump_specs: list of (time, channel)."""
    jumps = [
        JumpEvent(time=t, channel=c, pre_jump_norm_probabilities=np.zeros(4))
        for t, c in jump_specs
    ]
    return TrajectoryRecord(
        params=P0, seed=0, traj_index=traj_index, time_grid=GRID,
        expectations={"cavity": np.zeros(11), "qubit1": np.zeros(11),
                      "qubit2": np.zeros(11)},
        jumps=jumps, final_state=np.array([1.0 + 0j]), top_fock_peak=0.0,
    )


def test_first_jump_binning_and_edges():
    records = [
        make_record([(5.0, "cavity")]),
        make_record([(10.0, "qubit1")]),     # exactly on an inner edge: next bin
        make_record([(100.0, "qubit2")]),    # final edge: included in last bin
        make_record([]),                     # no jumps: no contribution
    ]
    hist = first_jump_histogram(records, bin_width=10.0)
    assert hist.n_bins == 10
    assert hist.trajectory_count == 3
    idx = {lbl: i for i, lbl in enumerate(hist.channel_labels)}
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
    hist = first_jump_histogram(records, 10.0, channels_filter=("qubit1", "qubit2"))
    assert hist.trajectory_count == 2
    idx = {lbl: i for i, lbl in enumerate(hist.channel_labels)}
    assert hist.counts[idx["qubit1"], 2] == 1
    assert hist.counts[idx["qubit1"], 1] == 1
    # ...whereas the cavity-covering detector stops at the cavity click
    full = first_jump_histogram(records, 10.0)
    assert full.counts[idx["cavity"], 0] == 1
    assert full.counts[idx["qubit1"], 2] == 0


def test_conditional_histogram_clock_restart():
    records = [
        make_record([(10.0, "qubit1"), (35.0, "qubit2")]),   # waits 25
        make_record([(50.0, "qubit1"), (55.0, "cavity")]),   # waits 5
        make_record([(10.0, "cavity"), (20.0, "qubit1")]),   # wrong trigger
        make_record([(10.0, "qubit1")]),                     # only one jump
    ]
    hist = conditional_second_jump_histogram(records, "qubit1", 10.0)
    assert hist.trajectory_count == 2
    idx = {lbl: i for i, lbl in enumerate(hist.channel_labels)}
    assert hist.counts[idx["qubit2"], 2] == 1
    assert hist.counts[idx["cavity"], 0] == 1


def test_conditional_histogram_empty_is_valid():
    hist = conditional_second_jump_histogram([make_record([])], "collective", 10.0)
    assert hist.is_empty
    assert hist.counts.sum() == 0
    np.testing.assert_array_equal(hist.ratios("per-bin"), 0.0)


def test_ratio_modes():
    records = [
        make_record([(5.0, "cavity")]),
        make_record([(6.0, "qubit1")]),
        make_record([(15.0, "qubit1")]),
    ]
    hist = first_jump_histogram(records, 10.0)
    per_bin = hist.ratios("per-bin")
    sums = per_bin.sum(axis=0)
    np.testing.assert_allclose(sums[0], 1.0)
    np.testing.assert_allclose(sums[1], 1.0)
    assert sums[2:].max() == 0.0
    per_channel = hist.ratios("per-channel-total")
    idx = {lbl: i for i, lbl in enumerate(hist.channel_labels)}
    np.testing.assert_allclose(per_channel[idx["qubit1"]].sum(), 1.0)
    absolute = hist.ratios("absolute")
    np.testing.assert_array_equal(absolute, hist.counts.astype(float))
    with pytest.raises(ConfigError):
        hist.ratios("percent")
    assert NORMALIZATION_MODES == ("per-bin", "per-channel-total", "absolute")


def test_merge_requires_matching_shape():
    a = first_jump_histogram([make_record([(5.0, "cavity")])], 10.0)
    b = first_jump_histogram([make_record([(5.0, "cavity")])], 20.0)
    with pytest.raises(ConfigError):
        a.merge(b)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=24),
       st.randoms(use_true_random=False))
def test_merge_is_order_independent(channel_picks, rnd):
    # histogram of everything == merge of any partition, in any order
    labels = list(CHANNEL_LABELS)
    records = [
        make_record([(float(5 + 90 * rnd.random()), labels[c])], traj_index=i)
        for i, c in enumerate(channel_picks)
    ]
    whole = first_jump_histogram(records, 10.0)
    cut = rnd.randrange(1, len(records))
    left = first_jump_histogram(records[:cut], 10.0)
    right = first_jump_histogram(records[cut:], 10.0)
    for merged in (left.merge(right), right.merge(left)):
        np.testing.assert_array_equal(merged.counts, whole.counts)
        assert merged.trajectory_count == whole.trajectory_count


def test_rebin_pools_adjacent_bins():
    records = [make_record([(t, "cavity")], traj_index=i)
               for i, t in enumerate([1.0, 9.0, 11.0, 19.0, 95.0])]
    hist = first_jump_histogram(records, 10.0)
    pooled = hist.rebin(2)
    assert pooled.n_bins == 5
    idx = {lbl: i for i, lbl in enumerate(pooled.channel_labels)}
    assert pooled.counts[idx["cavity"], 0] == 4
    assert pooled.counts[idx["cavity"], 4] == 1
    with pytest.raises(ConfigError):
        hist.rebin(3)  # 10 bins do not split into threes


def test_rebin_matches_coarser_run():
    records = [make_record([(t, "qubit2")], traj_index=i)
               for i, t in enumerate(np.linspace(0.5, 99.5, 37))]
    fine = first_jump_histogram(records, 5.0).rebin(2)
    coarse = first_jump_histogram(records, 10.0)
    np.testing.assert_array_equal(fine.counts, coarse.counts)


def test_validation_errors():
    with pytest.raises(ConfigError):
        first_jump_histogram([], 10.0)
    with pytest.raises(ConfigError):
        first_jump_histogram([make_record([])], -1.0)
    with pytest.raises(ConfigError):
        first_jump_histogram([make_record([])], 10.0, channels_filter=("laser",))
    with pytest.raises(ConfigError):
        conditional_second_jump_histogram([make_record([])], "laser", 10.0)
    with pytest.raises(ConfigError):
        JumpHistogram(
            bin_edges=np.array([0.0, 1.0]),
            counts=-np.ones((4, 1), dtype=np.int64),
            channel_labels=CHANNEL_LABELS,
            trajectory_count=0,
        )


def test_csv_round_trip():
    records = [
        make_record([(5.0, "cavity")]),
        make_record([(6.0, "qubit1")], traj_index=1),
    ]
    hist = first_jump_histogram(records, 10.0)
    buf = io.StringIO()
    write_histogram_csv(hist, buf, mode="absolute")
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# bin_start,bin_end,")
    assert lines[1] == "# trajectories=2"
    data = np.loadtxt(io.StringIO("\n".join(lines[2:])), delimiter=",")
    assert data.shape == (hist.n_bins, 2 + len(hist.channel_labels))
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
    times = np.array([r.jumps[0].time for r in decay_records if r.jumps])
    assert times.size > 700
    result = scipy.stats.kstest(times, "expon", args=(0.0, 1.0 / 2e-3))
    assert result.pvalue > 1e-3


def test_survival_fraction_matches_rate(decay_records):
    survivors = sum(1 for r in decay_records if not r.jumps)
    expected = len(decay_records) * np.exp(-2e-3 * 6000.0)
    # binomial fluctuation window, about 4 sigma
    sigma = np.sqrt(expected)
    assert abs(survivors - expected) < 4.0 * max(sigma, 1.0)
