"""Jump-statistics aggregation: first-jump and conditional second-jump histograms.

The conditional histogram implements the clock-restart protocol: pick
trajectories whose first jump came from a chosen trigger channel, reset
the clock at that jump, and histogram the waiting time to the second
jump by the channel of the second jump.  The per-bin channel ratios of
that histogram expose dynamics that the unconditional average washes
out.

Both histograms read the jump columns of an ``EnsembleResult`` and count
with one ``np.bincount`` over (channel, bin).  Their bin edges run to the
run's horizon, the time of its last step, so a jump after the last
recorded sample is still counted.

Aggregation is a commutative monoid: histograms with identical edges
merge by adding counts, so histograms of separate batches of trajectories
can combine in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .dressed import CHANNEL_LABELS
from .errors import ConfigError, DimensionMismatchError
from .mcwf import EnsembleResult

NORMALIZATION_MODES = ("per-bin", "per-channel-total", "absolute")


@dataclass(frozen=True)
class JumpHistogram:
    """Per-channel jump-time counts on contiguous bins.

    ``counts[m, b]`` is the number of qualifying events from channel
    ``CHANNEL_LABELS[m]`` in bin b; ``trajectory_count`` is the number of
    trajectories that contributed one event each.  A histogram whose trigger
    never fired is valid, with no counts.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    trajectory_count: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(CHANNEL_LABELS), edges.size - 1):
            raise DimensionMismatchError(
                f"counts shape {counts.shape} does not match "
                f"{len(CHANNEL_LABELS)} channels x {edges.size - 1} bins"
            )
        if np.any(np.diff(edges) <= 0):
            raise ConfigError("bin edges must be strictly increasing")
        if np.any(counts < 0):
            raise ConfigError("counts must be nonnegative")

    @property
    def n_bins(self) -> int:
        return self.bin_edges.size - 1

    def ratios(self, mode: str = "per-bin") -> np.ndarray:
        """Counts normalized per bin (default), per channel total, or raw.

        Per-bin ratios sum to 1 over channels wherever the bin is
        populated; empty bins yield 0 for every channel.
        """
        if mode not in NORMALIZATION_MODES:
            raise ConfigError(f"mode must be one of {NORMALIZATION_MODES}")
        c = self.counts.astype(float)
        if mode == "absolute":
            return c
        if mode == "per-bin":
            tot = c.sum(axis=0, keepdims=True)
        else:
            tot = c.sum(axis=1, keepdims=True)
        return np.divide(c, tot, out=np.zeros_like(c), where=tot > 0)

    def merge(self, other: "JumpHistogram") -> "JumpHistogram":
        """Combine counts from a disjoint set of trajectories."""
        if self.bin_edges.shape != other.bin_edges.shape or not np.array_equal(
            self.bin_edges, other.bin_edges
        ):
            raise ConfigError("cannot merge histograms with different bin edges")
        return JumpHistogram(
            bin_edges=self.bin_edges,
            counts=self.counts + other.counts,
            trajectory_count=self.trajectory_count + other.trajectory_count,
        )


def _edges(t_max: float, bin_width: float) -> np.ndarray:
    if bin_width <= 0:
        raise ConfigError(f"bin_width must be positive, got {bin_width}")
    n_bins = max(1, int(np.ceil(t_max / bin_width - 1e-12)))
    return bin_width * np.arange(n_bins + 1)


def _histogram(times: np.ndarray, channels: np.ndarray, edges: np.ndarray) -> JumpHistogram:
    """Count one event per (time, channel) in half-open bins [lo, hi).

    The final edge belongs to the last bin; times outside the edges are dropped.
    """
    inside = (times >= edges[0]) & (times <= edges[-1])
    n_bins = edges.size - 1
    bins = np.minimum(np.searchsorted(edges, times[inside], side="right") - 1, n_bins - 1)
    counts = np.bincount(
        channels[inside] * n_bins + bins, minlength=len(CHANNEL_LABELS) * n_bins
    ).reshape(len(CHANNEL_LABELS), n_bins)
    return JumpHistogram(
        bin_edges=edges,
        counts=counts,
        trajectory_count=int(inside.sum()),
    )


def first_jump_histogram(
    result: EnsembleResult,
    bin_width: float,
    channels_filter: tuple[str, ...] | None = None,
) -> JumpHistogram:
    """Histogram each trajectory's first detected jump time by channel.

    ``channels_filter`` restricts which channels count as detected; jumps
    from other channels are ignored entirely, as for a detector that does
    not cover them.  Each trajectory contributes at most one event.
    """
    if channels_filter is None:
        channels_filter = CHANNEL_LABELS
    unknown = set(channels_filter) - set(CHANNEL_LABELS)
    if unknown:
        raise ConfigError(f"unknown channels in filter: {sorted(unknown)}")
    edges = _edges(result.horizon, bin_width)
    detected = np.flatnonzero(
        np.isin(result.jump_channel, [CHANNEL_LABELS.index(c) for c in channels_filter])
    )
    first = detected[np.flatnonzero(np.diff(result.jump_traj[detected], prepend=-1))]
    return _histogram(result.jump_time[first], result.jump_channel[first], edges)


def conditional_second_jump_histogram(
    result: EnsembleResult,
    trigger_channel: str,
    bin_width: float,
) -> JumpHistogram:
    """Clock-restart histogram of second-jump waiting times by channel.

    Only trajectories whose FIRST jump came from ``trigger_channel``
    qualify; for those the clock restarts at the first jump and the time
    to the second jump is binned by the second jump's channel.
    Trajectories with fewer than two jumps are skipped.  A trigger that
    never fires yields an empty histogram, not an error.
    """
    if trigger_channel not in CHANNEL_LABELS:
        raise ConfigError(f"unknown trigger channel {trigger_channel!r}")
    edges = _edges(result.horizon, bin_width)
    traj, channel, time = result.jump_traj, result.jump_channel, result.jump_time
    followed = np.append(traj[1:] == traj[:-1], False)  # by a jump of its trajectory
    first = np.flatnonzero(np.diff(traj, prepend=-1))
    first = first[followed[first] & (channel[first] == CHANNEL_LABELS.index(trigger_channel))]
    return _histogram(time[first + 1] - time[first], channel[first + 1], edges)


def write_histogram_csv(hist: JumpHistogram, fh: TextIO, mode: str = "per-bin") -> None:
    """Write bin_start, bin_end, then one column per channel, to an open file.

    The header line names the columns and records the normalization mode
    and the number of contributing trajectories.
    """
    values = hist.ratios(mode)
    cols = ["bin_start", "bin_end"] + [f"{m}_{mode}" for m in CHANNEL_LABELS]
    fh.write("# " + ",".join(cols) + "\n")
    fh.write(f"# trajectories={hist.trajectory_count}\n")
    fmt = "%.17g" if mode == "absolute" else "%.10g"
    for b in range(hist.n_bins):
        row = [fmt % hist.bin_edges[b], fmt % hist.bin_edges[b + 1]]
        row += [fmt % v for v in values[:, b]]
        fh.write(",".join(row) + "\n")
