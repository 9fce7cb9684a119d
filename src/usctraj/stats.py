"""Jump-statistics aggregation: first-jump and conditional second-jump histograms.

The conditional histogram implements the clock-restart protocol: pick
trajectories whose first jump came from a chosen trigger channel, reset
the clock at that jump, and histogram the waiting time to the second
jump by the channel of the second jump.  The per-bin channel ratios of
that histogram expose dynamics that the unconditional average washes
out.

Aggregation is a commutative monoid: histograms with identical edges
and channel labels merge by adding counts, so partial results from
concurrent workers can combine in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .dressed import CHANNEL_LABELS
from .errors import ConfigError, DimensionMismatchError
from .mcwf import TrajectoryRecord

NORMALIZATION_MODES = ("per-bin", "per-channel-total", "absolute")

# Denominator of the default bin widths: one twentieth of the relevant
# oscillation period (8 pi / eta for the slow cavity-qubits cycle,
# pi / |Omega2| for the fast qubit-qubit exchange envelope).
BIN_FRACTION = 20


@dataclass(frozen=True)
class JumpHistogram:
    """Per-channel jump-time counts on contiguous bins.

    ``counts[m, b]`` is the number of qualifying events from channel m in
    bin b; ``trajectory_count`` is the number of trajectories that
    contributed one event each.  A histogram whose trigger never fired is
    valid but empty (``is_empty``).
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    channel_labels: tuple[str, ...]
    trajectory_count: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(self.channel_labels), edges.size - 1):
            raise DimensionMismatchError(
                f"counts shape {counts.shape} does not match "
                f"{len(self.channel_labels)} channels x {edges.size - 1} bins"
            )
        if np.any(np.diff(edges) <= 0):
            raise ConfigError("bin edges must be strictly increasing")
        if np.any(counts < 0):
            raise ConfigError("counts must be nonnegative")

    @property
    def is_empty(self) -> bool:
        return self.trajectory_count == 0

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
        if self.channel_labels != other.channel_labels:
            raise ConfigError("cannot merge histograms with different channels")
        if self.bin_edges.shape != other.bin_edges.shape or not np.array_equal(
            self.bin_edges, other.bin_edges
        ):
            raise ConfigError("cannot merge histograms with different bin edges")
        return JumpHistogram(
            bin_edges=self.bin_edges,
            counts=self.counts + other.counts,
            channel_labels=self.channel_labels,
            trajectory_count=self.trajectory_count + other.trajectory_count,
        )

    def rebin(self, factor: int) -> "JumpHistogram":
        """Merge ``factor`` adjacent bins; n_bins must divide evenly."""
        if factor < 1 or self.n_bins % factor:
            raise ConfigError(
                f"rebin factor {factor} does not divide {self.n_bins} bins"
            )
        counts = self.counts.reshape(len(self.channel_labels), -1, factor).sum(axis=2)
        return JumpHistogram(
            bin_edges=self.bin_edges[::factor],
            counts=counts,
            channel_labels=self.channel_labels,
            trajectory_count=self.trajectory_count,
        )


def _empty_counts(n_bins: int, labels: tuple[str, ...]) -> np.ndarray:
    return np.zeros((len(labels), n_bins), dtype=np.int64)


def _edges(t_max: float, bin_width: float) -> np.ndarray:
    if bin_width <= 0:
        raise ConfigError(f"bin_width must be positive, got {bin_width}")
    n_bins = max(1, int(np.ceil(t_max / bin_width - 1e-12)))
    return bin_width * np.arange(n_bins + 1)


def _bin_index(t: float, edges: np.ndarray) -> int | None:
    """Half-open bins [lo, hi); the final edge is included in the last bin."""
    if t < edges[0] or t > edges[-1]:
        return None
    return min(int(np.searchsorted(edges, t, side="right")) - 1, edges.size - 2)


def _check_records(records: list[TrajectoryRecord]) -> None:
    if not records:
        raise ConfigError("need at least one trajectory record")
    p0 = records[0].params
    for r in records[1:]:
        if r.params != p0:
            raise ConfigError("trajectory records mix different parameter sets")


def first_jump_histogram(
    records: list[TrajectoryRecord],
    bin_width: float,
    channels_filter: tuple[str, ...] | None = None,
    channel_labels: tuple[str, ...] = CHANNEL_LABELS,
) -> JumpHistogram:
    """Histogram each trajectory's first detected jump time by channel.

    ``channels_filter`` restricts which channels count as detected; jumps
    from other channels are ignored entirely, as for a detector that does
    not cover them.  Each trajectory contributes at most one event.
    """
    _check_records(records)
    if channels_filter is None:
        channels_filter = channel_labels
    unknown = set(channels_filter) - set(channel_labels)
    if unknown:
        raise ConfigError(f"unknown channels in filter: {sorted(unknown)}")
    t_max = float(records[0].time_grid[-1])
    edges = _edges(t_max, bin_width)
    counts = _empty_counts(edges.size - 1, channel_labels)
    contributed = 0
    index = {lbl: i for i, lbl in enumerate(channel_labels)}
    for r in records:
        for j in r.jumps:
            if j.channel not in channels_filter:
                continue
            b = _bin_index(j.time, edges)
            if b is not None:
                counts[index[j.channel], b] += 1
                contributed += 1
            break
    return JumpHistogram(
        bin_edges=edges,
        counts=counts,
        channel_labels=channel_labels,
        trajectory_count=contributed,
    )


def conditional_second_jump_histogram(
    records: list[TrajectoryRecord],
    trigger_channel: str,
    bin_width: float,
    channel_labels: tuple[str, ...] = CHANNEL_LABELS,
) -> JumpHistogram:
    """Clock-restart histogram of second-jump waiting times by channel.

    Only trajectories whose FIRST jump came from ``trigger_channel``
    qualify; for those the clock restarts at the first jump and the time
    to the second jump is binned by the second jump's channel.
    Trajectories with fewer than two jumps are skipped.  A trigger that
    never fires yields an empty histogram, not an error.
    """
    _check_records(records)
    if trigger_channel not in channel_labels:
        raise ConfigError(f"unknown trigger channel {trigger_channel!r}")
    t_max = float(records[0].time_grid[-1])
    edges = _edges(t_max, bin_width)
    counts = _empty_counts(edges.size - 1, channel_labels)
    contributed = 0
    index = {lbl: i for i, lbl in enumerate(channel_labels)}
    for r in records:
        if len(r.jumps) < 2 or r.jumps[0].channel != trigger_channel:
            continue
        second = r.jumps[1]
        b = _bin_index(second.time - r.jumps[0].time, edges)
        if b is not None:
            counts[index[second.channel], b] += 1
            contributed += 1
    return JumpHistogram(
        bin_edges=edges,
        counts=counts,
        channel_labels=channel_labels,
        trajectory_count=contributed,
    )


def write_histogram_csv(hist: JumpHistogram, fh: TextIO, mode: str = "per-bin") -> None:
    """Write bin_start, bin_end, then one column per channel, to an open file.

    The header line names the columns and records the normalization mode
    and the number of contributing trajectories.
    """
    values = hist.ratios(mode)
    cols = ["bin_start", "bin_end"] + [f"{m}_{mode}" for m in hist.channel_labels]
    fh.write("# " + ",".join(cols) + "\n")
    fh.write(f"# trajectories={hist.trajectory_count}\n")
    fmt = "%.17g" if mode == "absolute" else "%.10g"
    for b in range(hist.n_bins):
        row = [fmt % hist.bin_edges[b], fmt % hist.bin_edges[b + 1]]
        row += [fmt % v for v in values[:, b]]
        fh.write(",".join(row) + "\n")
