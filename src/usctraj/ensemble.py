"""Ensemble driver: many trajectories over one system, fast when flows recur.

``run_ensemble(system, psi0, ...)`` returns trajectories 0..N-1 of a seeded
family as one ``EnsembleResult``, and exploits the structure of
piecewise-deterministic evolution.  Between jumps every trajectory follows
the deterministic no-jump flow fixed by its entry state, so trajectories
sharing an entry state share all per-step jump probabilities, observables,
and jump images.  When post-jump states recur up to a global phase (they do
for the effective-Hamiltonian subspace cascades: the photon pair feeds
|0,g,e>, |0,e,g>, their symmetric combination, and the dark |0,g,g>), the
handful of distinct flows is propagated once over the horizon and each
trajectory reduces to scanning its own threshold words against
precomputed arrays.  A trajectory is then its segment table, the step at
which it entered each flow and that flow's id: its row of observables is
the flows' observables copied one segment (a run of recorded steps) at a
time, and its final state is its last flow's at the horizon.  The result
stores the tables, not the rows or the final states: ``_SegmentRows``
rebuilds either whenever it is read, so the means and standard errors of
an ensemble (``mcwf.ensemble_average``) never hold its (3, N, T) rows.
The tables and the jumps are appended to typed columns as trajectories
are sampled (``_Segments``, ``mcwf._JumpColumns``): a run holds its
flows' per-age tables, 24 bytes per trajectory and 72 per jump.

Random access makes the scans cheap: the threshold word for step k is
word k of the trajectory's threshold stream regardless of history, and
the channel word for the q-th jump is word q, so a segment draws its
words in bulk without replaying earlier steps.  The scan reads raw 64-bit
words (``rng.RawWords``, which also reads the channel words) in windows
of the direct kernel's ``mcwf._WORD_BLOCK`` words and compares them as
integers with each flow's per-age ``rng.raw_thresholds`` of its total
jump probability, which decides exactly as the strict comparison
sum(dp) > u with the uniform word.  A trajectory reads each word once:
after a jump the next segment first scans the rest of the window that
held it.  Flows whose jump probabilities vanish identically (the dark
state) terminate a trajectory outright: with the strict threshold
comparison a zero-probability step can never fire.

Building a flow is the one long sequential computation: the renormalized
no-jump chain psi_{k+1} = U psi_k / ||U psi_k|| over the whole horizon.
A dark entry state, one whose support U keeps closed and no jump operator
reads, runs no chain: its flow is exact zeros, never written.  Otherwise
``_build_flow`` runs only that chain step by step, into a buffer of
``_FLOW_CHUNK`` states, and derives everything else (jump amplitudes,
their squared norms, the thresholds and dp guards, amplitude norms, the
ray check) once per chunk with vectorized calls
(``mcwf._chunk_amplitudes``), whose per-state numbers are bitwise those of
one step at a time: amplitudes stay one matrix-vector product per state
(a single matrix-matrix product over the chunk sums in another order).
Channels with a zero rate get amplitudes only when they carry an
observable.  A flow keeps one table per age, the squared amplitude norms
``sq`` (its observables are the first three rows), beside its threshold
words and top-Fock peaks; the jump probabilities of an age are formed
from ``sq`` where they are read (``_Flow.dp``), with the multiply of the
per-step rule.

A grouped run uses every CPU of the process's affinity mask
(``workers.W``) and gives the same bytes with any number.  The flow graph
is first found from each flow's first chunk, which fixes every jump image
the flow reports, in this process; the full builds of all the lit flows
it found then start at once in forked workers (``workers.run``), and
discovery proper takes each flow the moment it finds it: from those
builds, or built in this process for a dark flow or one the head missed.
Trajectories are sampled in W contiguous blocks, each with its own reader
and columns, concatenated in trajectory order.  Each flow and each
trajectory is computed by the same code from the same inputs wherever it
runs, and an error is the one a single process meets first: that of the
first flow, in order of discovery, whose build fails, and that of the
lowest failing trajectory.

Agreement with the direct kernel (``mcwf._run_rows``) is exact for the
first segment and for all jump bookkeeping, and up to the arbitrary
post-jump global phase (last-ulp differences in expectations, threshold
comparisons on razor edges) afterwards.  When flows do not recur, for
instance with the full Hamiltonian where jump images carry step-dependent
dressing, the driver falls back to that kernel, which advances the whole
ensemble in lockstep.  A run with any homodyned channel goes to the kernel
straight away: its diffusive states have no deterministic flow to share.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from . import mcwf, workers
from .dressed import CHANNEL_LABELS
from .errors import ConfigError, TimestepError
from .mcwf import (
    MAX_DP_PER_STEP,
    EnsembleResult,
    _check_dp,
    _check_jump_norm,
    _chunk_amplitudes,
    _JumpColumns,
    _monitored,
    _norm,
    _prepare,
    _run_rows,
    _select_channel,
    _top_fock,
)
from .rng import PURPOSE_CHANNEL, PURPOSE_JUMP, RawWords, raw_thresholds, raw_uniforms
from .system import TOP_FOCK, DissipativeSystem, step_grid

ENSEMBLE_METHODS = ("auto", "grouped", "direct")

# Give up on grouping once this many distinct flows have been seen.
FLOW_CAP = 16

# Two post-jump states count as the same flow when their overlap is this
# close to 1; exact subspace cascades give 0 deviation, full-Hamiltonian
# dressing gives O(g^2), so the gap is many orders of magnitude.
RAY_TOL = 1e-10

# States per chunk of the flow builder.  Larger chunks amortize more
# per-chunk overhead but hold (chunk x channels x dimension) amplitudes at
# once.  On a 2-core Xeon the fig2b preset's CLI process peaks at 103 MB
# with 256 or 512 and at 110 MB with 2048 (grouped-conditional: 97, 99
# and 110 MB), while its flows take 2.5-2.9 s at every size, within the
# spread between runs.  It also sets the head horizon of flow discovery:
# its hint builds flows over their first chunk alone, _FLOW_CHUNK - 1
# steps, to prefetch the full builds (``_discover_flows``).
_FLOW_CHUNK = 512


@dataclass
class _Flow:
    """One no-jump flow over the full horizon, in flow-local age.

    Its one table of floats is ``sq``; the jump probabilities of an age are
    formed from it where they are read (``dp``), and the observables are
    its first three rows (``obs``).
    """

    state0: np.ndarray
    channels: np.ndarray      # channels with a row of sq: a nonzero rate, or an observable
    scale: np.ndarray         # dt * rate of each of channels
    sq: np.ndarray            # (len(channels), n_steps + 1) ||S^+_m psi||^2 at age j
    # (n_steps,) uint64: raw threshold word w fires at age j when w < threshold[j]
    threshold: np.ndarray
    top_peak: np.ndarray      # (n_steps + 1,) top-Fock population, running max to age j
    image_flow: np.ndarray    # (4,) target flow id per channel, -1 if never
    image_state: list         # per channel: canonical post-jump state or None
    first_violation: int      # first age violating the dp guards, or n_steps + 1
    dark: bool = False

    @property
    def obs(self) -> np.ndarray:
        """(3, n_steps + 1) observables at age j: channels 0-2 lead ``channels``."""
        return self.sq[:3]

    def dp(self, ages: int | slice) -> np.ndarray:
        """Jump probabilities of every channel at ``ages``: (4,) for an age, (4, k) for k.

        dt * rate * sq on ``channels``, the multiply of the per-step rule,
        and 0 on the others.
        """
        sq = self.sq[:, ages]
        dp = np.zeros((len(CHANNEL_LABELS), *sq.shape[1:]))
        dp[self.channels] = (self.scale * sq.T).T
        return dp


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(v)))
    w = v[pivot]
    return v * (abs(w) / w)


def _is_dark(state0: np.ndarray, plus_stack: np.ndarray, propagator: np.ndarray) -> bool:
    """Whether the chain from state0 stays exactly where no amplitude can reach.

    With S the support of state0: U maps S into itself (``U[not S, S]`` is
    exactly 0), every jump operator's columns on S are exactly 0, and S
    misses the top Fock levels.  Every state of the chain then lives on S,
    so each amplitude, dp, observable and top-Fock population is an exact
    sum of exact zeros.
    """
    support = state0 != 0
    return not (
        propagator[np.ix_(~support, support)].any()
        or plus_stack[:, :, support].any()
        or state0[TOP_FOCK].any()
    )


def _build_flow(
    state0: np.ndarray, system: DissipativeSystem, propagator: np.ndarray,
    n_steps: int, dt: float,
) -> _Flow:
    """Propagate the normalized no-jump chain and collect per-age arrays.

    A dark entry state (``_is_dark``) needs no chain: its flow writes
    nothing, and its arrays stay untouched zero pages.  Otherwise only the
    chain psi_{k+1} = U psi_k / ||U psi_k|| is sequential; it writes each
    state straight into a buffer of ``_FLOW_CHUNK`` states, with
    ``mcwf._norm``'s expression on views of one step buffer.  Everything
    else is computed once per chunk, and only with operations whose
    per-state result is bitwise that of the per-step call, so the root flow
    matches the direct kernel exactly:

    - amplitudes S^+_m psi_k as a C-looped stack of per-state matrix-vector
      products (``mcwf._chunk_amplitudes``), for the channels with a
      nonzero rate and the observable channels only; one GEMM over the
      chunk would block the sums differently and change the last bits.
      A zero-rate channel's dp is exactly 0 and stays so;
    - squared amplitude norms as ``einsum("kmd,kmd->km", ...)``, whose sum
      over d runs in the same order as the per-state ``einsum("md,md->m")``
      for any number of channels.  They are the flow's one table ``sq``;
    - the chunk's jump probabilities, from ``sq`` by ``_Flow.dp``, and
      from them its threshold words, its first dp-guard violation and
      whether the flow is dark so far.  No dp outlives its chunk: the
      sampler forms the column of an age from ``sq`` when it reads one;
    - amplitude norms as ``np.linalg.norm(amps, axis=2)``, the same
      reduction as the per-state ``axis=1`` call, so the stored jump images
      keep their bits;
    - the top-Fock populations, as a running maximum over age carried from
      chunk to chunk.

    The ray check (do jump images stay on one ray up to phase?) is a
    thresholded comparison and uses einsum rather than a BLAS product,
    which on a chunk-sized operand would wake the BLAS worker threads.  A
    broken ray is therefore seen at the end of the chunk that holds it.
    """
    plus_stack, rates = system.plus_stack, system.rates
    n_channels = rates.size
    # amplitudes of the channels that can jump and of the three observables
    channels = np.flatnonzero((rates != 0.0) | (np.arange(n_channels) < 3))
    plus_live = plus_stack[channels]
    flow = _Flow(
        state0=state0,
        channels=channels,
        scale=dt * rates[channels],
        sq=np.zeros((channels.size, n_steps + 1)),
        threshold=np.zeros(n_steps, dtype=np.uint64),
        top_peak=np.zeros(n_steps + 1),
        image_flow=np.full(n_channels, -1, dtype=int),
        image_state=[None] * n_channels,
        first_violation=n_steps + 1,
        dark=True,
    )
    refs: list[np.ndarray | None] = [None] * n_channels
    states = np.empty((min(_FLOW_CHUNK, n_steps + 1), state0.size), dtype=complex)
    phi = np.empty(state0.size, dtype=complex)
    re, im = phi.real, phi.imag  # _norm(phi) is sqrt(re.dot(re) + im.dot(im))
    # a dark entry state runs no chain: every array keeps its untouched zeros
    chunks = () if _is_dark(state0, plus_stack, propagator) else range(0, n_steps + 1, _FLOW_CHUNK)
    for start in chunks:
        block = states[: min(_FLOW_CHUNK, n_steps + 1 - start)]
        rows = iter(block)
        if start == 0:
            prev = next(rows)
            prev[:] = state0
        for row in rows:  # prev is the state before row, in this chunk or the last
            np.matmul(propagator, prev, out=phi)
            np.divide(phi, math.sqrt(re.dot(re) + im.dot(im)), out=row)
            prev = row
        stop = start + len(block)
        amps, sq = _chunk_amplitudes(block, plus_live)
        flow.sq[:, start:stop] = sq.T
        top = _top_fock(block)
        if start:  # the running maximum carried over from the last chunk
            top[0] = np.maximum(top[0], flow.top_peak[start - 1])
        np.maximum.accumulate(top, out=flow.top_peak[start:stop])
        _check_rays(amps, np.linalg.norm(amps, axis=2), channels, rates, refs, start)
        # the guards and thresholds of this chunk's steps, from a (4, chunk)
        # dp whose total adds the channels in order, zeros included
        ages = slice(start, min(stop, n_steps))
        dp = flow.dp(ages)
        total = dp.sum(axis=0)
        flow.threshold[ages] = raw_thresholds(total)
        viol = np.flatnonzero((dp.max(axis=0) >= MAX_DP_PER_STEP) | (total >= 1.0))
        if viol.size and flow.first_violation > n_steps:
            flow.first_violation = start + int(viol[0])
        flow.dark = flow.dark and bool(dp.max(initial=0.0) == 0.0)
    flow.image_state = [None if r is None else _canonical_phase(r) for r in refs]
    return flow


def _check_rays(
    amps: np.ndarray, norms: np.ndarray, channels: np.ndarray, rates: np.ndarray,
    refs: list[np.ndarray | None], start: int,
) -> None:
    """Raise _Ungroupable unless each channel's jump images lie on one ray.

    ``amps`` and ``norms`` are one chunk of amplitudes (state, column, d)
    and their norms, from age ``start`` on; column c holds channel
    ``channels[c]``.  A channel's first image above ``mcwf.JUMP_NORM_FLOOR``
    becomes its reference, stored in ``refs`` by channel.
    """
    for c, m in enumerate(channels):
        if rates[m] == 0.0:
            continue
        live = np.flatnonzero(norms[:, c] > mcwf.JUMP_NORM_FLOOR)
        if live.size == 0:
            continue
        if refs[m] is None:
            refs[m] = amps[live[0], c] / norms[live[0], c]
        n = norms[live, c]
        overlap = np.abs(np.einsum("d,kd->k", refs[m].conj(), amps[live, c]))
        broken = np.flatnonzero(np.abs(overlap - n) > RAY_TOL * n)
        if broken.size:
            raise _Ungroupable(
                f"the {CHANNEL_LABELS[m]} jump images leave their ray at flow age "
                f"{start + live[broken[0]]}"
            )


class _Ungroupable(Exception):
    """Raised internally when post-jump states do not form stable rays.

    Its message says why: the channel and flow age at which a ray broke, or
    that more than ``FLOW_CAP`` flows were seen.
    """


def _closure(psi0: np.ndarray, build: Callable[[np.ndarray], _Flow]) -> list[_Flow]:
    """Breadth-first closure of the flows reachable from psi0 through jumps.

    ``build(state)`` gives the flow of an entry state, and runs the moment
    that state is discovered: each new jump image takes the next id, in
    first-in first-out order over the flows.  The cap raises at the first
    distinct state beyond ``FLOW_CAP``, so the error is that of the first
    failing build in order of discovery, or the cap.
    """
    flows = [build(psi0)]
    for flow in flows:  # the flows appended below are reached in turn
        for m, image in enumerate(flow.image_state):
            if image is None:
                continue
            for gid, other in enumerate(flows):
                if abs(np.vdot(other.state0, image)) > 1.0 - RAY_TOL:
                    flow.image_flow[m] = gid
                    break
            else:
                if len(flows) >= FLOW_CAP:
                    raise _Ungroupable(f"more than {FLOW_CAP} distinct flows")
                flows.append(build(image))
                flow.image_flow[m] = len(flows) - 1
    return flows


def _discover_flows(
    psi0: np.ndarray, system: DissipativeSystem, propagator: np.ndarray,
    n_steps: int, dt: float,
) -> list[_Flow]:
    """Breadth-first closure of flows reachable from psi0 through jumps.

    First a head hint, in this process: the closure (``_closure``) of flows
    built over their first chunk only, ``head`` steps, which any error
    ends.  A flow's first chunk fixes every image it ever reports bit for
    bit, since a channel's image is its first live amplitude and the
    chunk's states are those of the full build.  The full builds of every
    hinted state that is not dark then start in one ``workers.run`` call,
    each returning its outcome, error or flow.  Then the closure proper
    builds each flow on discovery: it takes the prefetched outcome of its
    entry state's bytes, or builds the state in this process.  That is a
    dark state (it runs no chain, so it stays untouched zero pages) or one
    the head missed (a channel first live after the first chunk).
    """
    head = min(n_steps, _FLOW_CHUNK - 1)
    hinted = []

    def build_head(state0):
        hinted.append(state0)
        return _build_flow(state0, system, propagator, head, dt)

    try:
        _closure(psi0, build_head)
    except Exception:
        pass  # a hint only: the closure below meets every error in its own order
    lit = [s for s in hinted if not _is_dark(s, system.plus_stack, propagator)]
    outcomes = workers.run([
        partial(workers._outcome, partial(_build_flow, s, system, propagator, n_steps, dt))
        for s in lit
    ])
    prefetched = {s.tobytes(): outcome for s, outcome in zip(lit, outcomes)}

    def build(state0):
        if (outcome := prefetched.pop(state0.tobytes(), None)) is None:
            return _build_flow(state0, system, propagator, n_steps, dt)
        ok, flow = outcome
        if not ok:
            raise flow
        return flow

    return _closure(psi0, build)


def _binary_powers(propagator: np.ndarray, n_steps: int) -> list[np.ndarray]:
    powers = [propagator]
    while (1 << len(powers)) <= n_steps:
        powers.append(powers[-1] @ powers[-1])
    return powers


def _state_at_age(state0: np.ndarray, powers: list[np.ndarray], age: int) -> np.ndarray:
    psi = state0
    bit = 0
    while age:
        if age & 1:
            psi = powers[bit] @ psi
        age >>= 1
        bit += 1
    return psi / _norm(psi)


def _sample_grouped(
    traj_index: int,
    flows: list[_Flow],
    system: DissipativeSystem,
    master_seed: int,
    n_steps: int,
    dt: float,
    read_words: RawWords,
    jumps: _JumpColumns,
    segments: _Segments,
) -> float:
    """Walk one trajectory across flows; return its top-Fock peak.

    Its threshold and channel words come from ``read_words``.  It appends
    its jumps, in time order, to ``jumps`` and its segment table to
    ``segments``: the step at which each segment entered its flow, and that
    flow's id (``_stitch`` turns the table into the trajectory's
    observables, and its last segment gives the final state).
    """
    rates = system.rates
    fid, entry, n_jumps = 0, 0, 0
    segments.append(entry, fid)
    peak = 0.0
    # threshold words [base, base + words.size): each is read once, and the
    # words after a hit are scanned again by the next segment's flow
    base, words = 0, np.empty(0, dtype=np.uint64)
    while entry < n_steps:
        flow = flows[fid]
        viol_step = entry + flow.first_violation
        if flow.dark:  # all dp are zero, so no guard can be violated
            break
        hit = -1
        j = entry
        while j < n_steps:
            if j == base + words.size:
                count = min(mcwf._WORD_BLOCK, n_steps - j)
                base, words = j, read_words(master_seed, traj_index, PURPOSE_JUMP, j, count)
            w = words[j - base :]
            cmp = w < flow.threshold[j - entry : j - entry + w.size]
            off = int(np.argmax(cmp))
            if cmp[off]:
                hit = j + off
                break
            j += w.size
        if viol_step <= (n_steps - 1 if hit < 0 else hit):
            _check_dp(flow.dp(flow.first_violation))
            raise TimestepError("per-channel jump probability exceeds guard")
        if hit < 0:
            break
        age = hit - entry
        peak = max(peak, flow.top_peak[age])
        dp_col = flow.dp(age)
        eps_prime = raw_uniforms(
            read_words(master_seed, traj_index, PURPOSE_CHANNEL, n_jumps, 1)[0]
        )
        m = _select_channel(dp_col, eps_prime)
        _check_jump_norm(math.sqrt(dp_col[m] / (dt * rates[m])), m)
        jumps.append(traj_index, (hit + 1) * dt, m, dp_col)
        n_jumps += 1
        fid = int(flow.image_flow[m])
        entry = hit + 1
        segments.append(entry, fid)
    segments.end_trajectory()
    return float(max(peak, flows[fid].top_peak[n_steps - entry]))


def _sample_block(
    flows: list[_Flow], system: DissipativeSystem, master_seed: int, n_steps: int, dt: float,
    trajectories: range,
) -> tuple[_JumpColumns, _Segments, float]:
    """Sample trajectories in order into columns of their own; with their top-Fock peak."""
    jumps, segments, peak = _JumpColumns(), _Segments(), 0.0
    read_words = RawWords()
    for i in trajectories:
        peak = max(peak, _sample_grouped(
            i, flows, system, master_seed, n_steps, dt, read_words, jumps, segments,
        ))
    return jumps, segments, peak


def _final_state(
    states0: list[np.ndarray], powers: list[np.ndarray], n_steps: int, entries, flow_ids,
) -> np.ndarray:
    """One trajectory's state at the horizon: its last segment's flow at that age."""
    return _state_at_age(states0[flow_ids[-1]], powers, int(n_steps - entries[-1]))


def _stitch(obs: list[np.ndarray], rec_steps: np.ndarray, entries, flow_ids) -> np.ndarray:
    """One trajectory's (3, T) observables on the recorded steps, from its segment table.

    Segment s entered flow ``flow_ids[s]`` (observables ``obs[flow_ids[s]]``
    by flow age) at step ``entries[s]``; it holds the recorded steps from
    there up to the next segment's entry, a run of columns of the row.
    """
    row = np.empty((len(obs[0]), rec_steps.size))
    bounds = np.searchsorted(rec_steps, entries)
    ends = [*bounds[1:], rec_steps.size]
    for lo, hi, entry, fid in zip(bounds, ends, entries, flow_ids):
        row[:, lo:hi] = obs[fid].take(rec_steps[lo:hi] - entry, axis=1)
    return row


class _Segments:
    """The segment tables of trajectories 0, 1, ..., appended in order to typed columns.

    Segment s entered flow ``flow_ids[s]`` at step ``entries[s]``, and
    trajectory i ran segments ``starts[i]`` to ``starts[i + 1] - 1``.
    """

    def __init__(self):
        self.entries, self.flow_ids, self.starts = array("q"), array("q"), array("q", [0])

    def append(self, entry: int, fid: int) -> None:
        self.entries.append(entry)
        self.flow_ids.append(fid)

    def end_trajectory(self) -> None:
        self.starts.append(len(self.entries))

    def extend(self, other: _Segments) -> None:
        """Move the trajectories of other after these, emptying other column by column.

        So no column is held twice while a worker's columns are appended.
        """
        offset = len(self.entries)
        for mine, theirs in ((self.entries, other.entries), (self.flow_ids, other.flow_ids)):
            mine.extend(theirs)
            del theirs[:]
        self.starts.extend(start + offset for start in other.starts[1:])
        del other.starts[:]

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(entries, flow_ids, starts) as int arrays on the columns' buffers."""
        columns = (self.entries, self.flow_ids, self.starts)
        return tuple(np.frombuffer(c, dtype=int) for c in columns)


class _SegmentRows(Sequence):
    """Per-trajectory arrays of a grouped ensemble, rebuilt from its segment tables when read.

    Item i is ``build(entries, flow_ids)`` of trajectory i's segments (its
    rows of ``_Segments``' columns), an array of ``shape``: the
    trajectory's observables (``_stitch``) or its final state
    (``_final_state``).  A slice reads its items into one (k, *shape)
    array, as a slice of the kernel's arrays does.  The table holds one
    entry per trajectory and per jump; no item is kept.
    """

    def __init__(
        self, build: Callable[[np.ndarray, np.ndarray], np.ndarray], shape: tuple[int, ...],
        dtype: type, entries: np.ndarray, flow_ids: np.ndarray, starts: np.ndarray,
    ):
        self.build, self.shape, self.dtype = build, shape, dtype
        self.entries, self.flow_ids, self.starts = entries, flow_ids, starts

    def __len__(self) -> int:
        return self.starts.size - 1

    def __getitem__(self, i: int | slice) -> np.ndarray:
        if isinstance(i, slice):
            items = [self[j] for j in range(len(self))[i]]
            return np.array(items, dtype=self.dtype).reshape(len(items), *self.shape)
        i = range(len(self))[i]  # IndexError out of range, negative from the end
        lo, hi = self.starts[i], self.starts[i + 1]
        return self.build(self.entries[lo:hi], self.flow_ids[lo:hi])


def run_ensemble(
    system: DissipativeSystem,
    psi0: np.ndarray,
    t_final: float,
    n_trajectories: int,
    dt: float | None = None,
    master_seed: int = 0,
    record_every: int = 1,
    method: str = "auto",
    homodyne_channels: tuple[str, ...] = (),
    drift_mode: str = "qsd",
) -> EnsembleResult:
    """Run trajectories 0..n_trajectories-1 of the seeded family from psi0.

    ``homodyne_channels`` and ``drift_mode`` choose the unravelling and an
    omitted dt, as in ``mcwf.run_trajectory``.  ``method`` "auto" tries
    flow grouping and falls back to the direct kernel; "grouped" raises
    ConfigError when the run does not group; "direct" forces the kernel.
    Only photodetection groups: with any channel homodyned, "auto" runs
    the kernel and "grouped" raises ConfigError.  Trajectory j of the
    direct kernel is ``mcwf.run_trajectory(..., seed=master_seed,
    traj_index=j)`` bit for bit; a direct batch raises the error of its
    earliest failing step.
    """
    if method not in ENSEMBLE_METHODS:
        raise ConfigError(f"method must be one of {ENSEMBLE_METHODS}")
    if n_trajectories < 1:
        raise ConfigError("n_trajectories must be >= 1")
    monitored, dt = _monitored(homodyne_channels, drift_mode, dt)
    if monitored and method == "grouped":
        raise ConfigError("grouped ensembles need every channel photodetected")
    psi0 = _prepare(psi0, system)
    n_steps, rec_steps = step_grid(t_final, dt, record_every)

    flows = None
    if method in ("auto", "grouped") and not monitored:
        propagator = expm(-1j * system.h_nh * dt)
        try:
            flows = _discover_flows(psi0, system, propagator, n_steps, dt)
        except _Ungroupable as why:
            if method == "grouped":
                raise ConfigError(
                    f"post-jump states do not recur ({why}); grouped ensembles "
                    "need stable jump images (try the effective Hamiltonian)"
                ) from None

    if flows is None:
        return _run_rows(
            system, psi0, t_final, dt, master_seed, range(n_trajectories), record_every,
            monitored, drift_mode,
        )
    # W contiguous blocks of trajectories, concatenated in order; the first
    # error in block order is that of the lowest failing trajectory
    bounds = [n_trajectories * b // workers.W for b in range(workers.W + 1)]
    blocks = workers.run([
        partial(_sample_block, flows, system, master_seed, n_steps, dt, range(lo, hi))
        for lo, hi in zip(bounds, bounds[1:]) if lo < hi
    ])
    jumps, segments, peak = blocks[0]
    for more_jumps, more_segments, more_peak in blocks[1:]:
        jumps.extend(more_jumps)
        segments.extend(more_segments)
        peak = max(peak, more_peak)
    table = segments.columns()
    final_state = partial(
        _final_state, [f.state0 for f in flows], _binary_powers(propagator, n_steps), n_steps,
    )
    return EnsembleResult(
        time_grid=rec_steps * dt,
        horizon=n_steps * dt,
        rows=_SegmentRows(
            partial(_stitch, [f.obs for f in flows], rec_steps), (3, rec_steps.size), float,
            *table,
        ),
        final_states=_SegmentRows(final_state, psi0.shape, complex, *table),
        top_fock_peak=peak,
        **jumps.columns(),
    )
