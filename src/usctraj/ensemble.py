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
time.  The result stores the tables, not the rows: ``_SegmentRows``
stitches a row whenever it is read, so the means and standard errors of
an ensemble (``mcwf.ensemble_average``) never hold its (3, N, T) rows.

Random access makes the scans cheap: the threshold word for step k is
word k of the trajectory's threshold stream regardless of history, and
the channel word for the q-th jump is word q, so a segment draws its
words in bulk without replaying earlier steps.  The scan reads raw 64-bit
words (``rng.RawWords``, which also reads the channel words) in growing
windows and compares them as integers with each flow's per-age
``rng.raw_thresholds`` of its total jump probability, which decides
exactly as the strict comparison dp_sum > u with the uniform word.  A
trajectory reads each word once: after a jump the next segment first
scans the rest of the window that held it.  Flows whose jump
probabilities vanish identically (the dark state) terminate a trajectory
outright: with the strict threshold comparison a zero-probability step
can never fire.

Building a flow is the one long sequential computation: the renormalized
no-jump chain psi_{k+1} = U psi_k / ||U psi_k|| over the whole horizon.
A dark entry state, one whose support U keeps closed and no jump operator
reads, runs no chain: its flow is exact zeros.  Otherwise ``_build_flow``
runs only that chain step by step, into a buffer of ``_FLOW_CHUNK``
states, and derives everything else (jump amplitudes, jump probabilities,
observables, amplitude norms, the ray check) once per chunk with
vectorized calls (``mcwf._chunk_amplitudes``), whose per-state numbers
are bitwise those of one step at a time: amplitudes stay one
matrix-vector product per state (a single matrix-matrix product over the
chunk sums in another order).  Channels with a zero rate get amplitudes
only when they carry an observable.

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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import mcwf
from .dressed import CHANNEL_LABELS
from .errors import ConfigError, TimestepError
from .mcwf import (
    MAX_DP_PER_STEP,
    EnsembleResult,
    _check_dp,
    _check_jump_norm,
    _chunk_amplitudes,
    _jump_columns,
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

# Uniform words are scanned in growing chunks to amortize stream setup.
_CHUNK0, _CHUNK_MAX = 8192, 65536

# States per chunk of the flow builder.  Larger chunks amortize more
# per-chunk overhead but hold (chunk x channels x dimension) amplitudes at
# once: a 3000-trajectory Fig. 2b run peaks at 233.5 MB with 512 and at
# 253 MB with 2048, against 233.0 MB for the per-step builder.
_FLOW_CHUNK = 512


@dataclass
class _Flow:
    """One no-jump flow over the full horizon, in flow-local age."""

    state0: np.ndarray
    dp: np.ndarray            # (4, n_steps) jump probabilities at age j
    dp_sum: np.ndarray        # (n_steps,)
    obs: np.ndarray           # (3, n_steps + 1) observables at age j
    top_peak: np.ndarray      # (n_steps + 1,) top-Fock population, running max to age j
    image_flow: np.ndarray    # (4,) target flow id per channel, -1 if never
    image_state: list         # per channel: canonical post-jump state or None
    first_violation: int      # first age violating the dp guards, or n_steps + 1
    dark: bool = False
    # (n_steps,) uint64: raw threshold word w fires at age j when w < threshold[j]
    threshold: np.ndarray = field(init=False)

    def __post_init__(self):
        self.threshold = raw_thresholds(self.dp_sum)


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

    A dark entry state (``_is_dark``) needs no chain: its flow is built from
    zeros.  Otherwise only the chain psi_{k+1} = U psi_k / ||U psi_k|| is
    sequential; it writes each state straight into a buffer of
    ``_FLOW_CHUNK`` states, with ``mcwf._norm``'s expression on views of
    one step buffer.  Everything else is computed once per chunk, and
    only with operations whose per-state result is bitwise that of the
    per-step call, so the root flow matches the direct kernel exactly:

    - amplitudes S^+_m psi_k as a C-looped stack of per-state matrix-vector
      products (``mcwf._chunk_amplitudes``), for the channels with a
      nonzero rate and the observable channels only; one GEMM over the
      chunk would block the sums differently and change the last bits.
      A zero-rate channel's dp is exactly 0 and stays so;
    - squared amplitude norms as ``einsum("kmd,kmd->km", ...)``, whose sum
      over d runs in the same order as the per-state ``einsum("md,md->m")``
      for any number of channels; ``dp`` scales them and the observables
      are their first three columns;
    - amplitude norms as ``np.linalg.norm(amps, axis=2)``, the same
      reduction as the per-state ``axis=1`` call, so the stored jump images
      keep their bits;
    - the top-Fock populations, as a running maximum over age.

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
    scale = dt * rates[channels]
    dp = np.zeros((n_channels, n_steps))
    obs = np.zeros((3, n_steps + 1))
    top = np.zeros(n_steps + 1)
    refs: list[np.ndarray | None] = [None] * n_channels
    states = np.empty((min(_FLOW_CHUNK, n_steps + 1), state0.size), dtype=complex)
    phi = np.empty(state0.size, dtype=complex)
    re, im = phi.real, phi.imag  # _norm(phi) is sqrt(re.dot(re) + im.dot(im))
    # a dark entry state runs no chain: every array keeps its exact zeros
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
        dp[channels, start : min(stop, n_steps)] = (scale * sq)[: n_steps - start].T
        obs[:, start:stop] = sq[:, :3].T
        top[start:stop] = _top_fock(block)
        _check_rays(amps, np.linalg.norm(amps, axis=2), channels, rates, refs, start)
    viol = np.flatnonzero((dp.max(axis=0) >= MAX_DP_PER_STEP) | (dp.sum(axis=0) >= 1.0))
    return _Flow(
        state0=state0,
        dp=dp,
        dp_sum=dp.sum(axis=0),
        obs=obs,
        top_peak=np.maximum.accumulate(top),
        image_flow=np.full(n_channels, -1, dtype=int),
        image_state=[None if r is None else _canonical_phase(r) for r in refs],
        first_violation=int(viol[0]) if viol.size else n_steps + 1,
        dark=bool(dp.max(initial=0.0) == 0.0),
    )


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


def _discover_flows(
    psi0: np.ndarray, system: DissipativeSystem, propagator: np.ndarray,
    n_steps: int, dt: float,
) -> list[_Flow]:
    """Breadth-first closure of flows reachable from psi0 through jumps."""
    flows = [_build_flow(psi0, system, propagator, n_steps, dt)]
    pending = [0]
    while pending:
        fid = pending.pop()
        flow = flows[fid]
        for m, image in enumerate(flow.image_state):
            if image is None:
                continue
            for gid, g in enumerate(flows):
                if abs(np.vdot(g.state0, image)) > 1.0 - RAY_TOL:
                    flow.image_flow[m] = gid
                    break
            else:
                if len(flows) >= FLOW_CAP:
                    raise _Ungroupable(f"more than {FLOW_CAP} distinct flows")
                flows.append(_build_flow(image, system, propagator, n_steps, dt))
                flow.image_flow[m] = len(flows) - 1
                pending.append(len(flows) - 1)
    return flows


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
    powers: list[np.ndarray],
    read_words: RawWords,
) -> tuple[list[tuple], np.ndarray, float, tuple[list[int], list[int]]]:
    """Walk one trajectory across flows.

    Its threshold and channel words come from ``read_words``.  Returns its
    jumps as (time, channel, dp of every channel) tuples in time order, its
    final state, its top-Fock peak and its segment table: the step at which
    each segment entered its flow, and that flow's id (``_stitch`` turns
    the table into the trajectory's observables).
    """
    rates = system.rates
    jumps = []
    segments_entry = [0]
    segments_flow = [0]
    k, fid = 0, 0
    peak = 0.0
    # threshold words [base, base + words.size): each is read once, and the
    # words after a hit are scanned again by the next segment's flow
    base, words = 0, np.empty(0, dtype=np.uint64)
    while k < n_steps:
        flow = flows[fid]
        entry = segments_entry[-1]
        viol_step = entry + flow.first_violation
        if flow.dark:  # all dp are zero, so no guard can be violated
            break
        hit = -1
        chunk = _CHUNK0
        j = k
        while j < n_steps:
            if j == base + words.size:
                count = min(chunk, n_steps - j)
                base, words = j, read_words(master_seed, traj_index, PURPOSE_JUMP, j, count)
                chunk = min(2 * chunk, _CHUNK_MAX)
            w = words[j - base :]
            cmp = w < flow.threshold[j - entry : j - entry + w.size]
            off = int(np.argmax(cmp))
            if cmp[off]:
                hit = j + off
                break
            j += w.size
        if viol_step <= (n_steps - 1 if hit < 0 else hit):
            _check_dp(flow.dp[:, flow.first_violation])
            raise TimestepError("per-channel jump probability exceeds guard")
        if hit < 0:
            break
        age = hit - entry
        peak = max(peak, flow.top_peak[age])
        dp_col = flow.dp[:, age]
        eps_prime = raw_uniforms(
            read_words(master_seed, traj_index, PURPOSE_CHANNEL, len(jumps), 1)[0]
        )
        m = _select_channel(dp_col, eps_prime)
        _check_jump_norm(math.sqrt(dp_col[m] / (dt * rates[m])), m)
        jumps.append(((hit + 1) * dt, m, dp_col))
        fid = int(flow.image_flow[m])
        k = hit + 1
        segments_entry.append(k)
        segments_flow.append(fid)

    last = flows[segments_flow[-1]]
    age = n_steps - segments_entry[-1]
    final = _state_at_age(last.state0, powers, age)
    return jumps, final, float(max(peak, last.top_peak[age])), (segments_entry, segments_flow)


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


class _SegmentRows(Sequence):
    """A grouped ensemble's rows, rebuilt from its segment tables when read.

    Trajectory i ran segments ``starts[i]`` to ``starts[i + 1] - 1`` of the
    table ``(entries, flow_ids)``, and reading its row stitches them from the
    flows' observables (``_stitch``).  The table holds one entry per
    trajectory and per jump; no row is kept.
    """

    def __init__(
        self, obs: list[np.ndarray], rec_steps: np.ndarray, entries: np.ndarray,
        flow_ids: np.ndarray, starts: np.ndarray,
    ):
        self.obs, self.rec_steps = obs, rec_steps
        self.entries, self.flow_ids, self.starts = entries, flow_ids, starts

    def __len__(self) -> int:
        return self.starts.size - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]  # IndexError out of range, negative from the end
        lo, hi = self.starts[i], self.starts[i + 1]
        return _stitch(self.obs, self.rec_steps, self.entries[lo:hi], self.flow_ids[lo:hi])


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
    powers = _binary_powers(propagator, n_steps)
    finals = np.empty((n_trajectories, psi0.size), dtype=complex)
    jumps, peak = [], 0.0
    entries, flow_ids, starts = [], [], [0]
    read_words = RawWords()
    for i in range(n_trajectories):
        sampled, finals[i], traj_peak, (entry, fid) = _sample_grouped(
            i, flows, system, master_seed, n_steps, dt, powers, read_words,
        )
        jumps += [(i, *jump) for jump in sampled]
        peak = max(peak, traj_peak)
        entries += entry
        flow_ids += fid
        starts.append(len(entries))
    return EnsembleResult(
        time_grid=rec_steps * dt,
        horizon=n_steps * dt,
        rows=_SegmentRows(
            [f.obs for f in flows], rec_steps, np.array(entries), np.array(flow_ids),
            np.array(starts),
        ),
        final_states=finals,
        top_fock_peak=peak,
        **_jump_columns(jumps),
    )
