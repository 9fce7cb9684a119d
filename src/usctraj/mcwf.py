"""Monte-Carlo wave-function engine: piecewise-deterministic trajectories with jumps.

Between jumps a normalized state evolves under the non-Hermitian matrix
H - (i/2) sum_m gamma_m S^-_m S^+_m and is renormalized after every step.  At
each step the jump probabilities are dp_m = dt gamma_m <psi|S^-_m S^+_m|psi>;
a uniform draw decides whether a jump fires, a second draw picks the channel
in proportion to dp_m, and the state collapses to S^+_m psi (renormalized).

Propagation is by the exact exponential of the non-Hermitian matrix over one
step (precomputed once; the dimension never exceeds a few dozen), so the
timestep affects only jump-probability discretization, not the oscillation
frequencies.

``run_trajectory(system, psi0, ...)`` reads every operator from the
assembled ``DissipativeSystem`` and evaluates a trajectory in chunks of
steps.  Only the no-jump chain psi_{k+1} = U psi_k / ||U psi_k|| runs step
by step; the jump probabilities, observables and top-Fock populations of a
chunk come from one vectorized call each, and the chunk's threshold words
are read by index (word k of the threshold stream belongs to step k, word q
of the channel stream to the q-th jump).  At the first step whose jump
fires, the rest of the chunk is discarded and a new chunk starts from the
post-jump state.  Every number that decides or is recorded is bitwise the
one of the step-at-a-time loop; the helpers below say which operations keep
that so.  Trajectories of one ensemble walk the same chunks until their
first jump; ``run_ensemble`` hands them a shared ``start_cache`` so those
chunks are evaluated once, and ``collect`` gathers their records into the
columns of one ``EnsembleResult``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .dressed import CHANNEL_LABELS
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NumericalInconsistencyError,
    TimestepError,
)
from .rng import PURPOSE_CHANNEL, PURPOSE_JUMP, uniform_words
from .system import OBSERVABLE_LABELS, TOP_FOCK, DissipativeSystem, step_grid

MAX_DP_PER_STEP = 0.1
JUMP_NORM_FLOOR = 1e-14

DEFAULT_DT = 0.5

# States per chunk of the direct engine's vectorized no-jump evaluation.
# A chunk starts small after every jump (the rest of a chunk past a jump is
# discarded) and doubles while no jump fires.
_STEP_CHUNK0, _STEP_CHUNK_MAX = 16, 512
# Relative slack of the vectorized row sums that preselect jump candidates.
_SUM_SLACK = 1e-9


@dataclass(frozen=True)
class JumpEvent:
    """One recorded quantum jump."""

    time: float
    channel: str
    pre_jump_norm_probabilities: np.ndarray

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("jump time must be >= 0")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One trajectory: expectation series, jump log, and the final state.

    ``expectations`` maps observable labels (cavity, qubit1, qubit2) to the
    real series <S^- S^+> on ``time_grid``; these use the dressed operators,
    so the cavity series is a photon number an external detector would see.
    ``top_fock_peak`` is the largest top-Fock population of any state the
    trajectory visited, the quantity the truncation check bounds.
    """

    time_grid: np.ndarray
    expectations: dict[str, np.ndarray]
    jumps: list[JumpEvent]
    final_state: np.ndarray
    top_fock_peak: float
    states: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class EnsembleResult:
    """Trajectories 0..N-1 of one ensemble, as columns.

    ``expectations`` is (3, N, T), in ``OBSERVABLE_LABELS`` order on
    ``time_grid``; ``final_states`` is (N, d).  Jump q came from trajectory
    ``jump_traj[q]`` at ``jump_time[q]`` through ``CHANNEL_LABELS[jump_channel[q]]``,
    with every channel's pre-jump probability in ``jump_dp[q]``; jumps are
    ordered by trajectory, then time.  ``top_fock_peak`` is the largest of all.
    """

    time_grid: np.ndarray
    expectations: np.ndarray
    final_states: np.ndarray
    jump_traj: np.ndarray
    jump_time: np.ndarray
    jump_channel: np.ndarray
    jump_dp: np.ndarray
    top_fock_peak: float

    @property
    def n_trajectories(self) -> int:
        return self.expectations.shape[1]


def collect(records: Iterable[TrajectoryRecord], n: int) -> EnsembleResult:
    """The EnsembleResult of n trajectory records that share one time grid.

    Records are consumed one at a time into preallocated rows, so a
    generator keeps at most one record alive.
    """
    grid, jumps, peak, i = None, [], 0.0, -1
    for i, rec in enumerate(records):
        if grid is None:
            grid = rec.time_grid
            series = np.empty((len(OBSERVABLE_LABELS), n, grid.size))
            finals = np.empty((n, rec.final_state.size), dtype=complex)
        elif rec.time_grid.shape != grid.shape or not np.array_equal(rec.time_grid, grid):
            raise DimensionMismatchError("trajectory time grids differ")
        series[:, i] = [rec.expectations[label] for label in OBSERVABLE_LABELS]
        finals[i] = rec.final_state
        peak = max(peak, rec.top_fock_peak)
        jumps += [(i, j.time, CHANNEL_LABELS.index(j.channel), j.pre_jump_norm_probabilities)
                  for j in rec.jumps]
    if i < 0 or i + 1 != n:
        raise ConfigError(f"expected {n} >= 1 trajectories, got {i + 1}")
    traj, times, channels, dps = zip(*jumps) if jumps else ((), (), (), ())
    return EnsembleResult(
        time_grid=grid,
        expectations=series,
        final_states=finals,
        jump_traj=np.array(traj, dtype=int),
        jump_time=np.array(times, dtype=float),
        jump_channel=np.array(channels, dtype=int),
        jump_dp=np.array(dps, dtype=float).reshape(len(jumps), len(CHANNEL_LABELS)),
        top_fock_peak=peak,
    )


@dataclass(frozen=True)
class EnsembleAverage:
    """Pointwise mean and standard error of trajectory observables."""

    time_grid: np.ndarray
    means: dict[str, np.ndarray]
    standard_errors: dict[str, np.ndarray]
    n_trajectories: int


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D complex vector, bitwise equal to np.linalg.norm.

    This is the expression ``np.linalg.norm`` evaluates for a 1-D complex
    input, without its argument dispatch.  Every state renormalization
    (jump engine, homodyne engine, flow builder) goes through it, so the
    engines agree on every bit by construction.
    """
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _prepare(psi0: np.ndarray, system: DissipativeSystem) -> np.ndarray:
    """psi0 as a complex vector, checked against the system's dimension."""
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (system.dimension,):
        raise DimensionMismatchError(
            f"state shape {psi.shape} does not match system dimension {system.dimension}"
        )
    return psi


def _top_fock(states: np.ndarray) -> np.ndarray:
    """Top-Fock population of each row of a stack of states."""
    tail = states[:, TOP_FOCK]
    return np.einsum("kd,kd->k", tail.conj(), tail).real


def _collapse(amps: np.ndarray, m: int, label: str) -> np.ndarray:
    """The normalized post-jump state S^+_m psi from the amplitude rows."""
    phi = amps[m]
    norm = _norm(phi)
    if norm < JUMP_NORM_FLOOR:
        raise NumericalInconsistencyError(
            f"channel {label} selected but ||S^+ psi|| = {norm:.3e}"
        )
    return phi / norm


def _jump_probabilities(
    psi: np.ndarray, dt: float, plus_stack: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """dp_m vector and the jump amplitudes S^+_m psi (rows)."""
    amps = plus_stack @ psi
    dp = dt * rates * np.einsum("md,md->m", amps.conj(), amps).real
    return dp, amps


def _no_jump_chain(psi: np.ndarray, advance, out: np.ndarray) -> np.ndarray:
    """Write the renormalized no-jump chain from psi into the rows of out.

    ``advance`` maps a state to its unnormalized successor.  Returns the
    state that follows the last row.
    """
    for i in range(len(out)):
        out[i] = psi
        phi = advance(psi)
        psi = phi / _norm(phi)
    return psi


def _chunk_amplitudes(
    states: np.ndarray, plus_stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jump amplitudes (state, channel, d) of a chunk and their squared norms.

    Each state's numbers are bitwise those of ``_jump_probabilities``: the
    amplitudes are a C-looped stack of per-state matrix-vector products (one
    matrix-matrix product over the chunk would block its sums differently),
    and the squared norms sum over d in the order of the per-state einsum.
    """
    amps = np.matmul(plus_stack[None], states[:, None, :, None])[..., 0]
    return amps, np.einsum("kmd,kmd->km", amps.conj(), amps).real


def _first_jump(dp: np.ndarray, eps: np.ndarray) -> int:
    """First row of dp (steps, channels) whose jump fires against eps.

    Returns ``len(dp)`` when none fires.  Raises TimestepError at the first
    row ``_check_dp`` rejects unless an earlier row fires.  The vectorized
    row sums only preselect candidate rows, because a 2-D reduction does
    not promise the per-step summation order; each candidate is decided by
    the per-step expressions themselves.
    """
    total = dp.sum(axis=1)
    suspect = (
        ~(total <= eps * (1.0 - _SUM_SLACK))
        | (total >= 1.0 - _SUM_SLACK)
        | (dp.max(axis=1, initial=0.0) >= MAX_DP_PER_STEP)
    )
    for i in np.flatnonzero(suspect):
        _check_dp(dp[i])
        if not dp[i].sum() <= eps[i]:
            return int(i)
    return len(dp)


def _check_dp(dp: np.ndarray) -> None:
    if dp.max(initial=0.0) >= MAX_DP_PER_STEP:
        raise TimestepError(
            f"per-channel jump probability {dp.max():.3g} >= {MAX_DP_PER_STEP}; reduce dt"
        )
    if dp.sum() >= 1.0:
        raise TimestepError(f"total jump probability {dp.sum():.3g} >= 1; reduce dt")


def _select_channel(dp: np.ndarray, eps_prime: float) -> int:
    cum = np.cumsum(dp)
    return int(np.searchsorted(cum / cum[-1], eps_prime, side="right"))


def run_trajectory(
    system: DissipativeSystem,
    psi0: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
    seed: int = 0,
    traj_index: int = 0,
    record_every: int = 1,
    store_states: bool = False,
    start_cache: dict | None = None,
) -> TrajectoryRecord:
    """Run one trajectory; deterministic in (system, psi0, dt, seed, traj_index).

    The jump recorded at time (k+1) dt replaces the coherent propagation of
    step k, so grid samples always show the post-jump state.  Steps are
    evaluated in chunks (see the module docstring) with the same results,
    bit for bit, as one step at a time.

    ``start_cache`` is a dict shared by trajectories that differ only in
    ``traj_index`` (same system, psi0, t_final and dt).  Before
    their first jump such trajectories walk the same chunks of the same
    no-jump chain; the cache keeps each chunk's jump probabilities,
    observables, top-Fock populations and end states, so an ensemble
    evaluates them once.  It is ignored when ``store_states`` is set.
    """
    psi = _prepare(psi0, system)
    advance = expm(-1j * system.h_nh * dt).__matmul__
    plus_stack, rates = system.plus_stack, system.rates

    n_steps, rec_steps = step_grid(t_final, dt, record_every)
    series = np.empty((3, rec_steps.size))
    snapshots = np.empty((rec_steps.size, psi.size), dtype=complex) if store_states else None
    jumps: list[JumpEvent] = []

    scale = dt * rates
    states = np.empty((min(_STEP_CHUNK_MAX, n_steps + 1), psi.size), dtype=complex)
    size = _STEP_CHUNK0
    rec_i = 0
    peak = 0.0
    k = 0  # step index of psi, the first row of the next chunk
    if store_states:
        start_cache = None
    while True:
        block = states[: min(size, n_steps + 1 - k)]
        n_dec = min(len(block), n_steps - k)
        shared = start_cache is not None and not jumps
        if shared and k in start_cache:
            first, last, after, sq, top, dp = start_cache[k]
            amps = None
        else:
            after = _no_jump_chain(psi, advance, block)
            amps, sq = _chunk_amplitudes(block, plus_stack)
            top = _top_fock(block)
            dp = scale * sq[:n_dec]
            first, last = block[0], block[-1]
            if shared:
                start_cache[k] = (first.copy(), last.copy(), after, sq, top, dp)
        fired = _first_jump(dp, uniform_words(seed, traj_index, PURPOSE_JUMP, k, n_dec))
        valid = fired + 1 if fired < n_dec else len(block)
        peak = max(peak, float(top[:valid].max()))
        rec_hi = int(np.searchsorted(rec_steps, k + valid))
        rows = rec_steps[rec_i:rec_hi] - k
        series[:, rec_i:rec_hi] = sq[rows, :3].T
        if snapshots is not None:
            snapshots[rec_i:rec_hi] = block[rows]
        rec_i = rec_hi
        if fired == n_dec:
            k += len(block)
            if k > n_steps:
                psi = last.copy()
                break
            psi = after
            size = min(2 * size, _STEP_CHUNK_MAX)
            continue
        eps_prime = uniform_words(seed, traj_index, PURPOSE_CHANNEL, len(jumps), 1)[0]
        m = _select_channel(dp[fired], eps_prime)
        if amps is None:
            # a cached chunk keeps no amplitudes: rerun its chain to the jump
            _no_jump_chain(first, advance, block[: fired + 1])
            fired_amps = _chunk_amplitudes(block[fired : fired + 1], plus_stack)[0][0]
        else:
            fired_amps = amps[fired]
        psi = _collapse(fired_amps, m, system.channels[m].label)
        k += fired + 1
        jumps.append(
            JumpEvent(
                time=k * dt,
                channel=system.channels[m].label,
                pre_jump_norm_probabilities=dp[fired].copy(),
            )
        )
        size = _STEP_CHUNK0

    return TrajectoryRecord(
        time_grid=rec_steps * dt,
        expectations=dict(zip(OBSERVABLE_LABELS, series)),
        jumps=jumps,
        final_state=psi,
        top_fock_peak=peak,
        states=snapshots,
    )


def ensemble_average(result: EnsembleResult) -> EnsembleAverage:
    """Pointwise mean and standard error over the trajectories of an ensemble."""
    n = result.n_trajectories
    means, errors = {}, {}
    for label, stack in zip(OBSERVABLE_LABELS, result.expectations):
        means[label] = stack.mean(axis=0)
        errors[label] = (
            stack.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(means[label])
        )
    return EnsembleAverage(
        time_grid=result.time_grid, means=means, standard_errors=errors, n_trajectories=n
    )
