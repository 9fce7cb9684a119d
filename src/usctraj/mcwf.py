"""Monte-Carlo wave-function engine: the jump step rule and the one kernel that applies it.

Between jumps a normalized state evolves under the non-Hermitian matrix
H - (i/2) sum_m gamma_m S^-_m S^+_m and is renormalized after every step.  At
each step the jump probabilities are dp_m = dt gamma_m <psi|S^-_m S^+_m|psi>;
a uniform draw decides whether a jump fires, a second draw picks the channel
in proportion to dp_m, and the state collapses to S^+_m psi (renormalized).

Propagation is by the exact exponential of the non-Hermitian matrix over one
step (precomputed once; the dimension never exceeds a few dozen), so the
timestep affects only jump-probability discretization, not the oscillation
frequencies.

One kernel, ``_run_rows``, advances every trajectory that is not grouped
(``ensemble``) one step at a time, the B trajectories of a run in lockstep
as the rows of a (B, d) state.  Photodetection, homodyne and mixed
detection are one master equation unravelled in different ways: the only
choice is which channels go to a homodyne detector (``homodyne_channels``;
empty is photodetection, ``CHANNEL_LABELS`` full homodyne) and which stay
photodetected.  ``run_trajectory`` is the kernel's one-row case and
``ensemble.run_ensemble`` its many-row case; both take the same
unravelling arguments and read every operator from the assembled
``DissipativeSystem``.

Under continuous homodyne monitoring the state diffuses instead of
jumping.  Each step applies the one-step propagator, then adds the
measurement back-action of the homodyned channels,

    dpsi += -(1/2) [ c_m dt + n_m dW_m ] S+_m psi ,

and renormalizes.  The drift and noise coefficients (c_m, n_m) come in
two conventions selected by ``drift_mode`` (``DRIFT_MODES``):

- "as-printed": c_m = gamma_m^2 <S-_m - S+_m>, n_m = gamma_m.
  The quadratic rate in the drift is unusual (a linear rate with a
  sqrt-rate noise quadrature is the textbook normalization); it is kept
  as printed for comparison.  At the rates used here both terms are
  small corrections to the non-Hermitian damping either way.
- "qsd" (default): standard homodyne unravelling of the master equation,
  dpsi += [ gamma_m <X_m> dt + sqrt(gamma_m) dW_m ] S+_m psi with
  X_m = S-_m + S+_m; averaging 2000+ of these trajectories reproduces
  the master-equation evolution.

The photodetected channels of a mixed run follow the jump rule (threshold
draw each step, collapse on a hit), and a jump replaces the diffusive move
for that step.  A jump records the probabilities of all four channels, 0 on
the homodyned ones.  Diffusive runs need a finer step than jump runs: noise
enters at O(sqrt(dt)), so the weak-convergence error is controlled by dt
itself.  An omitted ``dt`` is therefore 0.5 with no homodyned channel and
0.1 with any (``_monitored``).

Every batched operation gives each row the bits of that row run alone
(they are pinned in ``tests/test_batched_reductions.py``): the propagator,
the stacked (B, m, d) channel amplitudes and their inner products are
C-looped matrix-vector and vector-vector products, the back-action is summed
into a zero array channel by channel, and the norm reads the strided real
and imaginary views.  In a run that draws no noise, trajectories that have
not jumped hold the same state, so they share one row: it is propagated
and read once per step, and a trajectory splits off onto its own row at
its first jump.  The visited states are buffered (``_HISTORY_ROWS``) and
their top-Fock populations reduced to one maximum whenever the buffer
fills; only that maximum is reported.

The jump rule computes amplitudes only where a jump is possible.  The jump
probabilities of a normalized state have an a priori bound
(``_jump_reach``), so a trajectory whose threshold word lies above it can
neither fire nor fail the dp guard at that step; the bound is small at
physical rates, and most steps expose no trajectory.  The exposed
trajectories get their amplitudes from one stacked call (a shared row once
for each of them, with identical bits), and each is decided in ascending
order by the per-step rule (``_fires``: the dp guard, then a strict
comparison of the total with the threshold word), collapsed and logged.

Each trajectory reads its own words by index through the run's one
``rng.RawWords`` reader, so (master_seed, traj_index) fixes it bit for bit
however the run is batched.  Threshold word k belongs to step k and channel
word q to the trajectory's q-th jump.  Wiener words are consumed only on
diffusive steps, one per monitored channel, so a trajectory that jumped
keeps a lower noise offset than its neighbours.  The words are read a
block of steps at a time: ``_WORD_BLOCK`` steps, fewer when the rows
together would hold more than ``_WORD_BUDGET`` words.  A block holds each
trajectory's threshold words and enough noise words for every step of it
to be diffusive, from the trajectory's own offset on; words a jump leaves
unread are read again by the next block, so memory grows neither with the
run nor beyond the budget with the ensemble.

A ``TimestepError`` or ``NumericalInconsistencyError`` of a batch is the one
of the earliest step at which any trajectory raises, the lowest trajectory
at that step; its message is the one that trajectory raises when run alone.
The kernel writes the columns of its ``EnsembleResult`` itself, the one
result type of every trajectory engine; a single run is its one-row case.
Its rows are views of one (3, N, T) array.  ``ensemble_average`` reads any
result's rows one at a time, in two passes (``add_rows``), so a grouped
ensemble, which rebuilds each row when it is read, never holds them all.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .dressed import CHANNEL_LABELS
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InitialStateError,
    NumericalInconsistencyError,
    TimestepError,
)
from .rng import PURPOSE_CHANNEL, PURPOSE_JUMP, PURPOSE_NOISE, RawWords, raw_normals, raw_uniforms
from .system import OBSERVABLE_LABELS, TOP_FOCK, DissipativeSystem, step_grid

MAX_DP_PER_STEP = 0.1
JUMP_NORM_FLOOR = 1e-14

DRIFT_MODES = ("as-printed", "qsd")

# Relative slack of the a priori jump-probability bound (``_jump_reach``): it
# covers the rounding of ||S+ psi||^2, of dp and of their sum, and the
# few-ulp distance of a renormalized state's norm from 1.
_BOUND_SLACK = 1e-6
# Steps whose random words are drawn in one call per trajectory and stream.
_WORD_BLOCK = 4096
# Most words one block holds for all rows together (8 MB of doubles).  An
# uncapped block of 2000 rows with 4 monitored channels over 3000 steps
# would hold 192 MB of noise words.
_WORD_BUDGET = 1 << 20
# Visited states kept for one top-Fock reduction (640 KB at d = 40).
_HISTORY_ROWS = 1024


def add_rows(rows: Iterable[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """The rows of ``shape`` added up in order: bitwise numpy's sum over them.

    numpy sums a stack along its leading axis into zeros, adding the rows in
    order (so a column of -0.0 sums to +0.0); this does the same without
    holding the stack.
    """
    total = np.zeros(shape)
    for row in rows:
        total += row
    return total


@dataclass(frozen=True)
class EnsembleResult:
    """Trajectories 0..N-1 of one ensemble, as columns; a single run is N = 1.

    ``rows`` is a sequence of N rows: ``rows[i]`` is trajectory i's (3, T)
    real series <S^- S^+> of the ``OBSERVABLE_LABELS`` on ``time_grid``.
    They use the dressed operators, so the cavity series is a photon number
    an external detector would see.  ``expectations`` is the (3, N, T)
    stack of every row, built when it is first read (a view of the kernel's
    array); callers that need only statistics read neither the stack nor
    more than one row at a time (``ensemble_average``).
    ``final_states`` is (N, d).  Jump q came from trajectory
    ``jump_traj[q]`` at ``jump_time[q]`` through
    ``CHANNEL_LABELS[jump_channel[q]]``, with every channel's pre-jump
    probability in ``jump_dp[q]``; jumps are ordered by trajectory, then
    time.  ``horizon`` is the time of the last step, n_steps * dt: jumps
    land up to it, later than the last sample when the recording stride does
    not divide the step count.  ``top_fock_peak`` is the largest top-Fock
    population of any state a trajectory visited, the quantity the
    truncation check bounds.  ``states`` holds the (N, T, d) states on the
    time grid when the run was asked to store them, else None.
    """

    time_grid: np.ndarray
    horizon: float
    rows: Sequence[np.ndarray] = field(repr=False)
    final_states: np.ndarray
    jump_traj: np.ndarray
    jump_time: np.ndarray
    jump_channel: np.ndarray
    jump_dp: np.ndarray
    top_fock_peak: float
    states: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_trajectories(self) -> int:
        return len(self.rows)

    @cached_property
    def expectations(self) -> np.ndarray:
        return np.asarray(self.rows).swapaxes(0, 1)


def _jump_columns(jumps: list[tuple]) -> dict[str, np.ndarray]:
    """The jump columns of (trajectory, time, channel, dp) tuples, in their order."""
    traj, times, channels, dps = zip(*jumps) if jumps else ((), (), (), ())
    return dict(
        jump_traj=np.array(traj, dtype=int),
        jump_time=np.array(times, dtype=float),
        jump_channel=np.array(channels, dtype=int),
        jump_dp=np.array(dps, dtype=float).reshape(len(jumps), len(CHANNEL_LABELS)),
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
    input, without its argument dispatch.  Every single-state
    renormalization goes through it (the jump collapse) or evaluates it on
    views of one step buffer (the flow builder); the kernel's batched norm
    is pinned equal to it.
    """
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _prepare(psi0: np.ndarray, system: DissipativeSystem) -> np.ndarray:
    """psi0 as a complex vector, checked against the system's dimension.

    It is not normalized (its first step is), but it must be finite and
    nonzero: a zero or NaN state would run to the end as NaN.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (system.dimension,):
        raise DimensionMismatchError(
            f"state shape {psi.shape} does not match system dimension {system.dimension}"
        )
    if not np.isfinite(psi).all():
        raise InitialStateError("initial state has non-finite entries")
    if not psi.any():
        raise InitialStateError("initial state has zero norm")
    return psi


def _top_fock(states: np.ndarray) -> np.ndarray:
    """Top-Fock population of each row of a stack of states.

    ``vecdot`` over the strided tail view gives each row the bits of
    ``vdot`` on that row alone; einsum sums in another order.
    """
    tail = states[:, TOP_FOCK]
    return np.vecdot(tail, tail).real


def _check_jump_norm(norm: float, m: int) -> None:
    """Raise unless the selected channel m's amplitude norm ||S^+_m psi|| clears the floor."""
    if norm < JUMP_NORM_FLOOR:
        raise NumericalInconsistencyError(
            f"channel {CHANNEL_LABELS[m]} selected but ||S^+ psi|| = {norm:.3e}"
        )


def _collapse(phi: np.ndarray, m: int) -> np.ndarray:
    """The normalized post-jump state from the amplitude phi = S^+_m psi."""
    norm = _norm(phi)
    _check_jump_norm(norm, m)
    return phi / norm


def _chunk_amplitudes(
    states: np.ndarray, plus_stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jump amplitudes (state, channel, d) of a stack of states and their squared norms.

    Each state's numbers are bitwise those of the per-state expressions
    ``plus_stack @ psi`` and ``einsum("md,md->m", ...)``: the amplitudes are
    a C-looped stack of per-state matrix-vector products (one matrix-matrix
    product over the stack would block its sums differently), and the
    squared norms sum over d in the order of the per-state einsum.
    """
    amps = np.matmul(plus_stack[None], states[:, None, :, None])[..., 0]
    return amps, np.einsum("kmd,kmd->km", amps.conj(), amps).real


def _check_dp(dp: np.ndarray) -> None:
    if dp.max(initial=0.0) >= MAX_DP_PER_STEP:
        raise TimestepError(
            f"per-channel jump probability {dp.max():.3g} >= {MAX_DP_PER_STEP}; reduce dt"
        )
    if dp.sum() >= 1.0:
        raise TimestepError(f"total jump probability {dp.sum():.3g} >= 1; reduce dt")


def _fires(dp: np.ndarray, eps: float) -> bool:
    """Whether a step with jump probabilities dp fires against threshold word eps.

    dp passes ``_check_dp`` first.  A total equal to eps does not fire, so a
    zero-probability step never does.
    """
    _check_dp(dp)
    return bool(dp.sum() > eps)


def _select_channel(dp: np.ndarray, eps_prime: float) -> int:
    cum = np.cumsum(dp)
    return int(np.searchsorted(cum / cum[-1], eps_prime, side="right"))


def _jump_reach(jump_stack: np.ndarray, scale: np.ndarray, psi0: np.ndarray) -> float:
    """Threshold words at or above this value cannot fire.

    dp_m = dt gamma_m ||S+_m psi||^2 <= dt gamma_m ||S+_m||^2 ||psi||^2, and
    ||psi|| is 1 after every step and ||psi0|| before the first, so the sum
    over the photodetected channels is bounded before any step is taken.
    Below ``MAX_DP_PER_STEP`` that bound also rules out every ``_check_dp``
    failure; otherwise every word counts (inf).
    """
    norm_sq = max(1.0, float(np.vdot(psi0, psi0).real))
    op_norm_sq = np.linalg.norm(jump_stack, 2, axis=(1, 2)) ** 2
    bound = float(np.sum(scale * op_norm_sq)) * norm_sq * (1.0 + _BOUND_SLACK)
    return bound if bound < MAX_DP_PER_STEP else np.inf


def _monitored(
    homodyne_channels: tuple[str, ...], drift_mode: str, dt: float | None
) -> tuple[tuple[int, ...], float]:
    """Positions in ``CHANNEL_LABELS`` of the homodyned channels, and the step.

    An omitted dt (None) is 0.5 when every channel is photodetected and 0.1
    when any is homodyned.
    """
    if drift_mode not in DRIFT_MODES:
        raise ConfigError(f"drift_mode must be one of {DRIFT_MODES}")
    unknown = set(homodyne_channels) - set(CHANNEL_LABELS)
    if unknown:
        raise ConfigError(f"unknown homodyne channels {sorted(unknown)}")
    monitored = tuple(m for m, label in enumerate(CHANNEL_LABELS) if label in homodyne_channels)
    if dt is None:
        dt = 0.1 if monitored else 0.5
    return monitored, dt


def _run_rows(
    system: DissipativeSystem,
    psi0: np.ndarray,
    t_final: float,
    dt: float,
    seed: int,
    rows: range | list[int],
    record_every: int,
    monitored: tuple[int, ...] = (),
    drift_mode: str = "qsd",
    store_states: bool = False,
) -> EnsembleResult:
    """Trajectories ``rows`` (traj_index values), advanced in lockstep.

    ``monitored`` lists the homodyned channels (positions in
    ``CHANNEL_LABELS``); the others are photodetected.  ``drift_mode`` is
    one of ``DRIFT_MODES``.  Trajectory j of the result is ``rows[j]``;
    ``store_states`` fills its ``states``.
    """
    psi = _prepare(psi0, system)
    n_steps, rec_steps = step_grid(t_final, dt, record_every)
    n_rows, n_hom = len(rows), len(monitored)
    jump_idx = [m for m in range(len(CHANNEL_LABELS)) if m not in monitored]
    jump_stack, scale = system.plus_stack[jump_idx], dt * system.rates[jump_idx]
    hom = list(monitored)
    hom_stack, hom_rates = system.plus_stack[hom][None], system.rates[hom]
    obs_stack = system.plus_stack[: len(OBSERVABLE_LABELS)]
    reach = _jump_reach(jump_stack, scale, psi)
    propagator = expm(-1j * system.h_nh * dt)[None]
    if drift_mode == "qsd":
        noise_scale = np.sqrt(hom_rates)
    else:
        noise_scale, rates_sq = hom_rates, np.array([float(r) ** 2 for r in hom_rates])

    series = np.empty((len(OBSERVABLE_LABELS), n_rows, rec_steps.size))
    snapshots = (
        np.empty((n_rows, rec_steps.size, psi.size), dtype=complex) if store_states else None
    )
    jumps = []  # (trajectory, time, channel, dp of every channel), in step order
    n_jumps = [0] * n_rows

    # Trajectory b is state row where[b], which members[r] trajectories share.
    # Under photodetection all start on one row and leave it at their first jump.
    where = np.arange(n_rows) if n_hom else np.zeros(n_rows, dtype=int)
    members = [1] * n_rows if n_hom else [n_rows]

    words_per_step = n_rows * (n_hom + (1 if jump_idx else 0))
    block = max(1, min(_WORD_BLOCK, _WORD_BUDGET // max(words_per_step, 1)))
    every_row = np.arange(n_rows)
    read_words = RawWords()
    sqrt_dt = np.sqrt(dt)
    drawn = np.zeros(n_rows, dtype=int)  # each row's noise words before the block
    diffused = np.zeros(n_rows, dtype=int)  # and its diffusive steps in the block

    # Every visited state is written to ``history``, whose top-Fock
    # populations are reduced to their maximum whenever it fills.
    history = np.empty((max(_HISTORY_ROWS, n_rows), psi.size), dtype=complex)
    states = history[: len(members)]
    states[:] = psi
    filled, peak = len(states), 0.0
    records = rec_steps.tolist() + [-1]
    rec_i = 0
    for k in range(n_steps + 1):
        if k == records[rec_i]:
            series[:, :, rec_i] = _chunk_amplitudes(states, obs_stack)[1][where].T
            if snapshots is not None:
                snapshots[:, rec_i] = states[where]
            rec_i += 1
        if k == n_steps:
            break
        i = k % block
        if i == 0:
            count = min(block, n_steps - k)
            exposed_steps = [False] * count
            if jump_idx:
                thresholds = np.empty((n_rows, count))
                for b, row in enumerate(rows):
                    thresholds[b] = raw_uniforms(read_words(seed, row, PURPOSE_JUMP, k, count))
                exposed = thresholds < reach
                exposed_steps = exposed.any(axis=0).tolist()
            if n_hom:
                drawn += n_hom * diffused
                diffused[:] = 0
                noise = np.empty((n_rows, count, n_hom))
                for b, row in enumerate(rows):
                    words = read_words(seed, row, PURPOSE_NOISE, drawn[b], count * n_hom)
                    noise[b] = noise_scale * (sqrt_dt * raw_normals(words).reshape(count, n_hom))

        collapsed = []
        if exposed_steps[i]:
            live = np.flatnonzero(exposed[:, i])
            amps, sq = _chunk_amplitudes(states[where[live]], jump_stack)
            dp = scale * sq
            for c, b in enumerate(live.tolist()):
                if not _fires(dp[c], thresholds[b, i]):
                    continue
                word = read_words(seed, rows[b], PURPOSE_CHANNEL, n_jumps[b], 1)[0]
                j = _select_channel(dp[c], raw_uniforms(word))
                m = jump_idx[j]
                collapsed.append((b, _collapse(amps[c, j], m)))
                dp_all = np.zeros(len(CHANNEL_LABELS))
                dp_all[jump_idx] = dp[c]
                jumps.append((b, (k + 1) * dt, m, dp_all))
                n_jumps[b] += 1

        phi = np.matmul(propagator, states[:, :, None])[..., 0]
        if n_hom:
            step_noise = noise[every_row, diffused]  # n_m dW_m, (rows, monitored)
            diffused += 1
            hom_amps = np.matmul(hom_stack, phi[:, None, :, None])[..., 0]
            z = np.vecdot(phi[:, None], hom_amps)  # <S+>
            if drift_mode == "qsd":  # <S- + S+> = 2 Re <S+>
                coef = hom_rates * (2.0 * z.real) * dt + step_noise
            else:  # <S- - S+> = conj(<S+>) - <S+>, purely imaginary
                coef = -0.5 * (rates_sq * (np.conj(z) - z) * dt + step_noise)
            back = np.zeros_like(phi)
            for term in (coef[:, :, None] * hom_amps).transpose(1, 0, 2):
                back += term
            phi = phi + back
        if len(phi) == 1:  # the same bits, at half the cost of the batched form
            norms = _norm(phi[0])
        else:
            norms = np.sqrt(np.vecdot(phi.real, phi.real) + np.vecdot(phi.imag, phi.imag))[:, None]
        landing = []
        for b, post_jump in collapsed:
            r = where[b]
            if members[r] > 1:  # b leaves the shared row for a new one
                members[r] -= 1
                r = where[b] = len(members)
                members.append(1)
            landing.append((r, post_jump))
            if n_hom:
                diffused[b] -= 1
        if filled + len(members) > len(history):
            peak = max(peak, float(_top_fock(history[:filled]).max()))
            filled = 0
        states = history[filled : filled + len(members)]
        np.divide(phi, norms, out=states[: len(phi)])
        for r, post_jump in landing:
            states[r] = post_jump
        filled += len(states)

    peak = max(peak, float(_top_fock(history[:filled]).max()))
    jumps.sort(key=lambda jump: jump[0])  # stable: by trajectory, then time
    return EnsembleResult(
        time_grid=rec_steps * dt,
        horizon=n_steps * dt,
        rows=series.swapaxes(0, 1),
        final_states=states[where],
        top_fock_peak=peak,
        states=snapshots,
        **_jump_columns(jumps),
    )


def run_trajectory(
    system: DissipativeSystem,
    psi0: np.ndarray,
    t_final: float,
    dt: float | None = None,
    seed: int = 0,
    traj_index: int = 0,
    record_every: int = 1,
    store_states: bool = False,
    homodyne_channels: tuple[str, ...] = (),
    drift_mode: str = "qsd",
) -> EnsembleResult:
    """Run one trajectory; deterministic in (system, psi0, dt, seed, traj_index).

    ``homodyne_channels`` names the channels sent to a homodyne detector,
    drifting by ``drift_mode``; the others are photodetected.  An omitted
    dt is 0.5, or 0.1 when any channel is homodyned.  The jump recorded at
    time (k+1) dt replaces the coherent propagation of step k, so grid
    samples always show the post-jump state.  This is the kernel's one-row
    case: row j of ``ensemble.run_ensemble(..., method="direct")`` with the
    same master seed and unravelling is this run's one row, bit for bit.
    ``store_states`` fills the result's ``states``.
    """
    monitored, dt = _monitored(homodyne_channels, drift_mode, dt)
    return _run_rows(
        system, psi0, t_final, dt, seed, [traj_index], record_every, monitored, drift_mode,
        store_states=store_states,
    )


def ensemble_average(result: EnsembleResult) -> EnsembleAverage:
    """Pointwise mean and standard error over the trajectories of an ensemble.

    Two passes over the rows, each in trajectory order (``add_rows``): the
    rows added up and divided by N give the mean, then the squared
    deviations from it are added up.  Both are bitwise ``mean(axis=0)`` and
    ``std(axis=0, ddof=1) / sqrt(N)`` over the (N, T) stack of each
    observable, and neither holds more than a row at a time.
    """
    rows = result.rows
    total = add_rows(rows, np.shape(rows[0]))
    if total.shape[1:] != result.time_grid.shape:
        raise DimensionMismatchError("series and time grid differ in length")
    n = len(rows)
    mean = total / n
    if n > 1:
        sq = add_rows((np.square(row - mean) for row in rows), mean.shape)
        error = np.sqrt(sq / (n - 1)) / np.sqrt(n)
    else:
        error = np.zeros_like(mean)
    return EnsembleAverage(
        time_grid=result.time_grid,
        means=dict(zip(OBSERVABLE_LABELS, mean)),
        standard_errors=dict(zip(OBSERVABLE_LABELS, error)),
        n_trajectories=n,
    )
