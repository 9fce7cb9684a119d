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
not jumped hold the same state, so they share one row: it is propagated,
read and jump-tested once per step, and a trajectory splits off onto its
own row at its first jump.  The visited states are buffered
(``_HISTORY_ROWS``) and their top-Fock populations reduced to one maximum
whenever the buffer fills; only that maximum is reported.

The jump rule computes amplitudes only where a jump is possible.  The jump
probabilities of a normalized state have an a priori bound
(``_jump_reach``), so a trajectory whose threshold word lies above it can
neither fire nor fail the dp guard at that step; the bound is small at
physical rates, and most steps evaluate no row.  Among the rows left,
vectorized row sums preselect candidates (``_jump_candidates``), and each
candidate is decided, collapsed and logged by the per-state expressions.

Each trajectory reads its own words by index (``rng``), so (master_seed,
traj_index) fixes it bit for bit however the run is batched.  Threshold
word k belongs to step k and channel word q to the trajectory's q-th jump.
Wiener words are consumed only on diffusive steps, one per monitored
channel, so a trajectory that jumped keeps a lower noise offset than its
neighbours.  The words are read a block of steps at a time: ``_WORD_BLOCK``
steps, fewer when the rows together would hold more than ``_WORD_BUDGET``
words.  A block holds each trajectory's threshold words and enough noise
words for every step of it to be diffusive, from the trajectory's own offset
on; words a jump leaves unread are read again by the next block, so memory
grows neither with the run nor beyond the budget with the ensemble.

A ``TimestepError`` or ``NumericalInconsistencyError`` of a batch is the one
of the earliest step at which any trajectory raises, the lowest trajectory
at that step; its message is the one that trajectory raises when run alone.
The kernel writes the columns of its ``EnsembleResult`` itself, the one
result type of every trajectory engine; a single run is its one-row case.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

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
from .rng import PURPOSE_CHANNEL, PURPOSE_JUMP, PURPOSE_NOISE, normal_words, uniform_words
from .system import OBSERVABLE_LABELS, TOP_FOCK, DissipativeSystem, step_grid

MAX_DP_PER_STEP = 0.1
JUMP_NORM_FLOOR = 1e-14

DRIFT_MODES = ("as-printed", "qsd")

# Relative slack of the vectorized row sums that preselect jump candidates.
_SUM_SLACK = 1e-9
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


@dataclass(frozen=True)
class EnsembleResult:
    """Trajectories 0..N-1 of one ensemble, as columns; a single run is N = 1.

    ``expectations`` is (3, N, T): the real series <S^- S^+> of the
    ``OBSERVABLE_LABELS`` on ``time_grid``.  They use the dressed operators,
    so the cavity series is a photon number an external detector would see.
    ``final_states`` is (N, d).  Jump q came from trajectory ``jump_traj[q]``
    at ``jump_time[q]`` through ``CHANNEL_LABELS[jump_channel[q]]``, with
    every channel's pre-jump probability in ``jump_dp[q]``; jumps are
    ordered by trajectory, then time.  ``horizon`` is the time of the last
    step, n_steps * dt: jumps land up to it, later than the last sample when
    the recording stride does not divide the step count.  ``top_fock_peak``
    is the largest top-Fock population of any state a trajectory visited,
    the quantity the truncation check bounds.  ``states`` holds the (N, T, d)
    states on the time grid when the run was asked to store them, else None.
    """

    time_grid: np.ndarray
    horizon: float
    expectations: np.ndarray
    final_states: np.ndarray
    jump_traj: np.ndarray
    jump_time: np.ndarray
    jump_channel: np.ndarray
    jump_dp: np.ndarray
    top_fock_peak: float
    states: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_trajectories(self) -> int:
        return self.expectations.shape[1]


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
    renormalization (jump collapse, flow builder) goes through it; the
    kernel's batched norm is pinned equal to it.
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


def _collapse(phi: np.ndarray, m: int) -> np.ndarray:
    """The normalized post-jump state from the amplitude phi = S^+_m psi."""
    norm = _norm(phi)
    if norm < JUMP_NORM_FLOOR:
        raise NumericalInconsistencyError(
            f"channel {CHANNEL_LABELS[m]} selected but ||S^+ psi|| = {norm:.3e}"
        )
    return phi / norm


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
    """Jump amplitudes (state, channel, d) of a stack of states and their squared norms.

    Each state's numbers are bitwise those of the per-state expressions
    ``plus_stack @ psi`` and ``einsum("md,md->m", ...)``: the amplitudes are
    a C-looped stack of per-state matrix-vector products (one matrix-matrix
    product over the stack would block its sums differently), and the
    squared norms sum over d in the order of the per-state einsum.
    """
    amps = np.matmul(plus_stack[None], states[:, None, :, None])[..., 0]
    return amps, np.einsum("kmd,kmd->km", amps.conj(), amps).real


def _jump_candidates(dp: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Rows of dp (rows, channels) that may fire against eps or fail ``_check_dp``.

    A row left out has a vectorized sum below eps and below 1 by more than
    the ``_SUM_SLACK`` that summation order can move it, and no entry at
    ``MAX_DP_PER_STEP``: it neither fires nor fails.
    """
    total = dp.sum(axis=1)
    return np.flatnonzero(
        ~(total <= eps * (1.0 - _SUM_SLACK))
        | (total >= 1.0 - _SUM_SLACK)
        | (dp.max(axis=1, initial=0.0) >= MAX_DP_PER_STEP)
    )


def _check_dp(dp: np.ndarray) -> None:
    if dp.max(initial=0.0) >= MAX_DP_PER_STEP:
        raise TimestepError(
            f"per-channel jump probability {dp.max():.3g} >= {MAX_DP_PER_STEP}; reduce dt"
        )
    if dp.sum() >= 1.0:
        raise TimestepError(f"total jump probability {dp.sum():.3g} >= 1; reduce dt")


def _fired(dp: np.ndarray, eps: np.ndarray) -> Iterator[int]:
    """Rows of dp (rows, channels) whose jump fires against eps, lowest first.

    Each candidate row is checked by ``_check_dp`` and decided by the
    per-step expressions when the iteration reaches it, so a row that fails
    the check raises only after every lower row that fires was handed out.
    A total equal to its threshold does not fire; a zero-probability row
    never does.
    """
    for c in _jump_candidates(dp, eps):
        _check_dp(dp[c])
        if dp[c].sum() > eps[c]:
            yield int(c)


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
    return bound if bound < MAX_DP_PER_STEP * (1.0 - _SUM_SLACK) else np.inf


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
    zero_noise: bool = False,
    store_states: bool = False,
) -> EnsembleResult:
    """Trajectories ``rows`` (traj_index values), advanced in lockstep.

    ``monitored`` lists the homodyned channels (positions in
    ``CHANNEL_LABELS``); the others are photodetected.  ``drift_mode`` is
    one of ``DRIFT_MODES``, and ``zero_noise`` sets every Wiener increment
    to 0 without drawing words; a run that draws no noise shares one state
    row among the trajectories that have not jumped.  Trajectory j of the
    result is ``rows[j]``; ``store_states`` fills its ``states``.
    """
    psi = _prepare(psi0, system)
    n_steps, rec_steps = step_grid(t_final, dt, record_every)
    n_rows, n_hom = len(rows), len(monitored)
    noisy = n_hom > 0 and not zero_noise
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
    # Without noise all start on one row and leave it at their first jump.
    where = np.arange(n_rows) if noisy else np.zeros(n_rows, dtype=int)
    members = [1] * n_rows if noisy else [n_rows]

    words_per_step = n_rows * ((n_hom if noisy else 0) + (1 if jump_idx else 0))
    block = max(1, min(_WORD_BLOCK, _WORD_BUDGET // max(words_per_step, 1)))
    every_row = np.arange(n_rows)
    step_noise = 0.0  # n_m dW_m, (rows, monitored) once noise is drawn
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
                    thresholds[b] = uniform_words(seed, row, PURPOSE_JUMP, k, count)
                exposed = thresholds < reach
                exposed_steps = exposed.any(axis=0).tolist()
            if noisy:
                drawn += n_hom * diffused
                diffused[:] = 0
                noise = np.empty((n_rows, count, n_hom))
                for b, row in enumerate(rows):
                    words = normal_words(seed, row, PURPOSE_NOISE, drawn[b], count * n_hom)
                    noise[b] = noise_scale * (sqrt_dt * words.reshape(count, n_hom))

        collapsed = []
        if exposed_steps[i]:
            live = np.flatnonzero(exposed[:, i])
            tested, row_of = np.unique(where[live], return_inverse=True)
            amps, sq = _chunk_amplitudes(states[tested], jump_stack)
            dp = (scale * sq)[row_of]
            for c in _fired(dp, thresholds[live, i]):
                b = int(live[c])
                eps_prime = uniform_words(seed, rows[b], PURPOSE_CHANNEL, n_jumps[b], 1)
                j = _select_channel(dp[c], eps_prime[0])
                m = jump_idx[j]
                collapsed.append((b, _collapse(amps[row_of[c], j], m)))
                dp_all = np.zeros(len(CHANNEL_LABELS))
                dp_all[jump_idx] = dp[c]
                jumps.append((b, (k + 1) * dt, m, dp_all))
                n_jumps[b] += 1

        phi = np.matmul(propagator, states[:, :, None])[..., 0]
        if n_hom:
            if noisy:
                step_noise = noise[every_row, diffused]
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
            if noisy:
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
        expectations=series,
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
    """Pointwise mean and standard error over the trajectories of an ensemble."""
    if result.expectations.shape[2:] != result.time_grid.shape:
        raise DimensionMismatchError("series and time grid differ in length")
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
