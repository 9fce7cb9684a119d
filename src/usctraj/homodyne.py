"""Diffusive (quantum-state-diffusion) unravelling, full and mixed.

Under continuous homodyne monitoring the state diffuses instead of
jumping.  Each step applies the exact one-step propagator of the
non-Hermitian matrix (shared with the jump engine), then adds the
measurement back-action of the monitored channels,

    dpsi += -(1/2) [ c_m dt + n_m dW_m ] S+_m psi ,

and renormalizes.  The drift and noise coefficients (c_m, n_m) come in
two conventions selected by ``drift_mode``:

- "as-printed": c_m = gamma_m^2 <S-_m - S+_m>, n_m = gamma_m.
  The quadratic rate in the drift is unusual (a linear rate with a
  sqrt-rate noise quadrature is the textbook normalization); it is kept
  as printed for comparison.  At the rates used here both terms are
  small corrections to the non-Hermitian damping either way.
- "qsd" (default): standard homodyne unravelling of the master equation,
  dpsi += [ gamma_m <X_m> dt + sqrt(gamma_m) dW_m ] S+_m psi with
  X_m = S-_m + S+_m; averaging 2000+ of these trajectories reproduces
  the master-equation evolution.

In mixed mode a subset of channels stays photodetected: those follow the
jump-engine step rule (threshold draw each step, collapse on a hit) and a
jump replaces the diffusive move for that step.  A jump records the
probabilities of all four channels, 0 on the homodyned ones.  Channels are
positions in ``CHANNEL_LABELS``.

One kernel, ``_run_rows``, advances the B trajectories of an ensemble in
lockstep as the rows of a (B, d) state: ``run_homodyne_ensemble`` runs rows
0..N-1 and ``run_trajectory_homodyne`` is its one-row case.  Every batched
operation gives each row the bits of that row run alone (they are pinned in
``tests/test_batched_reductions.py``): the propagator, the stacked (B, m, d)
channel amplitudes and their inner products are C-looped matrix-vector and
vector-vector products, the back-action is summed into a zero array channel
by channel, the norm reads the strided real and imaginary views, and the
top-Fock population of every row is read at every step.

The jump rule computes amplitudes only where a jump is possible.  The jump
probabilities of a normalized state have an a priori bound
(``_jump_reach``), so a row whose threshold word lies above it can neither
fire nor fail the dp guard at that step; the bound is small at physical
rates, and most steps evaluate no row.  Among the rows left, vectorized row
sums preselect candidates (``mcwf._jump_candidates``), and each candidate
is decided, collapsed and logged by the per-state expressions.

Each row reads its own words by index (``rng``).  Threshold word k belongs
to step k and channel word q to the row's q-th jump.  Wiener words are
consumed only on diffusive steps, one per monitored channel, so a row that
jumped keeps a lower noise offset than its neighbours.  The words are read
a block of steps at a time: ``_WORD_BLOCK`` steps, fewer when the rows
together would hold more than ``_WORD_BUDGET`` words.  A block holds each
row's threshold words and enough noise words for every step of it to be
diffusive, from the row's own offset on; words a jump leaves unread are read
again by the next block, so memory grows neither with the run nor beyond the
budget with the ensemble.

A ``TimestepError`` or ``NumericalInconsistencyError`` of the batch is the
one of the earliest step at which any row raises, the lowest row at that
step; its message is the one that row raises when run alone.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .dressed import CHANNEL_LABELS
from .errors import ConfigError
from .mcwf import (
    _SUM_SLACK,
    MAX_DP_PER_STEP,
    EnsembleResult,
    JumpEvent,
    TrajectoryRecord,
    _check_dp,
    _chunk_amplitudes,
    _collapse,
    _jump_candidates,
    _prepare,
    _select_channel,
    collect,
)
from .rng import PURPOSE_CHANNEL, PURPOSE_JUMP, PURPOSE_NOISE, normal_words, uniform_words
from .system import OBSERVABLE_LABELS, TOP_FOCK, DissipativeSystem, step_grid

DRIFT_MODES = ("as-printed", "qsd")

# Diffusive runs need a finer step than the jump engine: noise enters at
# O(sqrt(dt)), so weak-convergence error is controlled by dt itself.
DEFAULT_DT = 0.1

# Steps whose random words are drawn in one call per row and stream.
_WORD_BLOCK = 4096
# Most words one block holds for all rows together (8 MB of doubles).  An
# uncapped block of 2000 rows with 4 monitored channels over 3000 steps
# would hold 192 MB of noise words.
_WORD_BUDGET = 1 << 20
# Relative slack of the a priori jump-probability bound (``_jump_reach``): it
# covers the rounding of ||S+ psi||^2, of dp and of their sum, and the
# few-ulp distance of a renormalized state's norm from 1.
_BOUND_SLACK = 1e-6


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


def _run_rows(
    system: DissipativeSystem,
    psi0: np.ndarray,
    t_final: float,
    dt: float,
    seed: int,
    rows: list[int],
    record_every: int,
    homodyne_channels: tuple[str, ...] | None,
    drift_mode: str,
    store_states: bool,
    zero_noise: bool,
) -> list[TrajectoryRecord]:
    """The records of trajectories ``rows`` (traj_index values), advanced in lockstep."""
    if drift_mode not in DRIFT_MODES:
        raise ConfigError(f"drift_mode must be one of {DRIFT_MODES}")
    psi = _prepare(psi0, system)
    if homodyne_channels is None:
        homodyne_channels = CHANNEL_LABELS
    unknown = set(homodyne_channels) - set(CHANNEL_LABELS)
    if unknown:
        raise ConfigError(f"unknown homodyne channels {sorted(unknown)}")
    hom = [m for m, label in enumerate(CHANNEL_LABELS) if label in homodyne_channels]
    jump_idx = [m for m, label in enumerate(CHANNEL_LABELS) if label not in homodyne_channels]
    hom_stack, hom_rates = system.plus_stack[hom][None], system.rates[hom]
    jump_stack, scale = system.plus_stack[jump_idx], dt * system.rates[jump_idx]
    obs_stack = system.plus_stack[: len(OBSERVABLE_LABELS)]
    reach = _jump_reach(jump_stack, scale, psi)
    propagator = expm(-1j * system.h_nh * dt)[None]
    if drift_mode == "qsd":
        noise_scale = np.sqrt(hom_rates)
    else:
        noise_scale, rates_sq = hom_rates, np.array([float(r) ** 2 for r in hom_rates])

    n_rows, n_hom = len(rows), len(hom)
    n_steps, rec_steps = step_grid(t_final, dt, record_every)
    series = np.empty((len(OBSERVABLE_LABELS), n_rows, rec_steps.size))
    snapshots = (
        np.empty((n_rows, rec_steps.size, psi.size), dtype=complex) if store_states else None
    )
    jumps: list[list[JumpEvent]] = [[] for _ in rows]

    words_per_step = n_rows * ((0 if zero_noise else n_hom) + (1 if jump_idx else 0))
    block = max(1, min(_WORD_BLOCK, _WORD_BUDGET // max(words_per_step, 1)))
    every_row = np.arange(n_rows)
    step_noise = np.zeros((n_rows, n_hom))  # n_m dW_m; stays 0 in zero_noise runs
    sqrt_dt = np.sqrt(dt)
    drawn = np.zeros(n_rows, dtype=int)  # each row's noise words before the block
    diffused = np.zeros(n_rows, dtype=int)  # and its diffusive steps in the block

    states = np.repeat(psi[None], n_rows, axis=0)
    peaks = np.zeros(n_rows)
    rec_i = 0
    for k in range(n_steps + 1):
        tail = states[:, TOP_FOCK]
        np.fmax(peaks, np.vecdot(tail, tail).real, out=peaks)
        if rec_i < rec_steps.size and k == rec_steps[rec_i]:
            series[:, :, rec_i] = _chunk_amplitudes(states, obs_stack)[1].T
            if snapshots is not None:
                snapshots[:, rec_i] = states
            rec_i += 1
        if k == n_steps:
            break
        i = k % block
        if i == 0:
            count = min(block, n_steps - k)
            if jump_idx:
                thresholds = np.empty((n_rows, count))
                for b, row in enumerate(rows):
                    thresholds[b] = uniform_words(seed, row, PURPOSE_JUMP, k, count)
                exposed = thresholds < reach
                exposed_steps = exposed.any(axis=0).tolist()
            if not zero_noise:
                drawn += n_hom * diffused
                diffused[:] = 0
                noise = np.empty((n_rows, count, n_hom))
                for b, row in enumerate(rows):
                    words = normal_words(seed, row, PURPOSE_NOISE, drawn[b], count * n_hom)
                    noise[b] = noise_scale * (sqrt_dt * words.reshape(count, n_hom))

        collapsed = {}
        if jump_idx and exposed_steps[i]:
            live = np.flatnonzero(exposed[:, i])
            amps, sq = _chunk_amplitudes(states[live], jump_stack)
            dp = scale * sq
            for c in _jump_candidates(dp, thresholds[live, i]):
                _check_dp(dp[c])
                b = live[c]
                if dp[c].sum() > thresholds[b, i]:
                    eps_prime = uniform_words(seed, rows[b], PURPOSE_CHANNEL, len(jumps[b]), 1)
                    j = _select_channel(dp[c], eps_prime[0])
                    m = jump_idx[j]
                    collapsed[b] = _collapse(amps[c, j], m)
                    dp_all = np.zeros(len(CHANNEL_LABELS))
                    dp_all[jump_idx] = dp[c]
                    jumps[b].append(JumpEvent((k + 1) * dt, m, dp_all))

        phi = np.matmul(propagator, states[:, :, None])[..., 0]
        if not zero_noise:
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
        norms = np.sqrt(np.vecdot(phi.real, phi.real) + np.vecdot(phi.imag, phi.imag))
        states = phi / norms[:, None]
        for b, post_jump in collapsed.items():
            states[b] = post_jump
            diffused[b] -= 1

    return [
        TrajectoryRecord(
            time_grid=rec_steps * dt,
            expectations=dict(zip(OBSERVABLE_LABELS, series[:, b])),
            jumps=row_jumps,
            final_state=states[b],
            top_fock_peak=float(peaks[b]),
            states=None if snapshots is None else snapshots[b],
        )
        for b, row_jumps in enumerate(jumps)
    ]


def run_trajectory_homodyne(
    system: DissipativeSystem,
    psi0: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
    seed: int = 0,
    traj_index: int = 0,
    record_every: int = 1,
    homodyne_channels: tuple[str, ...] | None = None,
    drift_mode: str = "qsd",
    store_states: bool = False,
    zero_noise: bool = False,
) -> TrajectoryRecord:
    """Run one diffusive trajectory; deterministic in (system, psi0, dt, seed, traj_index).

    ``homodyne_channels`` names the monitored channels; None monitors all
    of them (full homodyne, no jumps possible).  The remaining channels
    stay photodetected, as in a cavity-homodyne / qubit-photodetection
    mixed measurement.  ``zero_noise`` sets every Wiener increment to 0
    without drawing words (drift-only runs).
    """
    return _run_rows(
        system, psi0, t_final, dt, seed, [traj_index], record_every,
        homodyne_channels, drift_mode, store_states, zero_noise,
    )[0]


def run_homodyne_ensemble(
    system: DissipativeSystem,
    psi0: np.ndarray,
    t_final: float,
    n_trajectories: int,
    dt: float = DEFAULT_DT,
    master_seed: int = 0,
    record_every: int = 1,
    homodyne_channels: tuple[str, ...] | None = None,
    drift_mode: str = "qsd",
    zero_noise: bool = False,
) -> EnsembleResult:
    """Trajectories 0..n_trajectories-1 of the seeded family, advanced together.

    Row j is bitwise ``run_trajectory_homodyne(..., seed=master_seed,
    traj_index=j)``; the arguments mean what they mean there.
    """
    if n_trajectories < 1:
        raise ConfigError("n_trajectories must be >= 1")
    records = _run_rows(
        system, psi0, t_final, dt, master_seed, list(range(n_trajectories)),
        record_every, homodyne_channels, drift_mode, False, zero_noise,
    )
    n_steps, _ = step_grid(t_final, dt, record_every)
    return collect(records, n_trajectories, n_steps * dt)
