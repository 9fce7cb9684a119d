"""Diffusive (quantum-state-diffusion) unravelling, full and mixed.

Under continuous homodyne monitoring the state diffuses instead of
jumping.  Each step applies the exact one-step propagator of the
non-Hermitian matrix (shared with the jump engine), then adds the
measurement back-action of the monitored channels,

    dpsi += -(1/2) [ c_m dt + n_m dW_m ] S+_m psi ,

and renormalizes.  The drift and noise coefficients (c_m, n_m) come in
three conventions selected by ``drift_mode``:

- "as-printed": c_m = gamma_m^2 <S-_m - S+_m>, n_m = gamma_m.
  The quadratic rate in the drift is unusual (a linear rate with a
  sqrt-rate noise quadrature is the textbook normalization); it is kept
  as printed for comparison.  At the rates used here both terms are
  small corrections to the non-Hermitian damping either way.
- "linear-rate": c_m = gamma_m <S-_m - S+_m>, n_m = sqrt(gamma_m).
  Same structure with the textbook rate powers.
- "qsd" (default): standard homodyne unravelling of the master equation,
  dpsi += [ gamma_m <X_m> dt + sqrt(gamma_m) dW_m ] S+_m psi with
  X_m = S-_m + S+_m; averaging 2000+ of these trajectories reproduces
  the master-equation evolution.

In mixed mode a subset of channels stays photodetected: those follow
the jump-engine step rule (threshold draw each step, collapse on a hit)
and a jump replaces the diffusive move for that step.  Wiener words are
consumed only on diffusive steps, one per monitored channel.  The words are
read by index, a block of ``_WORD_BLOCK`` steps at a time: that block's
threshold words, and enough noise words for every step of it to be
diffusive, starting at the number of noise words consumed so far.  Words a
jump leaves unread are read again by the next block, so memory does not grow
with the length of the run.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .dressed import JumpChannel
from .errors import ConfigError
from .mcwf import (
    JumpEvent,
    TrajectoryRecord,
    _check_dp,
    _collapse,
    _jump_probabilities,
    _norm,
    _prepare,
    _select_channel,
)
from .model import SystemParams
from .rng import PURPOSE_CHANNEL, PURPOSE_JUMP, PURPOSE_NOISE, normal_words, uniform_words
from .system import OBSERVABLE_LABELS, DissipativeSystem

DRIFT_MODES = ("as-printed", "linear-rate", "qsd")

# Diffusive runs need a finer step than the jump engine: noise enters at
# O(sqrt(dt)), so weak-convergence error is controlled by dt itself.
DEFAULT_DT = 0.1

# Steps whose random words are drawn in one call per stream.
_WORD_BLOCK = 4096


def _diffusive_increment(
    psi: np.ndarray,
    dt: float,
    channels: list[JumpChannel],
    dw: np.ndarray,
    drift_mode: str,
) -> np.ndarray:
    """Sum over monitored channels of the back-action term added to psi."""
    out = np.zeros_like(psi)
    for c, w in zip(channels, dw):
        amp = c.operator_plus.matrix @ psi
        z = np.vdot(psi, amp)  # <S+>
        if drift_mode == "qsd":
            x = 2.0 * z.real  # <S- + S+>
            out += (c.rate * x * dt + np.sqrt(c.rate) * w) * amp
        else:
            minus_minus_plus = np.conj(z) - z  # <S- - S+>, purely imaginary
            if drift_mode == "as-printed":
                drift, noise = c.rate**2 * minus_minus_plus, c.rate
            else:
                drift, noise = c.rate * minus_minus_plus, np.sqrt(c.rate)
            out += -0.5 * (drift * dt + noise * w) * amp
    return out


def run_trajectory_homodyne(
    p: SystemParams,
    psi0: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
    seed: int = 0,
    hamiltonian: str = "full",
    traj_index: int = 0,
    record_every: int = 1,
    homodyne_channels: tuple[str, ...] | None = None,
    drift_mode: str = "qsd",
    store_states: bool = False,
    zero_noise: bool = False,
    system: DissipativeSystem | None = None,
) -> TrajectoryRecord:
    """Run one diffusive trajectory; deterministic in (params, psi0, dt, seed, traj_index).

    ``homodyne_channels`` names the monitored channels; None monitors all
    of them (full homodyne, no jumps possible).  The remaining channels
    stay photodetected, as in a cavity-homodyne / qubit-photodetection
    mixed measurement.  ``zero_noise`` sets every Wiener increment to 0
    without drawing words (drift-only runs).
    """
    if drift_mode not in DRIFT_MODES:
        raise ConfigError(f"drift_mode must be one of {DRIFT_MODES}")
    psi, system = _prepare(p, psi0, hamiltonian, system)
    labels = [c.label for c in system.channels]
    if homodyne_channels is None:
        homodyne_channels = tuple(labels)
    unknown = set(homodyne_channels) - set(labels)
    if unknown:
        raise ConfigError(f"unknown homodyne channels {sorted(unknown)}")
    hom = [c for c in system.channels if c.label in homodyne_channels]
    jump_idx = [i for i, label in enumerate(labels) if label not in homodyne_channels]
    jump_stack, jump_rates = system.plus_stack[jump_idx], system.rates[jump_idx]

    propagator = expm(-1j * system.h_nh * dt)

    n_steps = int(round(t_final / dt))
    rec_steps = np.arange(0, n_steps + 1, record_every)
    time_grid = rec_steps * dt
    series = np.empty((3, rec_steps.size))
    snapshots = np.empty((rec_steps.size, psi.size), dtype=complex) if store_states else None
    jumps: list[JumpEvent] = []

    rec_i = 0
    drawn = used = 0  # noise words before the current block, and read in it
    for k in range(n_steps + 1):
        if rec_i < rec_steps.size and k == rec_steps[rec_i]:
            amps3 = system.plus_stack[:3] @ psi
            series[:, rec_i] = np.einsum("md,md->m", amps3.conj(), amps3).real
            if snapshots is not None:
                snapshots[rec_i] = psi
            rec_i += 1
        if k == n_steps:
            break
        i = k % _WORD_BLOCK
        if i == 0:
            count = min(_WORD_BLOCK, n_steps - k)
            if jump_idx:
                thresholds = uniform_words(seed, traj_index, PURPOSE_JUMP, k, count)
            if not zero_noise:
                drawn, used = drawn + used, 0
                noise = normal_words(seed, traj_index, PURPOSE_NOISE, drawn, count * len(hom))
        if jump_idx:
            dp, amps = _jump_probabilities(psi, dt, jump_stack, jump_rates)
            _check_dp(dp)
            if dp.sum() > thresholds[i]:
                eps_prime = uniform_words(seed, traj_index, PURPOSE_CHANNEL, len(jumps), 1)[0]
                m = _select_channel(dp, eps_prime)
                label = labels[jump_idx[m]]
                psi = _collapse(amps, m, label)
                jumps.append(
                    JumpEvent(time=(k + 1) * dt, channel=label, pre_jump_norm_probabilities=dp)
                )
                continue
        phi = propagator @ psi
        dw = np.zeros(len(hom)) if zero_noise else np.sqrt(dt) * noise[used : used + len(hom)]
        used += len(hom)
        phi = phi + _diffusive_increment(phi, dt, hom, dw, drift_mode)
        psi = phi / _norm(phi)

    return TrajectoryRecord(
        params=p,
        seed=seed,
        traj_index=traj_index,
        time_grid=time_grid,
        expectations=dict(zip(OBSERVABLE_LABELS, series)),
        jumps=jumps,
        final_state=psi,
        states=snapshots,
    )
