"""Diffusive (quantum-state-diffusion) unravelling, full and mixed.

Under continuous homodyne monitoring the state diffuses instead of
jumping.  Each step applies the exact one-step propagator of the
non-Hermitian matrix (shared with the jump engine), then adds the
measurement back-action of the monitored channels,

    dpsi += -(1/2) [ c_m dt + n_m dW_m ] S+_m psi ,

and renormalizes.  The drift and noise coefficients (c_m, n_m) come in
three conventions selected by ``drift_mode``:

- "as-printed" (default): c_m = gamma_m^2 <S-_m - S+_m>, n_m = gamma_m.
  The quadratic rate in the drift is unusual (a linear rate with a
  sqrt-rate noise quadrature is the textbook normalization) but it is
  kept verbatim as the default; at the rates used here both terms are
  small corrections to the non-Hermitian damping either way.
- "linear-rate": c_m = gamma_m <S-_m - S+_m>, n_m = sqrt(gamma_m).
  Same structure with the textbook rate powers.
- "qsd": standard homodyne unravelling of the master equation,
  dpsi += [ gamma_m <X_m> dt + sqrt(gamma_m) dW_m ] S+_m psi with
  X_m = S-_m + S+_m; averaging 2000+ of these trajectories reproduces
  the master-equation evolution.

In mixed mode a subset of channels stays photodetected: those follow
the jump-engine step rule (threshold draw each step, collapse on a hit)
and a jump replaces the diffusive move for that step.  Wiener words are
consumed only on diffusive steps, one per monitored channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .dressed import JumpChannel
from .errors import ConfigError, DimensionMismatchError, NumericalInconsistencyError
from .hilbert import OperatorMatrix
from .mcwf import (
    JUMP_NORM_FLOOR,
    JumpEvent,
    JumpStreams,
    TrajectoryRecord,
    _check_dp,
    _jump_probabilities,
    _norm,
    _select_channel,
)
from .model import SystemParams
from .rng import PURPOSE_NOISE, StreamCursor
from .system import OBSERVABLE_LABELS, DissipativeSystem, build_system

DRIFT_MODES = ("as-printed", "linear-rate", "qsd")

# Diffusive runs need a finer step than the jump engine: noise enters at
# O(sqrt(dt)), so weak-convergence error is controlled by dt itself.
DEFAULT_DT = 0.1


@dataclass
class NoiseStream:
    """Per-trajectory Wiener increments, one word per monitored channel per step.

    Increments have zero mean and variance dt.  ``zeroed`` replaces every
    increment with 0 without consuming words (drift-only runs).
    """

    cursor: StreamCursor
    dt: float
    zeroed: bool = False

    @classmethod
    def for_trajectory(
        cls, master_seed: int, traj_index: int, dt: float, zeroed: bool = False
    ) -> "NoiseStream":
        cursor = StreamCursor(master_seed, traj_index, PURPOSE_NOISE, normal=True)
        return cls(cursor=cursor, dt=dt, zeroed=zeroed)

    def increments(self, n_channels: int) -> np.ndarray:
        if self.zeroed:
            return np.zeros(n_channels)
        return np.sqrt(self.dt) * self.cursor.take(n_channels)


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


def homodyne_step(
    psi: np.ndarray,
    dt: float,
    channels_homodyne: list[JumpChannel],
    channels_jump: list[JumpChannel],
    h_nh: OperatorMatrix | np.ndarray,
    noise: NoiseStream,
    rng: JumpStreams | None = None,
    propagator: np.ndarray | None = None,
    drift_mode: str = "as-printed",
    time: float = 0.0,
) -> tuple[np.ndarray, JumpEvent | None]:
    """Advance one step of the mixed diffusive/photodetected evolution.

    Photodetected channels are tested first with the jump-engine rule; a
    hit collapses the state and consumes no Wiener words.  Otherwise the
    state is propagated exactly under the non-Hermitian matrix (or by a
    first-order Euler move when ``propagator`` is None), the monitored
    channels add their drift and noise, and the result is renormalized.
    """
    if drift_mode not in DRIFT_MODES:
        raise ConfigError(f"drift_mode must be one of {DRIFT_MODES}")
    h = h_nh.matrix if isinstance(h_nh, OperatorMatrix) else h_nh
    if channels_jump:
        if rng is None:
            raise ConfigError("photodetected channels need threshold/channel streams")
        plus_stack = np.stack([c.operator_plus.matrix for c in channels_jump])
        rates = np.array([c.rate for c in channels_jump])
        dp, amps = _jump_probabilities(psi, dt, plus_stack, rates)
        _check_dp(dp)
        eps = rng.threshold.take_one()
        if dp.sum() > eps:
            m = _select_channel(dp, rng.channel.take_one())
            phi = amps[m]
            norm = _norm(phi)
            if norm < JUMP_NORM_FLOOR:
                raise NumericalInconsistencyError(
                    f"channel {channels_jump[m].label} selected "
                    f"but ||S^+ psi|| = {norm:.3e}"
                )
            event = JumpEvent(
                time=time, channel=channels_jump[m].label,
                pre_jump_norm_probabilities=dp,
            )
            return phi / norm, event
    phi = propagator @ psi if propagator is not None else psi - 1j * dt * (h @ psi)
    dw = noise.increments(len(channels_homodyne))
    phi = phi + _diffusive_increment(phi, dt, channels_homodyne, dw, drift_mode)
    return phi / _norm(phi), None


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
    drift_mode: str = "as-printed",
    store_states: bool = False,
    zero_noise: bool = False,
    system: DissipativeSystem | None = None,
) -> TrajectoryRecord:
    """Run one diffusive trajectory; deterministic in (params, psi0, dt, seed, traj_index).

    ``homodyne_channels`` names the monitored channels; None monitors all
    of them (full homodyne, no jumps possible).  The remaining channels
    stay photodetected, as in a cavity-homodyne / qubit-photodetection
    mixed measurement.
    """
    if drift_mode not in DRIFT_MODES:
        raise ConfigError(f"drift_mode must be one of {DRIFT_MODES}")
    psi = np.asarray(psi0, dtype=complex)
    if system is None:
        if psi.size % 4 != 0:
            raise DimensionMismatchError(f"state length {psi.size} is not 4 * n_fock")
        system = build_system(p, n_fock=psi.size // 4, hamiltonian=hamiltonian)
    if psi.shape != (system.dimension,):
        raise DimensionMismatchError(
            f"state shape {psi.shape} does not match system dimension {system.dimension}"
        )
    labels = [c.label for c in system.channels]
    if homodyne_channels is None:
        homodyne_channels = tuple(labels)
    unknown = set(homodyne_channels) - set(labels)
    if unknown:
        raise ConfigError(f"unknown homodyne channels {sorted(unknown)}")
    hom = [c for c in system.channels if c.label in homodyne_channels]
    jump = [c for c in system.channels if c.label not in homodyne_channels]

    propagator = expm(-1j * system.h_nh * dt)
    streams = JumpStreams.for_trajectory(seed, traj_index) if jump else None
    noise = NoiseStream.for_trajectory(seed, traj_index, dt, zeroed=zero_noise)
    plus_stack = system.plus_stack

    n_steps = int(round(t_final / dt))
    rec_steps = np.arange(0, n_steps + 1, record_every)
    time_grid = rec_steps * dt
    series = np.empty((3, rec_steps.size))
    snapshots = np.empty((rec_steps.size, psi.size), dtype=complex) if store_states else None
    jumps: list[JumpEvent] = []

    rec_i = 0
    for k in range(n_steps + 1):
        if rec_i < rec_steps.size and k == rec_steps[rec_i]:
            amps3 = plus_stack[:3] @ psi
            series[:, rec_i] = np.einsum("md,md->m", amps3.conj(), amps3).real
            if snapshots is not None:
                snapshots[rec_i] = psi
            rec_i += 1
        if k == n_steps:
            break
        psi, event = homodyne_step(
            psi, dt, hom, jump, system.h_nh, noise, streams,
            propagator=propagator, drift_mode=drift_mode, time=(k + 1) * dt,
        )
        if event is not None:
            jumps.append(event)

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
