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

The step rule lives in ``mcwf._run_rows``, the one kernel for every
ungrouped trajectory; a monitored channel adds the back-action above to its
step.  ``run_homodyne_ensemble`` runs its rows 0..N-1 and
``run_trajectory_homodyne`` is its one-row case.  A run that draws no noise
(``zero_noise``) shares one state row among the trajectories that have not
jumped, as a photodetection run does.
"""

from __future__ import annotations

import numpy as np

from .dressed import CHANNEL_LABELS
from .errors import ConfigError
from .mcwf import EnsembleResult, _run_rows
from .system import DissipativeSystem

DRIFT_MODES = ("as-printed", "qsd")

# Diffusive runs need a finer step than the jump engine: noise enters at
# O(sqrt(dt)), so weak-convergence error is controlled by dt itself.
DEFAULT_DT = 0.1


def _monitored(homodyne_channels: tuple[str, ...] | None, drift_mode: str) -> tuple[int, ...]:
    """Positions in ``CHANNEL_LABELS`` of the homodyned channels; None is all."""
    if drift_mode not in DRIFT_MODES:
        raise ConfigError(f"drift_mode must be one of {DRIFT_MODES}")
    if homodyne_channels is None:
        homodyne_channels = CHANNEL_LABELS
    unknown = set(homodyne_channels) - set(CHANNEL_LABELS)
    if unknown:
        raise ConfigError(f"unknown homodyne channels {sorted(unknown)}")
    return tuple(m for m, label in enumerate(CHANNEL_LABELS) if label in homodyne_channels)


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
) -> EnsembleResult:
    """Run one diffusive trajectory; deterministic in (system, psi0, dt, seed, traj_index).

    ``homodyne_channels`` names the monitored channels; None monitors all
    of them (full homodyne, no jumps possible).  The remaining channels
    stay photodetected, as in a cavity-homodyne / qubit-photodetection
    mixed measurement.  ``zero_noise`` sets every Wiener increment to 0
    without drawing words (drift-only runs).  Returns the one-row result;
    ``store_states`` fills its ``states``.
    """
    return _run_rows(
        system, psi0, t_final, dt, seed, [traj_index], record_every,
        _monitored(homodyne_channels, drift_mode), drift_mode, zero_noise, store_states,
    )


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
    return _run_rows(
        system, psi0, t_final, dt, master_seed, range(n_trajectories), record_every,
        _monitored(homodyne_channels, drift_mode), drift_mode, zero_noise,
    )
