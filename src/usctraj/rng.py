"""Counter-based random streams with per-trajectory, per-purpose keys.

Reproducibility contract: trajectory ``i`` of a run with a given master seed
consumes the same random words no matter how the ensemble is scheduled
(sequentially, batched, or resumed).  Philox provides this for free: the
stream is a pure function of (key, counter), and we key each (trajectory,
purpose) pair separately so the jump-threshold draws, the channel-selection
draws, and the diffusive-noise draws never interleave.  The key is the two
uint64 words (master_seed, traj_index << 2 | purpose), so master seeds lie
below 2**64 and trajectory indices below 2**62.

Purposes: 0 jump thresholds (word k belongs to time step k), 1 channel
selection (word q belongs to the q-th jump), 2 diffusive noise (one normal
per monitored channel per diffusive step, in order).  Word ``k`` of a stream
is fixed forever, and ``RawWords`` is its one reader: every engine asks for
a window of raw 64-bit words by its index, so no reader keeps a position
that could drift from the step it belongs to.

A word w is the uniform u = (w >> 11) 2**-53 (``raw_uniforms``, the bits of
numpy's ``Generator.random`` on the same stream), and the standard normal
of that uniform (``raw_normals``).  Scans that only compare uniforms with
probabilities compare the words themselves with ``raw_thresholds`` as
integers (the grouped ensemble's threshold scan).
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

PURPOSE_JUMP = 0
PURPOSE_CHANNEL = 1
PURPOSE_NOISE = 2

# Master seeds and trajectory indices below these fit the uint64 key words.
SEED_LIMIT = 2**64
TRAJ_LIMIT = 2**62

_WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter tick


# The largest uniform below 1; total probabilities at or above 1 saturate here.
_TOP_UNIFORM = 1.0 - 2.0**-53


def _check_ids(master_seed: int, traj_index: int) -> None:
    if traj_index < 0 or master_seed < 0:
        raise ValueError("master_seed and traj_index must be non-negative")
    if master_seed >= SEED_LIMIT or traj_index >= TRAJ_LIMIT:
        raise ValueError("master_seed must be below 2**64 and traj_index below 2**62")


class RawWords:
    """The reader of raw uint64 words from any stream, by index.

    Called with (master_seed, traj_index, purpose, start, count), it returns
    the words [start, start + count) of that stream.  It re-keys the reader's
    one Philox through its state dict, several times cheaper than building
    a Generator per window.  A reader holds that Philox, so create one per
    caller (each ensemble run makes one) rather than share it across threads.
    """

    def __init__(self):
        self._bg = Philox(key=[0, 0])
        self._state = self._bg.state

    def __call__(
        self, master_seed: int, traj_index: int, purpose: int, start: int, count: int
    ) -> np.ndarray:
        _check_ids(master_seed, traj_index)
        # Philox increments the counter before it draws a block, so words
        # 4 block .. 4 block + 3 come from counter block + 1.
        block, offset = divmod(start, _WORDS_PER_BLOCK)
        self._state["state"]["key"][:] = (master_seed, (traj_index << 2) | purpose)
        self._state["state"]["counter"][:] = (block, 0, 0, 0)
        self._state["buffer_pos"] = _WORDS_PER_BLOCK
        self._bg.state = self._state
        return self._bg.random_raw(offset + count)[offset:]


def raw_uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms u = (w >> 11) 2**-53 in [0, 1) of raw words.

    Both factors are exact in a double (w >> 11 < 2**53), so is their product.
    """
    return (words >> np.uint64(11)) * 2.0**-53


def raw_normals(words: np.ndarray) -> np.ndarray:
    """Raw words mapped to standard normals through the inverse CDF of their uniforms.

    One word maps to one normal, preserving random access.  u = 0 (possible,
    the uniforms live in [0, 1)) is nudged to the smallest positive double
    to keep the quantile finite.
    """
    # imported here: only diffusive noise needs it, and photodetection runs
    # would otherwise pay for loading scipy.special
    from scipy.special import ndtri

    return ndtri(np.maximum(raw_uniforms(words), np.finfo(float).tiny))


def raw_thresholds(p: np.ndarray) -> np.ndarray:
    """uint64 thresholds t with (w < t) == (p > u) for every raw word w, u its uniform.

    u = n 2**-53 with n = w >> 11, so p > u exactly when n < ceil(p 2**53),
    that is w < ceil(p 2**53) << 11; the scaling by 2**53 is exact, subnormal
    p included.  p that is not positive (nan too) never fires (t = 0).  p >= 1
    saturates at the threshold of the largest uniform below 1, so it fires on
    every word except those with u = 1 - 2**-53: callers treat a total
    probability of 1 as a guard violation and never read that decision.
    """
    p = np.where(p > 0.0, np.minimum(p, _TOP_UNIFORM), 0.0)
    return np.ceil(p * 2.0**53).astype(np.uint64) << np.uint64(11)
