"""Counter-based random streams with per-trajectory, per-purpose keys.

Reproducibility contract: trajectory ``i`` of a run with a given master seed
consumes the same random words no matter how the ensemble is scheduled
(sequentially, batched, or resumed).  Philox provides this for free: the
stream is a pure function of (key, counter), and we key each (trajectory,
purpose) pair separately so the jump-threshold draws, the channel-selection
draws, and the diffusive-noise draws never interleave.

Purposes: 0 jump thresholds (word k belongs to time step k), 1 channel
selection (word q belongs to the q-th jump), 2 diffusive noise (one normal
per monitored channel per diffusive step, in order).  Word ``k`` of a stream
is fixed forever, and ``uniform_words``/``normal_words`` are the only
readers: every engine asks for a window of words by its index, so no reader
keeps a position that could drift from the step it belongs to.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

PURPOSE_JUMP = 0
PURPOSE_CHANNEL = 1
PURPOSE_NOISE = 2

_WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter tick


def _generator_at(master_seed: int, traj_index: int, purpose: int, block: int) -> Generator:
    if traj_index < 0 or master_seed < 0:
        raise ValueError("master_seed and traj_index must be non-negative")
    # Philox increments the counter before it draws a block, so words
    # 4 block .. 4 block + 3 come from counter block + 1.
    bg = Philox(key=[master_seed, (traj_index << 2) | purpose], counter=[block, 0, 0, 0])
    return Generator(bg)


def uniform_words(
    master_seed: int, traj_index: int, purpose: int, start: int, count: int
) -> np.ndarray:
    """Words [start, start + count) of a stream as uniforms in [0, 1)."""
    if count == 0:
        return np.empty(0)
    block, offset = divmod(start, _WORDS_PER_BLOCK)
    gen = _generator_at(master_seed, traj_index, purpose, block)
    return gen.random(offset + count)[offset:]


def normal_words(
    master_seed: int, traj_index: int, purpose: int, start: int, count: int
) -> np.ndarray:
    """Words [start, start + count) mapped to standard normals.

    One uniform word maps to one normal through the inverse CDF, preserving
    random access.  u = 0 (possible, the uniforms live in [0, 1)) is nudged
    to the smallest positive double to keep the quantile finite.
    """
    u = uniform_words(master_seed, traj_index, purpose, start, count)
    np.maximum(u, np.finfo(float).tiny, out=u)
    return ndtri(u)
