"""Counter-based random streams with per-trajectory, per-purpose keys.

Reproducibility contract: trajectory ``i`` of a run with a given master seed
consumes the same random words no matter how the ensemble is scheduled
(sequentially, batched, or resumed).  Philox provides this for free: the
stream is a pure function of (key, counter), and we key each (trajectory,
purpose) pair separately so the jump-threshold draws, the channel-selection
draws, and the diffusive-noise draws never interleave.

Purposes: 0 jump thresholds (one uniform per time step), 1 channel selection
(one uniform per jump), 2 diffusive noise (one normal per homodyne channel
per step).  Word ``k`` of a stream is fixed forever, so a vectorized driver
may read any window of any trajectory's stream at random access.
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


class StreamCursor:
    """Sequential reader over one (trajectory, purpose) stream.

    Buffers the underlying counter-based stream in chunks; the words served
    are identical to ``uniform_words``/``normal_words`` at the same offsets.
    """

    def __init__(
        self,
        master_seed: int,
        traj_index: int,
        purpose: int,
        normal: bool = False,
        chunk: int = 1024,
    ):
        self._key = (master_seed, traj_index, purpose)
        self._normal = normal
        self._chunk = chunk
        self._pos = 0
        self._buf = np.empty(0)
        self._buf_start = 0

    @property
    def position(self) -> int:
        """Index of the next word to be served."""
        return self._pos

    def take(self, n: int = 1) -> np.ndarray:
        out = np.empty(n)
        filled = 0
        while filled < n:
            rel = self._pos - self._buf_start
            avail = self._buf.size - rel
            if rel < 0 or avail <= 0:
                self._buf_start = self._pos
                want = max(self._chunk, n - filled)
                fetch = normal_words if self._normal else uniform_words
                self._buf = fetch(*self._key, self._buf_start, want)
                rel, avail = 0, self._buf.size
            m = min(avail, n - filled)
            out[filled : filled + m] = self._buf[rel : rel + m]
            filled += m
            self._pos += m
        return out

    def take_one(self) -> float:
        return float(self.take(1)[0])

    def peek(self, n: int) -> np.ndarray:
        """The next n words, leaving the position where it was."""
        pos = self._pos
        out = self.take(n)
        self._pos = pos
        return out

    def skip(self, n: int) -> None:
        """Advance the position past n words without reading them."""
        self._pos += n
