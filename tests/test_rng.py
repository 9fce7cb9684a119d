"""Counter-based random streams: determinism and random access."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from usctraj.rng import (
    PURPOSE_CHANNEL,
    PURPOSE_JUMP,
    PURPOSE_NOISE,
    normal_words,
    uniform_words,
)


def test_uniform_words_deterministic():
    a = uniform_words(7, 3, PURPOSE_JUMP, 0, 64)
    b = uniform_words(7, 3, PURPOSE_JUMP, 0, 64)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.float64
    assert np.all((a >= 0.0) & (a < 1.0))


def test_streams_differ_across_keys():
    base = uniform_words(7, 3, PURPOSE_JUMP, 0, 32)
    assert not np.array_equal(base, uniform_words(8, 3, PURPOSE_JUMP, 0, 32))
    assert not np.array_equal(base, uniform_words(7, 4, PURPOSE_JUMP, 0, 32))
    assert not np.array_equal(base, uniform_words(7, 3, PURPOSE_CHANNEL, 0, 32))
    assert not np.array_equal(base, uniform_words(7, 3, PURPOSE_NOISE, 0, 32))


def test_random_access_equals_sequential():
    # word k of the stream must not depend on how the stream is chunked
    whole = uniform_words(11, 5, PURPOSE_JUMP, 0, 100)
    np.testing.assert_array_equal(uniform_words(11, 5, PURPOSE_JUMP, 37, 21), whole[37:58])
    np.testing.assert_array_equal(uniform_words(11, 5, PURPOSE_JUMP, 99, 1), whole[99:])


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=300),
    count=st.integers(min_value=1, max_value=50),
)
def test_random_access_property(start, count):
    whole = uniform_words(3, 9, PURPOSE_CHANNEL, 0, start + count)
    part = uniform_words(3, 9, PURPOSE_CHANNEL, start, count)
    np.testing.assert_array_equal(part, whole[start:])


def test_normal_words_match_uniform_source():
    # same words, transformed; moments are only sanity-checked
    z = normal_words(0, 0, PURPOSE_NOISE, 0, 20000)
    assert abs(np.mean(z)) < 0.03
    assert abs(np.std(z) - 1.0) < 0.02
    again = normal_words(0, 0, PURPOSE_NOISE, 0, 20000)
    np.testing.assert_array_equal(z, again)


def test_normal_words_random_access():
    whole = normal_words(5, 2, PURPOSE_NOISE, 0, 64)
    np.testing.assert_array_equal(normal_words(5, 2, PURPOSE_NOISE, 10, 30), whole[10:40])


def test_invalid_arguments_and_empty_request():
    with pytest.raises(ValueError):
        uniform_words(-1, 0, PURPOSE_JUMP, 0, 4)
    with pytest.raises(ValueError):
        uniform_words(0, -1, PURPOSE_JUMP, 0, 4)
    assert uniform_words(0, 0, PURPOSE_JUMP, 0, 0).size == 0


def _words_via_state_dict(master_seed, traj_index, purpose, start, count):
    """The stream as first defined: Philox positioned through its state dict."""
    block, offset = divmod(start, 4)
    bg = Philox(key=[master_seed, (traj_index << 2) | purpose])
    st = bg.state
    st["state"]["counter"][:] = 0
    st["state"]["counter"][0] = block
    st["buffer_pos"] = 4
    st["has_uint32"] = 0
    st["uinteger"] = 0
    bg.state = st
    return Generator(bg).random(offset + count)[offset:]


@pytest.mark.parametrize("purpose", [PURPOSE_JUMP, PURPOSE_CHANNEL, PURPOSE_NOISE])
@pytest.mark.parametrize("traj_index", [0, 5, 2**40 + 3])
def test_words_pinned_to_state_dict_construction(purpose, traj_index):
    for start in list(range(8)) + [2**32 + 6, 10**12 + 1]:
        np.testing.assert_array_equal(
            uniform_words(9, traj_index, purpose, start, 13),
            _words_via_state_dict(9, traj_index, purpose, start, 13),
        )
