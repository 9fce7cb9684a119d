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
    RawWords,
    normal_words,
    raw_thresholds,
    raw_uniforms,
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


STARTS = [0, 1, 2, 3, 5, 6, 7, 4 * 2**30 + 2, 10**12 + 1]


@pytest.mark.parametrize("purpose", [PURPOSE_JUMP, PURPOSE_CHANNEL, PURPOSE_NOISE])
@pytest.mark.parametrize("traj_index", [0, 5, 2**40 + 3])
def test_raw_words_are_the_uniform_words(purpose, traj_index):
    # raw_uniforms maps a window, or one word as the grouped sampler reads
    # each channel word, to the uniforms of uniform_words bit for bit
    read = RawWords()
    for start in STARTS:
        raw = read(9, traj_index, purpose, start, 13)
        assert raw.dtype == np.uint64
        u = uniform_words(9, traj_index, purpose, start, 13)
        np.testing.assert_array_equal(raw_uniforms(raw), u)
        one = raw_uniforms(read(9, traj_index, purpose, start, 1)[0])
        assert isinstance(one, np.float64) and one == u[0]


def test_raw_uniforms_at_the_edges_of_the_word_range():
    words = np.array([0, 2**11 - 1, 2**11, 2**64 - 2**11 - 1, 2**64 - 1], dtype=np.uint64)
    np.testing.assert_array_equal(
        raw_uniforms(words), [0.0, 0.0, 2.0**-53, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    )


@pytest.mark.parametrize("traj_index", [0, 5, 2**40 + 3])
def test_integer_thresholds_decide_as_the_uniform_comparison(traj_index):
    # dp > u exactly when raw < raw_thresholds(dp), for every word and every
    # dp below 1: zero, subnormal, exactly on a word's u and one ulp either side
    tiny = np.finfo(float).smallest_subnormal
    read = RawWords()
    for start in STARTS:
        raw = read(3, traj_index, PURPOSE_JUMP, start, 11)
        u = uniform_words(3, traj_index, PURPOSE_JUMP, start, 11)
        dps = [0.0, -0.0, tiny, 1e-310, 2.0**-53, 0.5, 1.0 - 2.0**-53]
        for x in u:
            dps += [x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)]
        for dp in dps:
            t = raw_thresholds(np.full(u.size, dp))
            np.testing.assert_array_equal(raw < t, dp > u)


def test_integer_thresholds_at_the_edges_of_the_word_range():
    words = np.array([0, 2**11 - 1, 2**11, 2**64 - 2**12, 2**64 - 2**11 - 1,
                      2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
    u = raw_uniforms(words)
    tiny = np.finfo(float).smallest_subnormal
    for dp in [0.0, tiny, 2.0**-53, 1.0 - 2.0**-52, 1.0 - 2.0**-53]:
        np.testing.assert_array_equal(words < raw_thresholds(np.full(7, dp)), dp > u)
    # not positive (nan too) never fires, as nan > u never holds
    for dp in [-1.0, -tiny, np.nan]:
        assert not (words < raw_thresholds(np.full(7, dp))).any()
    # dp >= 1 saturates: every word fires but those with u = 1 - 2**-53, a
    # decision the grouped sampler never reads (dp >= 1 is a guard violation)
    for dp in [1.0, 1.5, np.inf]:
        assert raw_thresholds(np.array([dp]))[0] == np.uint64(2**64 - 2**11)
        np.testing.assert_array_equal(words < raw_thresholds(np.full(7, dp)),
                                      u < 1.0 - 2.0**-53)


def test_raw_words_reject_negative_ids():
    read = RawWords()
    with pytest.raises(ValueError):
        read(-1, 0, PURPOSE_JUMP, 0, 4)
    with pytest.raises(ValueError):
        read(0, -1, PURPOSE_JUMP, 0, 4)


def test_a_reader_keeps_no_position_between_streams():
    # each call re-keys and re-positions: interleaved streams and windows
    # read as they do from fresh readers
    read = RawWords()
    calls = [(3, 5, PURPOSE_JUMP, 7, 9), (3, 6, PURPOSE_CHANNEL, 0, 5),
             (4, 5, PURPOSE_JUMP, 2, 3), (3, 5, PURPOSE_JUMP, 7, 9)]
    for call in calls:
        np.testing.assert_array_equal(read(*call), RawWords()(*call))
