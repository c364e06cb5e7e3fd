import numpy as np
import pytest

from crsched.streams import (
    ROLE_ARRIVALS,
    ROLE_DIRECT,
    ROLE_INTERFERENCE,
    BufferedDraws,
    substream,
)


def test_same_triple_gives_identical_stream():
    a = substream(42, 1, ROLE_DIRECT).random(1000)
    b = substream(42, 1, ROLE_DIRECT).random(1000)
    assert np.array_equal(a, b)


def test_distinct_roles_and_indexes_give_distinct_streams():
    base = substream(42, 0, ROLE_DIRECT).random(100)
    for su, role in [(0, ROLE_INTERFERENCE), (0, ROLE_ARRIVALS), (1, ROLE_DIRECT)]:
        other = substream(42, su, role).random(100)
        assert not np.array_equal(base, other)


def test_distinct_seeds_give_distinct_streams():
    a = substream(1, 0, ROLE_DIRECT).random(100)
    b = substream(2, 0, ROLE_DIRECT).random(100)
    assert not np.array_equal(a, b)


def test_negative_identifiers_rejected():
    with pytest.raises(ValueError):
        substream(1, -1, 0)
    with pytest.raises(ValueError):
        substream(1, 0, -1)


def test_buffered_uniforms_match_scalar_draws():
    # The buffer is a speed layer only: it must reproduce the exact value
    # sequence of repeated scalar calls on an identically seeded generator.
    buffered = BufferedDraws(substream(7, 0, ROLE_ARRIVALS).random, block=16)
    scalar = substream(7, 0, ROLE_ARRIVALS)
    for _ in range(100):  # crosses several refills
        assert buffered.random() == scalar.random()


def test_buffered_uniforms_block_validation():
    with pytest.raises(ValueError):
        BufferedDraws(substream(7, 0, 0).random, block=0)
