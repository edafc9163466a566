"""The batched replicate-stream hash against numpy's SeedSequence."""

import numpy as np
import pytest

from extremogram import _rng
from extremogram.errors import InvalidInput

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# two-word keys (2**32 and up) fill the last entropy word after a one-word seed
EDGE_KEYS = [0, 1, 99, 2**32 - 1, 2**32, 2**64 - 1]
# a child below 2**32 is one entropy word, which moves the stream key one
# word left; spawned children fall there with probability 2**-32 each, so
# these are picked by hand
EDGE_CHILDREN = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_spawn_seeds_match_seed_sequence(seed):
    got = _rng.spawn_seeds(seed, np.array(EDGE_KEYS, dtype=np.uint64))
    expected = [np.random.SeedSequence([seed, key]).generate_state(1, np.uint64)[0]
                for key in EDGE_KEYS]
    assert got.dtype == np.uint64
    assert np.array_equal(got, expected)
    assert got.tolist() == [_rng.spawn_seed(seed, key) for key in EDGE_KEYS]


def test_child_states_match_seed_sequence():
    states = _rng.child_states(EDGE_CHILDREN)
    assert states.shape == (len(EDGE_CHILDREN), 2, 4) and states.dtype == np.uint64
    for child, pair in zip(EDGE_CHILDREN, states):
        for key in (0, 1):
            expected = np.random.SeedSequence([child, key]).generate_state(4, np.uint64)
            assert np.array_equal(pair[key], expected), (child, key)


@pytest.mark.parametrize("child", EDGE_CHILDREN)
def test_generator_draws_like_substream(child):
    states = _rng.child_states([child])[0]
    for key in (0, 1):
        ours, reference = _rng.generator(states[key]), _rng.substream(child, key)
        assert np.array_equal(ours.geometric(0.05, size=200), reference.geometric(0.05, size=200))
        assert np.array_equal(ours.integers(1, 4001, size=200, dtype=np.int64),
                              reference.integers(1, 4001, size=200, dtype=np.int64))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_spawn_seeds_reject_out_of_range_seed(seed):
    with pytest.raises(InvalidInput):
        _rng.spawn_seeds(seed, np.arange(10, dtype=np.uint64))


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
def test_precomputed_words_serve_only_four_uint64(n_words, dtype):
    words = _rng._Words(_rng.child_states([7])[0, 0])
    assert np.array_equal(words.generate_state(4, np.uint64), words.words)
    with pytest.raises(ValueError, match=r"^precomputed words serve only PCG64's "
                                         r"generate_state\(4, np\.uint64\)$"):
        words.generate_state(n_words, dtype)


@pytest.mark.parametrize("seed", [0, 5, 2**40, 2**64 - 1])
def test_key_zero_is_the_bare_seed_stream(seed):
    # SeedSequence pads its entropy with zero words, so with one seed s,
    # simulate_garch's innovations (substream(s)), simulate_sv's log-volatility
    # noise (substream(s, 0)) and permutation 0 of permutation_bands draw alike
    bare, keyed = _rng.substream(seed), _rng.substream(seed, 0)
    assert bare.bit_generator.state == keyed.bit_generator.state
    assert np.array_equal(bare.permutation(100), keyed.permutation(100))
    assert _rng.substream(seed, 1).bit_generator.state != _rng.substream(seed).bit_generator.state
