"""Seed-substream derivation used by every randomized routine.

All randomness flows through numpy's PCG64 generator. A routine with seed
``s`` and stream key ``(k1, k2, ...)`` draws from
``np.random.default_rng(np.random.SeedSequence([s, k1, k2, ...]))``, so
derived streams (bootstrap replicates, permutations, model innovations)
are reproducible, independent of each other, and independent of the order
in which they are consumed.

Bootstrap replicate i draws its block plan from the substreams
``(spawn_seed(s, i), 0)`` and ``(spawn_seed(s, i), 1)``. Building three
``SeedSequence`` objects per replicate costs more than the resampling, so
``spawn_seeds`` and ``child_states`` run numpy's ``SeedSequence`` hash
(``mix_entropy`` and ``generate_state`` at pool size 4) as uint32 array
arithmetic over all replicates at once, and ``generator`` seeds a PCG64
with the resulting words through numpy's own seeding code. The draws are
bit-identical to the substreams; the tests pin the hash to
``SeedSequence``.
"""

import numpy as np

from .core import _whole


def check_seed(seed) -> int:
    return _whole(seed, 0, 2**64 - 1, "seed must be an unsigned 64-bit integer")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, *key) substream; each key word is read as a seed."""
    return np.random.default_rng(np.random.SeedSequence([*map(check_seed, (seed, *key))]))


def spawn_seed(seed: int, *key: int) -> int:
    """Collapse (seed, *key) into a single integer usable as a child seed."""
    state = np.random.SeedSequence([*map(check_seed, (seed, *key))]).generate_state(1, np.uint64)
    return int(state[0])


# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> list:
    """The multiplier sequence the hash walks: init, init*mult, ... mod 2**32.
    It does not depend on the data, so every lane shares it."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return [np.uint32(c) for c in out]


# mix_entropy calls hashmix once per pool word and once per ordered pair of
# distinct pool words; generate_state(4, np.uint64) reads 8 uint32 words
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _entropy(a, b) -> np.ndarray:
    """The uint32 entropy words of ``SeedSequence([a, b])``, lanes on the last
    axis. Each integer contributes its low word and, only when nonzero, its
    high word; a missing trailing word hashes like a zero one, so the two
    integers always fill the 4-word pool exactly."""
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, np.uint64)),
                               np.atleast_1d(np.asarray(b, np.uint64)))
    a_lo, a_hi = (a & 0xFFFFFFFF).astype(np.uint32), (a >> 32).astype(np.uint32)
    b_lo, b_hi = (b & 0xFFFFFFFF).astype(np.uint32), (b >> 32).astype(np.uint32)
    wide = a_hi > 0
    return np.stack((a_lo, np.where(wide, a_hi, b_lo), np.where(wide, b_lo, b_hi),
                     np.where(wide, b_hi, 0)))


def _pool(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy`` on 4 entropy words per lane."""
    consts = iter(zip(_HASH_A, _HASH_A[1:]))

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    return np.stack(pool)


def _state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence.generate_state(n_words, np.uint64)``: (n_words, lanes)."""
    words = []
    for i in range(2 * n_words):
        value = (pool[i % _POOL_SIZE] ^ _HASH_B[i]) * _HASH_B[i + 1]
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(words[::2], words[1::2])])


def spawn_seeds(seed: int, keys) -> np.ndarray:
    """``spawn_seed(seed, k)`` for every k in ``keys`` (integers in
    0..2**64-1), as uint64."""
    return _state(_pool(_entropy(check_seed(seed), keys)), 1)[0]


def child_states(children) -> np.ndarray:
    """(len(children), 2, 4) uint64: row [i, k] is
    ``SeedSequence([children[i], k]).generate_state(4, np.uint64)``, the
    words ``substream(children[i], k)`` seeds its PCG64 with."""
    children = np.asarray(children, np.uint64)
    words = _state(_pool(_entropy(children, np.arange(2, dtype=np.uint64)[:, None])), 4)
    return np.ascontiguousarray(words.transpose(2, 1, 0))


class _Words(np.random.bit_generator.ISeedSequence):
    """Hands precomputed ``generate_state(4, np.uint64)`` words to PCG64."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed words serve only PCG64's generate_state(4, np.uint64)")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """PCG64 generator seeded with one row of ``child_states``; it draws
    exactly what the matching ``substream`` draws."""
    return np.random.Generator(np.random.PCG64(_Words(words)))
