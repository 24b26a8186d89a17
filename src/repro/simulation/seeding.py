"""Child seeds hashed in batches: ``Generator(PCG64(seed))`` without one
:class:`numpy.random.SeedSequence` per seed.

``PCG64(seed)`` hashes its integer seed through a fresh ``SeedSequence``,
about 15 µs of Python-level work per generator, and a network builds two
generators per node.  :func:`hash_seeds` runs the same uint32 mixing over a
whole batch of seeds as array operations, and :class:`HashedSeed` hands one
seed's words to ``PCG64``: ``Generator(PCG64(HashedSeed(seed, words)))`` is
bit-identical to ``Generator(PCG64(seed))``, with the same state, the same
stream and the same ``bit_generator.seed_seq.entropy``.

The mixing is numpy's ``SeedSequence`` algorithm (after M. E. O'Neill's
``seed_seq_fe``) specialised to what PCG64 asks of it: a pool of four uint32
words, then ``generate_state(4, np.uint64)``, i.e. eight output words.  The
hash constant advances in a fixed order whatever the data, so each step is
one array operation across the batch (and across the pool words it
touches independently).
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["HashedSeed", "hash_seeds"]

_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
#: The uint64 words PCG64 asks its seed sequence for.
_STATE_WORDS = 4


def _hash_constants(init: int, mult: int, count: int) -> List[int]:
    """The values the hash constant takes, in order: one hash step XORs with
    a value and multiplies by the next."""
    values = [init]
    for _ in range(count):
        values.append((values[-1] * mult) & _MASK32)
    return values


def _column(values: List[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# Entropy pass: steps 0-3, one per pool word.  Mix pass: steps 4-15, each
# source word hashed into the other three, source-major.
_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_ENTROPY_XOR = _column(_A[0:2])
_ENTROPY_MUL = _column(_A[1:3])


def _hashed_zero(step: int) -> int:
    value = (_A[step] * _A[step + 1]) & _MASK32
    return value ^ (value >> 16)


#: Pool words 2 and 3 hash a zero: a seed below 2**64 has at most two words.
_ZERO_WORDS = _column([_hashed_zero(2), _hashed_zero(3)])


def _mix_steps() -> List[Tuple[int, List[int], np.ndarray, np.ndarray]]:
    """Per source word: its destinations and their XOR and multiply constants."""
    steps = []
    for src in range(_POOL_SIZE):
        first = _POOL_SIZE + src * (_POOL_SIZE - 1)
        dsts = [dst for dst in range(_POOL_SIZE) if dst != src]
        steps.append((src, dsts, _column(_A[first:first + 3]), _column(_A[first + 1:first + 4])))
    return steps


_MIX_STEPS = _mix_steps()
# Output word k hashes pool word k % 4: eight words as two rounds of the pool.
_B = _hash_constants(_INIT_B, _MULT_B, 2 * _STATE_WORDS)
_OUT_XOR = np.array(_B[:-1], dtype=np.uint32).reshape(2, _POOL_SIZE, 1)
_OUT_MUL = np.array(_B[1:], dtype=np.uint32).reshape(2, _POOL_SIZE, 1)


def hash_seeds(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed ``s``.

    ``seeds`` holds integers in ``[0, 2**64)``; the result is a uint64 array
    of shape ``(len(seeds), 4)``, one row per seed.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.empty((_POOL_SIZE, seeds.size), dtype=np.uint32)
    # Entropy words: the seed's low and high halves.  A seed below 2**32 has
    # only the low one and the pool hashes a zero in its place -- the value
    # of its zero high half.
    head = pool[:2]
    head[...] = seeds.astype("<u8").view("<u4").reshape(-1, 2).T
    head ^= _ENTROPY_XOR
    head *= _ENTROPY_MUL
    head ^= head >> _XSHIFT
    pool[2:] = _ZERO_WORDS
    for src, dsts, xor, mul in _MIX_STEPS:
        hashed = pool[src] ^ xor
        hashed *= mul
        hashed ^= hashed >> _XSHIFT
        hashed *= _MIX_MULT_R
        mixed = pool[dsts]
        mixed *= _MIX_MULT_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        pool[dsts] = mixed
    out = pool ^ _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> _XSHIFT
    # uint32 words pair up little-endian: word 2k is the low half of word k.
    words = np.ascontiguousarray(out.reshape(2 * _STATE_WORDS, -1).T, dtype="<u4")
    return words.view("<u8").astype(np.uint64, copy=False)


class HashedSeed(ISeedSequence):
    """A seed sequence whose PCG64 words were hashed ahead of time.

    ``entropy`` is the integer seed, as on the ``SeedSequence`` that
    ``PCG64(seed)`` would make; a request for anything other than PCG64's
    four uint64 words is answered by that ``SeedSequence``.
    """

    __slots__ = ("entropy", "_words")

    def __init__(self, entropy: int, words: np.ndarray) -> None:
        self.entropy = entropy
        self._words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words == _STATE_WORDS and np.dtype(dtype) == np.uint64:
            return self._words
        return np.random.SeedSequence(self.entropy).generate_state(n_words, dtype)
