"""Child generators seeded from hashed batches equal ``Generator(PCG64(seed))``.

:func:`repro.simulation.seeding.hash_seeds` reimplements ``SeedSequence``'s
mixing over arrays, and a network hands each child its precomputed words.
Every child must be the generator the plain integer seed gives: the same
``bit_generator.state``, the same draws, the same ``seed_seq.entropy``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.network import WirelessNetwork
from repro.simulation.seeding import HashedSeed, hash_seeds

EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1]


def reference_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def assert_same_generator(child: np.random.Generator, seed: int) -> None:
    expected = np.random.Generator(np.random.PCG64(seed))
    assert child.bit_generator.seed_seq.entropy == seed
    assert child.bit_generator.state == expected.bit_generator.state
    assert child.random(3).tolist() == expected.random(3).tolist()
    assert child.integers(0, 1000, size=4).tolist() == expected.integers(0, 1000, size=4).tolist()


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
                                st.sampled_from(EDGE_SEEDS)), max_size=40))
def test_hash_seeds_matches_seed_sequence(seeds):
    words = hash_seeds(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words):
        assert row.tolist() == reference_words(seed).tolist()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_hashed_seed_builds_the_plain_seed_generator(seed):
    words = hash_seeds(np.array([seed], dtype=np.uint64))[0]
    assert_same_generator(np.random.Generator(np.random.PCG64(HashedSeed(seed, words))), seed)


def test_hashed_seed_answers_other_requests_like_seed_sequence():
    hashed = HashedSeed(99, hash_seeds(np.array([99], dtype=np.uint64))[0])
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64), (1, np.uint32)):
        assert (hashed.generate_state(n_words, dtype).tolist()
                == np.random.SeedSequence(99).generate_state(n_words, dtype).tolist())


@settings(max_examples=25, deadline=None)
@given(network_seed=st.one_of(st.sampled_from([0, 1, 7, 2**32 - 1]), st.integers(0, 2**32 - 1),
                              st.integers(0, 2**63)),
       extra=st.integers(0, 2 * WirelessNetwork._SEED_BATCH))
def test_network_children_equal_plain_seed_generators(network_seed, extra):
    """Over child counts spanning several block refills, child ``k`` is
    ``Generator(PCG64(s_k))`` for the ``k``-th scalar seed draw."""
    count = 2 * WirelessNetwork._SEED_BATCH + extra
    reference = np.random.default_rng(network_seed)
    seeds = [int(reference.integers(0, 2**63 - 1)) for _ in range(count)]
    net = WirelessNetwork(seed=network_seed)
    for seed in seeds:
        assert_same_generator(net._child_rng(), seed)


def test_seed_and_child_draws_interleave_on_one_stream():
    """``_next_child_seed`` and ``_child_rng`` consume the same sequence."""
    reference = np.random.default_rng(3)
    seeds = [int(reference.integers(0, 2**63 - 1)) for _ in range(70)]
    net = WirelessNetwork(seed=3)
    for k, seed in enumerate(seeds):
        if k % 3 == 0:
            assert net._next_child_seed() == seed
        else:
            assert_same_generator(net._child_rng(), seed)
