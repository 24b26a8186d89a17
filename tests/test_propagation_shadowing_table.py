"""ChannelModel shadowing: the batch-drawn table, pins and lazy draws.

The channel keeps cold-drawn shadowing as one read-only condensed vector (the
``i < j`` upper triangle in row-major order) and only pins and lazily drawn
pairs in a dict.  These properties pin down what callers
may rely on whichever store a value lives in: reciprocity, pins overriding
draws, reuse of known values, and the ``(i, j), i < j`` draw order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.propagation.channel import ChannelModel

SEEDS = st.integers(0, 2**32 - 1)
SIGMAS = st.floats(0.5, 12.0)
PROPERTY = settings(max_examples=40, deadline=None)


def _channel(seed: int, sigma_db: float) -> ChannelModel:
    return ChannelModel(sigma_db=sigma_db, rng=np.random.default_rng(seed))


def _pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _matrix(channel: ChannelModel, ids) -> np.ndarray:
    """``channel.shadowing_for(ids)`` as a symmetric square matrix."""
    n = len(ids)
    matrix = np.zeros((n, n))
    table = channel.shadowing_for(ids)
    if table is not None:
        assert table.ids == tuple(ids)
        rows, columns = np.triu_indices(n, k=1)
        matrix[rows, columns] = matrix[columns, rows] = table.condensed_db
        for i in range(n):
            assert np.array_equal(table.row(i), matrix[i])
    return matrix


@PROPERTY
@given(n=st.integers(2, 9), seed=SEEDS, sigma=SIGMAS)
def test_per_pair_queries_read_the_batch(n, seed, sigma):
    # Integer ids: their repr order ("10" < "9") differs from numeric order.
    ids = list(range(n, 0, -1))
    channel = _channel(seed, sigma)
    matrix = _matrix(channel, ids)
    state = channel.rng.bit_generator.state
    assert np.all(np.diag(matrix) == 0.0)
    for i, j in _pairs(n):
        a, b = ids[i], ids[j]
        assert channel.shadowing_db(a, b) == channel.shadowing_db(b, a) == matrix[i, j] == matrix[j, i]
    assert channel.rng.bit_generator.state == state


@PROPERTY
@given(n=st.integers(2, 7), seed=SEEDS, sigma=SIGMAS, pin=st.floats(-30.0, 30.0), data=st.data())
def test_pins_win_before_and_after_the_batch(n, seed, sigma, pin, data):
    ids = list(range(n))
    i, j = data.draw(st.sampled_from(_pairs(n)))

    before = _channel(seed, sigma)
    before.set_shadowing_db(ids[j], ids[i], pin)
    matrix = _matrix(before, ids)
    assert matrix[i, j] == matrix[j, i] == before.shadowing_db(ids[i], ids[j]) == pin
    # Every other pair is drawn in (i, j) order, skipping the pinned one.
    others = [pair for pair in _pairs(n) if pair != (i, j)]
    draws = np.random.default_rng(seed).normal(0.0, sigma, size=len(others))
    for (k, m), draw in zip(others, draws):
        assert matrix[k, m] == draw

    after = _channel(seed, sigma)
    cold = _matrix(after, ids).copy()
    after.set_shadowing_db(ids[i], ids[j], pin)
    assert after.shadowing_db(ids[j], ids[i]) == pin
    expected = cold.copy()
    expected[i, j] = expected[j, i] = pin
    assert np.array_equal(_matrix(after, ids), expected)


@PROPERTY
@given(n=st.integers(2, 7), extra=st.integers(0, 4), seed=SEEDS, sigma=SIGMAS, data=st.data())
def test_second_batch_reuses_known_values_and_draws_only_missing(n, extra, seed, sigma, data):
    ids = list(range(n))
    order = data.draw(st.permutations(list(range(n + extra))))
    channel = _channel(seed, sigma)
    first = _matrix(channel, ids).copy()
    second = _matrix(channel, order)

    reference = np.random.default_rng(seed)
    reference.normal(0.0, sigma, size=n * (n - 1) // 2)
    missing = [(i, j) for i, j in _pairs(len(order)) if max(order[i], order[j]) >= n]
    draws = reference.normal(0.0, sigma, size=len(missing))
    for (i, j), draw in zip(missing, draws):
        assert second[i, j] == second[j, i] == draw
    for i, j in _pairs(len(order)):
        a, b = order[i], order[j]
        if max(a, b) < n:
            assert second[i, j] == first[a, b]
        assert channel.shadowing_db(b, a) == second[i, j]
    assert channel.rng.bit_generator.state == reference.bit_generator.state


@PROPERTY
@given(n=st.integers(2, 9), seed=SEEDS)
def test_zero_sigma_gives_zeros_without_draws(n, seed):
    channel = _channel(seed, 0.0)
    state = channel.rng.bit_generator.state
    ids = list(range(n))
    assert np.array_equal(_matrix(channel, ids), np.zeros((n, n)))
    assert all(channel.shadowing_db(ids[i], ids[j]) == 0.0 for i, j in _pairs(n))
    assert channel.shadowing_table is None
    assert channel.rng.bit_generator.state == state


def test_partially_overlapping_batches_keep_every_value():
    channel = _channel(3, 8.0)
    first = _matrix(channel, [0, 1, 2, 3, 4]).copy()
    second = _matrix(channel, [3, 4, 5, 6, 7]).copy()
    assert second[0, 1] == first[3, 4]
    union = _matrix(channel, list(range(8)))
    assert np.array_equal(union[:5, :5], first)
    assert np.array_equal(union[3:, 3:], second)
    # Only the pairs neither batch covered are new, drawn in (i, j) order.
    reference = np.random.default_rng(3)
    reference.normal(0.0, 8.0, size=10 + 9)
    cross = reference.normal(0.0, 8.0, size=9)
    assert np.array_equal(union[:3, 5:].ravel(), cross)
    assert channel.rng.bit_generator.state == reference.bit_generator.state


def test_lazy_draws_before_the_batch_are_reused():
    channel = _channel(4, 6.0)
    lazy = channel.shadowing_db(2, 0)
    matrix = _matrix(channel, [0, 1, 2])
    assert matrix[0, 2] == lazy
    draws = np.random.default_rng(4).normal(0.0, 6.0, size=3)
    assert (lazy, matrix[0, 1], matrix[1, 2]) == tuple(draws)


def test_table_is_read_only_and_adopted_only_by_untouched_channels():
    channel = _channel(5, 8.0)
    _matrix(channel, ["a", "b", "c"])
    table = channel.shadowing_table
    with pytest.raises(ValueError):
        table.condensed_db[0] = 1.0
    adopter = _channel(5, 8.0)
    adopter.load_shadowing_table(table)
    assert adopter.shadowing_db("c", "a") == channel.shadowing_db("a", "c")
    pinned = _channel(5, 8.0)
    pinned.set_shadowing_db("a", "b", 1.0)
    with pytest.raises(ValueError):
        pinned.load_shadowing_table(table)


def test_cold_batch_golden_values():
    """Seed 2009, captured from the per-pair dict store the table replaced."""
    ids = [f"n{i}" for i in range(5)]
    matrix = _matrix(_channel(2009, 8.0), ids)
    golden = [
        9.002739896680685, -14.36138395709634, 9.413630807480082, -5.01992026512113,
        -10.190356811470593, 3.794774799646643, -2.9807991476856883,
        2.923615572445316, -16.59639939801605,
        -4.23777092684865,
    ]
    assert [matrix[i, j] for i, j in _pairs(5)] == golden
