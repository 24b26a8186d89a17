"""The medium's received-power rows against the eager N x N formula.

``Medium.finalize`` no longer builds matrices: a :class:`LinkRows` table
builds one sender's row on first use.  The oracle below is the matrix
formula the rows replaced, kept verbatim (one batched shadowing draw
scattered into a symmetric matrix, pins and lazy draws first, then
``tx - loss(clamped distance) + shadowing`` with a ``-inf`` diagonal and
``10 ** (dbm / 10)`` in milliwatts).  Every row, and every per-pair query,
must equal it bit for bit.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.propagation.channel import ChannelModel
from repro.scenarios import Scenario
from repro.simulation.engine import Simulator
from repro.simulation.medium import DEFAULT_MIN_DISTANCE_M, LinkRows, Medium
from repro.simulation.network import WirelessNetwork

COORDS = st.floats(-300.0, 300.0, allow_nan=False, allow_infinity=False)


def _channel(seed: int, sigma_db: float) -> ChannelModel:
    return ChannelModel(sigma_db=sigma_db, rng=np.random.default_rng(seed))


def _key(a, b):
    return (a, b) if repr(a) <= repr(b) else (b, a)


def eager_shadowing(seed, sigma_db, ids, pins, lazy):
    """The symmetric shadowing matrix an untouched channel drew before the
    row table: pins, then lazy per-pair draws, then one batch over the
    missing ``(i, j), i < j`` pairs, scattered into an N x N matrix."""
    rng = np.random.default_rng(seed)
    known = {}
    for a, b, value in pins:
        known[_key(a, b)] = float(value)
    for a, b in lazy:
        if _key(a, b) not in known:
            known[_key(a, b)] = 0.0 if sigma_db == 0.0 else float(rng.normal(0.0, sigma_db))
    n = len(ids)
    matrix = np.zeros((n, n))
    if not known:
        if sigma_db == 0.0:
            return matrix
        iu, ju = np.triu_indices(n, k=1)
        draws = rng.normal(0.0, sigma_db, size=iu.size)
        matrix[iu, ju] = draws
        matrix[ju, iu] = draws
        return matrix
    mask = np.zeros((n, n), dtype=bool)
    position = {node: i for i, node in enumerate(ids)}
    for (a, b), value in known.items():
        i, j = position[a], position[b]
        matrix[i, j] = matrix[j, i] = value
        mask[i, j] = mask[j, i] = True
    iu, ju = np.nonzero(np.triu(~mask, k=1))
    draws = rng.normal(0.0, sigma_db, size=iu.size) if sigma_db > 0.0 else np.zeros(iu.size)
    matrix[iu, ju] = draws
    matrix[ju, iu] = draws
    return matrix


def eager_rx(channel, ids, positions, shadowing):
    """The eager dBm and mW matrices finalisation computed before."""
    coords = np.asarray([positions[node] for node in ids], dtype=float)
    dx = coords[:, 0][:, None] - coords[:, 0][None, :]
    dy = coords[:, 1][:, None] - coords[:, 1][None, :]
    distances = np.hypot(dx, dy)
    np.maximum(distances, DEFAULT_MIN_DISTANCE_M, out=distances)
    rx_dbm = channel.tx_power_dbm - channel.path_loss.loss_db(distances) + shadowing
    np.fill_diagonal(rx_dbm, -np.inf)
    return rx_dbm, np.power(10.0, rx_dbm / 10.0)


@st.composite
def setups(draw):
    n = draw(st.integers(2, 9))
    # Duplicated points exercise the minimum-distance clamp.
    points = draw(st.lists(st.tuples(COORDS, COORDS), min_size=n, max_size=n))
    ids = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    touched = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(touched), max_size=len(touched)))
    values = draw(st.lists(st.floats(-20.0, 20.0), min_size=len(touched),
                           max_size=len(touched)))
    mode = draw(st.sampled_from(["cold", "pins", "lazy"]))
    pins = [(b, a, v) if flip else (a, b, v)
            for (a, b), flip, v in zip(touched, flips, values)] if mode == "pins" else []
    lazy = [(b, a) if flip else (a, b) for (a, b), flip in zip(touched, flips)] \
        if mode == "lazy" else []
    return dict(
        ids=ids,
        positions=dict(zip(ids, points)),
        seed=draw(st.integers(0, 2**32 - 1)),
        sigma_db=draw(st.sampled_from([0.0, 8.0])),
        margin=draw(st.sampled_from([16.0, 0.0, None])),
        pins=pins,
        lazy=lazy,
    )


def _prepared_channel(setup):
    channel = _channel(setup["seed"], setup["sigma_db"])
    for a, b, value in setup["pins"]:
        channel.set_shadowing_db(a, b, value)
    for a, b in setup["lazy"]:
        channel.shadowing_db(a, b)
    return channel


@settings(max_examples=80, deadline=None)
@given(setup=setups())
def test_rows_equal_the_eager_matrix_bit_for_bit(setup):
    ids, positions = setup["ids"], setup["positions"]
    shadowing = eager_shadowing(setup["seed"], setup["sigma_db"], ids, setup["pins"],
                                setup["lazy"])
    rx_dbm, rx_mw = eager_rx(_channel(0, 0.0), ids, positions, shadowing)

    net = WirelessNetwork(channel=_prepared_channel(setup),
                          detectability_margin_db=setup["margin"])
    for node in ids:
        net.add_node(node, positions[node])
    medium = net.medium
    medium.finalize()
    rows = medium.link_rows
    assert rows.rows_built == 0
    for i, src in enumerate(ids):
        assert np.array_equal(rows.dbm(i), rx_dbm[i])
        assert np.array_equal(rows.mw(i), rx_mw[i])
        for j, dst in enumerate(ids):
            assert medium.rx_power_dbm(src, dst) == rx_dbm[i, j]
            assert medium.rx_power_mw(src, dst) == rx_mw[i, j]
        floor = medium.detectability_floor_dbm
        audible = [dst for j, dst in enumerate(ids)
                   if j != i and (floor is None or rx_dbm[i, j] >= floor)]
        assert medium.neighborhood(src) == audible
    assert rows.rows_built == len(ids)

    # The kept full-matrix entry point is the same formula.
    matrix = Medium.compute_rx_dbm_matrix(_prepared_channel(setup), ids, positions)
    assert np.array_equal(matrix, rx_dbm)


@settings(max_examples=40, deadline=None)
@given(setup=setups())
def test_rows_built_in_any_order_are_the_same(setup):
    ids, positions = setup["ids"], setup["positions"]
    forward = LinkRows(_prepared_channel(setup), ids, positions)
    backward = LinkRows(_prepared_channel(setup), ids, positions)
    reversed_rows = [backward.dbm(i) for i in reversed(range(len(ids)))][::-1]
    for i, row in enumerate(reversed_rows):
        assert np.array_equal(forward.dbm(i), row)
        assert not row.flags.writeable


def test_rows_are_read_only_and_cached():
    rows = LinkRows(_channel(3, 8.0), ["a", "b", "c"],
                    {"a": (0.0, 0.0), "b": (30.0, 0.0), "c": (0.0, 40.0)})
    first = rows.dbm(1)
    assert rows.dbm(1) is first and rows.rows_built == 1
    with pytest.raises(ValueError):
        first[0] = 0.0
    assert rows.mw(1)[1] == 0.0 and rows.dbm(1)[1] == -np.inf


def test_medium_without_nodes_finalises_without_drawing():
    channel = _channel(1, 8.0)
    state = channel.rng.bit_generator.state
    medium = Medium(Simulator(), channel)
    medium.finalize()
    assert medium.link_rows.ids == ()
    assert channel.rng.bit_generator.state == state
    assert not channel.holds_shadowing


def test_set_up_allocates_no_square_matrix():
    """Building and starting a 1000-node campus never holds an N x N float
    matrix: the traced peak stays below two of them (2 N^2 8 bytes)."""
    n = 1000
    scenario = Scenario(
        name="memory-guard",
        topology="scale_free",
        n_nodes=n,
        extent_m=11314.0,
        seed=7,
        sigma_db=8.0,
        cca_noise_db=0.0,
        duration_s=0.01,
        topology_params={"attach_range_frac": 0.0057, "n_hubs": 60},
    )
    tracemalloc.start()
    try:
        net, _ = scenario.build_network()
        net.start()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8


@settings(max_examples=60, deadline=None)
@given(setup=setups(), data=st.data())
def test_audible_on_the_mw_row_equals_the_dbm_test(setup, data):
    """Audibility read off the mW row equals ``dbm >= floor`` for floors on,
    one ulp beside, and far from the row's own values, and builds no dBm
    row to cache."""
    ids, positions = setup["ids"], setup["positions"]
    rows = LinkRows(_prepared_channel(setup), ids, positions)
    oracle = LinkRows(_prepared_channel(setup), ids, positions)
    for i in range(len(ids)):
        dbm = oracle.dbm(i)
        j = data.draw(st.integers(0, len(ids) - 1).filter(lambda j, i=i: j != i))
        for floor in (dbm[j], np.nextafter(dbm[j], np.inf), np.nextafter(dbm[j], -np.inf),
                      dbm[j] + 1e-10, dbm[j] - 1e-10, -5000.0, 100.0):
            assert np.array_equal(rows.audible(i, float(floor)), dbm >= floor)
    assert rows._dbm == [None] * len(ids)
    assert rows.rows_built == len(ids)
