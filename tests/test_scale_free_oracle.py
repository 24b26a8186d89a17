"""scale_free against its O(N) reference: positions and flows bit for bit.

The generator draws every attached node's doubles in one call and finds each
attachment target with a Fenwick tree over the integer degrees, falling back
to the float ``cdf`` search only when the draw lands within rounding of a
prefix boundary.  :func:`reference_scale_free` is the generator as it was
before: per node, a normalised float ``cdf`` and three scalar draws.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import topologies
from repro.scenarios.topologies import (
    _attachment_target,
    _clip_box,
    _float_cdf_target,
    _node_id,
    scale_free,
)


def reference_scale_free(n_nodes, extent, rng, attach_range_frac=0.15, n_hubs=1,
                         flows="uplink"):
    """The O(N)-per-node generator the fast one must reproduce."""
    positions: Dict[str, Tuple[float, float]] = {}
    degrees = np.ones(n_nodes)
    if n_hubs == 1:
        positions[_node_id(0)] = (extent / 2.0, extent / 2.0)
    else:
        centres = rng.uniform(0.1 * extent, 0.9 * extent, size=(n_hubs, 2))
        for hub in range(n_hubs):
            positions[_node_id(hub)] = _clip_box(centres[hub, 0], centres[hub, 1], extent)
    flows_out: List[Tuple[str, str]] = []
    for index in range(n_hubs, n_nodes):
        weights = degrees[:index] / float(np.sum(degrees[:index]))
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        target = int(cdf.searchsorted(rng.random(), side="right"))
        tx, ty = positions[_node_id(target)]
        hop = float(rng.uniform(0.3, 1.0)) * attach_range_frac * extent
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        node = _node_id(index)
        positions[node] = _clip_box(tx + hop * np.cos(phi), ty + hop * np.sin(phi), extent)
        flows_out.append((node, _node_id(target)))
        degrees[target] += 1.0
    if flows == "to_root":
        root = _node_id(0)
        flows_out = [(node, root) for node in positions if node != root]
    return list(positions.items()), tuple(flows_out)


def both(seed, n_nodes, extent, **params):
    fast = scale_free(n_nodes, extent, np.random.default_rng(seed), **params)
    expected = reference_scale_free(n_nodes, extent, np.random.default_rng(seed), **params)
    return (list(fast.positions.items()), fast.flows), expected


def fenwick(degrees: List[int]) -> List[int]:
    tree = [0] * (len(degrees) + 1)
    for position in range(1, len(degrees) + 1):
        tree[position] = sum(degrees[position - (position & -position):position])
    return tree


@settings(max_examples=80, deadline=None)
@given(
    n_nodes=st.integers(2, 300),
    hub_share=st.floats(0.0, 0.5),
    extent=st.floats(1.0, 1e5),
    attach_range_frac=st.one_of(st.floats(1e-6, 2.0), st.sampled_from([0.15, 0.008, 1e-300])),
    seed=st.integers(0, 2**64 - 1),
    flows=st.sampled_from(["uplink", "to_root"]),
)
def test_matches_reference_bit_for_bit(n_nodes, hub_share, extent, attach_range_frac, seed,
                                       flows):
    n_hubs = max(1, min(n_nodes - 1, int(hub_share * n_nodes)))
    fast, expected = both(seed, n_nodes, extent, attach_range_frac=attach_range_frac,
                          n_hubs=n_hubs, flows=flows)
    assert fast == expected


@pytest.mark.parametrize("n_nodes, n_hubs, extent, frac", [
    (2, 1, 120.0, 0.15), (500, 30, 8000.0, 0.008), (2000, 120, 16000.0, 0.004),
    (1500, 1, 300.0, 0.5),
])
def test_matches_reference_at_campus_scale(n_nodes, n_hubs, extent, frac):
    fast, expected = both(11, n_nodes, extent, attach_range_frac=frac, n_hubs=n_hubs)
    assert fast == expected


def test_float_fallback_alone_matches_reference(monkeypatch):
    """An infinite margin sends every step down the float ``cdf`` branch."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _float_cdf_target(*args)

    monkeypatch.setattr(topologies, "_ROUNDOFF", math.inf)
    monkeypatch.setattr(topologies, "_float_cdf_target", counted)
    fast, expected = both(5, 200, 500.0, attach_range_frac=0.1, n_hubs=3)
    assert fast == expected
    assert len(calls) == 197


@settings(max_examples=200, deadline=None)
@given(degrees=st.lists(st.integers(1, 50), min_size=1, max_size=200), data=st.data())
def test_target_agrees_with_float_cdf_on_and_around_boundaries(degrees, data):
    """Draws exactly on a prefix boundary, or a few ulps either side of one,
    pick the node the float ``cdf`` search picks."""
    total = sum(degrees)
    boundary = data.draw(st.integers(0, len(degrees) - 1))
    exact = sum(degrees[:boundary]) / total
    nudge = data.draw(st.integers(-4, 4))
    pick = float(exact)
    for _ in range(abs(nudge)):
        pick = float(np.nextafter(pick, math.inf if nudge > 0 else -math.inf))
    pick = min(max(pick, 0.0), float(np.nextafter(1.0, 0.0)))
    tree = fenwick(degrees)
    index = len(degrees)
    assert (_attachment_target(tree, degrees, index, total, pick)
            == _float_cdf_target(degrees, index, pick))


def test_target_agrees_with_float_cdf_where_its_rounding_is_worst():
    """Long degree lists, at the boundary where the float ``cdf`` strays
    furthest from the exact prefix fraction, and draws up to 40 ulps either
    side of it: a margin of a few ulps would take the Fenwick answer where
    the float search disagrees."""
    rng = np.random.default_rng(1)
    for _ in range(40):
        degrees = rng.integers(1, 4, size=int(rng.integers(50, 400))).tolist()
        total, index = sum(degrees), len(degrees)
        prefix = np.cumsum(degrees)
        cdf = (np.array(degrees, dtype=float) / total).cumsum()
        cdf /= cdf[-1]
        worst = int(np.argmax(np.abs(cdf - prefix / total)[:-1]))
        boundary = prefix[worst] / total
        tree = fenwick(degrees)
        for ulps in range(-40, 41):
            pick = boundary + ulps * math.ulp(boundary)
            assert (_attachment_target(tree, degrees, index, total, pick)
                    == _float_cdf_target(degrees, index, pick)), (degrees, pick)


#: Draws at or next to a prefix boundary where the float ``cdf`` rounds the
#: other way from exact arithmetic: (degrees, pick, exact node, float node).
MISROUNDED = [
    ([6, 5, 3, 3, 1, 1, 1, 2, 7, 6], 0.8285714285714285, 8, 9),
    ([5, 8, 6, 6, 5, 5, 8], 0.3023255813953488, 1, 2),
    ([6, 1, 4, 7, 5, 1, 7, 6, 7, 2], 0.13043478260869565, 0, 1),
    ([1, 5, 1, 3, 4, 4, 4, 1, 1, 1], 0.039999999999999994, 0, 1),
    ([4, 6, 8, 6, 7, 6, 6, 4, 8, 2, 5], 0.7580645161290323, 7, 8),
]


@pytest.mark.parametrize("degrees, pick, exact, rounded", MISROUNDED)
def test_target_follows_the_float_cdf_where_it_misrounds(degrees, pick, exact, rounded):
    total = sum(degrees)
    first_over = next(node for node in range(len(degrees))
                      if Fraction(sum(degrees[:node + 1])) > Fraction(pick) * total)
    assert first_over == exact
    assert _float_cdf_target(degrees, len(degrees), pick) == rounded
    assert _attachment_target(fenwick(degrees), degrees, len(degrees), total, pick) == rounded


def test_boundary_draw_takes_the_float_branch(monkeypatch):
    """A draw on a prefix boundary is inside the margin: the float search
    decides it."""
    degrees = [1, 1, 2]
    calls = []

    def counted(*args):
        calls.append(args)
        return _float_cdf_target(*args)

    monkeypatch.setattr(topologies, "_float_cdf_target", counted)
    target = _attachment_target(fenwick(degrees), degrees, 3, 4, 0.5)
    assert calls and target == _float_cdf_target(degrees, 3, 0.5) == 2
    calls.clear()
    assert _attachment_target(fenwick(degrees), degrees, 3, 4, 0.3) == 1
    assert not calls  # well inside node 1's share: the Fenwick answer stands


@pytest.mark.parametrize("frac", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_bad_attach_range_frac_rejected(frac):
    with pytest.raises(ValueError, match="attach_range_frac"):
        scale_free(10, 100.0, np.random.default_rng(0), attach_range_frac=frac)
