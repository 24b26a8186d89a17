"""What the medium keeps per sender, and the masked sub-floor arithmetic.

A sender's received power is cached once, as its float64 mW row in
:class:`LinkRows`; the medium adds only a bool mask of the receivers below
the detectability floor.  The sub-floor ops add and subtract the mW row
where that mask is set, which must leave the same bits as the zero-filled
sub-floor rows and boolean gathers they replaced.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.propagation.channel import ChannelModel
from repro.scenarios import Scenario
from repro.simulation.engine import Simulator
from repro.simulation.medium import Medium

N_NODES = 300


def _campus(**overrides) -> Scenario:
    """A 300-node scale-free campus at campus-500's density, 8 dB shadowing."""
    base = dict(
        name="footprint",
        topology="scale_free",
        n_nodes=N_NODES,
        extent_m=6200.0,
        seed=3,
        sigma_db=8.0,
        cca_noise_db=0.0,
        duration_s=0.03,
        topology_params={"attach_range_frac": 0.0103, "n_hubs": 18},
    )
    base.update(overrides)
    return Scenario(**base)


def _per_sender_arrays(medium: Medium, n: int) -> dict:
    """Every N-entry array the medium holds in a per-sender table."""
    found = {}
    for name in Medium.__slots__:
        table = getattr(medium, name, None)
        if isinstance(table, list) and len(table) == n:
            arrays = [a for a in table if isinstance(a, np.ndarray) and a.size == n]
            if arrays:
                found[name] = arrays
    return found


def test_cold_run_keeps_one_mw_row_per_sender():
    net, _ = _campus().build_network()
    net.run(_campus().duration_s)
    medium = net.medium
    rows = medium.link_rows
    senders = [slot for slot, built in enumerate(medium._row_built) if built]
    assert 0 < len(senders) < N_NODES

    # One float64 N-row per built sender, and no dBm row at all.
    assert [i for i, row in enumerate(rows._mw) if row is not None] == senders
    for i in senders:
        assert rows._mw[i].dtype == np.float64 and rows._mw[i].shape == (N_NODES,)
    assert rows._dbm == [None] * N_NODES
    assert rows.rows_built == len(senders)

    # The medium's only N-entry per-sender arrays are the sub-floor masks.
    masks = [i for i, mask in enumerate(medium._subfloor_masks) if mask is not None]
    assert masks and set(masks) <= set(senders)
    held = _per_sender_arrays(medium, N_NODES)
    assert list(held) == ["_subfloor_masks"]
    assert all(mask.dtype == np.bool_ for mask in held["_subfloor_masks"])

    # The notify rows still agree with the full dBm matrix.
    matrix = rows.matrix()
    floor = medium.detectability_floor_dbm
    ids = list(rows.ids)
    for i, src in enumerate(ids):
        expected = [dst for j, dst in enumerate(ids) if j != i and matrix[i, j] >= floor]
        assert medium.neighborhood(src) == expected
    for i in senders[:20]:
        for j in range(0, N_NODES, 7):
            assert medium.rx_power_dbm(ids[i], ids[j]) == matrix[i, j]


def test_warm_media_build_no_dbm_rows():
    """Media of one warm group share the mW rows; a later medium decides
    audibility on them without rebuilding any dBm row."""
    scenario = _campus(n_nodes=120, extent_m=3900.0, duration_s=0.02,
                       topology_params={"attach_range_frac": 0.0164, "n_hubs": 7})
    warm = scenario.compute_warm_state()
    first = scenario.run(warm=warm)
    built = warm[1].rows_built
    assert built > 0
    assert scenario.run(warm=warm) == first
    assert warm[1]._dbm == [None] * 120
    assert warm[1].rows_built == built


nonnegative = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def subfloor_histories(draw):
    """Sub-floor rows and masks of a few senders, and a start/end sequence."""
    n = draw(st.integers(1, 12))
    senders = draw(st.integers(1, 5))
    rows = [np.array(draw(st.lists(nonnegative | st.just(0.0), min_size=n, max_size=n)))
            for _ in range(senders)]
    masks = [np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
             for _ in range(senders)]
    steps = draw(st.lists(st.integers(0, senders - 1), max_size=30))
    return rows, masks, steps


@settings(max_examples=200, deadline=None)
@given(history=subfloor_histories())
def test_masked_add_and_subtract_match_zero_filled_rows(history):
    rows, masks, steps = history
    n = len(rows[0])
    old = np.zeros(n)
    new = np.zeros(n)
    zero_filled = [np.where(mask, row, 0.0) for row, mask in zip(rows, masks)]
    live = []
    for sender in steps:
        # Toggle: a sender on the air finishes, one off the air starts.
        if sender in live:
            live.remove(sender)
            old -= zero_filled[sender]
            np.subtract(new, rows[sender], out=new, where=masks[sender])
        else:
            live.append(sender)
            old += zero_filled[sender]
            np.add(new, rows[sender], out=new, where=masks[sender])
        assert old.tobytes() == new.tobytes()
    # The exact resync, both ways.
    total = np.zeros(n)
    for sender in live:
        total += zero_filled[sender]
    new.fill(0.0)
    for sender in live:
        np.add(new, rows[sender], out=new, where=masks[sender])
    assert total.tobytes() == new.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_locked_sample_matches_boolean_gathers(data, n):
    def floats():
        return np.array(data.draw(st.lists(nonnegative, min_size=n, max_size=n)))

    medium = Medium(Simulator(), ChannelModel(rng=np.random.default_rng(0)))
    locked = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    below = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    medium._locked_mask = locked
    medium._locked_above_mw = floats()
    medium._subfloor_active_mw = floats()
    medium._locked_power_mw = floats()
    peaks = [-math.inf if data.draw(st.booleans()) else value for value in floats().tolist()]
    medium._locked_subfloor_max_mw = np.array(peaks)

    expected = medium._locked_subfloor_max_mw.copy()
    mask = locked & below
    if mask.any():
        interference = (medium._locked_above_mw[mask] + medium._subfloor_active_mw[mask]
                        - medium._locked_power_mw[mask])
        np.maximum(expected[mask], interference, out=interference)
        expected[mask] = interference
    medium._sample_locked_subfloor(below)
    assert medium._locked_subfloor_max_mw.tobytes() == expected.tobytes()
