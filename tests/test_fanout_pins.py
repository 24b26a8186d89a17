"""Byte-identity pins for the receiver fan-out branches perfbench never reaches.

The perfbench campuses run with ``cca_noise_db=0`` and the default
detectability margin, and the pairs sweep never prunes a link, so the
pinned benchmark digests leave whole branches of the medium's per-receiver
bookkeeping unchecked: CCA measurement noise on a pruning medium, busy edges
fired by sub-floor power alone, the unpruned reference path, physical-layer
capture, virtual carrier sense, TDMA, and thresholds or rates changed
mid-run by a controller.  Each row below is a small scenario reaching one or
more of them; it pins ``sha256(ResultSet.to_bytes())[:16]`` and
``events_processed``.  A change to the fan-out that is meant to be
behaviour-preserving must leave every row unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.scenarios import Scenario

_SPREAD_CAMPUS = {"attach_range_frac": 0.008, "n_hubs": 6}

PIN_SCENARIOS = {
    # CCA noise on a medium that prunes: noisy per-frame CCA powers next to
    # sub-floor energy and the vectorised locked-radio sampling.
    "noise-subfloor": Scenario(
        name="pin", topology="scale_free", n_nodes=40, extent_m=6000.0, seed=5,
        cca_noise_db=2.0, duration_s=0.03, topology_params=_SPREAD_CAMPUS,
    ),
    "noise-subfloor-shadowed": Scenario(
        name="pin", topology="clustered", n_nodes=24, extent_m=3000.0, seed=2,
        sigma_db=8.0, cca_noise_db=2.0, duration_s=0.03,
        topology_params={"n_clusters": 4, "spread_frac": 0.01},
    ),
    # Margin 0: the floor sits at the noise floor, so aggregate sub-floor
    # power alone flips CCA verdicts and the medium fires the busy edges.
    "margin-zero": Scenario(
        name="pin", topology="uniform_disc", n_nodes=14, extent_m=400.0, seed=1,
        detectability_margin_db=0.0, cca_threshold_dbm=-93.0, cca_noise_db=0.0,
        duration_s=0.04,
    ),
    # The unpruned reference medium: every radio notified per frame.
    "unpruned": Scenario(
        name="pin", topology="scale_free", n_nodes=30, extent_m=4000.0, seed=9,
        detectability_margin_db=None, cca_noise_db=2.0, duration_s=0.02,
        topology_params=_SPREAD_CAMPUS,
    ),
    # Carrier sense off on a shadowed disc: overlapping frames and captures.
    "capture": Scenario(
        name="pin", topology="uniform_disc", n_nodes=12, extent_m=200.0, seed=4,
        sigma_db=8.0, cca_threshold_dbm=None, cca_noise_db=0.0, duration_s=0.04,
    ),
    # A deaf -65 dBm threshold at 54 Mbps keeps hub receivers from seeing an
    # empty channel, so their power sums reach the periodic exact resync.
    "resync": Scenario(
        name="pin", topology="scale_free", n_nodes=16, extent_m=1500.0, seed=3,
        cca_threshold_dbm=-65.0, cca_noise_db=2.0, rate_mbps=54.0, duration_s=0.04,
        topology_params={"attach_range_frac": 0.02, "n_hubs": 3},
    ),
    "acks": Scenario(
        name="pin", topology="uniform_disc", n_nodes=10, extent_m=300.0, seed=6,
        use_acks=True, duration_s=0.05,
    ),
    "rts-cts": Scenario(
        name="pin", topology="hidden_terminal", n_nodes=3, extent_m=120.0, seed=3,
        sigma_db=8.0, use_acks=True, use_rts_cts=True, duration_s=0.1,
    ),
    "tdma": Scenario(
        name="pin", topology="uniform_disc", n_nodes=8, extent_m=250.0, seed=8,
        mac="tdma", tdma_slot_s=0.004, duration_s=0.06,
    ),
    # Controllers change CCA thresholds (hysteresis) or bitrates (aimd)
    # between epochs of a running network.
    "hysteresis": Scenario(
        name="pin", topology="exposed_terminal", n_nodes=4, extent_m=120.0, seed=2,
        sigma_db=8.0, duration_s=0.1, controller="hysteresis", control_epoch_s=0.01,
    ),
    "aimd": Scenario(
        name="pin", topology="uniform_disc", n_nodes=8, extent_m=250.0, seed=7,
        duration_s=0.08, controller="aimd", control_epoch_s=0.01,
    ),
}

#: name -> (sha256(to_bytes())[:16], events_processed).
PINS = {
    "noise-subfloor": ("c77ee1d7855ca9bc", 605),
    "noise-subfloor-shadowed": ("58147b92a40de95f", 299),
    "margin-zero": ("65eea69b2cf3ac5e", 278),
    "unpruned": ("17780fafb03e863f", 317),
    "capture": ("97da7e50f5349dd9", 350),
    "resync": ("7c44870bee343144", 3344),
    "acks": ("c3ceffce98ec0c19", 520),
    "rts-cts": ("495af2762eea48ad", 565),
    "tdma": ("51c104ca036d4e22", 89),
    "hysteresis": ("cb6226d5ce0201ed", 241),
    "aimd": ("79f8106189051d5e", 1044),
}


def _pin(result):
    return hashlib.sha256(result.to_bytes()).hexdigest()[:16], result.scenarios[0][
        "events_processed"
    ]


@pytest.mark.parametrize("name", sorted(PIN_SCENARIOS))
def test_fanout_pin(name):
    assert _pin(PIN_SCENARIOS[name].run()) == PINS[name]
