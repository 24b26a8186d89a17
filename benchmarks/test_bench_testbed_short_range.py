"""Benchmark E-F10/11: Figures 10-11 and the Section 4.1 short-range table.

Runs a reduced-scale version of the short-range testbed campaign (fewer pair
combinations, shorter runs, three bitrates) and checks the orderings the
paper reports: carrier sense is the best of the three strategies and sits
close to the per-combination optimum, while pure multiplexing and pure
concurrency both lose noticeably.
"""

from __future__ import annotations

import pytest

from repro.experiments import testbed_section4


@pytest.mark.benchmark(min_rounds=1, max_time=1.0, warmup=False)
def test_short_range_campaign(benchmark):
    result = benchmark.pedantic(
        testbed_section4.run,
        kwargs={
            "link_class": "short",
            "n_combinations": 6,
            "run_duration_s": 1.0,
            "rates_mbps": (6.0, 12.0, 24.0),
            "seed": 3,
        },
        rounds=1,
        iterations=1,
    )
    measured = result.data["measured"]
    # Carrier sense is the best strategy and close to the per-pair optimum.
    assert measured["carrier_sense_fraction"] >= 0.80
    assert measured["carrier_sense_fraction"] >= measured["multiplexing_fraction"] - 0.02
    assert measured["carrier_sense_fraction"] >= measured["concurrency_fraction"]
    # Both static policies leave real throughput on the table.
    assert measured["multiplexing_fraction"] < 0.95
    assert measured["concurrency_fraction"] < 0.95
    # The campaign spans close, transition, and far sender separations.
    rssi_low, rssi_high = result.data["sender_sender_rssi_span_dbm"]
    assert rssi_high > -60.0 and rssi_low < -85.0
