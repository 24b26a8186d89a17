"""Benchmark E-F12/13: Figures 12-13 and the Section 4.2 long-range table.

Reduced-scale long-range campaign.  The paper's qualitative findings for this
regime: carrier sense remains well ahead of pure concurrency (which suffers
hidden-terminal crashes), stays a large fraction of optimal, and the
transition/far regimes are visible against sender-sender RSSI.
"""

from __future__ import annotations

import pytest

from repro.experiments import testbed_section4


@pytest.mark.benchmark(min_rounds=1, max_time=1.0, warmup=False)
def test_long_range_campaign(benchmark):
    result = benchmark.pedantic(
        testbed_section4.run,
        kwargs={
            "link_class": "long",
            "n_combinations": 6,
            "run_duration_s": 1.0,
            "rates_mbps": (6.0, 12.0, 24.0),
            "seed": 3,
        },
        rounds=1,
        iterations=1,
    )
    measured = result.data["measured"]
    # Carrier sense is clearly better than pure concurrency (hidden terminals
    # crash some concurrency runs) and remains a solid fraction of optimal,
    # though less than in the short-range campaign as the paper predicts.
    assert measured["carrier_sense_fraction"] >= 0.65
    assert measured["carrier_sense_fraction"] > measured["concurrency_fraction"] + 0.05
    # Long-range throughput is lower than short-range throughput in absolute
    # terms (weak links run at low bitrates).
    assert measured["optimal_pps"] < 1800.0
