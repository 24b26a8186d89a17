"""Benchmark E-S5: the Section 5 exposed-terminal study."""

from __future__ import annotations

import pytest

from repro.experiments import section5_exposed_terminals


@pytest.mark.benchmark(min_rounds=1, max_time=1.0, warmup=False)
def test_section5_exposed_terminal_study(benchmark):
    result = benchmark.pedantic(
        section5_exposed_terminals.run,
        kwargs={
            "n_combinations": 6,
            "run_duration_s": 1.0,
            "rates_mbps": (6.0, 12.0, 24.0),
            "seed": 3,
        },
        rounds=1,
        iterations=1,
    )
    measured = result.data["measured"]
    # Bitrate adaptation is worth a factor of two or more over the base rate.
    assert measured["adaptation_gain"] >= 2.0
    # Perfect exposed-terminal exploitation at the base rate is worth far less
    # than adaptation (paper: "just shy of 10%"), and essentially nothing once
    # adaptation is already in place (paper: "only about 3% more").
    assert 1.0 <= measured["exposed_gain_at_base_rate"] <= 1.35
    assert 1.0 <= measured["exposed_gain_with_adaptation"] <= 1.25
    assert measured["exposed_gain_at_base_rate"] < measured["adaptation_gain"]
