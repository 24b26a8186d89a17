"""Benchmarks for the two design-choice ablations: noise floor and fixed bitrate."""

from __future__ import annotations

from repro.experiments import ablation_fixed_bitrate, ablation_noise_floor


def test_ablation_noise_floor(benchmark):
    result = benchmark(ablation_noise_floor.run, rmax_values=(20.0, 120.0))
    rows = result.data["thresholds"]
    # With the paper's noise floor the Rmax = 120 network is long range; with
    # the noise floor dropped far enough, it no longer is -- the regime
    # distinction (and the long-range fairness discussion) disappears.
    assert "regime=long" in rows["N=-65dB"]["Rmax=120"]
    assert "regime=long" not in rows["N=-105dB"]["Rmax=120"]


def test_ablation_fixed_bitrate(benchmark):
    result = benchmark(
        ablation_fixed_bitrate.run,
        rmax_values=(40.0, 120.0),
        d_values=(20.0, 55.0, 120.0),
        n_samples=12_000,
    )
    fixed = result.data["fixed_rate_percent"]
    adaptive = result.data["adaptive_rate_percent"]
    # Fixed bitrate hurts carrier sense in the transition column (D = 55) far
    # more than adaptive bitrate does -- the regime where the hidden/exposed
    # terminal literature's concerns are legitimate.
    assert fixed["Rmax=40"][1] < adaptive["Rmax=40"][1] - 5.0
    assert result.data["worst_case_fixed_percent"] < result.data["worst_case_adaptive_percent"]
