"""Tests for the analytical experiment harnesses (reduced parameters).

These check that each harness runs end-to-end and that the quantities it
reports reproduce the paper's qualitative claims.  The full-scale paper
comparisons live in the benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EXPERIMENTS
from repro.experiments import (
    ablation_fixed_bitrate,
    ablation_noise_floor,
    figure02_landscape,
    figure03_preferences,
    figure04_curves,
    figure05_06_threshold_regions,
    figure07_optimal_threshold,
    figure09_shadowing,
    figure14_propagation_fit,
    section34_mistake_probability,
    table1_fixed_threshold,
    table2_tuned_threshold,
)


class TestLandscapeAndPreferences:
    def test_figure02_multiplexing_is_half(self):
        result = figure02_landscape.run(resolution=61)
        assert result.data["multiplexing_is_half_of_single"] == pytest.approx(0.5)

    def test_figure02_concurrency_improves_with_distance(self):
        result = figure02_landscape.run(resolution=61)
        values = list(result.data["concurrency"].values())
        assert values == sorted(values)

    def test_figure03_preference_flip(self):
        result = figure03_preferences.run(rmax_values=(50.0,))
        raw = result.data["raw"]
        assert raw["D=20, Rmax=50"]["prefer_multiplexing"] > 0.9
        assert raw["D=120, Rmax=50"]["prefer_concurrency"] > 0.9


class TestThroughputCurves:
    def test_figure04_concurrency_monotone_and_crosses_multiplexing(self):
        result = figure04_curves.run(rmax_values=(40.0,), d_values=np.linspace(10, 200, 15))
        curve = result.data["curves"]["Rmax=40"]
        conc = np.asarray(curve["concurrent"])
        mux = np.asarray(curve["multiplexing"])
        assert np.all(np.diff(conc) > -1e-9)
        assert conc[0] < mux[0] and conc[-1] > mux[-1]

    def test_figure05_06_optimal_threshold_minimises_inefficiency(self):
        result = figure05_06_threshold_regions.run(n_d_points=30)
        areas = result.data["raw_areas"]
        assert areas["optimal"]["total"] <= areas["too_low (0.6x)"]["total"]
        assert areas["optimal"]["total"] <= areas["too_high (1.6x)"]["total"]

    def test_figure09_summary_reports_concurrency_gain(self):
        result = figure09_shadowing.run(
            rmax_values=(120.0,), n_samples=6000, n_d_points=8
        )
        text = result.data["summary"]["Rmax=120"]
        assert "concurrency capacity gain" in text


class TestTables:
    def test_table1_matches_paper_within_tolerance(self):
        result = table1_fixed_threshold.run(n_samples=10_000, seed=1)
        measured = result.data["measured_percent"]
        paper = result.data["paper_percent"]
        for row_key, row in measured.items():
            for measured_value, paper_value in zip(row, paper[row_key]):
                assert measured_value == pytest.approx(paper_value, abs=4.0)

    def test_table2_tuning_gains_little(self):
        result = table2_tuned_threshold.run(n_samples=10_000, seed=1)
        assert abs(result.data["tuning_gain_points"]) < 4.0


class TestThresholdCurveAndMistakes:
    def test_figure07_thresholds_increase_with_rmax(self):
        # Use the deterministic model here: with shadowing the long-range
        # optimal threshold shifts leftward (Section 3.4), so strict
        # monotonicity only holds for sigma = 0.
        result = figure07_optimal_threshold.run(
            alphas=(3.0,), rmax_values=(10.0, 40.0, 150.0), sigma_db=0.0
        )
        curve = result.data["curves"]["alpha=3"]
        assert curve["threshold"] == sorted(curve["threshold"])
        assert curve["regime"][0] == "short"
        assert curve["regime"][-1] == "long"

    def test_section34_combined_probability_small(self):
        result = section34_mistake_probability.run(n_samples=50_000)
        assert result.data["combined_bad_snr_probability"] < 0.08
        assert result.data["snr_estimate_uncertainty_db"] == pytest.approx(13.86, abs=0.01)


class TestPropagationFitExperiment:
    def test_figure14_recovers_ground_truth(self):
        result = figure14_propagation_fit.run()
        fit = result.data["fit"]
        truth = result.data["ground_truth"]
        assert fit["alpha"] == pytest.approx(truth["alpha"], abs=0.4)
        assert fit["sigma_db"] == pytest.approx(truth["sigma_db"], abs=2.0)
        assert fit["n_censored"] > 0


class TestAblations:
    def test_noise_floor_ablation_reports_regime_change(self):
        result = ablation_noise_floor.run(rmax_values=(120.0,))
        rows = result.data["thresholds"]
        baseline = rows["N=-65dB"]["Rmax=120"]
        no_noise = rows["N=-105dB"]["Rmax=120"]
        assert "regime=long" in baseline
        assert "regime=long" not in no_noise

    def test_fixed_bitrate_ablation_hurts_transition_region(self):
        result = ablation_fixed_bitrate.run(
            rmax_values=(40.0,), d_values=(55.0,), n_samples=8000
        )
        fixed = result.data["fixed_rate_percent"]["Rmax=40"][0]
        adaptive = result.data["adaptive_rate_percent"]["Rmax=40"][0]
        assert fixed < adaptive

    def test_experiment_result_summary_renders(self):
        text = EXPERIMENTS["figure-03"].run(rmax_values=(50.0,)).summary()
        assert "figure-03" in text and "notes:" in text
