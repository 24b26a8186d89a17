"""Experiments through the batch runner must match the direct computation.

Figure 4 and the Section 5 campaign were refactored to run their per-unit
work as runner tasks; these tests pin the refactor's contract: identical
numbers in-process, across a worker pool, and through a warm cache.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import figure04_curves, run_scenarios, section5_exposed_terminals
from repro.testbed.exposed import exposed_terminal_study
from repro.testbed.experiment import TestbedExperiment
from repro.testbed.layout import generate_office_layout
from repro.testbed.pairs import select_competing_pairs

FIG4_KW = dict(rmax_values=(40.0,), d_values=np.linspace(10, 200, 8))
S5_KW = dict(n_combinations=2, run_duration_s=0.2, rates_mbps=(6.0, 12.0), seed=3)


class TestFigure04ThroughRunner:
    def test_direct_task_matches_run(self):
        task = figure04_curves.curve_task(
            rmax=40.0, d_values=[float(d) for d in FIG4_KW["d_values"]],
            alpha=3.0, noise=10.0**-6.5,
        )
        result = figure04_curves.run(alpha=3.0, noise=10.0**-6.5, **FIG4_KW)
        assert result.data["curves"]["Rmax=40"]["concurrent"] == task["concurrent"]
        assert result.data["crossing_distance"]["Rmax=40"] == task["threshold"]

    def test_workers_and_cache_do_not_change_numbers(self, tmp_path):
        baseline = figure04_curves.run(**FIG4_KW)
        pooled = figure04_curves.run(workers=2, **FIG4_KW)
        cached_cold = figure04_curves.run(cache_dir=str(tmp_path / "c"), **FIG4_KW)
        cached_warm = figure04_curves.run(cache_dir=str(tmp_path / "c"), **FIG4_KW)
        assert pooled.data["curves"] == baseline.data["curves"]
        assert cached_cold.data["curves"] == baseline.data["curves"]
        assert cached_warm.data["curves"] == baseline.data["curves"]
        assert any("0 executed" in note for note in cached_warm.notes)


class TestSection5ThroughRunner:
    def test_matches_classic_campaign(self):
        """The runner path reproduces the pre-refactor in-process protocol."""
        layout = generate_office_layout()
        combos = select_competing_pairs(
            layout, "short", n_combinations=S5_KW["n_combinations"], seed=S5_KW["seed"]
        )
        experiment = TestbedExperiment(
            layout,
            rates_mbps=S5_KW["rates_mbps"],
            run_duration_s=S5_KW["run_duration_s"],
            seed=S5_KW["seed"],
        )
        reference = exposed_terminal_study(experiment.run_campaign(combos).results)

        result = section5_exposed_terminals.run(**S5_KW)
        measured = result.data["measured"]
        assert measured["adaptation_gain"] == reference.adaptation_gain
        assert measured["exposed_gain_at_base_rate"] == reference.exposed_gain_at_base_rate
        assert (
            measured["exposed_gain_with_adaptation"]
            == reference.exposed_gain_with_adaptation
        )

    def test_warm_cache_executes_nothing_and_matches(self, tmp_path):
        cold = section5_exposed_terminals.run(cache_dir=str(tmp_path / "c"), **S5_KW)
        warm = section5_exposed_terminals.run(cache_dir=str(tmp_path / "c"), **S5_KW)
        assert warm.data["measured"] == cold.data["measured"]
        assert any("0 executed" in note for note in warm.notes)


class TestRunScenariosCli:
    def test_end_to_end_and_cache_hit(self, tmp_path, capsys):
        argv = [
            "--topology", "exposed_terminal", "--nodes", "4", "--duration", "0.2",
            "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert run_scenarios.main(argv) == 0
        first = capsys.readouterr().out
        assert "n_scenarios: 1" in first
        assert "1 executed, 0 cache hits" in first

        assert run_scenarios.main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 1 cache hits" in second

    def test_grid_expansion_counts(self):
        parser = run_scenarios.build_parser()
        args = parser.parse_args(
            ["--topology", "line,grid", "--nodes", "4", "--nodes", "6", "--seeds", "2"]
        )
        scenarios = run_scenarios.build_scenarios(vars(args))
        assert len(scenarios) == 2 * 2 * 2
        assert len({s.seed for s in scenarios}) == len(scenarios)
        assert len({s.name for s in scenarios}) == len(scenarios)
