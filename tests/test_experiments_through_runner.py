"""Experiments through the batch runner must match the direct computation.

Figure 4 and the testbed campaigns (Figures 10-13 and Section 5) run their
per-unit work as runner tasks; these tests pin that contract: identical
numbers in-process, across a worker pool, and through a warm cache -- and
one cache shared by every testbed campaign with equal parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EXPERIMENTS
from repro.experiments import figure04_curves, run_scenarios, section5_exposed_terminals
from repro.experiments import testbed_section4
from repro.experiments.__main__ import main
from repro.testbed.exposed import exposed_terminal_study
from repro.testbed.experiment import CampaignSummary, TestbedExperiment
from repro.testbed.layout import generate_office_layout
from repro.testbed.pairs import select_competing_pairs

FIG4_KW = dict(rmax_values=(40.0,), d_values=np.linspace(10, 200, 8))
S5_KW = dict(n_combinations=2, run_duration_s=0.2, rates_mbps=(6.0, 12.0), seed=3)


def _executed_none(result) -> bool:
    return any("0 executed" in note for note in result.notes)


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
        assert _executed_none(cached_warm)


def _classic_results(link_class: str):
    """The in-process oracle: ``TestbedExperiment.run_pair`` per combination
    of the default layout, outside the runner."""
    layout = generate_office_layout()
    combos = select_competing_pairs(
        layout,
        link_class,
        n_combinations=S5_KW["n_combinations"],
        seed=S5_KW["seed"],
        prefer_nearby_fraction=0.5 if link_class == "long" else None,
    )
    experiment = TestbedExperiment(
        layout,
        rates_mbps=S5_KW["rates_mbps"],
        run_duration_s=S5_KW["run_duration_s"],
        seed=S5_KW["seed"],
    )
    return tuple(experiment.run_pair(pairs) for pairs in combos)


class TestSection4ThroughRunner:
    @pytest.mark.parametrize("link_class", ["short", "long"])
    def test_matches_classic_campaign(self, link_class):
        reference = CampaignSummary(results=_classic_results(link_class))
        result = testbed_section4.run(link_class=link_class, **S5_KW)
        assert result.data["campaign"] == reference

    def test_long_range_pooled_and_cached_match_in_process(self, tmp_path):
        in_process = testbed_section4.run(link_class="long", **S5_KW)
        cache_dir = str(tmp_path / "c")
        cold = testbed_section4.run(link_class="long", workers=2, cache_dir=cache_dir, **S5_KW)
        warm = testbed_section4.run(link_class="long", workers=2, cache_dir=cache_dir, **S5_KW)
        for run in (cold, warm):
            assert run.data["measured"] == in_process.data["measured"]
            assert run.data["scatter"] == in_process.data["scatter"]
        assert not _executed_none(cold)
        assert _executed_none(warm)


class TestSection5ThroughRunner:
    def test_matches_classic_campaign(self):
        """The runner path reproduces the in-process protocol."""
        reference = exposed_terminal_study(_classic_results("short"))
        measured = section5_exposed_terminals.run(**S5_KW).data["measured"]
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
        assert _executed_none(warm)

    def test_reuses_the_figures_10_11_cache(self, tmp_path):
        """Equal parameters are equal tasks: one cache serves both campaigns."""
        alone = section5_exposed_terminals.run(**S5_KW)
        cache_dir = str(tmp_path / "c")
        testbed_section4.run(link_class="short", cache_dir=cache_dir, **S5_KW)
        shared = section5_exposed_terminals.run(cache_dir=cache_dir, **S5_KW)
        assert _executed_none(shared)
        assert shared.data["measured"] == alone.data["measured"]


#: Campaign inputs the shared path rejects before any task runs, as API
#: kwargs and as ``--set`` assignments, with the expected message.
BAD_CAMPAIGNS = {
    "zero-combinations": (
        dict(n_combinations=0), ["n_combinations=0"], "n_combinations must be at least 1",
    ),
    "no-rates": (dict(rates_mbps=()), ["rates_mbps=[]"], "rates_mbps must name"),
    "unknown-rate": (dict(rates_mbps=(7.0,)), ["rates_mbps=7.0"], "rates_mbps: 7.0 Mbps"),
    "nan-duration": (
        dict(run_duration_s=float("nan")), ["run_duration_s=nan"],
        "run_duration_s must be finite and positive",
    ),
    "zero-duration": (
        dict(run_duration_s=0.0), ["run_duration_s=0"],
        "run_duration_s must be finite and positive",
    ),
}


@pytest.mark.parametrize("experiment_id", ["figures-10-11", "figures-12-13", "section-5"])
@pytest.mark.parametrize("case", sorted(BAD_CAMPAIGNS))
class TestBadCampaignInput:
    """The three testbed campaigns fail alike: ``ValueError`` naming the
    field, before the result cache is touched."""

    def test_api_raises_value_error(self, experiment_id, case, tmp_path):
        kwargs, _, message = BAD_CAMPAIGNS[case]
        cache = tmp_path / "cache"
        with pytest.raises(ValueError, match=message):
            EXPERIMENTS[experiment_id].run(cache_dir=str(cache), **kwargs)
        assert not cache.exists()

    def test_set_grammar_exits_1(self, experiment_id, case, tmp_path, capsys):
        _, assignments, message = BAD_CAMPAIGNS[case]
        argv = ["run", experiment_id, "--set", f"cache_dir={tmp_path / 'cache'}"]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{experiment_id}: ") and message in err
        assert not (tmp_path / "cache").exists()


class TestRunScenariosCli:
    def test_end_to_end_and_cache_hit(self, tmp_path, capsys):
        argv = [
            "run", "run-scenarios", "--set", "topology=exposed_terminal",
            "--set", "nodes=4", "--set", "duration=0.2", "--set", "workers=2",
            "--set", f"cache_dir={tmp_path / 'cache'}",
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "n_scenarios: 1" in first.out
        assert "1 executed, 0 cache hits" in first.out
        assert "executing 1/1 tasks" in first.err

        assert main(argv) == 0
        second = capsys.readouterr()
        assert "0 executed, 1 cache hits" in second.out
        assert second.err == ""  # nothing executes, so no heartbeat

    def test_grid_expansion_counts(self):
        spec = EXPERIMENTS["run-scenarios"]
        params = spec.resolved_params(
            spec.resolve({"topology": "line,grid", "nodes": "4,6", "seeds": "2"})
        )
        scenarios = run_scenarios.build_scenarios(params)
        assert len(scenarios) == 2 * 2 * 2
        assert len({s.seed for s in scenarios}) == len(scenarios)
        assert len({s.name for s in scenarios}) == len(scenarios)
