"""Experiments through the batch runner must match the direct computation.

Figure 4 and the testbed campaigns (Figures 10-13 and Section 5) run their
per-unit work as runner tasks; these tests pin that contract: identical
numbers in-process, across a worker pool, and through a warm cache -- and
one cache shared by every testbed campaign with equal parameters.  The
testbed campaigns are also held to per-cell packet counts recorded before
they ran as scenarios.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.api import EXPERIMENTS
from repro.experiments import figure04_curves, run_scenarios, section5_exposed_terminals
from repro.experiments import testbed_section4
from repro.experiments.__main__ import main
from repro.testbed.exposed import exposed_terminal_study
from repro.testbed.experiment import CampaignSummary, RateRunDetail, summarise
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


#: Every RateRunDetail of the S5_KW campaigns, as recorded by the testbed's
#: former dedicated network builder, before the protocol ran as scenarios:
#: per link class and combination, the stations (sa, ra, sb, rb) and each
#: rate's (rate, solo_a, solo_b, concurrency_a, concurrency_b, cs_a, cs_b).
RECORDED_S5 = {
    "short": (
        (("n11", "n28", "n16", "n09"),
         ((6.0, 97, 97, 96, 98, 48, 51), (12.0, 184, 184, 179, 183, 92, 98))),
        (("n11", "n36", "n33", "n08"),
         ((6.0, 97, 97, 0, 98, 0, 98), (12.0, 184, 184, 0, 183, 0, 183))),
    ),
    "long": (
        (("n09", "n12", "n24", "n41"),
         ((6.0, 97, 97, 0, 0, 48, 51), (12.0, 182, 183, 0, 0, 90, 98))),
        (("n28", "n06", "n49", "n10"),
         ((6.0, 97, 97, 0, 0, 24, 27), (12.0, 182, 181, 0, 0, 51, 47))),
    ),
}


def _combos(link_class: str):
    """The S5_KW pair combinations of the default layout."""
    return select_competing_pairs(
        generate_office_layout(),
        link_class,
        n_combinations=S5_KW["n_combinations"],
        seed=S5_KW["seed"],
        prefer_nearby_fraction=0.5 if link_class == "long" else None,
    )


def _stations(pairs):
    return (pairs.pair_a.sender, pairs.pair_a.receiver,
            pairs.pair_b.sender, pairs.pair_b.receiver)


def _recorded_results(link_class: str):
    """The recorded counts, summarised like a campaign run."""
    combos = _combos(link_class)
    assert [_stations(pairs) for pairs in combos] == [
        stations for stations, _ in RECORDED_S5[link_class]
    ]
    return tuple(
        summarise(pairs, [RateRunDetail(*cell) for cell in cells], S5_KW["run_duration_s"])
        for pairs, (_, cells) in zip(combos, RECORDED_S5[link_class])
    )


@pytest.mark.parametrize("link_class", ["short", "long"])
class TestRecordedCells:
    """Each cell's four scenarios reproduce the recorded counts exactly,
    however they run."""

    def test_cold_scenario_runs(self, link_class):
        measured = []
        for pairs in _combos(link_class):
            cells = []
            for rate in S5_KW["rates_mbps"]:
                runs = testbed_section4.cell_scenarios(
                    pairs, rate, S5_KW["run_duration_s"], S5_KW["seed"]
                )
                counts = [int(n) for s in runs for n in s.run().delivered_packets]
                cells.append((rate, *counts))
            measured.append((_stations(pairs), tuple(cells)))
        assert tuple(measured) == RECORDED_S5[link_class]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_study_warm_path(self, link_class, workers):
        """Through ``run_scenario``, which hands each placement's warm state
        to every run that shares it, in-process and across two workers."""
        combos = _combos(link_class)
        results, note = testbed_section4.measure_combinations(
            combos, S5_KW["rates_mbps"], S5_KW["run_duration_s"], S5_KW["seed"],
            workers=workers,
        )
        measured = tuple(
            (_stations(pairs), tuple(astuple(d) for d in result.per_rate))
            for pairs, result in zip(combos, results)
        )
        assert measured == RECORDED_S5[link_class]
        assert note.startswith("16 tasks: 16 executed")


class TestSection4ThroughRunner:
    @pytest.mark.parametrize("link_class", ["short", "long"])
    def test_matches_recorded_campaign(self, link_class):
        reference = CampaignSummary(results=_recorded_results(link_class))
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
    def test_matches_recorded_campaign(self):
        """The runner path reproduces the recorded counts."""
        reference = exposed_terminal_study(_recorded_results("short"))
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
