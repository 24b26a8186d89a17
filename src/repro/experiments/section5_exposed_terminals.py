"""Section 5: the exposed-terminal exploitation study.

The paper's informal short-range experiment found that bitrate adaptation
(6-24 Mbps) more than doubles throughput over the 6 Mbps base rate, that
perfectly exploiting exposed terminals at the base rate yields "just shy of
10 %", and that exposed terminals on top of adaptation add only about 3 %.
This harness reruns that comparison on the synthetic testbed's short-range
pair combinations.

Each pair combination's measurement protocol is independent, so the campaign
fans one :func:`pair_task` per combination out through a
:class:`repro.api.Study` sweep over the combination index -- across a worker
pool and with disk caching when ``workers`` / ``cache_dir`` are set (task
configs hash to the same cache keys the pre-Study harness wrote).  Workers
rebuild the (deterministic) default layout and pair selection from the seed,
so a task config is a handful of scalars; passing a custom ``layout`` keeps
the classic in-process path instead.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import Study
from ..api.experiment import experiment
from ..runner import ResultCache
from ..testbed.exposed import exposed_terminal_study
from ..testbed.experiment import PairExperimentResult, RateRunDetail, TestbedExperiment
from ..testbed.layout import TestbedLayout, generate_office_layout
from ..testbed.pairs import CompetingPairs, select_competing_pairs
from .base import ExperimentResult

__all__ = ["run", "pair_task", "PAPER_SECTION5", "EXPERIMENT"]

EXPERIMENT_ID = "section-5"

PAIR_TASK_PATH = "repro.experiments.section5_exposed_terminals.pair_task"

PAPER_SECTION5 = {
    "adaptation_gain": 2.0,            # "more than doubles"
    "exposed_gain_at_base_rate": 1.10,  # "just shy of 10%"
    "exposed_gain_with_adaptation": 1.03,  # "only about 3% more"
}


@lru_cache(maxsize=4)
def _default_selection(n_combinations: int, seed: int) -> Tuple[TestbedLayout, Tuple[CompetingPairs, ...]]:
    """The default office layout and short-range combos (memoised per process).

    Both are deterministic functions of the seed, which is what lets worker
    processes rebuild them instead of pickling a whole layout per task.
    """
    layout = generate_office_layout()
    combos = select_competing_pairs(layout, "short", n_combinations=n_combinations, seed=seed)
    return layout, tuple(combos)


def pair_task(
    combo_index: int,
    n_combinations: int,
    run_duration_s: float,
    rates_mbps: List[float],
    seed: int,
) -> Dict[str, object]:
    """Measure one pair combination of the default campaign (JSON-able)."""
    layout, combos = _default_selection(n_combinations, seed)
    experiment = TestbedExperiment(
        layout, rates_mbps=tuple(rates_mbps), run_duration_s=run_duration_s, seed=seed
    )
    details = experiment.measure_rates(combos[combo_index])
    return {"per_rate": [asdict(detail) for detail in details]}


def _campaign_results(
    n_combinations: int,
    run_duration_s: float,
    rates_mbps: Sequence[float],
    seed: int,
    workers: int,
    cache_dir: Optional[str],
) -> Tuple[Tuple[PairExperimentResult, ...], str]:
    """Run the default campaign through the batch runner and reassemble."""
    layout, combos = _default_selection(n_combinations, seed)
    study_run = (
        Study.tasks(
            PAIR_TASK_PATH,
            {
                "n_combinations": n_combinations,
                "run_duration_s": run_duration_s,
                "rates_mbps": [float(r) for r in rates_mbps],
                "seed": seed,
            },
        )
        .sweep(combo_index=list(range(len(combos))))
        .cache(ResultCache(cache_dir) if cache_dir else None)
        .run(workers=workers)
    )
    task_results, report = study_run.raw, study_run.report
    experiment = TestbedExperiment(
        layout, rates_mbps=tuple(rates_mbps), run_duration_s=run_duration_s, seed=seed
    )
    results = tuple(
        experiment.summarise(
            combos[index],
            [RateRunDetail(**detail) for detail in task["per_rate"]],
        )
        for index, task in enumerate(task_results)
    )
    return results, report.summary()


def run(
    layout: Optional[TestbedLayout] = None,
    n_combinations: int = 10,
    run_duration_s: float = 5.0,
    rates_mbps: Sequence[float] = (6.0, 9.0, 12.0, 18.0, 24.0),
    seed: int = 3,
    workers: int = 0,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Run the Section 5 exposed-terminal comparison on short-range pairs."""
    if layout is None:
        results, runner_note = _campaign_results(
            n_combinations, run_duration_s, rates_mbps, seed, workers, cache_dir
        )
    else:
        # Custom layouts cannot be rebuilt from a seed inside a worker, so
        # they take the classic in-process path.
        combos = select_competing_pairs(layout, "short", n_combinations=n_combinations, seed=seed)
        experiment = TestbedExperiment(
            layout, rates_mbps=rates_mbps, run_duration_s=run_duration_s, seed=seed
        )
        results = experiment.run_campaign(combos).results
        runner_note = "in-process (custom layout)"
    study = exposed_terminal_study(results)

    result = ExperimentResult(EXPERIMENT_ID, "Exposed terminals vs bitrate adaptation")
    result.data["report"] = study.format_report()
    result.data["measured"] = {
        "adaptation_gain": study.adaptation_gain,
        "exposed_gain_at_base_rate": study.exposed_gain_at_base_rate,
        "exposed_gain_with_adaptation": study.exposed_gain_with_adaptation,
    }
    result.data["paper"] = PAPER_SECTION5
    result.add_note(
        "Bitrate adaptation is worth a factor of two or more; exploiting exposed "
        "terminals is worth a few percent, and almost nothing once adaptation is "
        "already in place."
    )
    result.add_note(f"runner: {runner_note}")
    result.data["study"] = study
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Exposed terminals vs bitrate adaptation",
    run,
    tags=("packet-level", "testbed", "slow"),
    exclude_params=("layout",),
)
