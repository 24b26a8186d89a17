"""Section 5: the exposed-terminal exploitation study.

The paper's informal short-range experiment found that bitrate adaptation
(6-24 Mbps) more than doubles throughput over the 6 Mbps base rate, that
perfectly exploiting exposed terminals at the base rate yields "just shy of
10 %", and that exposed terminals on top of adaptation add only about 3 %.
This harness reruns that comparison on the synthetic testbed's short-range
pair combinations.

The measurements come from the Section 4 campaign path
(:func:`repro.experiments.testbed_section4.campaign_results`): four
``testbed`` scenarios per pair combination and bitrate, run as one study
across a worker pool and with disk caching when ``workers`` / ``cache_dir``
are set.  With equal parameters its scenarios are exactly those of
``figures-10-11``, so either experiment's cache serves the other.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..api.experiment import experiment
from ..testbed.exposed import exposed_terminal_study
from .base import ExperimentResult
from .testbed_section4 import campaign_results

__all__ = ["run", "PAPER_SECTION5", "EXPERIMENT"]

EXPERIMENT_ID = "section-5"

PAPER_SECTION5 = {
    "adaptation_gain": 2.0,            # "more than doubles"
    "exposed_gain_at_base_rate": 1.10,  # "just shy of 10%"
    "exposed_gain_with_adaptation": 1.03,  # "only about 3% more"
}


def run(
    n_combinations: int = 10,
    run_duration_s: float = 5.0,
    rates_mbps: Sequence[float] = (6.0, 9.0, 12.0, 18.0, 24.0),
    seed: int = 3,
    workers: int = 0,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Run the Section 5 exposed-terminal comparison on short-range pairs."""
    results, runner_note = campaign_results(
        "short", n_combinations, run_duration_s, rates_mbps, seed, workers, cache_dir
    )
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
)
