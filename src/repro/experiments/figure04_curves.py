"""Figure 4: average MAC throughput versus sender separation (no shadowing).

Reproduces the throughput-vs-D curves for Rmax = 20, 55, 120 with alpha = 3,
sigma = 0, P0/N0 = 65 dB.  Each curve set contains multiplexing (flat in D),
concurrency (rising from near zero to twice multiplexing), and the optimal
policy (their upper envelope plus the joint-decision gap), normalised to the
Rmax = 20, D = infinity throughput as in the paper.

Each Rmax curve is an independent unit of work, so the experiment fans its
per-curve :func:`curve_task` out through a :class:`repro.api.Study` sweep
over the Rmax axis -- in parallel and with disk caching when ``workers`` /
``cache_dir`` are set, in-process by default.  The numbers are identical
either way (pinned by tests/test_experiments_through_runner.py), and the
task configs hash to the same cache keys the pre-Study harness wrote.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..api import Study
from ..api.experiment import experiment
from ..constants import DEFAULT_NOISE_RATIO, DEFAULT_PATH_LOSS_EXPONENT
from ..core.averaging import throughput_curves
from ..core.thresholds import optimal_threshold
from ..runner import ResultCache
from .base import ExperimentResult

__all__ = ["run", "curve_task", "EXPERIMENT"]

EXPERIMENT_ID = "figure-04"

CURVE_TASK_PATH = "repro.experiments.figure04_curves.curve_task"


def curve_task(
    rmax: float, d_values: List[float], alpha: float, noise: float
) -> Dict[str, object]:
    """One Figure 4 curve set (a single Rmax) as a JSON-able batch task."""
    threshold = optimal_threshold(rmax, alpha, noise, sigma_db=0.0)
    data = throughput_curves(
        rmax, d_values, d_threshold=threshold, alpha=alpha, noise=noise, sigma_db=0.0
    )
    return {
        "threshold": float(threshold),
        "d": list(map(float, data["d"])),
        "multiplexing": list(map(float, data["multiplexing"])),
        "concurrent": list(map(float, data["concurrent"])),
        "carrier_sense": list(map(float, data["carrier_sense"])),
        "optimal": list(map(float, data["optimal"])),
    }


def run(
    rmax_values: Sequence[float] = (20.0, 55.0, 120.0),
    d_values: Sequence[float] | None = None,
    alpha: float = DEFAULT_PATH_LOSS_EXPONENT,
    noise: float = DEFAULT_NOISE_RATIO,
    workers: int = 0,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Compute the Figure 4 throughput curves (one runner task per Rmax)."""
    if d_values is None:
        d_values = np.linspace(5.0, 250.0, 50)
    d_list = [float(d) for d in d_values]
    study_run = (
        Study.tasks(CURVE_TASK_PATH, {"d_values": d_list, "alpha": alpha, "noise": noise})
        .sweep(rmax=[float(rmax) for rmax in rmax_values])
        .cache(ResultCache(cache_dir) if cache_dir else None)
        .run(workers=workers)
    )
    task_results, report = study_run.raw, study_run.report

    result = ExperimentResult(EXPERIMENT_ID, "Average MAC throughput vs D (sigma = 0)")
    curves: Dict[str, Dict[str, list]] = {}
    crossings: Dict[str, float] = {}
    for rmax, task in zip(rmax_values, task_results):
        curves[f"Rmax={rmax:g}"] = {
            "d": task["d"],
            "multiplexing": task["multiplexing"],
            "concurrent": task["concurrent"],
            "carrier_sense": task["carrier_sense"],
            "optimal": task["optimal"],
        }
        crossings[f"Rmax={rmax:g}"] = task["threshold"]
    result.data["crossing_distance"] = crossings
    result.data["series"] = {
        key: f"{len(value['d'])} points, conc rises from "
        f"{value['concurrent'][0]:.3f} to {value['concurrent'][-1]:.3f}, "
        f"mux flat at {value['multiplexing'][0]:.3f}"
        for key, value in curves.items()
    }
    result.data["curves"] = curves
    result.add_note(
        "Concurrency throughput rises monotonically with D, crossing the flat "
        "multiplexing curve at the optimal threshold; optimal converges to the "
        "concurrency branch at large D and the multiplexing branch at small D."
    )
    result.add_note(f"runner: {report.summary()}")
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Average MAC throughput vs D (sigma = 0)",
    run,
    tags=("analytical",),
    series_keys=("curves",),
)
