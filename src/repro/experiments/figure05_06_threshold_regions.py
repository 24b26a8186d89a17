"""Figures 5 and 6: carrier-sense piecewise throughput and inefficiency regions.

For Rmax = 55 (no shadowing) the paper highlights how carrier-sense throughput
is the multiplexing curve left of the threshold and the concurrency curve
right of it (Figure 5), and decomposes the gap to optimal into "hidden
terminal inefficiency" (right of the threshold) and "exposed terminal
inefficiency" (left of it), with an extra "triangle" of loss when the
threshold is misplaced (Figure 6).

This harness quantifies those areas for the optimal threshold and for
deliberately mis-set thresholds, confirming that the optimal threshold (the
concurrency/multiplexing crossing) minimises the total inefficiency.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..api.experiment import experiment
from ..constants import DEFAULT_NOISE_RATIO, DEFAULT_PATH_LOSS_EXPONENT
from ..core.averaging import throughput_curves
from ..core.thresholds import optimal_threshold
from .base import ExperimentResult

__all__ = ["run", "inefficiency_areas", "EXPERIMENT"]

EXPERIMENT_ID = "figure-05-06"


def inefficiency_areas(
    rmax: float,
    d_threshold: float,
    d_values: Sequence[float],
    alpha: float = DEFAULT_PATH_LOSS_EXPONENT,
    noise: float = DEFAULT_NOISE_RATIO,
) -> Dict[str, float]:
    """Integrated (over D) throughput gaps between carrier sense and optimal.

    Returns the hidden-terminal area (gap for D above the threshold, where
    carrier sense transmits concurrently), the exposed-terminal area (gap for
    D below the threshold, where it defers), and their total.  Units are
    normalised capacity x distance; only relative comparisons matter.
    """
    data = throughput_curves(
        rmax, d_values, d_threshold, alpha=alpha, noise=noise, sigma_db=0.0
    )
    d = np.asarray(data["d"])
    gap = np.asarray(data["optimal"]) - np.asarray(data["carrier_sense"])
    gap = np.maximum(gap, 0.0)
    hidden = float(np.trapezoid(np.where(d >= d_threshold, gap, 0.0), d))
    exposed = float(np.trapezoid(np.where(d < d_threshold, gap, 0.0), d))
    return {"hidden": hidden, "exposed": exposed, "total": hidden + exposed}


def run(
    rmax: float = 55.0,
    alpha: float = DEFAULT_PATH_LOSS_EXPONENT,
    noise: float = DEFAULT_NOISE_RATIO,
    n_d_points: int = 60,
) -> ExperimentResult:
    """Compute the Figure 5/6 threshold and inefficiency analysis."""
    result = ExperimentResult(
        EXPERIMENT_ID, "Carrier-sense threshold choice and inefficiency regions (Rmax = 55)"
    )
    d_values = np.linspace(5.0, 250.0, n_d_points)
    best = optimal_threshold(rmax, alpha, noise, sigma_db=0.0)
    result.data["optimal_threshold"] = best

    comparisons: Dict[str, Dict[str, float]] = {}
    for label, threshold in (
        ("optimal", best),
        ("too_low (0.6x)", 0.6 * best),
        ("too_high (1.6x)", 1.6 * best),
    ):
        comparisons[label] = inefficiency_areas(rmax, threshold, d_values, alpha, noise)
    result.data["inefficiency_areas"] = {
        label: f"hidden={areas['hidden']:.2f} exposed={areas['exposed']:.2f} "
        f"total={areas['total']:.2f}"
        for label, areas in comparisons.items()
    }
    result.data["raw_areas"] = comparisons
    result.add_note(
        "Mis-setting the threshold adds a 'triangle' of extra inefficiency on "
        "the corresponding side; the crossing-point threshold minimises the total."
    )
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Carrier-sense threshold choice and inefficiency regions (Rmax = 55)",
    run,
    tags=("analytical",),
)
