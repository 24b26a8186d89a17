"""Ablation: what happens to the analysis without a noise floor.

Section 6 criticises prior analytical work for "regularly dropp[ing] the
noise floor term, which completely wipes the long range regime from view".
This ablation demonstrates the effect within our own model: as the noise
floor is pushed towards zero, the distinction between short- and long-range
networks disappears (the optimal threshold keeps scaling like the short-range
limit for every Rmax) and the interference-limited behaviour dominates
everywhere.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..api.experiment import experiment
from ..constants import DEFAULT_NOISE_RATIO, DEFAULT_PATH_LOSS_EXPONENT
from ..core.thresholds import classify_regime, optimal_threshold, short_range_threshold_approx
from .base import ExperimentResult

__all__ = ["run", "EXPERIMENT"]

EXPERIMENT_ID = "ablation-noise-floor"


def run(
    rmax_values: Sequence[float] = (20.0, 60.0, 120.0),
    noise_values: Sequence[float] = (DEFAULT_NOISE_RATIO, DEFAULT_NOISE_RATIO / 100.0, DEFAULT_NOISE_RATIO / 10_000.0),
    alpha: float = DEFAULT_PATH_LOSS_EXPONENT,
) -> ExperimentResult:
    """Sweep the noise floor downwards and watch the long-range regime vanish."""
    result = ExperimentResult(EXPERIMENT_ID, "Dropping the noise floor hides the long-range regime")
    table: Dict[str, Dict[str, str]] = {}
    for noise in noise_values:
        label = f"N={10.0 * __import__('math').log10(noise):.0f}dB"
        row: Dict[str, str] = {}
        for rmax in rmax_values:
            threshold = optimal_threshold(rmax, alpha, noise, sigma_db=0.0, d_bounds=(1.0, 50_000.0))
            approx = short_range_threshold_approx(rmax, alpha, noise)
            regime = classify_regime(rmax, threshold)
            row[f"Rmax={rmax:g}"] = (
                f"Dthresh={threshold:.0f} (short-range approx {approx:.0f}), regime={regime}"
            )
        table[label] = row
    result.data["thresholds"] = table
    result.add_note(
        "With the paper's noise floor, large networks fall into the long-range "
        "regime (threshold inside the network); as the noise floor is dropped, "
        "every network behaves like a short-range one and the regime distinction "
        "-- and with it the fairness discussion -- disappears."
    )
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Dropping the noise floor hides the long-range regime",
    run,
    tags=("analytical", "ablation"),
)
