"""Figure 7: optimal threshold versus network radius for several alpha values.

Reproduces the optimal-threshold curves (expressed as the equivalent distance
at alpha = 3) versus Rmax for alpha in {2, 2.5, 3, 3.5, 4} with 8 dB
shadowing, along with the Rthresh = Rmax and Rthresh = 2 Rmax regime boundary
lines.  The paper's qualitative claims checked here:

* in the short-range limit thresholds scale roughly as sqrt(Rmax) and cluster
  together across alpha;
* in the long-range limit threshold growth tapers off but spreads out in
  alpha;
* for alpha = 3 the intermediate regime spans roughly 18 < Rmax < 60.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..api.experiment import experiment
from ..constants import DEFAULT_NOISE_RATIO
from ..core.thresholds import (
    classify_regime,
    short_range_threshold_approx,
    threshold_curve,
)
from .base import ExperimentResult

__all__ = ["run", "EXPERIMENT"]

EXPERIMENT_ID = "figure-07"


def run(
    alphas: Sequence[float] = (2.0, 2.5, 3.0, 3.5, 4.0),
    rmax_values: Sequence[float] | None = None,
    sigma_db: float = 8.0,
    noise: float = DEFAULT_NOISE_RATIO,
    n_samples: int = 20_000,
    seed: int = 0,
) -> ExperimentResult:
    """Compute the Figure 7 optimal-threshold curves."""
    if rmax_values is None:
        rmax_values = np.geomspace(6.0, 200.0, 12)
    result = ExperimentResult(EXPERIMENT_ID, "Optimal threshold vs network radius")
    curves: Dict[str, Dict[str, list]] = {}
    for alpha in alphas:
        points = threshold_curve(
            rmax_values, alpha, noise, sigma_db=sigma_db, n_samples=n_samples, seed=seed
        )
        curves[f"alpha={alpha:g}"] = {
            "rmax": [p.rmax for p in points],
            "threshold": [p.optimal_d_threshold for p in points],
            "equivalent_alpha3": [p.equivalent_d_threshold_alpha3 for p in points],
            "regime": [p.regime for p in points],
        }
    result.data["curves"] = curves

    # Regime boundaries for alpha = 3 (paper: roughly 18 < Rmax < 60).
    alpha3 = curves.get("alpha=3")
    if alpha3 is not None:
        rmax_arr = np.asarray(alpha3["rmax"])
        thresh_arr = np.asarray(alpha3["threshold"])
        short_mask = thresh_arr > 2 * rmax_arr
        long_mask = thresh_arr < rmax_arr
        short_boundary = float(rmax_arr[short_mask].max()) if short_mask.any() else float("nan")
        long_boundary = float(rmax_arr[long_mask].min()) if long_mask.any() else float("nan")
        result.data["alpha3_short_range_below_rmax"] = short_boundary
        result.data["alpha3_long_range_above_rmax"] = long_boundary

    result.data["short_range_approximation"] = {
        f"alpha={alpha:g}": short_range_threshold_approx(10.0, alpha, noise) for alpha in alphas
    }
    result.add_note(
        "Thresholds rise with Rmax, clustering across alpha at short range and "
        "spreading with alpha at long range; the regime boundaries bracket the "
        "10-25 dB 'sweet spot' where commodity hardware operates."
    )
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Optimal threshold vs network radius",
    run,
    tags=("analytical",),
    series_keys=("curves",),
)
