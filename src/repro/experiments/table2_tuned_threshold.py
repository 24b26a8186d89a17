"""Table 2: carrier-sense efficiency with per-scenario optimised thresholds.

Reproduces the second Section 3.2.5 table: the same (Rmax, D) grid as Table 1
but with the carrier-sense threshold optimised per network size using the
Section 3.3.3 criterion.  The paper's values (thresholds 40, 55, 60 for
Rmax = 20, 40, 120):

    Rmax \\ D |   20 |   55 |  120
          20 |  93% |  91% |  99%
          40 |  96% |  87% |  96%
         120 |  89% |  83% |  92%

and the headline observation is that tuning buys almost nothing over the
fixed Dthresh = 55 of Table 1.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..constants import (
    DEFAULT_NOISE_RATIO,
    DEFAULT_PATH_LOSS_EXPONENT,
    DEFAULT_SHADOWING_SIGMA_DB,
    TABLE_D_VALUES,
    TABLE_RMAX_VALUES,
)
from ..api.experiment import experiment
from ..core.efficiency import tuned_threshold_table
from .base import ExperimentResult, format_table
from .table1_fixed_threshold import run as run_table1

__all__ = ["run", "PAPER_TABLE2_PERCENT", "PAPER_TABLE2_THRESHOLDS", "EXPERIMENT"]

EXPERIMENT_ID = "table-2"

#: The paper's reported percentages, indexed [rmax][d].
PAPER_TABLE2_PERCENT = {
    20.0: {20.0: 93, 55.0: 91, 120.0: 99},
    40.0: {20.0: 96, 55.0: 87, 120.0: 96},
    120.0: {20.0: 89, 55.0: 83, 120.0: 92},
}

#: The per-Rmax thresholds the paper used.
PAPER_TABLE2_THRESHOLDS = {20.0: 40.0, 40.0: 55.0, 120.0: 60.0}


def run(
    rmax_values: Sequence[float] = TABLE_RMAX_VALUES,
    d_values: Sequence[float] = TABLE_D_VALUES,
    alpha: float = DEFAULT_PATH_LOSS_EXPONENT,
    sigma_db: float = DEFAULT_SHADOWING_SIGMA_DB,
    noise: float = DEFAULT_NOISE_RATIO,
    n_samples: int = 20_000,
    seed: int = 0,
    thresholds_by_rmax: Mapping[float, float] | None = PAPER_TABLE2_THRESHOLDS,
    compare_with_fixed: bool = True,
) -> ExperimentResult:
    """Compute Table 2 (tuned thresholds) and compare with Table 1."""
    table = tuned_threshold_table(
        rmax_values,
        d_values,
        alpha,
        sigma_db,
        noise,
        n_samples,
        seed,
        thresholds_by_rmax=thresholds_by_rmax,
    )
    matrix = 100.0 * table.efficiency_matrix()
    result = ExperimentResult(EXPERIMENT_ID, "CS efficiency, per-scenario tuned thresholds")
    result.data["thresholds"] = {f"Rmax={k:g}": v for k, v in table.thresholds_by_rmax.items()}
    result.data["table"] = format_table(
        [f"Rmax={r:g}" for r in rmax_values], [f"D={d:g}" for d in d_values], matrix
    )
    result.data["measured_percent"] = {
        f"Rmax={r:g}": [float(matrix[i, j]) for j in range(len(d_values))]
        for i, r in enumerate(rmax_values)
    }
    result.data["paper_percent"] = {
        f"Rmax={r:g}": [PAPER_TABLE2_PERCENT.get(float(r), {}).get(float(d)) for d in d_values]
        for r in rmax_values
    }
    if compare_with_fixed:
        fixed = run_table1(
            rmax_values, d_values, 55.0, alpha, sigma_db, noise, n_samples, seed
        )
        tuned_mean = float(matrix.mean())
        fixed_matrix = fixed.data["measured_percent"]
        fixed_mean = float(
            sum(sum(row) for row in fixed_matrix.values())
            / (len(rmax_values) * len(d_values))
        )
        result.data["mean_efficiency_tuned_percent"] = tuned_mean
        result.data["mean_efficiency_fixed_percent"] = fixed_mean
        result.data["tuning_gain_points"] = tuned_mean - fixed_mean
        result.add_note(
            "Per-scenario threshold tuning changes mean efficiency by only a "
            "couple of points compared to the fixed factory threshold, the "
            "paper's robustness claim."
        )
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "CS efficiency, per-scenario tuned thresholds",
    run,
    tags=("analytical",),
)
