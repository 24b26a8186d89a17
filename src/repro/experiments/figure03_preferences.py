"""Figure 3: receiver preference regions.

Classifies receiver positions into prefer-concurrency / prefer-multiplexing /
starved for interferer distances D = 20, 55, 120 and reports the area
fractions within circles of interest.  The paper's qualitative claims checked
here: for a nearby interferer (D = 20) multiplexing is preferred by
essentially every receiver within Rmax up to ~100; for a distant interferer
(D = 120) concurrency is preferred within Rmax up to ~50; at D = 55 receivers
split roughly down the middle.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..api.experiment import experiment
from ..constants import DEFAULT_NOISE_RATIO, DEFAULT_PATH_LOSS_EXPONENT
from ..core.preferences import preference_fractions
from .base import ExperimentResult

__all__ = ["run", "EXPERIMENT"]

EXPERIMENT_ID = "figure-03"


def run(
    d_values: Sequence[float] = (20.0, 55.0, 120.0),
    rmax_values: Sequence[float] = (20.0, 55.0, 100.0),
    alpha: float = DEFAULT_PATH_LOSS_EXPONENT,
    noise: float = DEFAULT_NOISE_RATIO,
) -> ExperimentResult:
    """Compute preference-region area fractions for the Figure 3 scenarios."""
    result = ExperimentResult(EXPERIMENT_ID, "Receiver preference regions")
    table: Dict[str, Dict[str, float]] = {}
    for d in d_values:
        for rmax in rmax_values:
            fractions = preference_fractions(rmax=rmax, d=d, alpha=alpha, noise=noise)
            table[f"D={d:g}, Rmax={rmax:g}"] = {
                "prefer_concurrency": fractions.prefer_concurrency,
                "prefer_multiplexing": fractions.prefer_multiplexing_total,
                "starved": fractions.starved,
            }
    result.data["fractions"] = {
        key: f"conc={v['prefer_concurrency']:.2f} mux={v['prefer_multiplexing']:.2f} "
        f"starved={v['starved']:.2f}"
        for key, v in table.items()
    }
    result.data["raw"] = table
    result.add_note(
        "Close interferers (D=20) leave almost every receiver preferring "
        "multiplexing; distant interferers (D=120) flip the preference to "
        "concurrency for compact networks; D=55 splits receivers roughly in half."
    )
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Receiver preference regions",
    run,
    tags=("analytical",),
)
