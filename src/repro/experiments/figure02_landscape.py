"""Figure 2: capacity "landscape" maps.

Reproduces the capacity-versus-receiver-position maps for the no-competition,
multiplexing, and concurrency (D = 20, 55, 120) cases with alpha = 3,
sigma = 0, and P0/N0 = 65 dB.  The harness reports summary statistics of each
map (peak position, capacity at reference points, the size of the interferer
"hole") that capture the qualitative features the paper describes.
"""

from __future__ import annotations

from typing import Sequence

from ..api.experiment import experiment
from ..constants import DEFAULT_NOISE_RATIO, DEFAULT_PATH_LOSS_EXPONENT
from ..core.landscape import capacity_map
from .base import ExperimentResult

__all__ = ["run", "EXPERIMENT"]

EXPERIMENT_ID = "figure-02"


def run(
    d_values: Sequence[float] = (20.0, 55.0, 120.0),
    extent: float = 150.0,
    resolution: int = 101,
    alpha: float = DEFAULT_PATH_LOSS_EXPONENT,
    noise: float = DEFAULT_NOISE_RATIO,
) -> ExperimentResult:
    """Compute the Figure 2 capacity maps and their summary statistics."""
    result = ExperimentResult(EXPERIMENT_ID, "Capacity landscape Ci(r, theta)")

    single = capacity_map("single", extent=extent, resolution=resolution, alpha=alpha, noise=noise)
    multiplexing = capacity_map(
        "multiplexing", extent=extent, resolution=resolution, alpha=alpha, noise=noise
    )
    result.data["single_capacity_at_r20"] = single.value_at(20.0, 0.0)
    result.data["multiplexing_capacity_at_r20"] = multiplexing.value_at(20.0, 0.0)
    result.data["multiplexing_is_half_of_single"] = (
        multiplexing.value_at(20.0, 0.0) / single.value_at(20.0, 0.0)
    )

    concurrency_stats = {}
    for d in d_values:
        conc = capacity_map(
            "concurrency", d=d, extent=extent, resolution=resolution, alpha=alpha, noise=noise
        )
        # Capacity at a reference receiver 20 units from the sender, on the far
        # side from the interferer (paper: capacity trends down as D shrinks).
        far_side = conc.value_at(20.0, 0.0)
        near_interferer = conc.value_at(-float(d), 10.0)
        concurrency_stats[f"D={d:g}"] = {
            "capacity_at_r20_far_side": far_side,
            "capacity_near_interferer": near_interferer,
            "peak_is_at_sender": conc.peak_position(),
        }
    result.data["concurrency"] = {
        key: value["capacity_at_r20_far_side"] for key, value in concurrency_stats.items()
    }
    result.data["hole_near_interferer"] = {
        key: value["capacity_near_interferer"] for key, value in concurrency_stats.items()
    }
    result.add_note(
        "Concurrency capacity at a fixed receiver increases with interferer "
        "distance D and a capacity 'hole' forms around the interferer, while "
        "multiplexing is exactly half of the no-competition map everywhere."
    )
    result.data["maps_available"] = ["single", "multiplexing"] + [f"concurrency D={d:g}" for d in d_values]
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Capacity landscape Ci(r, theta)",
    run,
    tags=("analytical",),
)
