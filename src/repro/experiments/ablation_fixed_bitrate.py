"""Ablation: fixed bitrate versus adaptive bitrate in the analytical model.

Section 3.3.2 argues that a fixed bitrate "would transform this smooth SNR
gradient into a step-like drop in throughput", making carrier sense's single
threshold much less satisfactory.  This ablation replaces the Shannon
(adaptive) capacity with a fixed-rate step function -- a link delivers the
fixed rate when its SINR clears the rate's requirement and nothing otherwise
-- and recomputes carrier-sense efficiency on the Table 1 grid.  Efficiency
drops markedly in the transition region, which is exactly the regime that
motivated the classic hidden/exposed-terminal literature.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..api.experiment import experiment
from ..constants import (
    DEFAULT_DTHRESHOLD,
    DEFAULT_NOISE_RATIO,
    DEFAULT_PATH_LOSS_EXPONENT,
)
from ..core.averaging import draw_configuration
from ..core.geometry import Scenario
from ..core.throughput import carrier_sense_defers, interferer_distance
from ..units import db_to_linear
from .base import ExperimentResult
from .table1_fixed_threshold import run as run_table1

__all__ = ["run", "fixed_rate_efficiency", "EXPERIMENT"]

EXPERIMENT_ID = "ablation-fixed-bitrate"


def _step_capacity(snr: np.ndarray, snr_required: float, rate_value: float) -> np.ndarray:
    """Fixed-rate capacity: all or nothing depending on the SNR requirement."""
    return np.where(snr >= snr_required, rate_value, 0.0)


def fixed_rate_efficiency(
    scenario: Scenario,
    d_threshold: float,
    snr_required_db: float = 10.0,
    n_samples: int = 20_000,
    seed: int = 0,
) -> float:
    """Carrier-sense efficiency when links run a single fixed bitrate.

    The fixed rate needs ``snr_required_db`` of SINR; its nominal value is
    arbitrary because efficiency is a ratio.
    """
    rng = np.random.default_rng(seed)
    samples = draw_configuration(scenario.rmax, n_samples, rng)
    gains = samples.shadow_gains(scenario.sigma_db)
    alpha, noise, d = scenario.alpha, scenario.noise, scenario.d
    required = float(db_to_linear(snr_required_db))

    def snr_concurrent(r, theta, gain, gain_int):
        delta = interferer_distance(r, theta, d)
        return np.power(r, -alpha) * gain / (noise + np.power(delta, -alpha) * gain_int)

    snr_single_1 = np.power(samples.r1, -alpha) * gains["s1_r1"] / noise
    snr_single_2 = np.power(samples.r2, -alpha) * gains["s2_r2"] / noise
    conc_1 = _step_capacity(
        snr_concurrent(samples.r1, samples.theta1, gains["s1_r1"], gains["s2_r1"]), required, 1.0
    )
    conc_2 = _step_capacity(
        snr_concurrent(samples.r2, samples.theta2, gains["s2_r2"], gains["s1_r2"]), required, 1.0
    )
    mux_1 = 0.5 * _step_capacity(snr_single_1, required, 1.0)
    mux_2 = 0.5 * _step_capacity(snr_single_2, required, 1.0)

    defers = carrier_sense_defers(d, d_threshold, alpha, gains["sense"])
    cs_1 = np.where(defers, mux_1, conc_1)
    optimal = 0.5 * np.maximum(conc_1 + conc_2, mux_1 + mux_2)
    mean_optimal = float(np.mean(optimal))
    if mean_optimal == 0.0:
        return 1.0
    return float(np.mean(cs_1)) / mean_optimal


def run(
    rmax_values: Sequence[float] = (20.0, 40.0, 120.0),
    d_values: Sequence[float] = (20.0, 55.0, 120.0),
    d_threshold: float = DEFAULT_DTHRESHOLD,
    snr_required_db: float = 10.0,
    sigma_db: float = 8.0,
    alpha: float = DEFAULT_PATH_LOSS_EXPONENT,
    noise: float = DEFAULT_NOISE_RATIO,
    n_samples: int = 20_000,
    seed: int = 0,
) -> ExperimentResult:
    """Compare carrier-sense efficiency under adaptive and fixed bitrate."""
    result = ExperimentResult(EXPERIMENT_ID, "Fixed-bitrate ablation of the Table 1 grid")
    fixed: Dict[str, list] = {}
    for rmax in rmax_values:
        row = []
        for d in d_values:
            scenario = Scenario(rmax=rmax, d=d, alpha=alpha, sigma_db=sigma_db, noise=noise)
            row.append(
                100.0
                * fixed_rate_efficiency(
                    scenario, d_threshold, snr_required_db, n_samples, seed
                )
            )
        fixed[f"Rmax={rmax:g}"] = row
    adaptive = run_table1(
        rmax_values, d_values, d_threshold, alpha, sigma_db, noise, n_samples, seed
    ).data["measured_percent"]
    result.data["fixed_rate_percent"] = fixed
    result.data["adaptive_rate_percent"] = adaptive
    worst_fixed = min(min(row) for row in fixed.values())
    worst_adaptive = min(min(row) for row in adaptive.values())
    result.data["worst_case_fixed_percent"] = worst_fixed
    result.data["worst_case_adaptive_percent"] = worst_adaptive
    result.add_note(
        "Removing bitrate adaptation turns the smooth capacity gradient into a "
        "step, and carrier-sense efficiency in the transition region drops well "
        "below the adaptive-bitrate figures -- the regime where hidden/exposed "
        "terminal concerns are legitimate."
    )
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Fixed-bitrate ablation of the Table 1 grid",
    run,
    tags=("analytical", "ablation"),
)
