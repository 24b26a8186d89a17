"""Closed-loop recovery under ON/OFF bursts: static loses, adaptive re-finds.

Companion to :mod:`~repro.experiments.online_vs_static`: instead of one
burst profile and many arms, this harness sweeps the *burstiness* of the
exposed-terminal workload (fixed mean ON period, growing OFF gaps drawn
from the heavy-tailed :class:`~repro.simulation.traffic.OnOffTraffic`
model) and races exactly two arms at every level:

* ``static`` -- the default CCA threshold, untouched for the whole run.
* ``adaptive`` -- the ``hysteresis`` controller, which re-walks the
  threshold up from the default within a few clean epochs.

The recovery story is the per-epoch series: the static arm delivers the
deferred exposed-terminal rate forever, while the adaptive arm's delivered
pps climbs window by window as the controller steps the threshold toward
concurrency -- throughput the static configuration loses at every burst
level.  ``recovery`` tabulates the endpoint (adaptive/static gain per
duty cycle); ``epoch_series`` holds the climb itself::

    python -m repro.experiments run control-under-burst --set off_fracs=0.2,0.5
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..api import Study
from ..api.experiment import experiment
from ..runner import ResultCache
from ..scenarios import Scenario
from .base import ExperimentResult, default_cache_dir

__all__ = ["run", "build_scenarios", "EXPERIMENT"]

EXPERIMENT_ID = "control-under-burst"


def build_scenarios(
    off_fracs,
    n_nodes: int,
    duration: float,
    epochs: int,
    mean_on_s: float,
    step_db: float,
    seeds: int,
    base_seed: int,
) -> List[Scenario]:
    """Static/adaptive pairs across the OFF-fraction sweep."""
    scenarios: List[Scenario] = []
    for off_frac in off_fracs:
        mean_off_s = mean_on_s * off_frac / (1.0 - off_frac)
        for replicate in range(seeds):
            common = dict(
                topology="exposed_terminal",
                n_nodes=n_nodes,
                extent_m=120.0,
                seed=base_seed + replicate,
                duration_s=duration,
                traffic="onoff",
                traffic_params={"mean_on_s": mean_on_s, "mean_off_s": mean_off_s},
            )
            tag = f"off{off_frac:g}-r{replicate}"
            scenarios.append(Scenario(name=f"cub-static-{tag}", **common))
            scenarios.append(Scenario(
                name=f"cub-adaptive-{tag}",
                controller="hysteresis",
                controller_params={"step_db": step_db},
                control_epoch_s=duration / epochs,
                **common,
            ))
    return scenarios


def run(
    off_fracs: Any = (0.2, 0.4, 0.6),
    n_nodes: int = 4,
    duration: float = 1.0,
    epochs: int = 10,
    mean_on_s: float = 0.08,
    step_db: float = 6.0,
    seeds: int = 1,
    base_seed: int = 3,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    force: bool = False,
) -> ExperimentResult:
    """Race a static threshold against the hysteresis controller over bursts."""
    off_fracs = [
        float(f) for f in (off_fracs if isinstance(off_fracs, (list, tuple)) else [off_fracs])
    ]
    if any(not 0.0 <= f < 1.0 for f in off_fracs):
        raise ValueError("every OFF fraction must be in [0, 1)")
    if epochs < 2:
        raise ValueError("need at least 2 control epochs")
    scenarios = build_scenarios(
        off_fracs, n_nodes, duration, epochs, mean_on_s, step_db, seeds, base_seed,
    )

    cache = None
    if not no_cache:
        cache = ResultCache(cache_dir or default_cache_dir())
    study_run = (
        Study.of(scenarios)
        .cache(cache)
        .force(force)
        .run(workers=workers)
    )
    results = study_run.results()

    delivered: Dict[tuple, List[float]] = {}
    epoch_series: List[Dict[str, Any]] = []
    for part in results.split():
        meta = part.scenarios[0]
        arm = "adaptive" if meta["name"].startswith("cub-adaptive") else "static"
        off_frac = float(meta["name"].split("-off")[1].split("-r")[0])
        delivered.setdefault((off_frac, arm), []).append(
            float(part.delivered_pps.sum())
        )
        control = meta.get("control")
        if control is not None:
            for row in control["trace"]:
                epoch_series.append({
                    "off_frac": off_frac,
                    "seed": meta["seed"],
                    "epoch": row["epoch"],
                    "delivered_pps": row["delivered_pps"],
                    "cca_threshold_dbm": row["cca_threshold_dbm"],
                })

    recovery: List[Dict[str, Any]] = []
    for off_frac in off_fracs:
        static_vals = delivered[(off_frac, "static")]
        adaptive_vals = delivered[(off_frac, "adaptive")]
        static_pps = sum(static_vals) / len(static_vals)
        adaptive_pps = sum(adaptive_vals) / len(adaptive_vals)
        recovery.append({
            "off_frac": off_frac,
            "static_pps": static_pps,
            "adaptive_pps": adaptive_pps,
            "gain": adaptive_pps / static_pps if static_pps else float("nan"),
        })

    result = ExperimentResult(
        EXPERIMENT_ID, "Closed-loop recovery under ON/OFF bursty traffic"
    )
    result.data["recovery"] = recovery
    result.data["epoch_series"] = epoch_series
    result.data["results"] = results
    result.data["min_gain"] = min(row["gain"] for row in recovery)
    result.add_note(
        f"hysteresis step_db={step_db:g} vs static default threshold, "
        f"{epochs} epochs over {duration:g}s, mean_on={mean_on_s:g}s"
    )
    result.add_note(f"runner: {study_run.report.summary()}")
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Static-vs-adaptive recovery race under heavy-tailed ON/OFF bursts",
    run,
    tags=("packet-level", "control", "sweep"),
    series_keys=("epoch_series",),
)
