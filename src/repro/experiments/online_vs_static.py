"""Online-vs-static ablation: closed-loop controllers against fixed settings.

The paper's answer to the exposed-terminal problem is a *tuned* static CCA
threshold -- pick the right number offline and the senders stop deferring
to each other.  This ablation asks what the online controllers from
:mod:`repro.control` recover *without* the offline tuning step.  Four arms
run the same bursty exposed-terminal workload:

* ``static-default`` -- the out-of-the-box threshold; the exposed senders
  defer and throughput is lost (the paper's Section 5 failure mode).
* ``static-tuned`` -- the oracle: the threshold the paper's offline sweep
  would pick.  Upper anchor.
* ``hysteresis`` -- the online threshold stepper.  Starts from the default
  threshold and climbs while windows stay clean.
* ``aimd`` -- additive-increase/multiplicative-decrease over the bitrate
  ladder, from the default threshold and base rate.

The interesting output is the per-epoch trace (one Artifact table): the
adaptive arms start at the static-default operating point and walk toward
the tuned one, so the gap they close is visible window by window::

    python -m repro.experiments run online-vs-static --set seeds=3
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..api import Study
from ..api.experiment import experiment
from ..runner import ResultCache
from ..scenarios import Scenario
from .base import ExperimentResult, default_cache_dir

__all__ = ["run", "build_scenarios", "EXPERIMENT"]

EXPERIMENT_ID = "online-vs-static"

#: The oracle threshold for the exposed-terminal geometry: past the ~-66
#: dBm sensed power of the opposite sender, so both pairs transmit
#: concurrently (the number the paper's offline sweep converges to).
DEFAULT_TUNED_CCA_DBM = -60.0

#: Controller arms swept against the two static anchors.
ADAPTIVE_ARMS: Dict[str, Dict[str, Any]] = {
    "hysteresis": {"step_db": 6.0},
    "aimd": {},
}


def build_scenarios(
    n_nodes: int,
    duration: float,
    epochs: int,
    mean_on_s: float,
    mean_off_s: float,
    tuned_cca: float,
    seeds: int,
    base_seed: int,
) -> List[Scenario]:
    """The four-arm grid as concrete specs (``seeds`` replicates each)."""
    scenarios: List[Scenario] = []
    for replicate in range(seeds):
        seed = base_seed + replicate
        common = dict(
            topology="exposed_terminal",
            n_nodes=n_nodes,
            extent_m=120.0,
            seed=seed,
            duration_s=duration,
            traffic="onoff",
            traffic_params={"mean_on_s": mean_on_s, "mean_off_s": mean_off_s},
        )
        scenarios.append(Scenario(name=f"ovs-static-default-r{replicate}", **common))
        scenarios.append(Scenario(
            name=f"ovs-static-tuned-r{replicate}",
            cca_threshold_dbm=tuned_cca,
            **common,
        ))
        for controller, params in ADAPTIVE_ARMS.items():
            scenarios.append(Scenario(
                name=f"ovs-{controller}-r{replicate}",
                controller=controller,
                controller_params=dict(params),
                control_epoch_s=duration / epochs,
                **common,
            ))
    return scenarios


def _arm_of(name: str) -> str:
    """``ovs-<arm>-r<k>`` -> ``<arm>``."""
    return name[len("ovs-"):name.rindex("-r")]


def run(
    n_nodes: int = 4,
    duration: float = 1.0,
    epochs: int = 10,
    mean_on_s: float = 0.08,
    mean_off_s: float = 0.04,
    tuned_cca: float = DEFAULT_TUNED_CCA_DBM,
    seeds: int = 2,
    base_seed: int = 3,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    force: bool = False,
) -> ExperimentResult:
    """Adaptive controllers vs static thresholds on bursty exposed terminals."""
    if epochs < 2:
        raise ValueError("need at least 2 control epochs")
    if seeds < 1:
        raise ValueError("seeds must be at least 1")
    scenarios = build_scenarios(
        n_nodes, duration, epochs, mean_on_s, mean_off_s,
        tuned_cca, seeds, base_seed,
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

    delivered: Dict[str, List[float]] = {}
    trace_rows: List[Dict[str, Any]] = []
    for part in results.split():
        meta = part.scenarios[0]
        arm = _arm_of(meta["name"])
        delivered.setdefault(arm, []).append(float(part.delivered_pps.sum()))
        control = meta.get("control")
        if control is not None:
            for row in control["trace"]:
                trace_rows.append({
                    "arm": arm,
                    "seed": meta["seed"],
                    **row,
                })

    summary: Dict[str, Dict[str, Any]] = {}
    static_pps = sum(delivered["static-default"]) / len(delivered["static-default"])
    for arm, values in delivered.items():
        mean_pps = sum(values) / len(values)
        summary[arm] = {
            "mean_delivered_pps": mean_pps,
            "gain_vs_static_default": mean_pps / static_pps if static_pps else float("nan"),
            "replicates": len(values),
        }

    result = ExperimentResult(
        EXPERIMENT_ID, "Online controllers vs static thresholds (bursty exposed terminals)"
    )
    result.data["summary"] = summary
    result.data["trace"] = trace_rows
    result.data["results"] = results
    result.data["adaptive_gain"] = max(
        summary[arm]["gain_vs_static_default"] for arm in ADAPTIVE_ARMS
    )
    result.add_note(
        f"arms: static-default, static-tuned@{tuned_cca:g}dBm, "
        + ", ".join(ADAPTIVE_ARMS)
    )
    result.add_note(
        f"onoff traffic mean_on={mean_on_s:g}s mean_off={mean_off_s:g}s, "
        f"{epochs} control epochs over {duration:g}s"
    )
    result.add_note(f"runner: {study_run.report.summary()}")
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Adaptive-vs-static ablation: online controllers against fixed settings",
    run,
    tags=("packet-level", "control", "ablation"),
)
