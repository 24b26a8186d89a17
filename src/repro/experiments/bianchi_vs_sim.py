"""Bianchi's closed-form DCF model against the packet-level simulator.

Saturates ``n`` stations in one collision domain (a compact line with every
station sending to the gateway at one end) and overlays the simulated
aggregate saturation throughput with the analytical prediction of
:func:`repro.networking.bianchi.saturation_throughput`, asserting agreement
within a configurable tolerance.  This is the standing correctness oracle
for saturated CSMA: the closed form stays cheap at station counts where
cross-simulation is not.

Two configuration choices make the comparison apples-to-apples:

* ``slot_commit=True`` on the MAC.  Bianchi's collision structure assumes
  802.11 slotting -- two stations whose countdowns end in the same slot
  cannot hear each other within it and collide.  The simulator's default
  zero-latency carrier sense lets same-instant deciders defer synchronously
  (near-perfect collision avoidance), which no analytical DCF model
  describes.
* A high bitrate (54 Mbps by default).  Its decode threshold is high
  enough that colliding frames from stations at different distances are
  genuinely destroyed; at 6 Mbps the capture effect rescues a winner from
  nearly every collision, again outside the model's assumptions.

Run it from the command line::

    python -m repro.experiments run bianchi-vs-sim --set n_senders=2,5
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..api import Study
from ..api.experiment import experiment
from ..constants import EXPERIMENT_PAYLOAD_BYTES
from ..networking.bianchi import saturation_throughput
from ..runner import ResultCache
from ..scenarios import Scenario
from .base import ExperimentResult, default_cache_dir

__all__ = ["run", "build_scenarios", "EXPERIMENT"]

EXPERIMENT_ID = "bianchi-vs-sim"


def build_scenarios(
    n_senders,
    extent_m: float,
    rate: float,
    duration: float,
    seed: int,
) -> List[Scenario]:
    """One saturated single-collision-domain line per swept station count.

    The gateway sits at one end of a compact line; every other station is a
    saturated sender routed (one hop) to it, with carrier-sense noise off so
    the collision domain is exact.
    """
    return [
        Scenario(
            name=f"bianchi-n{n}",
            topology="line",
            n_nodes=n + 1,
            extent_m=extent_m,
            seed=seed,
            topology_params={"flows": "to_gateway"},
            routing="shortest_path",
            cca_noise_db=0.0,
            rate_mbps=rate,
            duration_s=duration,
            mac_params={"slot_commit": True},
        )
        for n in n_senders
    ]


def run(
    n_senders: Any = (2, 3, 5, 7),
    extent_m: float = 20.0,
    rate: float = 54.0,
    payload: int = EXPERIMENT_PAYLOAD_BYTES,
    duration: float = 2.0,
    seed: int = 0,
    tolerance: float = 0.10,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    force: bool = False,
) -> ExperimentResult:
    """Compare analytical and simulated saturation throughput per station count."""
    n_senders = [
        int(n) for n in (n_senders if isinstance(n_senders, (list, tuple)) else [n_senders])
    ]
    if any(n < 1 for n in n_senders):
        raise ValueError("every swept sender count must be at least 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    scenarios = build_scenarios(n_senders, extent_m, rate, duration, seed)

    cache = None
    if not no_cache:
        cache = ResultCache(cache_dir or default_cache_dir())
    study_run = (
        Study.of(scenarios)
        .cache(cache)
        .force(force)
        .run(workers=workers)
    )

    parts = {part.scenarios[0]["name"]: part for part in study_run.results().split()}
    comparison: Dict[str, Dict[str, float]] = {}
    curve: Dict[str, List[float]] = {"n": [], "sim_pps": [], "bianchi_pps": [], "rel_err": []}
    worst = 0.0
    for n in n_senders:
        part = parts[f"bianchi-n{n}"]
        sim_pps = float(part.delivered_pps.sum())
        prediction = saturation_throughput(n, payload_bytes=payload, rate_mbps=rate)
        rel_err = (sim_pps - prediction.throughput_pps) / prediction.throughput_pps
        worst = max(worst, abs(rel_err))
        comparison[f"n={n}"] = {
            "sim_pps": sim_pps,
            "bianchi_pps": prediction.throughput_pps,
            "rel_err": rel_err,
            "tau": prediction.tau,
            "p_collision": prediction.p,
        }
        curve["n"].append(float(n))
        curve["sim_pps"].append(sim_pps)
        curve["bianchi_pps"].append(prediction.throughput_pps)
        curve["rel_err"].append(rel_err)

    result = ExperimentResult(EXPERIMENT_ID, "Bianchi model vs simulated saturation throughput")
    result.data["comparison"] = comparison
    result.data["curve"] = curve
    result.data["max_abs_rel_err"] = worst
    result.data["tolerance"] = float(tolerance)
    result.data["within_tolerance"] = bool(worst <= tolerance)
    result.add_note(
        f"saturated line, rate={rate:g} Mbps, payload={payload} B, "
        f"duration={duration:g}s, slot_commit MAC"
    )
    result.add_note(f"runner: {study_run.report.summary()}")
    if worst > tolerance:
        raise AssertionError(
            f"analytical/simulated saturation throughput disagree: worst "
            f"|relative error| {worst:.3f} exceeds tolerance {tolerance:.3f}"
        )
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Bianchi analytical oracle vs simulated saturation throughput",
    run,
    tags=("analytical", "packet-level"),
    series_keys=("curve",),
)
