"""Multi-hop saturated-network sweeps: line corridors and scale-free uplinks.

The paper's experiments are single-hop, but the city-scale north star is
forwarding: this harness drives the :mod:`repro.networking` layer over the
two topology families where multi-hop load concentrates -- an end-to-end
flow relayed down a line corridor (every interior station forwards), and
scale-free graphs with every node sending to the hub root ("Communication
Bottlenecks in Scale-Free Networks" is the reference picture for where that
traffic piles up).  Each scenario routes via static shortest-path tables and
bounds every relay FIFO, so the sweep surfaces the new ``hops`` /
``queue_drops`` / delay-percentile ResultSet columns end to end.

Scenarios run through the :class:`repro.api.Study` facade -- the same
warm-dispatch grouping, disk cache, and multiprocessing pool as every other
sweep -- and aggregate into one columnar
:class:`~repro.results.ResultSet`::

    python -m repro.experiments run saturated-network --set nodes=4,8
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..api import Study
from ..api.experiment import experiment
from ..runner import ResultCache
from ..scenarios import Scenario
from .base import ExperimentResult, default_cache_dir

__all__ = ["run", "build_scenarios", "EXPERIMENT"]

EXPERIMENT_ID = "saturated-network"

#: Line spacing that forces genuine relaying at the default 6 Mbps PHY:
#: adjacent stations decode each other (~112 m range) but skip-one
#: neighbours (200 m) do not, so an end-to-end flow crosses every hop.
DEFAULT_SPACING_M = 100.0


def build_scenarios(
    nodes,
    spacing_m: float,
    sf_extent_m: float,
    queue_capacity: Optional[int],
    cca: Optional[float],
    rate: float,
    duration: float,
    seeds: int,
    base_seed: int,
) -> List[Scenario]:
    """The line-corridor and scale-free-uplink grids as concrete specs."""
    scenarios: List[Scenario] = []
    for n in nodes:
        for replicate in range(seeds):
            seed = base_seed + replicate
            scenarios.append(Scenario(
                name=f"satnet-line-n{n}-r{replicate}",
                topology="line",
                n_nodes=n,
                # The generator spreads n stations over the extent, so the
                # corridor grows with the station count at fixed spacing.
                extent_m=spacing_m * (n - 1),
                seed=seed,
                topology_params={"flows": "end_to_end"},
                routing="shortest_path",
                queue_capacity=queue_capacity,
                cca_threshold_dbm=cca,
                rate_mbps=rate,
                duration_s=duration,
            ))
            scenarios.append(Scenario(
                name=f"satnet-sf-n{n}-r{replicate}",
                topology="scale_free",
                n_nodes=n,
                extent_m=sf_extent_m,
                seed=seed,
                topology_params={"flows": "to_root"},
                routing="shortest_path",
                queue_capacity=queue_capacity,
                cca_threshold_dbm=cca,
                rate_mbps=rate,
                duration_s=duration,
            ))
    return scenarios


def run(
    nodes: Any = (4, 8, 12),
    spacing_m: float = DEFAULT_SPACING_M,
    sf_extent_m: float = 600.0,
    queue_capacity: Optional[int] = 8,
    cca: Optional[float] = -90.0,
    rate: float = 6.0,
    duration: float = 0.5,
    seeds: int = 1,
    base_seed: int = 0,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    force: bool = False,
) -> ExperimentResult:
    """Sweep saturated multi-hop networks over line and scale-free topologies."""
    nodes = [int(n) for n in (nodes if isinstance(nodes, (list, tuple)) else [nodes])]
    if any(n < 2 for n in nodes):
        raise ValueError("every swept node count must be at least 2")
    if seeds < 1:
        raise ValueError("seeds must be at least 1")
    scenarios = build_scenarios(
        nodes, spacing_m, sf_extent_m, queue_capacity, cca, rate,
        duration, seeds, base_seed,
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

    summary: Dict[str, Dict[str, Any]] = {}
    for part in results.split():
        meta = part.scenarios[0]
        reachable = part.hops > 0
        summary[meta["name"]] = {
            "topology": meta["topology"],
            "n_nodes": meta["n_nodes"],
            "delivered_pps": float(part.delivered_pps.sum()),
            "mean_hops": float(part.hops[reachable].mean()) if reachable.any() else 0.0,
            "max_hops": int(part.hops.max(initial=0)),
            "queue_drops": int(part.queue_drops.sum()),
            "delay_p99_s": (
                float(np.nanmax(part.delay_p99_s))
                if np.isfinite(part.delay_p99_s).any() else float("nan")
            ),
            "unreachable_flows": int((~reachable).sum()),
        }

    result = ExperimentResult(EXPERIMENT_ID, "Saturated multi-hop network sweep")
    result.data["summary"] = summary
    result.data["results"] = results
    # 600 m default extent: wide enough that outlying scale-free stations
    # reach the root only through a hub relay (2-hop uplinks, hub-queue
    # drops), which is the congestion picture this sweep exists to show.
    result.add_note(
        f"routing=shortest_path queue_capacity={queue_capacity} "
        f"spacing={spacing_m:g}m sf_extent={sf_extent_m:g}m"
    )
    result.add_note(f"runner: {study_run.report.summary()}")
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Saturated multi-hop sweeps over line and scale-free topologies",
    run,
    tags=("packet-level", "sweep"),
)
