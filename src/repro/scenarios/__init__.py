"""Declarative whole-network scenarios: topology generators plus run specs.

The subsystem turns "a network" into data: a :class:`Scenario` couples a
seeded topology generator (uniform disc, grid, clustered hotspot, scale-free,
hidden/exposed-terminal canonical cells, corridor) with propagation, traffic,
and MAC configuration, and expands deterministically into a runnable
:class:`repro.simulation.network.WirelessNetwork`.  Combined with
:mod:`repro.runner` this is how parameter sweeps over many geometries execute
in parallel with cached results (``python -m repro.experiments
run-scenarios``).
"""

from .execute import (
    RUN_SCENARIO_PATH,
    aggregate_metrics,
    run_scenario,
    scenario_group_key,
    scenario_task,
    unpruned_variant,
)
from .spec import Scenario
from .topologies import TOPOLOGIES, Placement, generate_topology, register_topology

__all__ = [
    "RUN_SCENARIO_PATH",
    "Placement",
    "Scenario",
    "TOPOLOGIES",
    "aggregate_metrics",
    "generate_topology",
    "register_topology",
    "run_scenario",
    "scenario_group_key",
    "scenario_task",
    "unpruned_variant",
]
