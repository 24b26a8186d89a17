"""Worker entry points for running scenarios through the batch runner.

:func:`run_scenario` is the module-level function the runner's worker
processes resolve by dotted path (``repro.scenarios.execute.run_scenario``);
it takes the flattened scenario config as keyword arguments, so a task's
config is exactly :meth:`Scenario.as_config`.

Warm pools: each worker process keeps a small LRU of
``(placement, link rows)`` warm states keyed by :meth:`Scenario.warm_key`, so
a sweep whose grid points differ only in traffic, MAC, or measurement
settings generates the placement and draws the shadowing once per group
rather than once per task.  The :class:`~repro.simulation.medium.LinkRows`
table is the one finalisation would build (same seeded channel), and the
received-power rows it builds on a sender's first transmission are kept, so
later cells of the group reuse them.  Results -- and therefore the sha256
result cache keys, which hash only the scenario config -- are untouched.
Sorting a batch with :func:`scenario_group_key` keeps same-group tasks in
the same submission chunks, which maximises per-worker hit rates.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Tuple

import numpy as np

from ..results import ResultSet
from ..runner.batch import BatchTask
from ..runner.cache import RUN_SCENARIO_PATH
from .spec import Scenario

__all__ = [
    "run_scenario",
    "scenario_task",
    "scenario_group_key",
    "aggregate_metrics",
    "unpruned_variant",
]

#: Warm states kept per worker process.  Each holds one placement and its
#: link rows: the condensed shadowing (N (N - 1) / 2 floats, ~1 MB at 500
#: nodes) plus two N-float rows per sender that has transmitted, so the cap
#: bounds memory while still covering a handful of interleaved (topology,
#: propagation) groups.
WARM_CACHE_SIZE = 4

_warm_cache: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()


def _warm_state_for(scenario: Scenario):
    """This worker's cached warm state for the scenario's group."""
    key = scenario.warm_key()
    state = _warm_cache.get(key)
    if state is None:
        state = scenario.compute_warm_state()
        _warm_cache[key] = state
        if len(_warm_cache) > WARM_CACHE_SIZE:
            _warm_cache.popitem(last=False)
    else:
        _warm_cache.move_to_end(key)
    return state


def run_scenario(**config: Any) -> ResultSet:
    """Build and run one scenario from its plain-dict config.

    Returns the scenario's columnar :class:`~repro.results.ResultSet` --
    numpy columns pickle as flat buffers, so this is also what keeps the
    worker->parent pipe traffic small on large sweeps.
    """
    scenario = Scenario.from_config(config)
    return scenario.run(warm=_warm_state_for(scenario))


def unpruned_variant(scenario: Scenario) -> Scenario:
    """The same scenario on the reference (unpruned) medium.

    Used by the equivalence tests and the large-scenario benchmark: with
    ``cca_noise_db=0`` the pruned and unpruned runs must deliver identical
    results, differing only in wall-clock time.
    """
    return scenario.with_overrides(detectability_margin_db=None)


def scenario_task(scenario: Scenario) -> BatchTask:
    """The batch task that runs ``scenario`` in a worker process."""
    return BatchTask(fn=RUN_SCENARIO_PATH, config=scenario.as_config())


def scenario_group_key(task: BatchTask) -> Any:
    """Warm-group sort key for :class:`~repro.runner.batch.BatchRunner`.

    Orders scenario tasks so that grid points sharing a (topology,
    propagation) warm state are adjacent, landing in the same submission
    chunk and therefore (usually) the same warm worker.  Non-scenario tasks
    sort together at the front, unchanged relative to each other.
    """
    if task.fn != RUN_SCENARIO_PATH:
        return ()
    try:
        return ("scenario",) + Scenario.from_config(task.config).warm_key()
    except (TypeError, ValueError):
        return ()


def aggregate_metrics(results: ResultSet) -> Dict[str, Any]:
    """Summarise a sweep into sweep-level statistics.

    Reduces the scenario index: the mean/min/max of the per-scenario
    ``total_pps`` values, overall and per topology.
    """
    summaries = results.scenarios
    if not summaries:
        return {"n_scenarios": 0}
    totals = np.asarray([r["total_pps"] for r in summaries], dtype=float)
    by_topology: Dict[str, List[float]] = {}
    for r in summaries:
        by_topology.setdefault(r["topology"], []).append(r["total_pps"])
    return {
        "n_scenarios": len(summaries),
        "total_pps_mean": float(totals.mean()),
        "total_pps_min": float(totals.min()),
        "total_pps_max": float(totals.max()),
        "by_topology_mean_pps": {
            name: float(np.mean(values)) for name, values in sorted(by_topology.items())
        },
    }
