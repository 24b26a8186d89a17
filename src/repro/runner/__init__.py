"""Parallel batch execution of simulation and analysis tasks.

The runner turns a parameter sweep into a list of :class:`BatchTask` items
(a dotted-path function plus a JSON-able config), executes them in-process
or over a stdlib process pool with per-task seeding, and caches every
result on disk keyed by a stable hash of the task config, so a repeated --
or interrupted -- sweep re-executes only what the cache cannot serve.

Typical use::

    from repro.runner import BatchRunner, BatchTask, ResultCache, expand_grid

    configs = expand_grid({"alpha": 3.0}, {"rmax": [20, 55, 120]})
    tasks = [BatchTask(fn="repro.experiments.figure04_curves.curve_task",
                       config=c) for c in configs]
    runner = BatchRunner(workers=4, cache=ResultCache("~/.cache/repro"))
    outcome = runner.run(tasks)
    outcome.results          # ordered like the tasks
    outcome.report.executed  # 0 on a warm cache
"""

from .batch import (
    BatchExecutionError,
    BatchOutcome,
    BatchReport,
    BatchRunner,
    BatchTask,
    TaskError,
)
from .cache import ResultCache, config_hash
from .sweep import expand_grid, per_task_seed

__all__ = [
    "BatchExecutionError",
    "BatchOutcome",
    "BatchReport",
    "BatchRunner",
    "BatchTask",
    "ResultCache",
    "TaskError",
    "config_hash",
    "expand_grid",
    "per_task_seed",
]
