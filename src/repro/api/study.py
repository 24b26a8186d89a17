"""The fluent :class:`Study` facade over grid expansion, caching, and dispatch.

A Study declares a sweep; running it produces a :class:`StudyResult` whose
:meth:`~StudyResult.results` is one typed columnar
:class:`~repro.results.ResultSet` for the whole sweep.  It subsumes the
boilerplate previously duplicated across ``run-scenarios`` and the figure
experiments: Cartesian grid expansion, placement-stable per-replicate
seeding, warm-group task ordering, the worker pool, and the disk cache.

Scenario studies::

    from repro.api import Study

    results = (
        Study(topology="scale_free", n_nodes=50, duration_s=0.5)
        .sweep(cca_threshold_dbm=[-85.0, -82.0, -75.0], sigma_db=[0.0, 8.0])
        .seeds(10)
        .cache(".repro-cache")
        .run(workers=8)
        .results()
    )
    results.group_by("topology")            # ResultSet per topology
    results.scenario_column("total_pps")    # array reductions over the sweep

Generic task studies fan any module-level function out over a config grid
(the per-figure experiment harnesses run on this)::

    run = (
        Study.tasks("repro.experiments.figure04_curves.curve_task",
                    {"d_values": [...], "alpha": 3.0, "noise": 1e-6})
        .sweep(rmax=[20.0, 55.0, 120.0])
        .run(workers=3)
    )
    run.raw   # ordered task outputs

Sweep axes iterate with the last axis fastest (insertion order, like
:func:`repro.runner.expand_grid`), replicates always innermost.  Builder
methods return a new Study, so partial chains can be shared and forked, and
reject a bad setting (``workers(-1)``, ``on_error("ignore")``) at the call
with a ``ValueError`` naming the parameter.

A run that stopped part-way (a failed task, a dead worker, Ctrl-C) resumes
by running the same study again: every settled result is in the cache, so
only the rest executes.  ``on_error("skip")`` keeps the partial results of
a run with failed tasks plus a machine-readable failure manifest.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..results import ResultSet
from ..runner import (
    BatchOutcome,
    BatchReport,
    BatchRunner,
    BatchTask,
    ResultCache,
    config_hash,
    expand_grid,
)
from ..runner.batch import ON_ERROR_MODES
from ..scenarios import (
    Scenario,
    aggregate_metrics,
    scenario_group_key,
    scenario_task,
)

__all__ = ["Study", "StudyResult", "placement_seed"]

#: Scenario fields that determine the node placement.  Replicate seeds hash
#: only these, so (a) a grid point keeps its seed -- and its cache entry --
#: when the sweep grows around it, and (b) sweeps along channel/MAC axes
#: (sigma, CCA, rate, mac) compare the *same* placement rather than
#: re-rolling the topology.
_PLACEMENT_AXES = ("topology", "n_nodes", "extent_m")


def placement_seed(config: Mapping[str, Any], replicate: int, base_seed: int = 0) -> int:
    """The deterministic placement-stable seed for one replicate of a config.

    This is the derivation the ``run-scenarios`` CLI has used since the
    sweep subsystem landed, so studies and the CLI agree on seeds -- and
    therefore on cache keys -- for the same grid.
    """
    return int(
        config_hash({
            "topology": config["topology"],
            "n_nodes": config["n_nodes"],
            "extent_m": config["extent_m"],
            "replicate": replicate,
            "base_seed": base_seed,
        })[:8],
        16,
    )


class Study:
    """An immutable-style builder for parameter sweeps.

    Construct with a base :class:`~repro.scenarios.Scenario` (or its field
    overrides) for scenario studies, or via :meth:`tasks` for generic
    dotted-path task fan-out.  Chain builder calls, then :meth:`run`.
    """

    def __init__(
        self, base: Union[Scenario, Mapping[str, Any], None] = None, **overrides: Any
    ) -> None:
        if isinstance(base, Scenario):
            scenario = base.with_overrides(**overrides) if overrides else base
        elif base is None:
            scenario = Scenario(**overrides)
        elif isinstance(base, Mapping):
            merged = dict(base)
            merged.update(overrides)
            scenario = Scenario(**merged)
        else:
            raise TypeError(f"base must be a Scenario or mapping, not {type(base).__name__}")
        self._init_builder_state(base=scenario)

    def _init_builder_state(self, base: Optional[Scenario]) -> None:
        """The single home of every builder field's default (both
        constructors go through here, so task studies can never miss one)."""
        self._base: Optional[Scenario] = base
        self._fn: Optional[str] = None
        self._task_base: Dict[str, Any] = {}
        self._explicit: Optional[List[Any]] = None  # Scenarios or task configs
        self._axes: Dict[str, Sequence[Any]] = {}
        self._n_seeds: Optional[int] = None
        self._base_seed: int = 0
        self._name_fn: Optional[Callable[[Dict[str, Any], Optional[int]], str]] = None
        self._cache: Optional[ResultCache] = None
        self._force: bool = False
        self._workers: int = 0
        self._on_error: str = "raise"

    # -- alternate constructors ------------------------------------------------

    @classmethod
    def tasks(cls, fn: str, base: Optional[Mapping[str, Any]] = None) -> "Study":
        """A generic study over ``fn(**config)`` batch tasks.

        ``fn`` is a dotted module path (the :class:`~repro.runner.BatchTask`
        convention); ``base`` is the config shared by every grid point.
        """
        study = cls.__new__(cls)
        study._init_builder_state(base=None)
        study._fn = str(fn)
        study._task_base = dict(base or {})
        return study

    @classmethod
    def of(cls, scenarios: Sequence[Scenario]) -> "Study":
        """A study over an explicit, already-built scenario list."""
        scenarios = list(scenarios)
        for scenario in scenarios:
            if not isinstance(scenario, Scenario):
                raise TypeError("Study.of takes Scenario instances")
        study = cls(scenarios[0] if scenarios else None)
        study._explicit = scenarios
        return study

    @classmethod
    def of_configs(cls, fn: str, configs: Sequence[Mapping[str, Any]]) -> "Study":
        """A generic task study over an explicit config list."""
        study = cls.tasks(fn)
        study._explicit = [dict(config) for config in configs]
        return study

    def _clone(self) -> "Study":
        other = copy.copy(self)
        other._axes = dict(self._axes)
        return other

    # -- builder steps ---------------------------------------------------------

    def sweep(self, **axes: Sequence[Any]) -> "Study":
        """Add Cartesian sweep axes (field name -> sequence of values)."""
        other = self._clone()
        if self._explicit is not None:
            raise ValueError("cannot sweep an explicit scenario/config list")
        other._axes.update(axes)
        return other

    def seeds(self, n: int, base_seed: int = 0) -> "Study":
        """Run ``n`` replicates per grid point with placement-stable seeds."""
        if n < 1:
            raise ValueError("need at least one seed replicate")
        if self._base is None:
            raise ValueError("seeds() applies to scenario studies; sweep a 'seed' axis instead")
        other = self._clone()
        other._n_seeds = int(n)
        other._base_seed = int(base_seed)
        return other

    def named(self, name_fn: Callable[[Dict[str, Any], Optional[int]], str]) -> "Study":
        """Derive per-scenario names: ``name_fn(config, replicate) -> str``.

        Names are part of the scenario config, hence of the cache key; a
        stable naming scheme is what lets a re-run hit yesterday's entries.
        """
        other = self._clone()
        other._name_fn = name_fn
        return other

    def cache(self, where: Union[ResultCache, str, None]) -> "Study":
        """Attach a result cache (a :class:`ResultCache` or its root path)."""
        other = self._clone()
        if where is None or isinstance(where, ResultCache):
            other._cache = where
        else:
            other._cache = ResultCache(where)
        return other

    def force(self, force: bool = True) -> "Study":
        """Re-execute every task even on cache hits (results re-written)."""
        other = self._clone()
        other._force = bool(force)
        return other

    def workers(self, n: int) -> "Study":
        """Default worker-process count for :meth:`run` (0/1 = in-process)."""
        if n < 0:
            raise ValueError(f"workers must be non-negative, got {n}")
        other = self._clone()
        other._workers = int(n)
        return other

    def on_error(self, mode: str) -> "Study":
        """``"raise"`` (default) or ``"skip"`` -- degrade to partial results
        plus a failure manifest instead of raising after the batch."""
        if mode not in ON_ERROR_MODES:
            raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, got {mode!r}")
        other = self._clone()
        other._on_error = mode
        return other

    # -- expansion -------------------------------------------------------------

    def _expanded_configs(self) -> List[Dict[str, Any]]:
        if self._base is not None:
            base = self._base.as_config()
        else:
            base = dict(self._task_base)
        axes: Dict[str, Sequence[Any]] = dict(self._axes)
        if self._n_seeds is not None:
            axes["replicate"] = list(range(self._n_seeds))
        configs = expand_grid(base, axes)
        if self._n_seeds is not None:
            for config in configs:
                replicate = config.pop("replicate")
                config["seed"] = placement_seed(config, replicate, self._base_seed)
                if self._name_fn is not None:
                    config["name"] = self._name_fn(config, replicate)
        elif self._name_fn is not None:
            for config in configs:
                config["name"] = self._name_fn(config, None)
        return configs

    def scenarios(self) -> List[Scenario]:
        """The concrete scenario list this study will run."""
        if self._base is None:
            raise ValueError("a task study has configs, not scenarios")
        if self._explicit is not None:
            return list(self._explicit)
        return [Scenario.from_config(config) for config in self._expanded_configs()]

    def configs(self) -> List[Dict[str, Any]]:
        """The expanded task/scenario configs this study will run.

        For scenario studies this is the raw expanded grid *before*
        :class:`Scenario` construction, so callers that want per-config
        validation errors (the CLI) can attribute them.
        """
        if self._explicit is not None:
            if self._base is not None:
                return [scenario.as_config() for scenario in self._explicit]
            return [dict(config) for config in self._explicit]
        return self._expanded_configs()

    def _tasks(self) -> List[BatchTask]:
        if self._base is not None:
            return [scenario_task(scenario) for scenario in self.scenarios()]
        return [BatchTask(fn=self._fn, config=config) for config in self.configs()]

    # -- execution -------------------------------------------------------------

    def run(
        self,
        workers: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> "StudyResult":
        """Execute the sweep and return the :class:`StudyResult`.

        Scenario studies dispatch with warm-group ordering (grid points
        sharing a (topology, propagation) state travel together -- purely a
        wall-clock optimisation, see :mod:`repro.scenarios.execute`).
        """
        scenarios = self.scenarios() if self._base is not None else None
        tasks = (
            [scenario_task(scenario) for scenario in scenarios]
            if scenarios is not None
            else self._tasks()
        )
        runner = BatchRunner(
            workers=self._workers if workers is None else int(workers),
            cache=self._cache,
            force=self._force,
            group_key=scenario_group_key if self._base is not None else None,
            on_error=self._on_error,
        )
        outcome = runner.run(tasks, progress=progress)
        return StudyResult(study=self, scenarios=scenarios, outcome=outcome)


class StudyResult:
    """The outcome of one :meth:`Study.run`: ordered results plus accounting."""

    def __init__(
        self,
        study: Study,
        scenarios: Optional[List[Scenario]],
        outcome: BatchOutcome,
    ) -> None:
        self.study = study
        self.scenarios = scenarios
        self.outcome = outcome
        self._result_set: Optional[ResultSet] = None

    @property
    def raw(self) -> List[Any]:
        """Per-task results in task order (``None`` for tasks that failed
        under ``on_error="skip"``)."""
        return self.outcome.results

    @property
    def report(self) -> BatchReport:
        return self.outcome.report

    @property
    def failures(self) -> List[Dict[str, Any]]:
        """The machine-readable failure manifest (one entry per task that
        failed under ``on_error="skip"``)."""
        return self.outcome.failure_manifest

    @property
    def completed(self) -> List[Any]:
        """Per-task results with failed (``None``) slots dropped.

        Identical to :attr:`raw` unless the study ran with
        ``on_error="skip"`` and some tasks failed.
        """
        return [result for result in self.raw if result is not None]

    def results(self) -> ResultSet:
        """The whole sweep as one columnar :class:`~repro.results.ResultSet`.

        Tasks that failed under ``on_error="skip"`` are absent (see
        :attr:`failures`).
        """
        if self._result_set is None:
            self._result_set = ResultSet.concat(self.completed)
        return self._result_set

    def aggregate(self) -> Dict[str, Any]:
        """Sweep-level statistics (see :func:`repro.scenarios.aggregate_metrics`)."""
        return aggregate_metrics(self.results())

    def __repr__(self) -> str:
        return f"StudyResult({self.report.summary()})"
