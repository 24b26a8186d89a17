"""Batch execution of picklable tasks, in-process or over a process pool.

A :class:`BatchTask` names its function by dotted path rather than holding a
callable, so tasks stay picklable under every start method and the cache key
(function path + config) fully describes the computation.  ``workers <= 1``
runs everything in-process, which keeps tests fast and stack traces simple;
more workers dispatch through a stdlib
:class:`concurrent.futures.ProcessPoolExecutor`.

Dispatch is warm-pool friendly: ``Executor.map`` slices the pending list
into contiguous chunks, and an optional ``group_key`` sorts that list first
so tasks sharing expensive worker-side state (see
:mod:`repro.scenarios.execute`) land in one chunk, on one warm worker.
Neither the pool nor the ordering affects results or cache keys -- results
are placed by task index before they are returned.

A raising task is data, not an abort: it settles as a :class:`TaskError`
and the batch goes on, so every completed result reaches the cache.  A
worker that dies hard (``os._exit``, the OOM killer) breaks the pool, and
``run()`` raises :class:`~concurrent.futures.process.BrokenProcessPool`;
the results settled before that are already cached, so a re-run resumes
from there.
"""

from __future__ import annotations

import functools
import importlib
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .cache import ResultCache, config_hash

__all__ = [
    "BatchTask",
    "BatchReport",
    "BatchOutcome",
    "BatchRunner",
    "BatchExecutionError",
    "TaskError",
    "resolve_callable",
]

#: Accepted ``on_error`` modes: raise after the batch, or degrade to
#: partial results plus a failure manifest.
ON_ERROR_MODES = ("raise", "skip")

#: One pending task as it travels to a worker: (task index, fn path, config).
Payload = Tuple[int, str, Dict[str, Any]]


def resolve_callable(dotted_path: str) -> Callable[..., Any]:
    """Import ``"package.module.function"`` and return the function."""
    module_name, _, attr = dotted_path.rpartition(".")
    if not module_name:
        raise ValueError(f"{dotted_path!r} is not a dotted module path")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise AttributeError(f"module {module_name!r} has no attribute {attr!r}") from exc
    if not callable(fn):
        raise TypeError(f"{dotted_path!r} resolved to a non-callable {type(fn).__name__}")
    return fn


@dataclass(frozen=True)
class TaskError:
    """One task failure as picklable data: the exception's module, type
    name, message and the worker-side traceback."""

    exc_module: str
    exc_type: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "TaskError":
        return cls(
            exc_module=type(exc).__module__,
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
        )

    def format(self) -> str:
        """The string encoding: a ``Type: message`` line, then the traceback."""
        return f"{self.exc_type}: {self.message}\n{self.traceback}"


@dataclass(frozen=True)
class BatchTask:
    """One unit of work: ``fn(**config)`` with a JSON-able config.

    ``cache_key`` is computed on first read and kept, so a run hashes each
    config once.  Do not mutate ``config`` after that read.
    """

    fn: str
    config: Dict[str, Any] = field(default_factory=dict)

    @functools.cached_property
    def cache_key(self) -> str:
        return config_hash({"fn": self.fn, "config": self.config})


def _execute(payload: Payload) -> Tuple[int, Any, Optional[TaskError]]:
    """Run one task, tagged with its position; exceptions become data.

    A single raising task must not abort the batch and discard every
    completed-but-not-yet-stored result, so its exception crosses the
    process boundary as a :class:`TaskError` and the runner re-raises at
    the end.
    """
    index, fn_path, config = payload
    try:
        fn = resolve_callable(fn_path)
        return index, fn(**config), None
    except Exception as exc:  # noqa: BLE001 -- deliberately broad per-task isolation
        return index, None, TaskError.from_exception(exc)


@dataclass
class BatchReport:
    """Execution accounting for one :meth:`BatchRunner.run` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    #: Task index -> error message (``TaskError.format()``) for failed tasks.
    failures: Dict[int, str] = field(default_factory=dict)
    #: Task index -> structured :class:`TaskError` (same keys as failures).
    errors: Dict[int, TaskError] = field(default_factory=dict)

    def summary(self) -> str:
        failed = f", {len(self.failures)} failed" if self.failures else ""
        return (
            f"{self.total} tasks: {self.executed} executed, "
            f"{self.cache_hits} cache hits{failed} "
            f"({self.workers} worker(s), {self.elapsed_s:.2f}s)"
        )


@dataclass
class BatchOutcome:
    """Ordered task results plus the execution report.

    ``failure_manifest`` is the machine-readable account of every failed
    task (empty on a clean batch): one JSON-able record per failed slot with
    its index, cache key, function and exception.  With ``on_error="skip"``
    this is how a degraded sweep reports what is missing from its partial
    results.
    """

    results: List[Any]
    report: BatchReport
    failure_manifest: List[Dict[str, Any]] = field(default_factory=list)


class BatchExecutionError(RuntimeError):
    """Raised after the whole batch ran when one or more tasks failed.

    By the time this surfaces every completed task's result has been stored
    in the cache, so a re-run only re-executes the failing tasks.  The
    partial results are available on :attr:`outcome` (failed slots are
    ``None``) and the per-task error messages -- each a ``Type: msg`` summary
    line followed by the worker-side traceback -- on :attr:`failures`.
    """

    def __init__(self, failures: Dict[int, str], outcome: BatchOutcome) -> None:
        self.failures = dict(failures)
        self.outcome = outcome
        detail = "; ".join(
            f"task {i}: {msg.splitlines()[0]}" for i, msg in sorted(failures.items())
        )
        super().__init__(
            f"{len(failures)} of {outcome.report.total} batch task(s) failed ({detail})"
        )


class BatchRunner:
    """Runs batches of tasks serially or over a process pool, with caching."""

    def __init__(
        self,
        workers: int = 0,
        cache: Optional[ResultCache] = None,
        force: bool = False,
        chunksize: Optional[int] = None,
        group_key: Optional[Callable[[BatchTask], Any]] = None,
        on_error: str = "raise",
    ) -> None:
        """``workers <= 1`` means in-process serial execution.

        ``force`` re-executes every task even on a cache hit (results are
        re-written), which is how a sweep is refreshed after a model change
        without clearing the whole cache directory.

        ``chunksize`` fixes how many tasks ride in one pool submission
        (default: derived from the batch size so each worker sees a few
        chunks); the progress heartbeat fires once per chunk.  ``group_key``
        sorts pending tasks (stably) before dispatch so tasks with equal
        keys share chunks -- use it to keep warm worker-side state hot.
        Both are pure dispatch knobs: result order and cache keys are
        unaffected.

        ``on_error="raise"`` (default) raises :class:`BatchExecutionError`
        after the whole batch ran; ``"skip"`` returns partial results plus
        :attr:`BatchOutcome.failure_manifest`.
        """
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be positive")
        if on_error not in ON_ERROR_MODES:
            raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")
        self.workers = int(workers)
        self.cache = cache
        self.force = force
        self.chunksize = chunksize
        self.group_key = group_key
        self.on_error = on_error

    def _effective_chunksize(self, pending_count: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        # A few chunks per worker balances IPC amortisation against load
        # balancing when task durations vary.
        return max(1, pending_count // (max(1, self.workers) * 4))

    def run(self, tasks: Sequence[BatchTask], progress: Callable[[str], None] | None = None) -> BatchOutcome:
        """Execute the batch; results come back in task order."""
        start = time.perf_counter()
        report = BatchReport(total=len(tasks), workers=max(1, self.workers))
        results: List[Any] = [None] * len(tasks)

        pending: List[Payload] = []
        for index, task in enumerate(tasks):
            cached = None
            if self.cache is not None and not self.force:
                cached = self.cache.get(task.cache_key)
            if cached is None:
                pending.append((index, task.fn, dict(task.config)))
            else:
                results[index] = cached["result"]
                report.cache_hits += 1

        if pending and progress is not None:
            progress(f"executing {len(pending)}/{len(tasks)} tasks "
                     f"({report.cache_hits} cached)")

        if self.group_key is not None and len(pending) > 1:
            # Adjacency matters on both paths: chunks land same-group tasks
            # on one warm worker, and the serial loop's warm LRU stops
            # thrashing when groups arrive contiguously.
            group_key = self.group_key
            pending.sort(key=lambda payload: group_key(tasks[payload[0]]))

        chunksize = self._effective_chunksize(len(pending))

        def settle(outcomes: Iterable[Tuple[int, Any, Optional[TaskError]]]) -> None:
            """Record, cache and report each task as its outcome arrives."""
            for settled, (index, result, error) in enumerate(outcomes, start=1):
                if error is None:
                    results[index] = result
                    report.executed += 1
                    self._store(tasks[index], result)
                else:
                    report.errors[index] = error
                    report.failures[index] = error.format()
                if progress is not None and (
                    settled % chunksize == 0 or settled == len(pending)
                ):
                    progress(f"{settled}/{len(pending)} tasks done")

        if self.workers > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
                settle(pool.map(_execute, pending, chunksize=chunksize))
        else:
            settle(map(_execute, pending))

        report.elapsed_s = time.perf_counter() - start
        outcome = BatchOutcome(
            results=results,
            report=report,
            failure_manifest=[
                {
                    "index": index,
                    "key": tasks[index].cache_key,
                    "fn": tasks[index].fn,
                    "exc_type": error.exc_type,
                    "message": error.message,
                }
                for index, error in sorted(report.errors.items())
            ],
        )
        if report.failures and self.on_error == "raise":
            raise BatchExecutionError(report.failures, outcome)
        return outcome

    def _store(self, task: BatchTask, result: Any) -> None:
        if self.cache is not None:
            self.cache.put(task.cache_key, {"fn": task.fn, "config": task.config}, result)
