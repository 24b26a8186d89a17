"""Fault-tolerant batch execution of picklable tasks over a supervised pool.

A :class:`BatchTask` names its function by dotted path rather than holding a
callable, so tasks stay picklable under every start method and the cache key
(function path + config) fully describes the computation.  ``workers <= 1``
runs everything in-process, which keeps tests fast and stack traces simple.

Parallel dispatch goes through the supervised worker pool
(:mod:`repro.runner.supervisor`): per-task deadlines (``task_timeout_s``), a
deterministic :class:`~repro.runner.policy.RetryPolicy` with capped
seeded-jitter backoff, worker-crash survival (a SIGKILL'd worker loses only
its in-flight tasks, which are resubmitted under the retry budget), and an
optional resumable :class:`~repro.runner.journal.RunJournal`.  Dispatch is
warm-pool friendly: pending tasks travel to workers in chunks, and an
optional ``group_key`` orders the pending list so tasks sharing expensive
worker-side state (see :mod:`repro.scenarios.execute`) land on the same warm
worker.  Neither supervision nor dispatch ordering affects results or cache
keys -- results are re-ordered by task index before they are returned.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .cache import ResultCache, config_hash
from .faults import FaultPlan, FaultSpec, corrupt_cache_entry
from .journal import RunJournal
from .policy import KIND_TIMEOUT, RetryPolicy, TaskError, as_policy

__all__ = [
    "BatchTask",
    "BatchReport",
    "BatchOutcome",
    "BatchRunner",
    "BatchExecutionError",
    "resolve_callable",
]

#: Accepted ``on_error`` modes: raise after the batch, or degrade to
#: partial results plus a failure manifest.
ON_ERROR_MODES = ("raise", "skip")


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
class BatchTask:
    """One unit of work: ``fn(**config)`` with a JSON-able config.

    ``cache_key`` is computed on first read and kept: a run reads it up to
    five times per task, and each read cost a canonical-JSON dump plus a
    sha256 of the config.  Do not mutate ``config`` after that read.
    """

    fn: str
    config: Dict[str, Any] = field(default_factory=dict)

    @functools.cached_property
    def cache_key(self) -> str:
        return config_hash({"fn": self.fn, "config": self.config})


def _execute(payload: Tuple[int, str, Dict[str, Any]]) -> Tuple[int, Any, Optional[TaskError]]:
    """Run one task, tagged with its position; exceptions become data.

    Failures cross the process boundary as a structured
    :class:`~repro.runner.policy.TaskError` (picklable under every start
    method) rather than propagating: a single raising task must not abort
    the batch and discard every completed-but-not-yet-stored result.  The
    runner classifies, retries, and re-raises at the end.
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
    #: Attempts started (first tries + retries) across the whole batch.
    attempts: int = 0
    #: Attempts re-submitted under the retry policy.
    retries: int = 0
    #: Attempts killed (or, serially, disqualified) by the task deadline.
    timeouts: int = 0
    #: Worker processes recycled after a crash or deadline kill.
    worker_restarts: int = 0
    #: Tasks skipped because the resume journal marked them completed.
    journal_skips: int = 0
    #: Task index -> error message for tasks that exhausted their budget.
    failures: Dict[int, str] = field(default_factory=dict)
    #: Task index -> structured :class:`TaskError` (same keys as failures).
    errors: Dict[int, TaskError] = field(default_factory=dict)
    #: Task index -> attempts consumed (only tasks that actually ran).
    task_attempts: Dict[int, int] = field(default_factory=dict)

    def summary(self) -> str:
        failed = f", {len(self.failures)} failed" if self.failures else ""
        resilience = ""
        if self.retries:
            resilience += f", {self.retries} retries"
        if self.timeouts:
            resilience += f", {self.timeouts} timeouts"
        if self.worker_restarts:
            resilience += f", {self.worker_restarts} worker restarts"
        if self.journal_skips:
            resilience += f", {self.journal_skips} journal skips"
        return (
            f"{self.total} tasks: {self.executed} executed, "
            f"{self.cache_hits} cache hits{failed}{resilience} "
            f"({self.workers} worker(s), {self.elapsed_s:.2f}s)"
        )


@dataclass
class BatchOutcome:
    """Ordered task results plus the execution report.

    ``failure_manifest`` is the machine-readable account of every task that
    exhausted its retry budget (empty on a clean batch): one record per
    failed slot with the task key, error classification, and attempts
    consumed.  With ``on_error="skip"`` this is how a degraded sweep
    reports what is missing from its partial results.
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
    """Runs batches of tasks with supervised parallelism and result caching."""

    def __init__(
        self,
        workers: int = 0,
        cache: Optional[ResultCache] = None,
        force: bool = False,
        chunksize: Optional[int] = None,
        group_key: Optional[Callable[[BatchTask], Any]] = None,
        retry: Union[RetryPolicy, int, None] = None,
        task_timeout_s: Optional[float] = None,
        on_error: str = "raise",
        journal: Union[RunJournal, os.PathLike, str, None] = None,
        resume: bool = False,
        faults: Union[FaultPlan, Mapping[int, FaultSpec], None] = None,
        progress_every: Optional[int] = None,
    ) -> None:
        """``workers <= 1`` means in-process serial execution.

        ``force`` re-executes every task even on a cache hit (results are
        re-written), which is how a sweep is refreshed after a model change
        without clearing the whole cache directory.

        ``chunksize`` fixes how many tasks ride in one pool submission
        (default: derived from the batch size so each worker sees a few
        chunks).  ``group_key`` sorts pending tasks (stably) before
        submission so tasks with equal keys share chunks -- use it to keep
        warm worker-side state hot.  Both are pure dispatch knobs: result
        order and cache keys are unaffected.

        Fault tolerance:

        * ``retry`` -- an attempt budget (int) or a full
          :class:`~repro.runner.policy.RetryPolicy`; transient failures,
          deadline timeouts, and worker crashes are re-submitted until the
          budget is exhausted, with deterministic capped backoff.
        * ``task_timeout_s`` -- per-task deadline.  With workers, a task
          exceeding it has its worker SIGKILLed and recycled; serially the
          attempt is disqualified after the fact (nothing can preempt
          in-process work).
        * ``on_error`` -- ``"raise"`` (default) raises
          :class:`BatchExecutionError` after the whole batch ran;
          ``"skip"`` degrades to partial results plus
          :attr:`BatchOutcome.failure_manifest`.
        * ``journal`` -- a :class:`~repro.runner.journal.RunJournal` (or
          path) appending one JSONL line per task event.  With
          ``resume=True`` the journal is replayed first and tasks whose
          last terminal event is ``complete`` are served from the cache --
          even under ``force`` -- so an interrupted campaign re-executes
          only its unfinished tail.
        * ``faults`` -- a deterministic
          :class:`~repro.runner.faults.FaultPlan` for chaos testing.
        * ``progress_every`` -- heartbeat cadence in completed tasks
          (default: one heartbeat per dispatch chunk).
        """
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be positive")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        if on_error not in ON_ERROR_MODES:
            raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")
        if progress_every is not None and progress_every < 1:
            raise ValueError("progress_every must be positive")
        self.workers = int(workers)
        self.cache = cache
        self.force = force
        self.chunksize = chunksize
        self.group_key = group_key
        self.policy = as_policy(retry)
        self.task_timeout_s = None if task_timeout_s is None else float(task_timeout_s)
        self.on_error = on_error
        if journal is None or isinstance(journal, RunJournal):
            self.journal = journal
        else:
            self.journal = RunJournal(journal)
        self.resume = bool(resume)
        if faults is None:
            self.faults = FaultPlan({})
        elif isinstance(faults, FaultPlan):
            self.faults = faults
        else:
            self.faults = FaultPlan(faults)
        self.progress_every = progress_every

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
        journal = self.journal
        journal_state = journal.replay() if (journal is not None and self.resume) else None

        pending: List[Tuple[int, str, Dict[str, Any]]] = []
        for index, task in enumerate(tasks):
            key = task.cache_key
            if journal_state is not None and journal_state.is_completed(key):
                cached = self.cache.get(key) if self.cache is not None else None
                if cached is not None:
                    # Resume trumps ``force``: a journaled-complete task is
                    # finished business, not a candidate for refresh.
                    results[index] = cached["result"]
                    report.cache_hits += 1
                    report.journal_skips += 1
                    continue
                # Journaled complete but the cache cannot serve it (entry
                # evicted or cache disabled): fall through and re-execute.
            cached = None
            if self.cache is not None and not self.force:
                cached = self.cache.get(key)
            if cached is not None:
                results[index] = cached["result"]
                report.cache_hits += 1
                if journal is not None:
                    journal.record(key, index, "complete", attempt=0)
            else:
                pending.append((index, task.fn, dict(task.config)))

        if pending and progress is not None:
            progress(f"executing {len(pending)}/{len(tasks)} tasks "
                     f"({report.cache_hits} cached)")

        if self.group_key is not None and len(pending) > 1:
            # Adjacency matters in both branches: chunks land same-group
            # tasks on one warm worker, and the serial loop's warm LRU stops
            # thrashing when groups arrive contiguously.
            group_key = self.group_key
            pending.sort(key=lambda payload: group_key(tasks[payload[0]]))

        heartbeat_every = self.progress_every or self._effective_chunksize(len(pending))
        settled = 0

        def heartbeat() -> None:
            if progress is None or not pending:
                return
            if settled % heartbeat_every == 0 or settled == len(pending):
                progress(
                    f"{settled}/{len(pending)} tasks done "
                    f"({report.retries} retries, {report.timeouts} timeouts, "
                    f"{report.worker_restarts} worker restarts)"
                )

        def on_event(
            kind: str,
            index: int = -1,
            attempt: int = 0,
            result: Any = None,
            error: Optional[TaskError] = None,
        ) -> None:
            nonlocal settled
            if kind == "restart":
                report.worker_restarts += 1
                return
            task = tasks[index]
            key = task.cache_key
            if kind == "start":
                report.attempts += 1
                report.task_attempts[index] = attempt
                if journal is not None:
                    journal.record(key, index, "start", attempt)
            elif kind == "retry":
                assert error is not None
                report.retries += 1
                if error.kind == KIND_TIMEOUT:
                    report.timeouts += 1
                if journal is not None:
                    journal.record(key, index, "retry", attempt, error)
            elif kind == "done":
                results[index] = result
                report.executed += 1
                self._store(task, key, result, index, attempt)
                settled += 1
                if journal is not None:
                    journal.record(key, index, "complete", attempt)
                heartbeat()
            elif kind == "failed":
                assert error is not None
                if error.kind == KIND_TIMEOUT:
                    report.timeouts += 1
                report.errors[index] = error
                report.failures[index] = error.format()
                settled += 1
                if journal is not None:
                    journal.record(key, index, "fail", attempt, error)
                heartbeat()

        try:
            if self.workers > 1 and len(pending) > 1:
                from .supervisor import run_supervised

                run_supervised(
                    pending,
                    workers=min(self.workers, len(pending)),
                    chunksize=self._effective_chunksize(len(pending)),
                    policy=self.policy,
                    task_timeout_s=self.task_timeout_s,
                    faults=self.faults,
                    keys={index: tasks[index].cache_key for index, _, _ in pending},
                    on_event=on_event,
                )
            else:
                self._run_serial(tasks, pending, on_event)
        finally:
            if journal is not None:
                journal.close()

        report.elapsed_s = time.perf_counter() - start
        outcome = BatchOutcome(
            results=results,
            report=report,
            failure_manifest=self._failure_manifest(tasks, report),
        )
        if report.failures and self.on_error == "raise":
            raise BatchExecutionError(report.failures, outcome)
        return outcome

    def _run_serial(
        self,
        tasks: Sequence[BatchTask],
        pending: Sequence[Tuple[int, str, Dict[str, Any]]],
        on_event: Callable[..., None],
    ) -> None:
        """In-process execution with the same retry/deadline semantics.

        Deadlines cannot preempt in-process work, so an attempt that ran
        past ``task_timeout_s`` is disqualified *after* it returns --
        classified and retried exactly like a supervised kill.  ``kill``
        faults are simulated as worker-crash errors (hard-exiting here
        would take the parent down too).
        """
        max_attempts = self.policy.max_retries + 1
        for index, fn_path, config in pending:
            key = tasks[index].cache_key
            for attempt in range(1, max_attempts + 1):
                on_event("start", index=index, attempt=attempt)
                spec = self.faults.for_attempt(index, attempt)
                begin = time.perf_counter()
                if spec is not None and spec.kind == "kill":
                    result: Any = None
                    error: Optional[TaskError] = TaskError.worker_crash(
                        f"simulated worker kill (serial in-process mode, task {index})"
                    )
                else:
                    from .supervisor import _run_attempt

                    result, error = _run_attempt(index, attempt, fn_path, config, self.faults)
                elapsed = time.perf_counter() - begin
                if (
                    error is None
                    and self.task_timeout_s is not None
                    and elapsed > self.task_timeout_s
                ):
                    result = None
                    error = TaskError.timeout(self.task_timeout_s)
                if error is None:
                    on_event("done", index=index, attempt=attempt, result=result)
                    break
                if self.policy.should_retry(error, attempt):
                    on_event("retry", index=index, attempt=attempt, error=error)
                    delay = self.policy.backoff_s(key, attempt)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                on_event("failed", index=index, attempt=attempt, error=error)
                break

    @staticmethod
    def _failure_manifest(
        tasks: Sequence[BatchTask], report: BatchReport
    ) -> List[Dict[str, Any]]:
        return [
            {
                "index": index,
                "key": tasks[index].cache_key,
                "fn": tasks[index].fn,
                "kind": error.kind,
                "exc_type": error.exc_type,
                "message": error.message,
                "attempts": report.task_attempts.get(index, 0),
            }
            for index, error in sorted(report.errors.items())
        ]

    def _store(
        self, task: BatchTask, key: str, result: Any, index: Optional[int] = None,
        attempt: int = 1,
    ) -> None:
        if self.cache is None:
            return
        path = self.cache.put(key, {"fn": task.fn, "config": task.config}, result)
        if index is not None:
            spec = self.faults.for_attempt(index, attempt)
            if spec is not None and spec.kind == "corrupt_cache":
                corrupt_cache_entry(path)
