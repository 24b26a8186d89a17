"""Failure handling in the batch runner.

A raising task becomes a structured :class:`~repro.runner.TaskError` record
instead of aborting the batch; ``on_error="skip"`` degrades to partial
results plus a JSON failure manifest; a corrupt cache entry is evicted and
its task re-executed.  Failures are planted with
``repro.runner._testing.maybe_fail`` or by writing garbage into the cache.
"""

from __future__ import annotations

import json

import pytest

from repro.runner import (
    BatchExecutionError,
    BatchRunner,
    BatchTask,
    ResultCache,
    TaskError,
)

#: A task that can be told to raise (lives inside the package so worker
#: processes can resolve it by dotted path under any start method).
FLAKY_TASK = "repro.runner._testing.maybe_fail"


def flaky_tasks(n, fail_indices=()):
    return [
        BatchTask(fn=FLAKY_TASK, config={"value": i, "fail": i in fail_indices})
        for i in range(n)
    ]


# -- structured errors -------------------------------------------------------


class TestTaskError:
    def test_format_matches_historical_string_encoding(self):
        try:
            raise RuntimeError("task 3 exploded")
        except RuntimeError as exc:
            error = TaskError.from_exception(exc)
        assert (error.exc_module, error.exc_type) == ("builtins", "RuntimeError")
        assert error.message == "task 3 exploded"
        assert error.format().startswith("RuntimeError: task 3 exploded\n")
        assert "Traceback (most recent call last)" in error.format()
        assert error.format() == f"RuntimeError: task 3 exploded\n{error.traceback}"

    def test_manifest_is_lean_json(self):
        outcome = BatchRunner(workers=0, on_error="skip").run(flaky_tasks(2, {0}))
        (entry,) = outcome.failure_manifest
        json.dumps(entry)
        assert entry["exc_type"] == "RuntimeError"
        assert entry["message"] == "task 0 exploded"
        assert "traceback" not in entry
        # The manifest is the lean view of the structured record.
        error = outcome.report.errors[0]
        assert (entry["exc_type"], entry["message"]) == (error.exc_type, error.message)

    def test_report_carries_structured_errors(self):
        with pytest.raises(BatchExecutionError) as excinfo:
            BatchRunner(workers=0).run(flaky_tasks(1, {0}))
        report = excinfo.value.outcome.report
        assert isinstance(report.errors[0], TaskError)
        assert report.errors[0].exc_type == "RuntimeError"
        # The string channel is the structured record's rendering.
        assert report.failures[0] == report.errors[0].format()


# -- degraded completion (on_error="skip") -----------------------------------


class TestOnErrorSkip:
    def test_partial_results_and_manifest(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = flaky_tasks(3, {1})
        outcome = BatchRunner(workers=0, cache=cache, on_error="skip").run(tasks)
        assert outcome.results == [0, None, 4]
        assert outcome.failure_manifest == [{
            "index": 1,
            "key": tasks[1].cache_key,
            "fn": FLAKY_TASK,
            "exc_type": "RuntimeError",
            "message": "task 1 exploded",
        }]
        json.dumps(outcome.failure_manifest)
        # Completed neighbours made it to the cache; the failed slot did not.
        assert cache.get_result(tasks[0].cache_key) == 0
        assert cache.get(tasks[1].cache_key) is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            BatchRunner(on_error="ignore")


# -- cache corruption --------------------------------------------------------


class TestCorruptCacheFault:
    def test_corrupted_entry_is_evicted_and_reexecuted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = flaky_tasks(3)
        first = BatchRunner(workers=0, cache=cache).run(tasks)
        assert first.results == [0, 2, 4]
        # Garble one stored entry: the next run must treat it as a miss and
        # re-execute only that task, serving its neighbours from the cache.
        cache._path(tasks[1].cache_key).write_bytes(b"\x00garbage")
        second = BatchRunner(workers=0, cache=cache).run(tasks)
        assert second.results == [0, 2, 4]
        assert second.report.cache_hits == 2
        assert second.report.executed == 1
        # The re-executed result replaced the garbage entry.
        assert cache.get_result(tasks[1].cache_key) == 2
