"""Batch runner: grid expansion, config hashing, caching, and pool execution."""

from __future__ import annotations

import json
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runner import (
    BatchExecutionError,
    BatchRunner,
    BatchTask,
    ResultCache,
    config_hash,
    expand_grid,
    per_task_seed,
)
from repro.runner.batch import resolve_callable
from repro.scenarios import Scenario, scenario_task

#: A cheap, pure, picklable module-level function usable as a batch task.
SEED_TASK = "repro.runner.sweep.per_task_seed"

#: A task that can be told to raise (lives inside the package so worker
#: processes can resolve it by dotted path under any start method).
FLAKY_TASK = "repro.runner._testing.maybe_fail"


class TestExpandGrid:
    def test_cartesian_product_with_base(self):
        configs = expand_grid({"alpha": 3.0}, {"rmax": [20, 55], "sigma": [0, 8]})
        assert len(configs) == 4
        assert configs[0] == {"alpha": 3.0, "rmax": 20, "sigma": 0}
        assert configs[-1] == {"alpha": 3.0, "rmax": 55, "sigma": 8}

    def test_last_axis_fastest_and_deterministic(self):
        configs = expand_grid({}, {"a": [1, 2], "b": [10, 20]})
        assert [(c["a"], c["b"]) for c in configs] == [(1, 10), (1, 20), (2, 10), (2, 20)]

    def test_grid_overrides_base(self):
        assert expand_grid({"x": 1}, {"x": [2]}) == [{"x": 2}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            expand_grid({}, {"a": []})

    def test_numpy_values_become_json_able(self):
        import numpy as np

        configs = expand_grid({}, {"rmax": np.asarray([20.0, 55.0])})
        json.dumps(configs)


class TestConfigHash:
    def test_key_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_integral_floats_match_ints(self):
        # CLI-parsed "50" (float) and API-passed 50 (int) must hit the same entry.
        assert config_hash({"n": 50.0}) == config_hash({"n": 50})
        assert config_hash({"n": 50.5}) != config_hash({"n": 50})

    def test_tuples_match_lists(self):
        assert config_hash({"v": (1, 2)}) == config_hash({"v": [1, 2]})

    def test_sets_rejected(self):
        with pytest.raises(TypeError):
            config_hash({"v": {1, 2}})

    def test_non_finite_floats_rejected(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="non-finite"):
                config_hash({"v": bad})

    def test_numpy_scalars_hash_as_their_python_value(self):
        import numpy as np

        plain = {"seed": 3, "sigma": 8.0, "rate": 6.5, "acks": True, "v": [1, 2.5]}
        numpy = {"seed": np.int64(3), "sigma": np.float64(8.0), "rate": np.float32(6.5),
                 "acks": np.bool_(True), "v": [np.int32(1), np.float64(2.5)]}
        assert config_hash(numpy) == config_hash(plain)
        with pytest.raises(ValueError, match="non-finite"):
            config_hash({"v": np.float32("nan")})


class TestNumpyScalarScenarios:
    """``Scenario`` fields and ``*_params`` given as numpy scalars (say, seeds
    from ``np.arange``) run, hash and store exactly like Python scalars."""

    def test_numpy_seed_matches_python_seed(self):
        import numpy as np

        spec = dict(topology="exposed_terminal", n_nodes=4, duration_s=0.05)
        numpy_spec = Scenario(seed=np.int64(3), **spec)
        plain_spec = Scenario(seed=3, **spec)
        assert type(numpy_spec.seed) is int
        assert scenario_task(numpy_spec).cache_key == scenario_task(plain_spec).cache_key
        result = numpy_spec.run()
        assert result == plain_spec.run()
        assert result.pack() == plain_spec.run().pack()
        assert result.to_bytes() == plain_spec.run().to_bytes()

    def test_numpy_values_inside_params_become_python_scalars(self):
        import numpy as np

        spec = Scenario(n_nodes=np.int32(5), sigma_db=np.float64(4.0),
                        use_acks=np.bool_(True),
                        traffic_params={"nested": [np.int64(2), {"x": np.float32(0.5)}]},
                        mac="csma", mac_params={"cw_min": np.int64(15)})
        assert spec.as_config() == Scenario(
            n_nodes=5, sigma_db=4.0, use_acks=True,
            traffic_params={"nested": [2, {"x": 0.5}]}, mac_params={"cw_min": 15},
        ).as_config()
        json.dumps(spec.as_config())

    def test_numpy_seed_sweep_caches(self, tmp_path):
        import numpy as np

        from repro.api import Study

        specs = [Scenario(topology="exposed_terminal", n_nodes=4, duration_s=0.05, seed=seed)
                 for seed in np.arange(2)]
        first = Study.of(specs).cache(tmp_path / "cache").run()
        replay = Study.of(specs).cache(tmp_path / "cache").run()
        assert replay.report.cache_hits == 2
        assert replay.results() == first.results()


class TestPerTaskSeed:
    def test_deterministic_and_distinct(self):
        seeds = [per_task_seed(0, i) for i in range(64)]
        assert seeds == [per_task_seed(0, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert per_task_seed(1, 0) != per_task_seed(0, 0)


def test_resolve_callable():
    assert resolve_callable(SEED_TASK) is per_task_seed
    with pytest.raises(ValueError):
        resolve_callable("no_dots")
    with pytest.raises(AttributeError):
        resolve_callable("repro.runner.sweep.nonexistent")


class TestBatchRunner:
    def _tasks(self, n=4):
        return [
            BatchTask(fn=SEED_TASK, config={"base_seed": 7, "index": i}) for i in range(n)
        ]

    def test_serial_results_ordered(self):
        outcome = BatchRunner(workers=0).run(self._tasks())
        assert outcome.results == [per_task_seed(7, i) for i in range(4)]
        assert outcome.report.executed == 4
        assert outcome.report.cache_hits == 0

    def test_pool_matches_serial(self):
        serial = BatchRunner(workers=0).run(self._tasks())
        pooled = BatchRunner(workers=2).run(self._tasks())
        assert pooled.results == serial.results

    def test_second_run_is_pure_cache_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = BatchRunner(workers=0, cache=cache).run(self._tasks())
        assert first.report.executed == 4
        second = BatchRunner(workers=0, cache=ResultCache(tmp_path / "cache")).run(self._tasks())
        assert second.report.executed == 0
        assert second.report.cache_hits == 4
        assert second.results == first.results

    def test_cache_key_hashed_once_per_task(self, tmp_path, monkeypatch):
        import repro.runner.batch as batch

        calls = []

        def counting_hash(config):
            calls.append(config)
            return config_hash(config)

        monkeypatch.setattr(batch, "config_hash", counting_hash)
        for expected_executed in (4, 0):  # cold, then every task a cache hit
            calls.clear()
            tasks = self._tasks()
            outcome = BatchRunner(workers=0, cache=ResultCache(tmp_path / "cache")).run(tasks)
            assert outcome.report.executed == expected_executed
            assert len(calls) == len(tasks)
            assert [task.cache_key for task in tasks] == [
                config_hash({"fn": task.fn, "config": task.config}) for task in tasks
            ]
            assert len(calls) == len(tasks)

    def test_force_reexecutes_despite_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        BatchRunner(workers=0, cache=cache).run(self._tasks())
        forced = BatchRunner(workers=0, cache=cache, force=True).run(self._tasks())
        assert forced.report.executed == 4

    def test_corrupt_cache_entry_reexecutes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        outcome = BatchRunner(workers=0, cache=cache).run(self._tasks(1))
        task = self._tasks(1)[0]
        entry_path = cache._path(task.cache_key)
        entry_path.write_text("{not json")
        retry = BatchRunner(workers=0, cache=cache).run([task])
        assert retry.report.cache_hits == 0
        assert retry.report.executed == 1
        assert retry.results == outcome.results
        # The re-executed result replaced the garbage entry.
        assert BatchRunner(workers=0, cache=cache).run([task]).report.cache_hits == 1


class TestCorruptEntryEviction:
    def test_corrupt_entry_unlinked_on_get(self, tmp_path):
        # Regression: a corrupt entry used to be treated as a miss but left
        # on disk, so __contains__ kept returning True for a key that get()
        # would never serve.
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" + "0" * 62, {"x": 1}, {"y": 2})
        key = "ab" + "0" * 62
        cache._path(key).write_text("{not json")
        assert key in cache
        assert cache.get(key) is None
        assert key not in cache
        assert not cache._path(key).exists()

    def test_rewritten_after_eviction(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "cd" + "0" * 62
        cache.put(key, {"x": 1}, "first")
        cache._path(key).write_text("\x00binary junk")
        assert cache.get(key) is None
        cache.put(key, {"x": 1}, "second")
        assert cache.get_result(key) == "second"


class TestBatchErrorIsolation:
    def _tasks(self, fail_indices, n=4):
        return [
            BatchTask(fn=FLAKY_TASK, config={"value": i, "fail": i in fail_indices})
            for i in range(n)
        ]

    def test_serial_failure_keeps_completed_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = BatchRunner(workers=0, cache=cache)
        with pytest.raises(BatchExecutionError) as excinfo:
            runner.run(self._tasks({1}))
        error = excinfo.value
        assert set(error.failures) == {1}
        assert "exploded" in error.failures[1]
        # Completed tasks were recorded and stored despite the failure.
        assert error.outcome.results == [0, None, 4, 6]
        assert error.outcome.report.executed == 3
        good = self._tasks({1})
        assert cache.get_result(good[0].cache_key) == 0
        assert cache.get_result(good[2].cache_key) == 4
        assert cache.get(good[1].cache_key) is None

    def test_parallel_failure_keeps_completed_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = BatchRunner(workers=2, cache=cache)
        with pytest.raises(BatchExecutionError) as excinfo:
            runner.run(self._tasks({0, 2}, n=6))
        error = excinfo.value
        assert set(error.failures) == {0, 2}
        assert error.outcome.results == [None, 2, None, 6, 8, 10]
        assert error.outcome.report.executed == 4

    def test_rerun_after_failure_only_executes_failed_tasks(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(BatchExecutionError):
            BatchRunner(workers=0, cache=cache).run(self._tasks({3}))
        # "Fixed" batch: same configs except the failing one no longer fails;
        # its config changed, so only that one executes.
        fixed = self._tasks(set())
        outcome = BatchRunner(workers=0, cache=cache).run(fixed)
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.report.executed == 1
        assert outcome.report.cache_hits == 3

    def test_failure_summary_mentions_failures(self, tmp_path):
        with pytest.raises(BatchExecutionError) as excinfo:
            BatchRunner(workers=0).run(self._tasks({1}))
        assert "1 failed" in excinfo.value.outcome.report.summary()

    def test_structured_errors_mirror_string_failures(self):
        # The legacy string channel is now a rendering of the structured
        # TaskError record; both must stay in lockstep.
        with pytest.raises(BatchExecutionError) as excinfo:
            BatchRunner(workers=0).run(self._tasks({1}))
        report = excinfo.value.outcome.report
        assert set(report.errors) == set(report.failures) == {1}
        error = report.errors[1]
        assert (error.exc_module, error.exc_type) == ("builtins", "RuntimeError")
        assert error.message == "task 1 exploded"
        assert "Traceback (most recent call last)" in error.traceback
        assert report.failures[1] == error.format()
        assert error.format().startswith("RuntimeError: task 1 exploded\n")

    def test_exception_message_format_unchanged(self):
        # Byte-compatibility of the summary line consumers parse.
        with pytest.raises(BatchExecutionError, match=r"1 of 4 batch task\(s\) failed "
                                                      r"\(task 1: RuntimeError: task 1 exploded\)"):
            BatchRunner(workers=0).run(self._tasks({1}))


class TestProgressHeartbeat:
    def _tasks(self, n):
        return [BatchTask(fn=FLAKY_TASK, config={"value": i}) for i in range(n)]

    def test_heartbeat_fires_throughout_the_batch(self):
        lines = []
        BatchRunner(workers=0, chunksize=2).run(self._tasks(6), progress=lines.append)
        assert lines[0] == "executing 6/6 tasks (0 cached)"
        # One heartbeat per chunk of two, the last one at the end.
        assert lines[1:] == ["2/6 tasks done", "4/6 tasks done", "6/6 tasks done"]

    def test_no_progress_callback_no_crash(self):
        outcome = BatchRunner(workers=0, chunksize=1).run(self._tasks(2))
        assert outcome.results == [0, 2]


def test_clean_run_summary_unchanged():
    tasks = [BatchTask(fn=FLAKY_TASK, config={"value": i}) for i in range(2)]
    summary = BatchRunner(workers=0).run(tasks).report.summary()
    assert summary.startswith("2 tasks: 2 executed, 0 cache hits (1 worker(s), ")
    assert summary.endswith("s)")


def test_dead_worker_raises_broken_pool_and_rerun_resumes(tmp_path):
    """A worker that exits hard breaks the pool: ``run()`` raises promptly
    instead of hanging, and a re-run serves what settled from the cache."""
    good = [BatchTask(fn=SEED_TASK, config={"base_seed": 7, "index": i}) for i in range(6)]
    doomed = good[:3] + [BatchTask(fn="os._exit", config={"status": 3})] + good[3:]
    cache = ResultCache(tmp_path / "cache")
    start = time.perf_counter()
    with pytest.raises(BrokenProcessPool):
        BatchRunner(workers=2, chunksize=1, cache=cache).run(doomed)
    assert time.perf_counter() - start < 30.0
    rerun = BatchRunner(workers=2, chunksize=1, cache=cache).run(good)
    assert rerun.results == BatchRunner(workers=0).run(good).results
    assert rerun.report.executed + rerun.report.cache_hits == len(good)


class TestScenarioCaching:
    def test_second_scenario_sweep_runs_zero_simulations(self, tmp_path):
        """The acceptance property: a repeated sweep is a pure cache hit."""
        specs = [
            Scenario(name=f"s{i}", topology="line", n_nodes=4, duration_s=0.2, seed=i)
            for i in range(2)
        ]
        tasks = [scenario_task(s) for s in specs]
        cache = ResultCache(tmp_path / "cache")
        first = BatchRunner(workers=0, cache=cache).run(tasks)
        assert first.report.executed == 2
        second = BatchRunner(workers=0, cache=ResultCache(tmp_path / "cache")).run(tasks)
        assert second.report.executed == 0
        assert second.results == first.results

    def test_cache_key_tracks_scenario_config(self):
        a = scenario_task(Scenario(topology="line", n_nodes=4, seed=0))
        b = scenario_task(Scenario(topology="line", n_nodes=4, seed=1))
        assert a.cache_key != b.cache_key
        assert a.cache_key == scenario_task(Scenario(topology="line", n_nodes=4, seed=0)).cache_key
