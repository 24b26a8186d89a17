"""Benchmark C-1: columnar cache entries vs the JSON flow-dict encoding.

A 200-node scale-free sweep is stored twice: once through the columnar
:class:`~repro.runner.cache.ResultCache` path (one ``<key>.bin`` entry file:
a small header with the key and config, then
:meth:`~repro.results.ResultSet.pack`) and once as the JSON flow-dict encoding of the same
:class:`~repro.results.ResultSet` (per-flow record dicts carrying every
column, i.e. what the dict-of-dicts pipeline would have to store to persist
the same information).  The pinned property: the columnar files are at
least 3x smaller.

``REPRO_BENCH_SMOKE=1`` shrinks the sweep so the suite stays seconds-scale
on CI; the ratio assertion holds at either size.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.results import ResultSet
from repro.runner import ResultCache
from repro.scenarios import Scenario, scenario_task

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

MIN_RATIO = 3.0


def sweep_scenarios(smoke: bool = SMOKE) -> list:
    """Three seed replicates of the 200-node campus (60-node in smoke mode)."""
    return [
        Scenario(
            name=f"bench-columnar-{seed}",
            topology="scale_free",
            n_nodes=60 if smoke else 200,
            extent_m=4000.0,
            seed=seed,
            cca_noise_db=0.0,
            duration_s=0.02,
            topology_params={"attach_range_frac": 0.01, "n_hubs": 6 if smoke else 12},
        )
        for seed in range(3)
    ]


def flow_dict_json_bytes(result: ResultSet, config: dict) -> int:
    """The JSON flow-dict encoding of the same information, in bytes."""
    payload = {
        "config": config,
        "scenarios": result.scenarios,
        "flows": result.to_flow_records(),
    }
    return len(json.dumps(payload, sort_keys=True).encode("utf-8"))


def test_columnar_cache_is_at_least_3x_smaller_than_flow_dict_json(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    columnar_bytes = 0
    flow_dict_bytes = 0
    for scenario in sweep_scenarios():
        result = scenario.run()
        task = scenario_task(scenario)
        cache.put(task.cache_key, {"fn": task.fn, "config": task.config}, result)
        columnar_bytes += cache._path(task.cache_key, ".bin").stat().st_size
        flow_dict_bytes += flow_dict_json_bytes(result, task.config)

        # The stored entry must still round-trip losslessly.
        assert cache.get(task.cache_key)["result"] == result

    ratio = flow_dict_bytes / columnar_bytes
    print(
        f"\ncolumnar: {columnar_bytes} B, flow-dict JSON: {flow_dict_bytes} B "
        f"({ratio:.1f}x)"
    )
    assert ratio >= MIN_RATIO, (
        f"columnar entries only {ratio:.2f}x smaller than the JSON flow-dict "
        f"encoding (want >= {MIN_RATIO}x)"
    )


@pytest.mark.benchmark(min_rounds=1, max_time=2.0, warmup=False)
def test_columnar_sweep_roundtrip_runtime(benchmark):
    """Wall time of the cache's encoding, ``pack`` then ``unpack``, for the
    sweep's whole ResultSet (trajectory)."""
    results = ResultSet.concat([s.run() for s in sweep_scenarios()])

    def roundtrip():
        return ResultSet.unpack(results.pack())

    loaded = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    assert loaded == results
