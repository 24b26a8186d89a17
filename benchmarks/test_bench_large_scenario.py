"""Benchmark L-1: a 500-node scale-free scenario on the pruned medium.

The scenario is a campus of preferential-attachment clusters (the
``scale_free`` generator with ``n_hubs``) spread far enough apart that most
node pairs fall below the medium's detectability floor.  Two properties are
pinned:

* **equivalence** -- the pruned medium delivers exactly the same per-flow
  packet counts as the unpruned reference medium (``cca_noise_db=0`` makes
  the comparison deterministic);
* **speed** -- the pruned run is at least 2x faster than the unpruned one.
  (The bound was 3x before the PR 3 engine/hot-path overhaul; that overhaul
  shrank exactly the per-notification Python work that pruning avoids, so
  the pruned-vs-unpruned gap narrowed even though both got faster.)

The timing assertion is skipped on shared CI runners (``CI`` set), where
wall-clock ratios are not trustworthy; equivalence is still asserted there.
Setting ``REPRO_BENCH_SMOKE=1`` additionally shrinks the scenario: the CI
smoke step uses it to import-check and exercise the hot path in seconds.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.scenarios import Scenario, unpruned_variant

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def large_scale_free_scenario(smoke: bool = SMOKE) -> Scenario:
    """The 500-node campus (120-node in smoke mode).

    Also the workload ``benchmarks/record.py`` measures for the persisted
    events/sec trajectory -- keep the two in sync by keeping them one
    function.
    """
    return Scenario(
        name="bench-large-scale-free",
        topology="scale_free",
        n_nodes=120 if smoke else 500,
        extent_m=8000.0,
        seed=11,
        sigma_db=0.0,
        cca_noise_db=0.0,
        duration_s=0.02 if smoke else 0.01,
        topology_params={"attach_range_frac": 0.008, "n_hubs": 12 if smoke else 30},
    )


def _timed(run, best_of: int) -> "tuple[dict, float]":
    """Run ``best_of`` times, keeping the result and the fastest wall time.

    Best-of-two damps scheduler noise on a loaded machine when the timing
    assertion is active; results are deterministic across rounds.
    """
    best = float("inf")
    result = None
    for _ in range(best_of):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_pruned_medium_matches_unpruned_and_is_faster():
    scenario = large_scale_free_scenario()
    timing_asserted = not SMOKE and not os.environ.get("CI")
    best_of = 2 if timing_asserted else 1
    pruned, pruned_s = _timed(scenario.run, best_of)
    unpruned, unpruned_s = _timed(unpruned_variant(scenario).run, best_of)

    # Identical results, column for column and flow for flow.
    assert pruned == unpruned
    assert pruned.scenarios[0]["total_pps"] > 0

    if timing_asserted:
        assert unpruned_s / pruned_s >= 2.0, (
            f"pruned medium only {unpruned_s / pruned_s:.1f}x faster "
            f"({pruned_s:.2f}s vs {unpruned_s:.2f}s)"
        )


@pytest.mark.benchmark(min_rounds=1, max_time=1.0, warmup=False)
def test_large_scenario_pruned_runtime(benchmark):
    scenario = large_scale_free_scenario()
    result = benchmark.pedantic(scenario.run, rounds=1, iterations=1)
    assert result.n_flows == scenario.n_nodes - scenario.topology_params["n_hubs"]
    assert result.scenarios[0]["total_pps"] > 0
