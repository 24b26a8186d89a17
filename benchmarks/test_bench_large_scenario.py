"""Benchmark L-1: a 500-node scale-free scenario on the pruned medium.

The scenario is a campus of preferential-attachment clusters (the
``scale_free`` generator with ``n_hubs``) spread far enough apart that most
node pairs fall below the medium's detectability floor.  Three properties
are pinned:

* **equivalence** -- the pruned medium delivers exactly the same per-flow
  packet counts as the unpruned reference medium (``cca_noise_db=0`` makes
  the comparison deterministic);
* **work** -- the receiver notifications the event loop makes (frames sent
  times the sender's notify-list size) are exact counts: 12,255 pruned vs
  129,740 unpruned, over the same 1,759 events;
* **speed** -- the pruned event loop is at least 2x faster than the
  unpruned one.  Only ``net.run`` is timed, best of two, with the network
  built outside the timer: set-up (placement, the N x N power matrix) costs
  the same on both sides and only diluted the ratio.  (The bound was 3x
  before the engine/hot-path overhaul; that overhaul shrank exactly the
  per-notification Python work that pruning avoids, so the
  pruned-vs-unpruned gap narrowed even though both got faster.)

The timing assertion is skipped on shared CI runners (``CI`` set), where
wall-clock ratios are not trustworthy; equivalence and the work counts are
still asserted there.  Setting ``REPRO_BENCH_SMOKE=1`` additionally shrinks
the scenario: the CI smoke step uses it to import-check and exercise the hot
path in seconds; the work counts are then only compared, not pinned.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.scenarios import Scenario, unpruned_variant
from repro.simulation.network import WirelessNetwork

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


def _timed_loop(scenario: Scenario, best_of: int) -> "tuple[WirelessNetwork, int, float]":
    """Build and run ``best_of`` times, timing only the event loop.

    Returns the last network, its ``events_processed`` and the fastest
    ``net.run`` wall time.  Best-of-two damps scheduler noise on a loaded
    machine when the timing assertion is active; runs are deterministic.
    """
    best = float("inf")
    for _ in range(best_of):
        net, _ = scenario.build_network()
        start = time.perf_counter()
        outcome = net.run(scenario.duration_s)
        best = min(best, time.perf_counter() - start)
    return net, outcome.events_processed, best


def _notifications(net: WirelessNetwork) -> int:
    """Receiver notifications the loop made: per sender, frames transmitted
    times the size of its notify list."""
    return sum(
        node.radio.stats.frames_transmitted * len(net.medium.neighborhood(node_id))
        for node_id, node in net.nodes.items()
    )


def test_pruned_medium_matches_unpruned_and_is_faster():
    scenario = large_scale_free_scenario()
    reference = unpruned_variant(scenario)

    # Identical results, column for column and flow for flow.
    pruned = scenario.run()
    assert pruned == reference.run()
    assert pruned.scenarios[0]["total_pps"] > 0

    timing_asserted = not SMOKE and not os.environ.get("CI")
    best_of = 2 if timing_asserted else 1
    pruned_net, pruned_events, pruned_s = _timed_loop(scenario, best_of)
    unpruned_net, unpruned_events, unpruned_s = _timed_loop(reference, best_of)

    # The deterministic gap behind the speed-up: same events, a tenth of
    # the receiver notifications.
    work = (_notifications(pruned_net), _notifications(unpruned_net))
    if SMOKE:
        assert work[0] < work[1]
    else:
        assert work == (12_255, 129_740)
        assert pruned_events == unpruned_events == 1_759

    if timing_asserted:
        assert unpruned_s / pruned_s >= 2.0, (
            f"pruned event loop only {unpruned_s / pruned_s:.1f}x faster "
            f"({pruned_s:.3f}s vs {unpruned_s:.3f}s)"
        )


@pytest.mark.benchmark(min_rounds=1, max_time=1.0, warmup=False)
def test_large_scenario_pruned_runtime(benchmark):
    scenario = large_scale_free_scenario()
    result = benchmark.pedantic(scenario.run, rounds=1, iterations=1)
    assert result.n_flows == scenario.n_nodes - scenario.topology_params["n_hubs"]
    assert result.scenarios[0]["total_pps"] > 0
