"""repro.results: columnar ResultSet construction, combinators, and storage.

The contract under test: the ResultSet is the native currency of scenario
runs; its binary form round-trips losslessly for every seeded topology; and
a cache entry written before the columnar format is rejected with a
``TypeError`` that names the remedy rather than silently lifted.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.results import FLOW_COLUMNS, ResultSet
from repro.runner import BatchRunner, ResultCache
from repro.scenarios import TOPOLOGIES, Scenario, scenario_task

#: One cheap scenario per registered topology (all 7 seeded generators).
ALL_TOPOLOGY_SCENARIOS = [
    Scenario(name=f"rt-{name}", topology=name, n_nodes=9, extent_m=150.0,
             duration_s=0.1, seed=11 + i)
    for i, name in enumerate(sorted(TOPOLOGIES))
]


def small_resultset() -> ResultSet:
    return Scenario(topology="exposed_terminal", n_nodes=4, duration_s=0.2, seed=5).run()


class TestScenarioRunProducesResultSet:
    def test_native_columns_are_populated(self):
        rs = small_resultset()
        assert rs.n_flows == 2 and rs.n_scenarios == 1
        assert np.all(rs.delivered_packets >= 0)
        assert np.all(rs.offered_packets > 0)
        assert np.all(rs.sent_packets > 0)
        assert np.all(np.isfinite(rs.loss_frac))
        assert np.all((rs.loss_frac >= 0) & (rs.loss_frac <= 1))
        # delay_s carries the mean MAC enqueue-to-delivery latency
        assert np.all(np.isfinite(rs.delay_s))
        assert np.all(rs.delay_s > 0)
        # offered >= sent >= delivered along each flow
        assert np.all(rs.offered_packets >= rs.sent_packets)
        assert np.all(rs.sent_packets >= rs.delivered_packets)

    def test_offered_pps_matches_counters(self):
        rs = small_resultset()
        duration = rs.scenarios[0]["duration_s"]
        assert np.array_equal(rs.offered_pps, rs.offered_packets / duration)

    def test_summary_scalars_match_per_flow_columns(self):
        rs = small_resultset()
        meta = rs.scenarios[0]
        assert meta["total_pps"] == float(sum(rs.delivered_pps.tolist()))
        assert meta["min_flow_pps"] == rs.delivered_pps.min()
        assert meta["max_flow_pps"] == rs.delivered_pps.max()

    def test_multi_scenario_subscript_rejected(self):
        """No dict-style access at any width: scalars live in ``scenarios``,
        flow columns are attributes or :meth:`ResultSet.column` lookups."""
        single = small_resultset()
        both = ResultSet.concat([single,
                                 Scenario(topology="line", n_nodes=4,
                                          duration_s=0.1, seed=1).run()])
        for rs in (single, both):
            with pytest.raises(TypeError, match="not subscriptable"):
                rs["total_pps"]
            assert not hasattr(rs, "get")
        assert len(both.column("delivered_pps")) == both.n_flows


class TestRoundTripFidelity:
    @pytest.mark.parametrize(
        "scenario", ALL_TOPOLOGY_SCENARIOS, ids=lambda s: s.topology
    )
    def test_bytes_round_trip_every_topology(self, scenario):
        """``from_bytes(to_bytes(x)) == x`` and the bytes are reproducible."""
        rs = scenario.run()
        payload = rs.to_bytes()
        assert ResultSet.from_bytes(payload) == rs
        assert ResultSet.from_bytes(payload).to_bytes() == payload
        assert [record["delivered_pps"] for record in rs.to_flow_records()] == (
            rs.delivered_pps.tolist()
        )

    def test_binary_round_trip_lossless(self, tmp_path):
        rs = ResultSet.concat([s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]])
        path = tmp_path / "sweep.npz"
        rs.save(path)
        assert ResultSet.load(path) == rs
        assert ResultSet.from_bytes(rs.to_bytes()) == rs

    def test_manifest_is_json_able(self):
        manifest = small_resultset().manifest()
        decoded = json.loads(json.dumps(manifest))
        assert decoded["n_flows"] == 2
        assert decoded["scenarios"][0]["topology"] == "exposed_terminal"


class TestCombinators:
    def test_concat_remaps_codes_and_offsets_scenarios(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]]
        whole = ResultSet.concat(parts)
        assert whole.n_scenarios == 3
        assert whole.n_flows == sum(p.n_flows for p in parts)
        offset = 0
        for index, part in enumerate(parts):
            rows = whole.scenario_idx == index
            assert np.array_equal(whole.src[rows], part.src)
            assert np.array_equal(whole.delivered_pps[rows],
                                  part.delivered_pps)
            offset += part.n_flows
        assert ResultSet.concat([]) == ResultSet.empty()

    def test_filter_by_mask(self):
        rs = small_resultset()
        top = rs.filter(rs.delivered_pps >= rs.delivered_pps.max())
        assert top.n_flows == 1
        assert top.delivered_pps[0] == rs.delivered_pps.max()
        with pytest.raises(ValueError):
            rs.filter(np.asarray([True]))

    def test_group_by_flow_column_and_scenario_field(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:2]]
        whole = ResultSet.concat(parts)
        by_topology = whole.group_by("topology")
        assert set(by_topology) == {p.scenarios[0]["topology"] for p in parts}
        for name, group in by_topology.items():
            # Groups are pruned to their own scenarios, so per-group scenario
            # reductions (e.g. mean total_pps per topology) are scoped right.
            assert all(s["topology"] == name for s in group.scenarios)
            assert group.scenarios == [
                p.scenarios[0] for p in parts if p.scenarios[0]["topology"] == name
            ]
        by_dst = whole.group_by("dst")
        assert sum(g.n_flows for g in by_dst.values()) == whole.n_flows

    def test_filter_prune_scenarios_remaps_index(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]]
        whole = ResultSet.concat(parts)
        only_last = whole.filter(whole.scenario_idx == 2, prune_scenarios=True)
        assert only_last.scenarios == [whole.scenarios[2]]
        assert np.all(only_last.scenario_idx == 0)
        assert only_last == parts[2]

    def test_split_inverts_concat(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]]
        assert ResultSet.concat(parts).split() == parts

    def test_scenario_column(self):
        whole = ResultSet.concat([s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]])
        totals = whole.scenario_column("total_pps")
        assert totals.shape == (3,)
        assert float(totals.sum()) == sum(s["total_pps"] for s in whole.scenarios)

    def test_unknown_column_rejected(self):
        with pytest.raises(KeyError):
            small_resultset().column("jitter")
        assert set(FLOW_COLUMNS) >= {"src", "dst", "delivered_pps", "delay_s"}


class TestCacheIntegration:
    def test_resultset_stored_binary_and_reloaded(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        first = BatchRunner(workers=0, cache=cache).run([task])
        assert cache._binary_path(task.cache_key).exists()
        entry = json.loads(cache._path(task.cache_key).read_text())
        assert "__repro_resultset__" in entry["result"]
        second = BatchRunner(workers=0, cache=cache).run([task])
        assert second.report.cache_hits == 1
        assert second.results == first.results
        assert isinstance(second.results[0], ResultSet)

    def test_old_format_json_entry_rejected_by_concat(self, tmp_path):
        """A pre-columnar cache entry (inline dict result) is served as
        stored, and concatenating it raises a TypeError naming the remedy."""
        cache = ResultCache(tmp_path / "cache")
        scenarios = ALL_TOPOLOGY_SCENARIOS[:2]
        task = scenario_task(scenarios[0])
        stale = {"name": scenarios[0].name, "total_pps": 1.0, "per_flow_pps": {"a->b": 1.0}}
        # Write the entry exactly as the pre-columnar cache did: inline JSON.
        path = cache._path(task.cache_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"key": task.cache_key, "config": task.config, "result": stale}
        ))
        tasks = [task, scenario_task(scenarios[1])]
        outcome = BatchRunner(workers=0, cache=cache).run(tasks)
        assert outcome.report.cache_hits == 1
        assert outcome.results[0] == stale
        with pytest.raises(TypeError) as exc:
            ResultSet.concat(outcome.results)
        message = str(exc.value)
        assert "got a dict" in message
        assert "force" in message and "clear the result cache" in message

    @pytest.mark.parametrize("corruption", ["garbage", "truncated", "missing"])
    def test_corrupt_binary_sidecar_evicted_and_reexecuted(self, tmp_path, corruption):
        """Unreadable sidecars (np.load raises BadZipFile/EOFError/ValueError
        depending on how the bytes are broken) must evict, not crash."""
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        first = BatchRunner(workers=0, cache=cache).run([task])
        sidecar = cache._binary_path(task.cache_key)
        if corruption == "garbage":
            sidecar.write_bytes(b"\x00not an npz")
        elif corruption == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])
        else:
            sidecar.unlink()
        assert cache.get(task.cache_key) is None
        assert not cache._path(task.cache_key).exists()  # manifest evicted too
        retry = BatchRunner(workers=0, cache=cache).run([task])
        assert retry.report.executed == 1
        assert retry.results == first.results

    def test_columnar_results_identical_across_worker_pool(self, tmp_path):
        tasks = [scenario_task(s) for s in ALL_TOPOLOGY_SCENARIOS]
        assert len(tasks) == 7
        serial = BatchRunner(workers=0).run(tasks)
        pooled = BatchRunner(workers=2).run(tasks)
        assert pooled.results == serial.results
