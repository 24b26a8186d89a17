"""Warm-pool dispatch: warm-state reuse and chunked/grouped batch submission.

The invariant under test everywhere here: warm pools and chunked dispatch
change wall-clock only.  Results, per-flow stats, and cache keys must be
byte-identical with and without them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runner.batch import BatchRunner, BatchTask
from repro.scenarios import Scenario, scenario_group_key, scenario_task
from repro.scenarios.execute import _warm_cache, run_scenario


def _scenario(**overrides) -> Scenario:
    base = dict(
        name="warm",
        topology="clustered",
        n_nodes=12,
        extent_m=200.0,
        seed=5,
        sigma_db=6.0,
        cca_noise_db=2.0,
        duration_s=0.05,
    )
    base.update(overrides)
    return Scenario(**base)


def _assert_same_shadowing(channel, reference, ids) -> None:
    """``channel`` answers ``shadowing_db`` like ``reference`` for every
    pair, asked in reverse of the batch draw order."""
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    for a, b in reversed(pairs):
        assert channel.shadowing_db(b, a) == reference.shadowing_db(a, b), (a, b)


class TestWarmState:
    def test_warm_key_groups_by_topology_and_propagation(self):
        a = _scenario()
        assert a.warm_key() == _scenario(cca_noise_db=0.0, duration_s=0.1).warm_key()
        assert a.warm_key() == _scenario(mac="tdma", traffic="poisson").warm_key()
        assert a.warm_key() != _scenario(seed=6).warm_key()
        assert a.warm_key() != _scenario(sigma_db=0.0).warm_key()
        assert a.warm_key() != _scenario(n_nodes=14).warm_key()

    def test_warm_state_matches_finalisation(self):
        scenario = _scenario()
        placement, rows = scenario.compute_warm_state()
        net, _ = scenario.build_network()
        net.medium.finalize()
        ids = list(placement.positions)
        assert ids == net.medium.node_ids == list(rows.ids)
        # Every warm row holds exactly the powers the cold medium answers.
        for i, src in enumerate(ids):
            assert [net.medium.rx_power_dbm(src, dst) for dst in ids] == rows.dbm(i).tolist()
            assert [net.medium.rx_power_mw(src, dst) for dst in ids] == rows.mw(i).tolist()
        # The warm shadowing is exactly what the cold channel drew: a fresh
        # channel that adopts it answers every pair like the cold one.
        adopted = scenario.channel()
        adopted.load_shadowing_table(rows.shadowing)
        _assert_same_shadowing(adopted, net.medium.channel, ids)

    def test_warm_network_answers_per_pair_queries_like_cold(self):
        """Oracle SNR / link-budget paths must not diverge under warm builds."""
        scenario = _scenario()
        warm_state = scenario.compute_warm_state()
        cold_net, placement = scenario.build_network()
        warm_net, _ = scenario.build_network(warm=warm_state)
        cold_net.medium.finalize()
        ids = list(placement.positions)
        # The last pair of the batch draw, asked first of a warm network that
        # has not finalised: a lazy draw would return the batch's first value.
        fresh_net, _ = scenario.build_network(warm=warm_state)
        far = (ids[-1], ids[-2])
        assert fresh_net.medium.channel.shadowing_db(*far) == (
            cold_net.medium.channel.shadowing_db(*far)
        )
        warm_net.medium.finalize()
        flows = list(placement.flows)
        assert flows
        for src, dst in flows:
            assert warm_net.link_snr_db(src, dst) == cold_net.link_snr_db(src, dst)
        # Every per-pair channel query agrees too, asked out of draw order.
        _assert_same_shadowing(warm_net.medium.channel, cold_net.medium.channel, ids)

    def test_prime_refuses_a_channel_holding_shadowing(self):
        scenario = _scenario()
        placement, rows = scenario.compute_warm_state()
        ids = list(placement.positions)
        net, _ = scenario.build_network()
        net.medium.channel.set_shadowing_db(ids[0], ids[1], 3.0)
        net.medium.prime_rx_matrix(rows)
        assert net.medium.channel.shadowing_table is None
        net.medium.finalize()
        assert net.medium.link_rows is not rows
        assert net.medium.channel.shadowing_db(ids[1], ids[0]) == 3.0
        assert net.medium.rx_power_dbm(ids[0], ids[1]) != rows.dbm(0)[1]

    def test_pin_after_priming_fails_loudly(self):
        """A pin the primed rows cannot hold must not be silently ignored."""
        scenario = _scenario()
        net, placement = scenario.build_network(warm=scenario.compute_warm_state())
        ids = list(placement.positions)
        net.medium.channel.set_shadowing_db(ids[0], ids[1], 30.0)
        with pytest.raises(ValueError, match="pinned after the medium was primed"):
            net.medium.finalize()

    def test_zero_sigma_queries_before_finalising_a_primed_medium_are_fine(self):
        """At 0 dB sigma a per-pair query stores its 0 dB value: that agrees
        with the rows, so finalisation goes ahead; a real pin does not."""
        scenario = _scenario(sigma_db=0.0)
        warm = scenario.compute_warm_state()
        net, placement = scenario.build_network(warm=warm)
        ids = list(placement.positions)
        snr = net.link_snr_db(ids[0], ids[1])
        net.medium.finalize()
        assert net.medium.link_rows is warm[1]
        assert net.link_snr_db(ids[0], ids[1]) == pytest.approx(snr, abs=1e-9)
        pinned, _ = scenario.build_network(warm=warm)
        pinned.medium.channel.set_shadowing_db(ids[0], ids[1], 30.0)
        with pytest.raises(ValueError):
            pinned.medium.finalize()

    def test_warm_run_is_bit_identical_to_cold(self):
        scenario = _scenario()
        cold = scenario.run()
        warm = scenario.run(warm=scenario.compute_warm_state())
        assert warm == cold

    def test_run_scenario_uses_and_reuses_worker_cache(self):
        scenario = _scenario()
        _warm_cache.clear()
        first = run_scenario(**scenario.as_config())
        assert len(_warm_cache) == 1
        second = run_scenario(**scenario.as_config())
        assert len(_warm_cache) == 1
        assert first == second == scenario.run()

    def test_stale_prime_falls_back_to_fresh_computation(self):
        scenario = _scenario()
        placement, rows = scenario.compute_warm_state()
        net, _ = scenario.build_network(warm=(placement, rows))
        # A node registered after priming: the rows no longer cover the
        # medium, so finalisation must recompute rather than use them.
        net.add_node("late", (10.0, 10.0))
        medium = net.medium
        medium.finalize()
        assert medium.link_rows is not rows
        assert medium.link_rows.ids == rows.ids + ("late",)
        # The recomputation keeps every known value and draws only the
        # late node's pairs.
        ids = list(placement.positions)
        for i, src in enumerate(ids):
            assert [medium.rx_power_dbm(src, dst) for dst in ids] == rows.dbm(i).tolist()
            late = medium.channel.rx_power_dbm(src, "late", medium.distance(src, "late"))
            assert medium.rx_power_dbm(src, "late") == pytest.approx(late, abs=1e-9)

    def test_warm_cells_share_rows(self):
        """Cells of one group reuse the rows the first cell built."""
        scenario = _scenario()
        warm = scenario.compute_warm_state()
        assert warm[1].rows_built == 0
        first = scenario.run(warm=warm)
        built = warm[1].rows_built
        assert 0 < built <= scenario.n_nodes
        assert scenario.with_overrides(cca_noise_db=0.0).run(warm=warm) != first
        assert warm[1].rows_built == built
        assert scenario.run(warm=warm) == first


#: Worker-importable task helper (spawn-safe; see repro/runner/_testing.py).
DOUBLE_TASK = "repro.runner._testing.maybe_fail"


class TestChunkedGroupedDispatch:
    def test_group_key_orders_scenario_tasks(self):
        tasks = [
            scenario_task(_scenario(seed=seed, cca_noise_db=noise))
            for noise in (2.0, 0.0)
            for seed in (9, 5)
        ]
        keys = [scenario_group_key(t) for t in tasks]
        ordered = sorted(range(len(tasks)), key=keys.__getitem__)
        # Sorting groups the two seed-5 tasks together and the two seed-9
        # tasks together regardless of their interleaved submission order.
        seeds_in_order = [tasks[i].config["seed"] for i in ordered]
        assert seeds_in_order in ([5, 5, 9, 9], [9, 9, 5, 5])

    def test_group_key_passes_non_scenario_tasks_through(self):
        task = BatchTask(fn=DOUBLE_TASK, config={"value": 1})
        assert scenario_group_key(task) == ()

    def test_chunked_grouped_run_preserves_result_order(self):
        tasks = [
            BatchTask(fn=DOUBLE_TASK, config={"value": i}) for i in range(10)
        ]
        runner = BatchRunner(workers=2, chunksize=3, group_key=lambda t: -t.config["value"])
        outcome = runner.run(tasks)
        assert outcome.results == [2 * i for i in range(10)]
        assert outcome.report.executed == 10

    def test_chunksize_validation(self):
        with pytest.raises(ValueError):
            BatchRunner(chunksize=0)

    def test_effective_chunksize_scales_with_batch(self):
        runner = BatchRunner(workers=4)
        assert runner._effective_chunksize(8) == 1
        assert runner._effective_chunksize(160) == 10
        assert BatchRunner(workers=4, chunksize=7)._effective_chunksize(1000) == 7
