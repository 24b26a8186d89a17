"""Tests for the CSMA/TDMA MACs, traffic sources, and the network harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity.adaptation import SampleRateAdapter
from repro.capacity.rates import frame_airtime_s, rate_by_mbps
from repro.propagation.channel import ChannelModel
from repro.propagation.pathloss import LogDistancePathLoss
from repro.simulation.engine import Simulator
from repro.simulation.mac.tdma import TdmaSchedule
from repro.simulation.network import WirelessNetwork
from repro.simulation.traffic import PoissonTraffic, SaturatedTraffic


def make_channel(sigma_db=0.0, seed=0):
    return ChannelModel(
        path_loss=LogDistancePathLoss(
            alpha=3.6, frequency_hz=5.24e9, reference_distance_m=20.0, reference_loss_db=77.0
        ),
        sigma_db=sigma_db,
        rng=np.random.default_rng(seed),
    )


def two_pair_network(sender_gap_m, cca=-82.0, rate_mbps=12.0, seed=1):
    """Two sender-receiver pairs; receivers 8 m from their senders."""
    net = WirelessNetwork(channel=make_channel(), seed=seed, cca_threshold_dbm=cca)
    net.add_node("S1", (0.0, 0.0), traffic=SaturatedTraffic("*"), rate_mbps=rate_mbps)
    net.add_node("R1", (8.0, 0.0))
    net.add_node("S2", (sender_gap_m, 0.0), traffic=SaturatedTraffic("*"), rate_mbps=rate_mbps)
    net.add_node("R2", (sender_gap_m + 8.0, 0.0))
    return net


class TestCsmaSinglePair:
    def test_throughput_close_to_airtime_limit(self):
        net = WirelessNetwork(channel=make_channel(), seed=2)
        net.add_node("S", (0, 0), traffic=SaturatedTraffic("*"), rate_mbps=24.0)
        net.add_node("R", (8, 0))
        result = net.run(1.0)
        airtime = frame_airtime_s(1400, rate_by_mbps(24.0))
        upper_bound = 1.0 / airtime
        pps = result.link("S", "R").packets_per_second
        assert 0.7 * upper_bound < pps <= upper_bound

    def test_higher_rate_more_packets(self):
        results = {}
        for mbps in (6.0, 24.0):
            net = WirelessNetwork(channel=make_channel(), seed=2)
            net.add_node("S", (0, 0), traffic=SaturatedTraffic("*"), rate_mbps=mbps)
            net.add_node("R", (8, 0))
            results[mbps] = net.run(1.0).link("S", "R").packets_per_second
        assert results[24.0] > 2.0 * results[6.0]

    def test_weak_link_delivers_little_at_high_rate(self):
        net = WirelessNetwork(channel=make_channel(), seed=2)
        net.add_node("S", (0, 0), traffic=SaturatedTraffic("*"), rate_mbps=24.0)
        net.add_node("R", (95, 0))  # SNR far below the 24 Mbps requirement
        result = net.run(1.0)
        assert result.link("S", "R").packets_per_second < 100.0


class TestCsmaTwoPairs:
    def test_close_senders_share_fairly_with_carrier_sense(self):
        net = two_pair_network(sender_gap_m=20.0, cca=-82.0)
        result = net.run(1.5)
        pps1 = result.link("S1", "R1").packets_per_second
        pps2 = result.link("S2", "R2").packets_per_second
        solo = two_pair_network(sender_gap_m=2000.0, cca=-82.0)
        solo_result = solo.run(1.5)
        solo_pps = solo_result.link("S1", "R1").packets_per_second
        # Each gets roughly half of the solo throughput, and shares are similar.
        assert pps1 + pps2 == pytest.approx(solo_pps, rel=0.25)
        assert min(pps1, pps2) / max(pps1, pps2) > 0.6

    def test_disabling_carrier_sense_hurts_crossed_close_pairs(self):
        # Receivers sit between the two senders, so under concurrency each
        # receiver is hammered by the other pair's sender -- the geometry where
        # deferring is clearly the right call.
        def build(cca):
            net = WirelessNetwork(channel=make_channel(), seed=1, cca_threshold_dbm=cca)
            net.add_node("S1", (0.0, 0.0), traffic=SaturatedTraffic("*"), rate_mbps=12.0)
            net.add_node("R1", (8.0, 0.0))
            net.add_node("S2", (20.0, 0.0), traffic=SaturatedTraffic("*"), rate_mbps=12.0)
            net.add_node("R2", (12.0, 0.0))
            return net

        total_on = build(-82.0).run(1.5).total_packets_per_second([("S1", "R1"), ("S2", "R2")])
        total_off = build(None).run(1.5).total_packets_per_second([("S1", "R1"), ("S2", "R2")])
        assert total_off < 0.8 * total_on

    def test_far_senders_achieve_spatial_reuse(self):
        far = two_pair_network(sender_gap_m=800.0, cca=-82.0).run(1.5)
        near = two_pair_network(sender_gap_m=20.0, cca=-82.0).run(1.5)
        total_far = far.total_packets_per_second([("S1", "R1"), ("S2", "R2")])
        total_near = near.total_packets_per_second([("S1", "R1"), ("S2", "R2")])
        # Far-apart pairs roughly double the aggregate throughput.
        assert total_far > 1.5 * total_near


class TestCsmaUnicastAcks:
    def test_acked_unicast_delivers_and_counts_acks(self):
        net = WirelessNetwork(channel=make_channel(), seed=3)
        net.add_node(
            "S", (0, 0), traffic=SaturatedTraffic("R"), rate_mbps=12.0, use_acks=True
        )
        net.add_node("R", (8, 0), use_acks=True)
        result = net.run(0.5)
        sender_mac = net.nodes["S"].mac
        assert result.packets_delivered("S", "R") > 100
        assert sender_mac.stats.acks_received > 100
        assert net.nodes["R"].mac.stats.acks_sent > 100

    def test_sample_rate_adapter_converges_upward(self):
        adapter = SampleRateAdapter(probe_probability=0.1)
        net = WirelessNetwork(channel=make_channel(), seed=4)
        net.add_node(
            "S", (0, 0), traffic=SaturatedTraffic("R"), rate_selector=adapter, use_acks=True
        )
        net.add_node("R", (6, 0), use_acks=True)
        net.run(1.5)
        best = adapter.best_known_rate(("S", "R"))
        # A 6 m link has ample SNR; the adapter should settle well above 6 Mbps.
        assert best is not None and best.mbps >= 24.0


class TestRtsCts:
    def test_rts_cts_protects_hidden_terminals(self):
        # Two senders that cannot hear each other but share a receiver in the
        # middle: plain CSMA collides constantly, RTS/CTS serialises them.
        def build(use_rts):
            net = WirelessNetwork(channel=make_channel(), seed=5)
            net.add_node(
                "A", (0, 0), traffic=SaturatedTraffic("R"), rate_mbps=6.0,
                use_acks=True, use_rts_cts=use_rts,
            )
            net.add_node(
                "B", (140, 0), traffic=SaturatedTraffic("R"), rate_mbps=6.0,
                use_acks=True, use_rts_cts=use_rts,
            )
            net.add_node("R", (70, 0), use_acks=True, use_rts_cts=use_rts)
            return net

        plain = build(False).run(1.5)
        protected = build(True).run(1.5)
        plain_total = plain.total_packets_per_second([("A", "R"), ("B", "R")])
        protected_total = protected.total_packets_per_second([("A", "R"), ("B", "R")])
        assert protected_total > plain_total

    def test_rts_cts_overhead_when_unneeded(self):
        def build(use_rts):
            net = WirelessNetwork(channel=make_channel(), seed=6)
            net.add_node(
                "S", (0, 0), traffic=SaturatedTraffic("R"), rate_mbps=24.0,
                use_acks=True, use_rts_cts=use_rts,
            )
            net.add_node("R", (8, 0), use_acks=True)
            return net

        plain = build(False).run(1.0).link("S", "R").packets_per_second
        with_rts = build(True).run(1.0).link("S", "R").packets_per_second
        assert with_rts < plain


class TestTdma:
    def test_schedule_geometry(self):
        schedule = TdmaSchedule(slot_duration_s=0.01, slot_owners=("A", "B"))
        assert schedule.cycle_duration_s == pytest.approx(0.02)
        assert schedule.owner_at(0.005) == "A"
        assert schedule.owner_at(0.015) == "B"
        assert schedule.next_slot_start("B", 0.005) == pytest.approx(0.01)
        assert schedule.next_slot_start("A", 0.001) == pytest.approx(0.001)
        with pytest.raises(KeyError):
            schedule.next_slot_start("C", 0.0)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            TdmaSchedule(slot_duration_s=0.0, slot_owners=("A",))
        with pytest.raises(ValueError):
            TdmaSchedule(slot_duration_s=0.01, slot_owners=())

    def test_tdma_shares_channel_equally(self):
        schedule = TdmaSchedule(slot_duration_s=0.02, slot_owners=("S1", "S2"))
        net = WirelessNetwork(channel=make_channel(), seed=7)
        net.add_node("S1", (0, 0), mac="tdma", tdma_schedule=schedule,
                     traffic=SaturatedTraffic("*"), rate_mbps=12.0)
        net.add_node("R1", (8, 0), mac="tdma", tdma_schedule=schedule)
        net.add_node("S2", (20, 0), mac="tdma", tdma_schedule=schedule,
                     traffic=SaturatedTraffic("*"), rate_mbps=12.0)
        net.add_node("R2", (28, 0), mac="tdma", tdma_schedule=schedule)
        result = net.run(1.0)
        pps1 = result.link("S1", "R1").packets_per_second
        pps2 = result.link("S2", "R2").packets_per_second
        assert pps1 > 100 and pps2 > 100
        assert abs(pps1 - pps2) / max(pps1, pps2) < 0.15

    def test_tdma_requires_schedule(self):
        net = WirelessNetwork(channel=make_channel(), seed=8)
        with pytest.raises(ValueError):
            net.add_node("S", (0, 0), mac="tdma")


class TestTrafficSources:
    def test_saturated_always_has_packets(self):
        traffic = SaturatedTraffic("R", payload_bytes=1000)
        for _ in range(5):
            assert traffic.next_packet() == ("R", 1000)
        assert traffic.packets_offered == 5

    def test_poisson_rate_roughly_matches(self):
        sim = Simulator()
        traffic = PoissonTraffic(sim, rate_pps=500.0, rng=np.random.default_rng(1))
        sim.run(until=2.0)
        assert traffic.packets_offered == pytest.approx(1000, rel=0.2)

    def test_poisson_queue_limit_drops(self):
        sim = Simulator()
        traffic = PoissonTraffic(
            sim, rate_pps=1000.0, queue_limit=10, rng=np.random.default_rng(2)
        )
        sim.run(until=1.0)
        assert traffic.packets_dropped > 0
        assert traffic.queue_depth <= 10

    def test_invalid_poisson_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PoissonTraffic(sim, rate_pps=0.0)
        with pytest.raises(ValueError):
            PoissonTraffic(sim, rate_pps=10.0, queue_limit=0)


class TestNetworkHarness:
    def test_duplicate_node_rejected(self):
        net = WirelessNetwork(channel=make_channel())
        net.add_node("A", (0, 0))
        with pytest.raises(ValueError):
            net.add_node("A", (1, 1))

    def test_unknown_mac_rejected(self):
        net = WirelessNetwork(channel=make_channel())
        with pytest.raises(ValueError):
            net.add_node("A", (0, 0), mac="aloha-plus")

    def test_add_after_start_rejected(self):
        net = WirelessNetwork(channel=make_channel())
        net.add_node("A", (0, 0))
        net.start()
        with pytest.raises(RuntimeError):
            net.add_node("B", (1, 1))

    def test_invalid_duration_rejected(self):
        net = WirelessNetwork(channel=make_channel())
        net.add_node("A", (0, 0))
        with pytest.raises(ValueError):
            net.run(0.0)

    def test_oracle_rate_selector_uses_link_snr(self):
        net = WirelessNetwork(channel=make_channel())
        net.add_node("S", (0, 0))
        net.add_node("R", (8, 0))
        selector = net.oracle_rate_selector([("S", "R")])
        assert selector.select(("S", "R")).mbps >= 24.0

    def test_consecutive_runs_reset_stats(self):
        net = WirelessNetwork(channel=make_channel(), seed=9)
        net.add_node("S", (0, 0), traffic=SaturatedTraffic("*"), rate_mbps=12.0)
        net.add_node("R", (8, 0))
        first = net.run(0.5).packets_delivered("S", "R")
        second = net.run(0.5).packets_delivered("S", "R")
        assert first > 0 and second > 0
        assert abs(first - second) < 0.3 * first


class TestDefaultChannel:
    """Without an explicit channel the network builds one seeded from its own
    ``seed``: same seed, same shadowing, same run."""

    @staticmethod
    def build(seed):
        net = WirelessNetwork(seed=seed)
        net.add_node("S1", (0.0, 0.0), traffic=SaturatedTraffic("R1"), rate_mbps=12.0)
        net.add_node("R1", (25.0, 0.0))
        net.add_node("S2", (40.0, 10.0), traffic=SaturatedTraffic("R2"), rate_mbps=12.0)
        net.add_node("R2", (60.0, 10.0))
        return net

    def test_same_seed_gives_identical_rx_matrix_and_results(self):
        first, second = self.build(5), self.build(5)
        a, b = first.run(0.2), second.run(0.2)
        assert np.array_equal(first.medium._rx_dbm_matrix, second.medium._rx_dbm_matrix)
        assert a.events_processed == b.events_processed
        for src, dst in (("S1", "R1"), ("S2", "R2")):
            assert a.packets_delivered(src, dst) == b.packets_delivered(src, dst)

    def test_default_channel_leaves_child_streams_in_place(self):
        reference = np.random.default_rng(5)
        expected = [int(reference.integers(0, 2**63 - 1)) for _ in range(4)]
        net = WirelessNetwork(seed=5)
        assert [net._next_child_seed() for _ in range(4)] == expected


class TestOpenLoopTrafficWakeup:
    """Poisson sources must wake a dormant CSMA MAC (``notify_traffic``)."""

    def _bidirectional_poisson(self, rate_pps: float) -> WirelessNetwork:
        # Plain add_node(traffic=...) must be enough: attach_traffic wires
        # the wake-up hook, no manual on_arrival plumbing.
        net = WirelessNetwork(channel=make_channel(), seed=1)
        for node_id, position, dst, seed in (("A", (0, 0), "B", 11), ("B", (10, 0), "A", 12)):
            traffic = PoissonTraffic(
                sim=net.sim, rate_pps=rate_pps, destination=dst,
                rng=np.random.default_rng(seed),
            )
            net.add_node(node_id, position, use_acks=True, traffic=traffic)
        return net

    def test_idle_mac_resumes_on_arrival(self):
        net = WirelessNetwork(channel=make_channel(), seed=2)
        traffic = PoissonTraffic(
            sim=net.sim, rate_pps=50.0, destination="R", rng=np.random.default_rng(3)
        )
        net.add_node("S", (0, 0), traffic=traffic)
        net.add_node("R", (8, 0))
        result = net.run(2.0)
        assert result.packets_delivered("S", "R") > 0.8 * traffic.packets_offered

    def test_no_stall_when_arrival_lands_during_ack_response(self):
        """Regression: an arrival during the 'responding' state must not be
        lost -- the ACK-complete branch re-polls the traffic source.  Before
        the fix one direction of this bidirectional ACKed setup stalled
        permanently within a second (8 pkt/s delivered of 100 offered)."""
        net = self._bidirectional_poisson(rate_pps=100.0)
        result = net.run(5.0)
        for src, dst in (("A", "B"), ("B", "A")):
            delivered = result.packets_delivered(src, dst)
            offered = net.nodes[src].traffic.packets_offered
            assert delivered > 0.9 * offered, f"{src}->{dst} stalled"


class TestBatchedChildSeeds:
    """Network construction draws child seeds in vectorized blocks; the
    sequence must stay bit-identical to the historical one-scalar-draw-per-
    child stream (so every seeded result in the repo is unchanged)."""

    def test_batched_draws_match_scalar_reference_stream(self):
        reference = np.random.default_rng(123)
        expected = [int(reference.integers(0, 2**63 - 1)) for _ in range(600)]
        net = WirelessNetwork(channel=make_channel(), seed=123)
        drawn = [net._next_child_seed() for _ in range(600)]
        assert drawn == expected

    def test_batched_draws_span_refills(self):
        batch = WirelessNetwork._SEED_BATCH
        reference = np.random.default_rng(9)
        expected = [int(reference.integers(0, 2**63 - 1)) for _ in range(2 * batch + 3)]
        net = WirelessNetwork(channel=make_channel(), seed=9)
        drawn = [net._next_child_seed() for _ in range(2 * batch + 3)]
        assert drawn == expected

    def test_child_rngs_seeded_from_the_stream(self):
        reference = np.random.default_rng(7)
        first_seed = int(reference.integers(0, 2**63 - 1))
        net = WirelessNetwork(channel=make_channel(), seed=7)
        child = net._child_rng()
        assert child.bit_generator.seed_seq.entropy == first_seed

    def test_network_results_deterministic_across_constructions(self):
        def run_once():
            net = two_pair_network(sender_gap_m=30.0, seed=11)
            result = net.run(0.3)
            return (
                result.link("S1", "R1").packets_per_second,
                result.link("S2", "R2").packets_per_second,
            )

        assert run_once() == run_once()

    def test_tdma_schedule_ignored_for_non_tdma_macs(self):
        """Callers pass one network-wide schedule to every add_node; it must
        stay a no-op for csma nodes (regression: the registry refactor
        briefly forwarded it into the csma factory)."""
        schedule = TdmaSchedule(slot_duration_s=0.02, slot_owners=("S", "R"))
        net = WirelessNetwork(channel=make_channel(), seed=4)
        net.add_node("S", (0, 0), mac="csma", tdma_schedule=schedule,
                     traffic=SaturatedTraffic("R"))
        net.add_node("R", (8, 0), mac="csma", tdma_schedule=schedule)
        assert net.run(0.2).link("S", "R").packets_per_second > 0


class TestDelayTimestamping:
    """MAC-level frame timestamping fills the enqueue-to-delivery delay stats."""

    def _single_pair(self, mac="csma", **kwargs):
        net = WirelessNetwork(channel=make_channel(), seed=2, **kwargs)
        schedule = TdmaSchedule(slot_duration_s=0.02, slot_owners=("S",))
        net.add_node("S", (0, 0), mac=mac, traffic=SaturatedTraffic("R"),
                     rate_mbps=12.0, tdma_schedule=schedule)
        net.add_node("R", (8, 0), mac=mac, tdma_schedule=schedule)
        return net

    def test_csma_delay_bounded_below_by_airtime(self):
        net = self._single_pair()
        result = net.run(0.3)
        stats = net.nodes["R"].stats
        delay = stats.mean_delay_from("S")
        airtime = frame_airtime_s(1400, rate_by_mbps(12.0))
        assert stats.delay_count_from["S"] == stats.packets_from["S"] > 0
        assert delay >= airtime
        assert delay < 0.05  # an uncontended pair delivers within a few ms

    def test_tdma_delay_measured(self):
        net = self._single_pair(mac="tdma")
        result = net.run(0.3)
        delay = net.nodes["R"].stats.mean_delay_from("S")
        assert np.isfinite(delay) and delay > 0

    def test_unmeasured_link_reports_nan(self):
        net = self._single_pair()
        net.run(0.1)
        assert np.isnan(net.nodes["S"].stats.mean_delay_from("R"))

    def test_reset_clears_delay_accumulators(self):
        net = self._single_pair()
        net.run(0.1)
        stats = net.nodes["R"].stats
        assert stats.delay_count_from["S"] > 0
        stats.reset()
        assert not stats.delay_count_from and not stats.delay_sum_from

    def test_scenario_run_fills_delay_column(self):
        from repro.scenarios import Scenario

        result = Scenario(
            topology="exposed_terminal", n_nodes=4, duration_s=0.2, seed=1
        ).run()
        assert np.all(np.isfinite(result.delay_s))
        assert np.all(result.delay_s > 0)

    def test_retries_keep_the_original_timestamp(self):
        from repro.simulation.frames import Frame, FrameKind

        frame = Frame(
            kind=FrameKind.DATA, src="S", dst="R", payload_bytes=100,
            rate=rate_by_mbps(12.0), sequence=1, enqueued_at=0.125,
        )
        retry = frame.as_retry()
        assert retry.enqueued_at == 0.125
        assert retry.retry == 1
        # Equality ignores the timestamp, as before the column existed.
        assert Frame(
            kind=FrameKind.DATA, src="S", dst="R", payload_bytes=100,
            rate=rate_by_mbps(12.0), sequence=1, frame_id=999, enqueued_at=0.5,
        ) == Frame(
            kind=FrameKind.DATA, src="S", dst="R", payload_bytes=100,
            rate=rate_by_mbps(12.0), sequence=1, frame_id=999,
        )
