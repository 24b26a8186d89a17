"""Forwarding layer: queue semantics, drop accounting, and the bit-identity guard.

The bit-identity guard is the load-bearing test of this file: switching a
scenario to ``routing="shortest_path"`` where every route is one hop (and
queues are unbounded) must replay the direct single-hop run byte-for-byte --
the forwarding layer consumes no simulation randomness and schedules no
events, so the only permissible difference is none at all.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.capacity.rates import rate_by_mbps
from repro.networking import ForwardingQueue, RouteTable
from repro.propagation.channel import ShadowingTable
from repro.scenarios import Scenario, TOPOLOGIES
from repro.simulation.frames import BROADCAST, FlowTag, Frame, FrameKind
from repro.simulation.medium import LinkRows
from repro.simulation.stats import NodeStats

from _topologies import sized


def data_frame(src, dst, flow_src, flow_dst, hops=1, enqueued_at=-1.0, payload=1400):
    return Frame(
        kind=FrameKind.DATA, src=src, dst=dst, payload_bytes=payload,
        rate=rate_by_mbps(6.0), enqueued_at=enqueued_at,
        flow_src=flow_src, flow_dst=flow_dst, hops=hops,
    )


def line_routes(ids):
    n = len(ids)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return RouteTable.from_adjacency(ids, adj)


class StubOrigin:
    """Minimal open-loop TrafficSource double."""

    def __init__(self, packets):
        self.packets = list(packets)
        self.on_arrival = None
        self.sent = []

    def next_packet(self):
        return self.packets.pop(0) if self.packets else None

    def notify_sent(self, frame):
        self.sent.append(frame)


class TestForwardingQueue:
    def test_origin_packet_routed_to_first_hop(self):
        routes = line_routes(["a", "b", "c"])
        queue = ForwardingQueue("a", routes, origin=StubOrigin([("c", 100)]))
        packet = queue.next_packet()
        assert packet == ("b", 100, FlowTag("a", "c"))
        assert packet[2].enqueued_at == -1.0  # MAC stamps its own clock
        assert packet[2].hops == 1

    def test_single_hop_origin_packet_still_tagged(self):
        routes = line_routes(["a", "b", "c"])
        queue = ForwardingQueue("a", routes, origin=StubOrigin([("b", 64)]))
        assert queue.next_packet() == ("b", 64, FlowTag("a", "b"))

    def test_broadcast_passes_through_untagged(self):
        routes = line_routes(["a", "b"])
        queue = ForwardingQueue("a", routes, origin=StubOrigin([(BROADCAST, 64)]))
        assert queue.next_packet() == (BROADCAST, 64)

    def test_unroutable_origin_counts_drop_and_goes_idle(self):
        adj = np.zeros((2, 2), dtype=bool)  # no links at all
        routes = RouteTable.from_adjacency(["a", "b"], adj)
        queue = ForwardingQueue("a", routes, origin=StubOrigin([("b", 64)]))
        queue.stats = NodeStats("a")
        assert queue.next_packet() is None
        assert queue.no_route_drops == 1
        assert queue.stats.queue_drops == 1
        assert queue.stats.queue_drops_for[("a", "b")] == 1

    def test_relay_fifo_served_before_origin(self):
        routes = line_routes(["a", "b", "c"])
        queue = ForwardingQueue("b", routes, origin=StubOrigin([("c", 10)]))
        queue.push_relay("c", 1400, FlowTag("a", "c", 0.5, 2))
        assert queue.next_packet() == ("c", 1400, FlowTag("a", "c", 0.5, 2))
        assert queue.next_packet() == ("c", 10, FlowTag("b", "c"))

    def test_tail_drop_at_capacity(self):
        routes = line_routes(["a", "b", "c"])
        queue = ForwardingQueue("b", routes, capacity=2)
        queue.stats = NodeStats("b")
        flow = FlowTag("a", "c", 0.0, 2)
        assert queue.push_relay("c", 1, flow)
        assert queue.push_relay("c", 2, flow)
        assert not queue.push_relay("c", 3, flow)  # FIFO full: tail drop
        assert queue.relay_drops == 1
        assert queue.relayed_in == 2
        assert queue.queue_depth == 2
        assert queue.stats.queue_drops == 1
        assert queue.stats.queue_drops_for[("a", "c")] == 1
        # FIFO order is preserved for what made it in.
        assert queue.next_packet()[1] == 1
        assert queue.next_packet()[1] == 2

    def test_capacity_must_be_positive(self):
        routes = line_routes(["a", "b"])
        with pytest.raises(ValueError):
            ForwardingQueue("a", routes, capacity=0)

    def test_push_relay_wakes_mac_only_from_empty(self):
        routes = line_routes(["a", "b", "c"])
        queue = ForwardingQueue("b", routes)
        wakes = []
        queue.on_arrival = lambda: wakes.append(True)
        flow = FlowTag("a", "c", 0.0, 2)
        queue.push_relay("c", 1, flow)
        queue.push_relay("c", 2, flow)  # already non-empty: no second wake
        assert len(wakes) == 1

    def test_notify_sent_splits_own_and_relayed(self):
        routes = line_routes(["a", "b", "c"])
        origin = StubOrigin([])
        queue = ForwardingQueue("b", routes, origin=origin)
        own = data_frame("b", "c", flow_src="b", flow_dst="c")
        relayed = data_frame("b", "c", flow_src="a", flow_dst="c", hops=2)
        queue.notify_sent(own)
        assert len(origin.sent) == 1 and queue.relays_sent == 0
        queue.notify_sent(relayed)
        assert len(origin.sent) == 1 and queue.relays_sent == 1

    def test_origin_arrival_chained_through_wrapper(self):
        routes = line_routes(["a", "b"])
        origin = StubOrigin([])
        queue = ForwardingQueue("a", routes, origin=origin)
        wakes = []
        queue.on_arrival = lambda: wakes.append(True)
        assert origin.on_arrival is not None
        origin.on_arrival()  # an open-loop arrival must reach the MAC hook
        assert len(wakes) == 1


class TestBitIdentityGuard:
    """Degenerate routing (all routes one hop, unbounded queues) is a no-op."""

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_degenerate_multihop_matches_direct_run(self, topology):
        base = dict(
            **sized(topology, 6),
            extent_m=120.0,
            seed=3,
            duration_s=0.25,
            sigma_db=2.0,
        )
        direct = Scenario(name="direct", **base).run()
        routed = Scenario(name="direct", routing="shortest_path", **base).run()
        assert direct.to_bytes() == routed.to_bytes()


def multihop_line(queue_capacity=None, seed=0):
    """A 5-station corridor whose end-to-end flow must relay every hop."""
    return Scenario(
        name="chain",
        topology="line",
        n_nodes=5,
        extent_m=400.0,  # 100 m spacing: adjacent decode, skip-one does not
        seed=seed,
        duration_s=0.5,
        topology_params={"flows": "end_to_end"},
        routing="shortest_path",
        queue_capacity=queue_capacity,
        cca_threshold_dbm=-90.0,
    )


class TestMultiHopScenario:
    def test_end_to_end_relay_delivers_with_hop_count(self):
        results = multihop_line().run()
        assert results.hops.tolist() == [4]
        assert results.delivered_packets[0] > 0
        assert results.queue_drops[0] == 0  # unbounded relay FIFOs
        # End-to-end delay percentiles are populated and ordered.
        assert np.isfinite(results.delay_p50_s[0])
        assert results.delay_p50_s[0] <= results.delay_p99_s[0]
        # A 4-hop delivery takes at least 4 transmissions of airtime.
        assert results.delay_p50_s[0] > results.delay_s[0] / 10

    def test_finite_queue_tail_drops_are_counted(self):
        unbounded = multihop_line().run()
        capped = multihop_line(queue_capacity=2).run()
        assert capped.queue_drops[0] > 0
        assert capped.delivered_packets[0] < unbounded.delivered_packets[0]

    def test_multihop_run_is_deterministic(self):
        assert multihop_line(seed=7).run().to_bytes() == multihop_line(seed=7).run().to_bytes()

    def test_routed_cold_build_computes_the_rx_matrix_once(self, monkeypatch):
        """Route table and medium share one row table, each row built once;
        the bytes do not move."""
        calls, rows = [], []
        build, shadowing_row = LinkRows.__init__, ShadowingTable.row

        def counting_build(self, channel, ids, *args, **kwargs):
            calls.append(len(ids))
            build(self, channel, ids, *args, **kwargs)

        def counting_row(self, i):
            rows.append(i)  # one shadowing row per received-power row built
            return shadowing_row(self, i)

        monkeypatch.setattr(LinkRows, "__init__", counting_build)
        monkeypatch.setattr(ShadowingTable, "row", counting_row)
        result = Scenario(
            name="routed",
            topology="scale_free",
            n_nodes=40,
            extent_m=400.0,
            seed=3,
            sigma_db=6.0,
            routing="shortest_path",
            duration_s=0.05,
            topology_params={"flows": "to_root"},
        ).run()
        assert calls == [40]
        assert sorted(rows) == list(range(40))  # the route matrix built them all
        assert sorted(set(result.hops.tolist())) == [1, 2]
        # Captured before the route table and the medium shared the matrix.
        assert hashlib.sha256(result.to_bytes()).hexdigest() == (
            "9987e17eabf77953cd3c899e5fd551f24898f50563405473f8bfdca10c905d96"
        )
        assert result.scenarios[0]["events_processed"] == 698


class TestScenarioRoutingSpec:
    def test_unknown_routing_mode_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", topology="line", n_nodes=3, extent_m=50.0, routing="rip")

    def test_queue_capacity_requires_routing(self):
        with pytest.raises(ValueError):
            Scenario(name="x", topology="line", n_nodes=3, extent_m=50.0, queue_capacity=4)

    def test_route_table_requires_routing(self):
        with pytest.raises(ValueError):
            Scenario(name="x", topology="line", n_nodes=3, extent_m=50.0).route_table()

    def test_unknown_routing_param_rejected(self):
        scenario = Scenario(
            name="x", topology="line", n_nodes=3, extent_m=50.0,
            routing="shortest_path", routing_params={"metric": "etx"},
        )
        with pytest.raises(ValueError):
            scenario.route_table()

    def test_link_margin_tightens_routes(self):
        base = dict(topology="line", n_nodes=5, extent_m=400.0, seed=0,
                    routing="shortest_path")
        default = Scenario(name="x", **base).route_table()
        # A large positive margin demands far stronger links than decode
        # needs, so 100 m neighbours drop out of the adjacency.
        tight = Scenario(
            name="x", routing_params={"link_margin_db": 40.0}, **base
        ).route_table()
        assert tight.adjacency.sum() < default.adjacency.sum()

    def test_as_config_omits_routing_keys_when_unset(self):
        config = Scenario(name="x", topology="line", n_nodes=3, extent_m=50.0).as_config()
        assert "routing" not in config
        assert "queue_capacity" not in config
        assert "routing_params" not in config

    def test_as_config_round_trips_routing(self):
        scenario = Scenario(
            name="x", topology="line", n_nodes=3, extent_m=50.0,
            routing="shortest_path", queue_capacity=8,
        )
        config = scenario.as_config()
        assert config["routing"] == "shortest_path"
        assert config["queue_capacity"] == 8
        assert Scenario.from_config(config) == scenario


class TestForwardingNodeHandle:
    def test_transit_frame_requeued_with_incremented_hops(self):
        net, _ = multihop_line().build_network()
        interior = net.nodes["n001"]
        queue = interior.mac.traffic
        assert isinstance(queue, ForwardingQueue)
        queue.on_arrival = None  # keep the woken MAC from pulling it right away
        before = queue.relayed_in
        frame = data_frame("n000", "n001", flow_src="n000", flow_dst="n004",
                           enqueued_at=0.25)
        interior.mac.on_data_received(frame)
        assert queue.relayed_in == before + 1
        next_hop, payload, flow = queue.next_packet()
        assert next_hop == "n002"
        assert payload == 1400
        assert flow == FlowTag("n000", "n004", 0.25, 2)
        # Delivery did not happen here: transit frames never hit node stats.
        assert interior.stats.packets_received_total == 0

    def test_destination_frame_delivered_not_relayed(self):
        net, _ = multihop_line().build_network()
        last = net.nodes["n004"]
        frame = data_frame("n003", "n004", flow_src="n000", flow_dst="n004", hops=4)
        last.mac.on_data_received(frame)
        assert last.stats.packets_received_total == 1
        assert last.stats.packets_from["n000"] == 1  # origin-keyed accounting
