"""Topology generators: determinism, seed sensitivity, counts, and bounds."""

from __future__ import annotations

import copy
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.registry import CONTROLLERS
from repro.runner import config_hash
from repro.scenarios import Placement, Scenario, TOPOLOGIES, generate_topology
from repro.scenarios import spec as spec_module
from repro.testbed.layout import default_office_layout

EXTENT = 120.0

#: Enough nodes to give every topology at least one full group plus leftovers.
NODE_COUNTS = {name: 9 for name in TOPOLOGIES}

#: The generators that place nodes from a seed; ``testbed`` places named
#: stations instead (see TestTestbedTopology).
SEEDED = sorted(name for name in TOPOLOGIES if name != "testbed")


@pytest.mark.parametrize("name", SEEDED)
class TestEveryGenerator:
    def _make(self, name, seed):
        return generate_topology(name, n_nodes=NODE_COUNTS[name], extent=EXTENT, seed=seed)

    def test_same_seed_identical_placements(self, name):
        a, b = self._make(name, 42), self._make(name, 42)
        assert a.positions == b.positions
        assert a.flows == b.flows

    def test_distinct_seeds_distinct_placements(self, name):
        a, b = self._make(name, 42), self._make(name, 43)
        assert a.positions != b.positions

    def test_node_count_respected(self, name):
        for n in (NODE_COUNTS[name], NODE_COUNTS[name] + 1, NODE_COUNTS[name] + 5):
            placement = generate_topology(name, n_nodes=n, extent=EXTENT, seed=0)
            assert placement.n_nodes == n

    def test_bounds_respected(self, name):
        placement = self._make(name, 7)
        assert placement.bounding_radius() <= 1.5 * EXTENT

    def test_flows_reference_placed_nodes(self, name):
        placement = self._make(name, 7)
        assert placement.flows, "every topology must emit at least one flow"
        for src, dst in placement.flows:
            assert src in placement.positions
            assert dst in placement.positions
            assert src != dst

    def test_each_node_sends_at_most_one_flow(self, name):
        placement = self._make(name, 7)
        senders = [src for src, _ in placement.flows]
        assert len(senders) == len(set(senders))


def test_unknown_topology_rejected():
    with pytest.raises(KeyError, match="unknown topology"):
        generate_topology("moebius_strip", n_nodes=4, extent=10.0, seed=0)


def test_degenerate_arguments_rejected():
    with pytest.raises(ValueError):
        generate_topology("grid", n_nodes=1, extent=10.0, seed=0)
    with pytest.raises(ValueError):
        generate_topology("grid", n_nodes=4, extent=0.0, seed=0)


@pytest.mark.parametrize("extent", [float("nan"), float("inf"), -5.0])
def test_non_finite_or_negative_extent_rejected(extent):
    for name in sorted(TOPOLOGIES):
        with pytest.raises(ValueError, match="extent"):
            generate_topology(name, n_nodes=NODE_COUNTS[name], extent=extent, seed=0)


def test_nan_attach_range_frac_fails_the_run_instead_of_reading_zero():
    """A NaN hop used to place every attached node at NaN and run to a
    silent (and cached) ``total_pps`` of 0."""
    scenario = Scenario(topology="scale_free", n_nodes=6, duration_s=0.05,
                        topology_params={"attach_range_frac": float("nan")})
    with pytest.raises(ValueError, match="attach_range_frac"):
        scenario.run()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(("topology", "field"), [
    ("uniform_disc", "link_range_frac"),
    ("clustered", "spread_frac"),
    ("line", "jitter_frac"),
    ("exposed_terminal", "link_frac"),
    ("exposed_terminal", "sender_gap_frac"),
    ("exposed_terminal", "jitter_frac"),
    ("hidden_terminal", "jitter_frac"),
    ("grid", "jitter_frac"),
])
def test_non_finite_fraction_fails_the_run_naming_the_field(topology, field, value):
    """A NaN fraction used to place nodes at NaN and run to a silent (and
    cached) ``total_pps`` of 0; on ``grid`` numpy raised ``OverflowError``."""
    scenario = Scenario(topology=topology, n_nodes=6, duration_s=0.05,
                        topology_params={field: value})
    with pytest.raises(ValueError, match=field):
        scenario.run()


@pytest.mark.parametrize(("overrides", "field"), [
    ({"rate_mbps": 7.0}, "rate_mbps"),
    ({"payload_bytes": 0}, "payload_bytes"),
    ({"payload_bytes": -10}, "payload_bytes"),
    ({"mac": "tdma", "tdma_slot_s": 0.0}, "tdma_slot_s"),
    ({"mac": "tdma", "tdma_slot_s": float("inf")}, "tdma_slot_s"),
    ({"cca_threshold_dbm": float("nan")}, "cca_threshold_dbm"),
])
def test_bad_scalar_field_fails_at_construction_naming_it(overrides, field):
    """Each used to construct, then raise deep in the run (``KeyError`` for
    the rate) or, for ``payload_bytes=0``, deliver empty frames."""
    with pytest.raises(ValueError, match=field):
        Scenario(topology="hidden_terminal", n_nodes=3, duration_s=0.05, **overrides)


@pytest.mark.parametrize("overrides", [
    *({"rate_mbps": mbps} for mbps in (6.0, 9.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0)),
    {"payload_bytes": 1},
    {"mac": "tdma", "tdma_slot_s": 1e-6},
    {"cca_threshold_dbm": float("inf")},
    {"cca_threshold_dbm": float("-inf")},
], ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()))
def test_legal_scalar_boundary_constructs(overrides):
    """The construction checks reject no legal value: every OFDM rate, the
    one-byte payload, a tiny slot, and +/-inf CCA (+inf equals CCA off)."""
    scenario = Scenario(topology="hidden_terminal", n_nodes=3, duration_s=0.05, **overrides)
    for name, value in overrides.items():
        assert getattr(scenario, name) == value


def test_scale_free_grows_hub_degrees():
    placement = generate_topology("scale_free", n_nodes=60, extent=200.0, seed=1)
    indegree: dict = {}
    for _, dst in placement.flows:
        indegree[dst] = indegree.get(dst, 0) + 1
    # Preferential attachment concentrates receivers: the busiest hub serves
    # several uplinks while most nodes serve at most one.
    assert max(indegree.values()) >= 4
    assert np.median(list(indegree.values())) <= 2


def test_scale_free_multi_hub_validates_hub_count():
    placement = generate_topology(
        "scale_free", n_nodes=30, extent=1000.0, seed=1, n_hubs=4
    )
    assert len(placement.flows) == 26  # every non-hub node attaches once
    with pytest.raises(ValueError):
        generate_topology("scale_free", n_nodes=10, extent=100.0, seed=0, n_hubs=10)
    with pytest.raises(ValueError):
        generate_topology("scale_free", n_nodes=10, extent=100.0, seed=0, n_hubs=0)


@pytest.mark.parametrize("n_hubs, digest", [(1, "8df8a9641fc9d782"), (6, "8b8042aa47b73f13")])
def test_scale_free_placement_is_pinned(n_hubs, digest):
    """Positions and flows, bit for bit, as the generator has always drawn them."""
    placement = generate_topology(
        "scale_free", n_nodes=300, extent=2000.0, seed=11, n_hubs=n_hubs,
        attach_range_frac=0.02,
    )
    encoded = repr((list(placement.positions.items()), placement.flows)).encode()
    assert hashlib.sha256(encoded).hexdigest()[:16] == digest


def test_hidden_terminal_geometry():
    placement = generate_topology("hidden_terminal", n_nodes=3, extent=140.0, seed=0)
    (a, r1), (b, r2) = placement.flows
    assert r1 == r2  # shared receiver
    ax, _ = placement.positions[a]
    bx, _ = placement.positions[b]
    rx, _ = placement.positions[r1]
    assert min(ax, bx) < rx < max(ax, bx)
    assert abs(bx - ax) > 0.9 * 140.0  # senders at opposite ends of the span


def test_exposed_terminal_geometry():
    placement = generate_topology("exposed_terminal", n_nodes=4, extent=120.0, seed=0)
    (s1, r1), (s2, r2) = placement.flows
    x = {node: placement.positions[node][0] for node in placement.positions}
    # Receivers face away from the sender pair in the middle.
    assert x[r1] < x[s1] < x[s2] < x[r2]
    assert (x[s2] - x[s1]) > 2 * (x[s1] - x[r1])


class TestTestbedTopology:
    NODES = ["n20", "n37", "n13", "n18"]

    def _scenario(self, **overrides):
        return Scenario(topology="testbed", n_nodes=4, topology_params={"nodes": self.NODES},
                        duration_s=0.1, seed=3, **overrides)

    def test_places_named_stations_of_the_office_layout(self):
        layout = default_office_layout()
        placement = generate_topology("testbed", n_nodes=4, extent=EXTENT, seed=0,
                                      nodes=self.NODES)
        assert list(placement.positions) == self.NODES
        for node in self.NODES:
            assert placement.positions[node] == layout.node(node).position
        assert placement.flows == (("n20", "n37"), ("n13", "n18"))
        pairs = [(a, b) for i, a in enumerate(self.NODES) for b in self.NODES[i + 1:]]
        assert [(a, b) for a, b, _ in placement.pinned_shadowing_db] == pairs
        for a, b, value_db in placement.pinned_shadowing_db:
            assert value_db == layout.channel.shadowing_db(a, b)
        # The layout fixes everything: neither seed nor extent moves a station.
        assert generate_topology("testbed", n_nodes=4, extent=50.0, seed=9,
                                 nodes=self.NODES) == placement

    def test_seeded_generators_pin_nothing(self):
        for name in SEEDED:
            placement = generate_topology(name, n_nodes=NODE_COUNTS[name], extent=EXTENT, seed=0)
            assert placement.pinned_shadowing_db == ()

    def test_cold_and_warm_channels_carry_the_pinned_shadowing(self):
        layout = default_office_layout()
        scenario = self._scenario(sigma_db=8.0)
        warm = scenario.compute_warm_state()
        for state in (None, warm):
            net, _ = scenario.build_network(state)
            for a, b in (("n20", "n13"), ("n37", "n18")):
                assert net.channel.shadowing_db(a, b) == layout.channel.shadowing_db(a, b)
        assert scenario.run() == scenario.run(warm=warm)

    @pytest.mark.parametrize("nodes, n_nodes", [
        pytest.param(["n20", "x99"], 2, id="unknown"),
        pytest.param(["n20", "n20"], 2, id="duplicate"),
        pytest.param(["n20", "n37", "n13"], 3, id="odd"),
        pytest.param(["n20", "n37"], 4, id="count"),
        pytest.param([], 2, id="missing"),
    ])
    def test_bad_nodes_fail_at_placement(self, nodes, n_nodes, monkeypatch):
        scenario = Scenario(topology="testbed", n_nodes=n_nodes,
                            topology_params={"nodes": nodes} if nodes else {})
        with pytest.raises(ValueError, match="nodes"):
            scenario.placement()

        def no_network(*args, **kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(spec_module, "WirelessNetwork", no_network)
        with pytest.raises(ValueError, match="nodes"):
            scenario.run()


class TestScenarioSpec:
    def test_config_round_trip(self):
        scenario = Scenario(
            name="rt", topology="grid", n_nodes=6, seed=9, sigma_db=4.0,
            topology_params={"jitter_frac": 0.05},
        )
        assert Scenario.from_config(scenario.as_config()) == scenario

    def test_same_seed_same_run(self):
        spec = Scenario(topology="exposed_terminal", n_nodes=4, duration_s=0.2, seed=5)
        assert spec.run() == spec.run()

    def test_built_network_places_every_node(self):
        spec = Scenario(topology="clustered", n_nodes=8, duration_s=0.2, seed=2)
        net, placement = spec.build_network()
        assert set(net.nodes) == set(placement.positions)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(n_nodes=1)
        with pytest.raises(ValueError):
            Scenario(traffic="carrier_pigeon")
        with pytest.raises(ValueError):
            Scenario(mac="aloha")

    def test_carrier_sense_off_beats_on_for_exposed_terminals(self):
        """The subsystem reproduces the paper's core exposed-terminal effect."""
        base = Scenario(topology="exposed_terminal", n_nodes=4, extent_m=120.0,
                        duration_s=0.5, seed=3)
        with_cs = base.run().scenarios[0]["total_pps"]
        without_cs = base.with_overrides(cca_threshold_dbm=None).run().scenarios[0]["total_pps"]
        assert without_cs > 1.2 * with_cs


def asdict_config(scenario):
    """``Scenario.as_config`` as it was built on ``dataclasses.asdict``."""
    config = dataclasses.asdict(scenario)
    config["topology_params"] = dict(scenario.topology_params)
    for optional in ("traffic_params", "mac_params", "routing_params", "controller_params"):
        if not config[optional]:
            del config[optional]
        else:
            config[optional] = dict(config[optional])
    for optional in ("routing", "queue_capacity", "controller", "control_epoch_s"):
        if config[optional] is None:
            del config[optional]
    return config


#: JSON-able param values with nested lists and dicts.
_param_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
_params = st.dictionaries(st.text(min_size=1, max_size=6), _param_values, max_size=3)


class TestAsConfig:
    """``as_config`` reads fields directly; it must equal the ``asdict`` form
    (so every cache key is unchanged) and share no mutable state."""

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_equal_to_asdict_form_for_every_topology(self, name):
        scenario = Scenario(name=f"cfg-{name}", topology=name, n_nodes=9, seed=4)
        config = scenario.as_config()
        assert config == asdict_config(scenario)
        assert config_hash(config) == config_hash(asdict_config(scenario))

    @settings(max_examples=60, deadline=None)
    @given(topology=st.sampled_from(sorted(TOPOLOGIES)), topology_params=_params,
           traffic_params=_params, mac_params=_params, routing_params=_params,
           controller_params=_params, routed=st.booleans(), controlled=st.booleans())
    def test_equal_to_asdict_form_and_detached(self, topology, topology_params, traffic_params,
                                                mac_params, routing_params, controller_params,
                                                routed, controlled):
        scenario = Scenario(
            topology=topology, topology_params=topology_params,
            traffic_params=traffic_params, mac_params=mac_params,
            routing="shortest_path" if routed else None,
            routing_params=routing_params if routed else {},
            queue_capacity=4 if routed else None,
            controller=sorted(CONTROLLERS)[0] if controlled else None,
            controller_params=controller_params if controlled else {},
        )
        expected = copy.deepcopy(asdict_config(scenario))
        config = scenario.as_config()
        assert config == expected
        assert config_hash(config) == config_hash(expected)
        # Mutating every nested container of the config leaves the spec intact.
        for params in ("topology_params", "traffic_params", "mac_params", "routing_params",
                       "controller_params"):
            if params in config:
                _scramble(config[params])
                config[params]["added"] = 1
        assert scenario.as_config() == expected


def _scramble(value):
    """Mutate every list and dict nested in ``value``, in place."""
    children = list(value.values()) if isinstance(value, dict) else value
    for child in children:
        if isinstance(child, (list, dict)):
            _scramble(child)
    if isinstance(value, list):
        value.append("scrambled")
    else:
        value["scrambled"] = True
