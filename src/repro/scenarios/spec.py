"""Declarative scenario specification: topology + propagation + traffic + MAC.

A :class:`Scenario` is the whole-network analogue of the two-pair
:class:`repro.core.geometry.Scenario`: a frozen, JSON-able description of a
network that can be expanded into a :class:`WirelessNetwork` and run.  Because
the spec round-trips through plain dicts (:meth:`as_config` /
:meth:`from_config`), scenarios travel cleanly across multiprocessing workers
and hash stably for the result cache.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..capacity.rates import OFDM_RATES, rate_by_mbps
from ..constants import DEFAULT_TX_POWER_DBM, EXPERIMENT_PAYLOAD_BYTES, FREQ_5_GHZ
from ..control.controllers import controller_rng
from ..control.env import SimEnv
from ..networking.forwarding import ForwardingNode, ForwardingQueue
from ..networking.routing import RouteTable
from ..propagation.channel import ChannelModel
from ..propagation.pathloss import LogDistancePathLoss
from ..registry import CONTROLLERS, MACS, TRAFFIC_MODELS
from ..results import ResultSet
from ..runner.sweep import plain
from ..simulation.mac.tdma import TdmaSchedule
from ..simulation.medium import DEFAULT_DETECTABILITY_MARGIN_DB, LinkRows
from ..simulation.network import RunResult, WirelessNetwork
from ..simulation.traffic import OnOffTraffic, PoissonTraffic, SaturatedTraffic
from .topologies import Placement, generate_topology

__all__ = ["Scenario", "WarmState"]

#: A (topology, propagation) group's shared set-up: the placement and the
#: received-power rows over its nodes (see :meth:`Scenario.compute_warm_state`).
WarmState = Tuple[Placement, LinkRows]


# -- builtin traffic models ------------------------------------------------------
#
# Registered here (not in repro.simulation.traffic) because the factory
# signature is scenario-centric: it closes over the spec's payload/load
# fields and the network's seeded child-rng stream.  Additional models plug
# in with ``@TRAFFIC_MODELS.register("name")`` and are selected by
# ``Scenario(traffic="name", traffic_params={...})`` -- no Scenario changes.

@TRAFFIC_MODELS.register("saturated")
def _saturated_traffic(scenario: "Scenario", net: WirelessNetwork, destination: str, **params):
    return SaturatedTraffic(
        destination=destination, payload_bytes=scenario.payload_bytes, **params
    )


@TRAFFIC_MODELS.register("poisson")
def _poisson_traffic(scenario: "Scenario", net: WirelessNetwork, destination: str, **params):
    return PoissonTraffic(
        sim=net.sim,
        rate_pps=scenario.offered_load_pps,
        destination=destination,
        payload_bytes=scenario.payload_bytes,
        rng=net._child_rng(),
        **params,
    )


@TRAFFIC_MODELS.register("onoff")
def _onoff_traffic(scenario: "Scenario", net: WirelessNetwork, destination: str, **params):
    """Heavy-tailed ON/OFF bursts: saturated while ON, silent while OFF.

    ``traffic_params`` carries ``mean_on_s`` / ``mean_off_s`` / ``shape`` /
    ``start_on``; durations draw from the network's seeded child stream so
    replays are deterministic, independent of any control plane.
    """
    return OnOffTraffic(
        sim=net.sim,
        destination=destination,
        payload_bytes=scenario.payload_bytes,
        rng=net._child_rng(),
        **params,
    )


@dataclass(frozen=True)
class Scenario:
    """A fully specified whole-network scenario.

    Groups four concerns:

    * **topology** -- generator name, node count, spatial extent, seed, and
      free-form generator parameters;
    * **propagation** -- log-distance path loss anchored like the synthetic
      testbed, lognormal shadowing, transmit power;
    * **traffic** -- saturated (the paper's protocol) or Poisson open-loop
      sources on every flow sender;
    * **MAC** -- csma (with carrier-sense threshold, optionally disabled by
      ``cca_threshold_dbm=None``) or an ideal round-robin tdma schedule.
    """

    name: str = "scenario"
    # topology
    topology: str = "uniform_disc"
    n_nodes: int = 10
    extent_m: float = 120.0
    seed: int = 0
    topology_params: Dict[str, Any] = field(default_factory=dict)
    # propagation
    alpha: float = 3.6
    sigma_db: float = 0.0
    frequency_hz: float = FREQ_5_GHZ
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    reference_distance_m: float = 20.0
    reference_loss_db: float = 77.0
    # traffic
    traffic: str = "saturated"
    offered_load_pps: float = 200.0
    payload_bytes: int = EXPERIMENT_PAYLOAD_BYTES
    #: Extra keyword arguments for registered (plugin) traffic factories.
    #: Omitted from :meth:`as_config` when empty so pre-existing cache keys
    #: are unchanged.
    traffic_params: Dict[str, Any] = field(default_factory=dict)
    # MAC
    mac: str = "csma"
    #: Extra keyword arguments for registered (plugin) MAC factories; same
    #: omit-when-empty cache-key compatibility rule as ``traffic_params``.
    mac_params: Dict[str, Any] = field(default_factory=dict)
    cca_threshold_dbm: Optional[float] = -82.0
    cca_noise_db: float = 2.0
    rate_mbps: float = 6.0
    use_acks: bool = False
    use_rts_cts: bool = False
    tdma_slot_s: float = 0.02
    # medium (``None`` disables neighbourhood pruning -- the reference path)
    detectability_margin_db: Optional[float] = DEFAULT_DETECTABILITY_MARGIN_DB
    # networking (``None`` keeps the historical direct single-hop flows).
    #: ``"shortest_path"`` builds a static hop-count route table over the
    #: decodable-link graph and relays every flow hop-by-hop through
    #: per-station forwarding queues (see :mod:`repro.networking`).
    routing: Optional[str] = None
    #: Finite relay-FIFO bound per station (tail drop beyond it); ``None``
    #: leaves relay queues unbounded.  Requires ``routing``.
    queue_capacity: Optional[int] = None
    #: Extra routing knobs (currently ``link_margin_db``: extra dB of
    #: received power demanded of a routable link).  Omitted from
    #: :meth:`as_config` while empty, like the other param dicts.
    routing_params: Dict[str, Any] = field(default_factory=dict)
    # closed-loop control (``None`` keeps the historical open-loop run).
    #: Name of a registered online controller (see
    #: :data:`repro.registry.CONTROLLERS`); the run is then driven through
    #: :class:`repro.control.env.SimEnv` in fixed observation epochs, with
    #: the per-epoch trace attached to the result meta under ``"control"``.
    #: All three fields follow the omit-when-unset cache-key compatibility
    #: rule, so uncontrolled scenarios hash exactly as before.
    controller: Optional[str] = None
    #: Extra keyword arguments for the registered controller factory.
    controller_params: Dict[str, Any] = field(default_factory=dict)
    #: Observation-epoch length in seconds; ``None`` uses
    #: ``duration_s / DEFAULT_EPOCHS``.  Requires ``controller``.
    control_epoch_s: Optional[float] = None
    # measurement
    duration_s: float = 1.0

    def __post_init__(self) -> None:
        # numpy scalars (seeds from ``np.arange``, say) would reach the
        # result metadata and the cache config, which JSON cannot encode.
        for name, value in list(vars(self).items()):
            object.__setattr__(self, name, plain(value))
        if self.n_nodes < 2:
            raise ValueError("a scenario needs at least two nodes")
        for name in ("extent_m", "sigma_db", "duration_s", "alpha", "rate_mbps",
                     "offered_load_pps", "tx_power_dbm", "cca_noise_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.cca_noise_db < 0:
            raise ValueError("cca_noise_db must be non-negative")
        try:
            rate_by_mbps(self.rate_mbps)
        except KeyError:
            known = ", ".join(f"{rate.mbps:g}" for rate in OFDM_RATES)
            raise ValueError(
                f"rate_mbps={self.rate_mbps} is not an OFDM rate (known: {known})"
            ) from None
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be at least 1")
        if not (math.isfinite(self.tdma_slot_s) and self.tdma_slot_s > 0):
            raise ValueError("tdma_slot_s must be finite and positive")
        # +/-inf are legal thresholds (+inf never defers, like None).
        if self.cca_threshold_dbm is not None and math.isnan(self.cca_threshold_dbm):
            raise ValueError("cca_threshold_dbm must not be NaN (None disables carrier sense)")
        if self.detectability_margin_db is not None and (
            not math.isfinite(self.detectability_margin_db) or self.detectability_margin_db < 0
        ):
            raise ValueError("detectability_margin_db must be non-negative or None")
        if self.extent_m <= 0:
            raise ValueError("extent_m must be positive")
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.traffic not in TRAFFIC_MODELS:
            known = ", ".join(sorted(TRAFFIC_MODELS))
            raise ValueError(f"unknown traffic model {self.traffic!r} (known: {known})")
        if self.mac not in MACS:
            known = ", ".join(sorted(MACS))
            raise ValueError(f"unknown MAC {self.mac!r} (known: {known})")
        if self.routing not in (None, "shortest_path"):
            raise ValueError(
                f"unknown routing {self.routing!r} (known: shortest_path)"
            )
        if self.routing is None and (self.queue_capacity is not None or self.routing_params):
            raise ValueError("queue_capacity / routing_params require routing")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1 (or None for unbounded)")
        if self.controller is not None and self.controller not in CONTROLLERS:
            known = ", ".join(sorted(CONTROLLERS))
            raise ValueError(f"unknown controller {self.controller!r} (known: {known})")
        if self.controller is None and (
            self.control_epoch_s is not None or self.controller_params
        ):
            raise ValueError("control_epoch_s / controller_params require controller")
        if self.control_epoch_s is not None and (
            not math.isfinite(self.control_epoch_s) or self.control_epoch_s <= 0
        ):
            raise ValueError("control_epoch_s must be positive (or None for the default)")

    # -- construction ----------------------------------------------------------

    def placement(self) -> Placement:
        """The deterministic node placement for this spec."""
        return generate_topology(
            self.topology,
            n_nodes=self.n_nodes,
            extent=self.extent_m,
            seed=self.seed,
            **dict(self.topology_params),
        )

    def channel(self) -> ChannelModel:
        """A freshly seeded physical channel for this spec."""
        return ChannelModel(
            path_loss=LogDistancePathLoss(
                alpha=self.alpha,
                frequency_hz=self.frequency_hz,
                reference_distance_m=self.reference_distance_m,
                reference_loss_db=self.reference_loss_db,
            ),
            sigma_db=self.sigma_db,
            tx_power_dbm=self.tx_power_dbm,
            rng=np.random.default_rng(np.random.SeedSequence(entropy=(int(self.seed), 1))),
        )

    def _channel_for(self, placement: Placement) -> ChannelModel:
        """:meth:`channel` with the placement's pinned shadowing, set before
        any draw (the cold build and the warm state both draw from it)."""
        channel = self.channel()
        for a, b, value_db in placement.pinned_shadowing_db:
            channel.set_shadowing_db(a, b, value_db)
        return channel

    # Fields that fully determine the node placement and the rx-power matrix.
    # Scenarios sharing these (grid points differing only in traffic, MAC,
    # CCA, or measurement settings) can reuse one precomputed warm state.
    _WARM_FIELDS = (
        "topology",
        "n_nodes",
        "extent_m",
        "seed",
        "alpha",
        "sigma_db",
        "frequency_hz",
        "tx_power_dbm",
        "reference_distance_m",
        "reference_loss_db",
    )

    def warm_key(self) -> Tuple[Any, ...]:
        """Hashable fingerprint of the (topology, propagation) group."""
        params = tuple(sorted((str(k), repr(v)) for k, v in self.topology_params.items()))
        return tuple(getattr(self, name) for name in self._WARM_FIELDS) + (params,)

    def compute_warm_state(self) -> WarmState:
        """Precompute the placement and its :class:`LinkRows` table.

        The table draws its shadowing from the same seeded channel that
        :meth:`Medium.finalize` would use, so handing the state to
        :meth:`build_network` changes wall-clock only, never results.  Its
        rows are built on first use and kept, so every network the state
        primes shares them; the network's channel adopts the table's
        shadowing, so per-pair queries (oracle SNRs, link budgets) answer
        identically to a cold-built one.
        """
        return self._warm_state()

    def _warm_state(self) -> WarmState:
        # Shared with cold routed builds, which use the state internally
        # rather than hand it over.
        placement = self.placement()
        rows = LinkRows(
            self._channel_for(placement), list(placement.positions), placement.positions
        )
        return placement, rows

    def route_table(self, warm: Optional[WarmState] = None) -> RouteTable:
        """The static shortest-path route table this spec's topology implies.

        A directed link exists where the received power clears the noise
        floor by the configured rate's minimum SNR (plus an optional
        ``routing_params["link_margin_db"]``), i.e. exactly the frames the
        PHY can decode in the clear.  The powers come from the warm state's
        rows (computed here when ``warm`` is ``None``), drawn from the same
        seeded channel the medium finalises with, so routes agree with the
        links packets actually traverse.
        """
        if self.routing is None:
            raise ValueError("scenario has no routing layer (routing=None)")
        placement, rows = warm if warm is not None else self._warm_state()
        params = dict(self.routing_params)
        link_margin_db = float(params.pop("link_margin_db", 0.0))
        if params:
            raise ValueError(f"unknown routing_params: {sorted(params)}")
        threshold_dbm = (
            self.channel().noise_floor_dbm
            + rate_by_mbps(self.rate_mbps).min_snr_db
            + link_margin_db
        )
        return RouteTable.from_rx_matrix(
            list(placement.positions), rows.matrix(), threshold_dbm
        )

    def build_network(
        self, warm: Optional[WarmState] = None
    ) -> Tuple[WirelessNetwork, Placement]:
        """Expand the spec into a ready-to-run :class:`WirelessNetwork`.

        ``warm`` is an optional state from :meth:`compute_warm_state` (for
        this spec's :meth:`warm_key`); it skips re-generating the topology
        and re-drawing the shadowing, and shares the rows already built,
        when many scenarios share one (topology, propagation) group.  A
        routed spec built cold computes its warm state itself: the route
        table and the medium then share one table.
        """
        if warm is None and self.routing is not None:
            warm = self._warm_state()
        if warm is None:
            placement = self.placement()
            channel = self._channel_for(placement)
        else:
            # The primed rows carry any pinned shadowing (see _warm_state).
            placement, channel = warm[0], self.channel()
        net = WirelessNetwork(
            channel=channel,
            seed=self.seed,
            cca_threshold_dbm=self.cca_threshold_dbm,
            detectability_margin_db=self.detectability_margin_db,
            cca_noise_db=self.cca_noise_db,
        )
        if warm is not None:
            net.medium.prime_rx_matrix(warm[1])
        senders = {src: dst for src, dst in placement.flows}
        routes = None
        if self.routing is not None:
            routes = self.route_table(warm)
            net.route_table = routes
        schedule = None
        if self.mac == "tdma":
            # With a forwarding layer any station may need to transmit
            # (relays included), so every node owns a slot.
            owners = (
                tuple(placement.positions)
                if routes is not None
                else tuple(senders) or tuple(placement.positions)
            )
            schedule = TdmaSchedule(
                slot_duration_s=self.tdma_slot_s,
                slot_owners=owners,
            )
        make_traffic = TRAFFIC_MODELS.get(self.traffic)
        for node_id, position in placement.positions.items():
            traffic = None
            if node_id in senders:
                traffic = make_traffic(self, net, senders[node_id], **self.traffic_params)
            queue = None
            if routes is not None:
                queue = ForwardingQueue(
                    node_id, routes, origin=traffic, capacity=self.queue_capacity
                )
                traffic = queue
            kwargs: Dict[str, Any] = {}
            if self.mac == "csma":
                kwargs.update(use_acks=self.use_acks, use_rts_cts=self.use_rts_cts)
            node = net.add_node(
                node_id,
                position,
                mac=self.mac,
                traffic=traffic,
                rate_mbps=self.rate_mbps,
                tdma_schedule=schedule,
                mac_params=self.mac_params,
                **kwargs,
            )
            if queue is not None:
                ForwardingNode(node, routes, queue)
        return net, placement

    # -- execution -------------------------------------------------------------

    def run(self, warm: Optional[WarmState] = None) -> ResultSet:
        """Run the scenario and return a typed columnar :class:`ResultSet`.

        The set holds one flow row per directed flow (delivered/offered
        throughput and packet counts, loss fraction, and mean MAC
        enqueue-to-delivery delay from the receivers' frame timestamps) plus
        one scenario-index entry with the summary scalars (name, topology,
        seed, ``total_pps``, ``events_processed``, ...), read as
        ``result.scenarios[0]["total_pps"]``.

        With ``controller`` set, the run is driven through
        :class:`repro.control.env.SimEnv` in ``control_epoch_s`` windows and
        the per-epoch observation trace rides the scenario meta under
        ``"control"`` -- everything else (columns, caching, warm dispatch)
        is unchanged, and a ``static`` controller reproduces the
        uncontrolled columns byte-identically.
        """
        if self.controller is not None:
            return self._run_controlled(warm)
        net, placement = self.build_network(warm)
        outcome = net.run(self.duration_s)
        return self._result_set(net, placement, outcome)

    def _run_controlled(self, warm: Optional[WarmState] = None) -> ResultSet:
        """Closed-loop run: step the env, let the controller act per epoch."""
        env = SimEnv(self, warm=warm)
        factory = CONTROLLERS.get(self.controller)
        controller = factory(self, controller_rng(self.seed), **self.controller_params)
        env.rollout(controller)
        trace = [observation.as_dict() for observation in env.history]
        return env.result_set(
            extra_meta={
                "control": {
                    "controller": self.controller,
                    "epoch_s": env.epoch_s,
                    "epochs": len(trace),
                    "trace": trace,
                }
            }
        )

    def _result_set(
        self,
        net: WirelessNetwork,
        placement: Placement,
        outcome: RunResult,
        extra_meta: Optional[Dict[str, Any]] = None,
    ) -> ResultSet:
        """Assemble the columnar ResultSet for a finished run.

        Shared by the open-loop path and the stepped env
        (:meth:`repro.control.env.SimEnv.result_set`), so both produce the
        same bytes from the same network state.
        """
        routes = net.route_table
        n_flows = len(placement.flows)
        flow_rates: list = []
        delivered_pps = np.empty(n_flows, dtype=np.float64)
        delivered_packets = np.empty(n_flows, dtype=np.int64)
        offered_packets = np.empty(n_flows, dtype=np.int64)
        sent_packets = np.empty(n_flows, dtype=np.int64)
        delay_s = np.empty(n_flows, dtype=np.float64)
        delay_p50_s = np.empty(n_flows, dtype=np.float64)
        delay_p99_s = np.empty(n_flows, dtype=np.float64)
        hops = np.ones(n_flows, dtype=np.int64)
        queue_drops = np.zeros(n_flows, dtype=np.int64)
        for row, (src, dst) in enumerate(placement.flows):
            pps = outcome.link(src, dst).packets_per_second
            flow_rates.append(pps)
            delivered_pps[row] = pps
            delivered_packets[row] = outcome.packets_delivered(src, dst)
            traffic = net.nodes[src].traffic
            if isinstance(traffic, ForwardingQueue):
                # End-to-end accounting reads the wrapped origin source: the
                # relay FIFO's packets are other stations' flows in transit.
                traffic = traffic.origin
            offered_packets[row] = getattr(traffic, "packets_offered", -1)
            sent_packets[row] = getattr(traffic, "packets_sent", -1)
            dst_stats = net.nodes[dst].stats
            delay_s[row] = dst_stats.mean_delay_from(src)
            delay_p50_s[row], delay_p99_s[row] = dst_stats.delay_percentiles_from(src)
            if routes is not None:
                hops[row] = routes.hop_count(src, dst)
                queue_drops[row] = sum(
                    node.stats.queue_drops_for.get((src, dst), 0)
                    for node in net.nodes.values()
                )
        offered_pps = np.where(
            offered_packets >= 0, offered_packets / self.duration_s, np.nan
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            loss_frac = np.where(
                sent_packets > 0, 1.0 - delivered_packets / sent_packets, np.nan
            )
        meta = {
            "name": self.name,
            "topology": self.topology,
            "n_nodes": self.n_nodes,
            "n_flows": len(placement.flows),
            "seed": self.seed,
            "duration_s": self.duration_s,
            "total_pps": float(sum(flow_rates)),
            "mean_flow_pps": float(np.mean(flow_rates)) if flow_rates else 0.0,
            "min_flow_pps": float(min(flow_rates)) if flow_rates else 0.0,
            "max_flow_pps": float(max(flow_rates)) if flow_rates else 0.0,
            "events_processed": outcome.events_processed,
        }
        if extra_meta:
            meta.update(extra_meta)
        return ResultSet.from_flows(
            meta,
            placement.flows,
            delivered_pps=delivered_pps,
            offered_pps=offered_pps,
            loss_frac=loss_frac,
            delay_s=delay_s,
            delay_p50_s=delay_p50_s,
            delay_p99_s=delay_p99_s,
            delivered_packets=delivered_packets,
            offered_packets=offered_packets,
            sent_packets=sent_packets,
            hops=hops,
            queue_drops=queue_drops,
        )

    # -- (de)serialisation -----------------------------------------------------

    def as_config(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-able) suitable for tasks and cache keys.

        The plugin-parameter fields (``traffic_params`` / ``mac_params``)
        are omitted while empty: every pre-existing scenario then hashes to
        exactly the key it had before those fields existed, so result caches
        written by older versions keep hitting.
        """
        # Only the param dicts can hold nested mutables, so only they are
        # deep-copied: every cache replay builds this once per task key.
        config = {name: getattr(self, name) for name in _FIELD_NAMES}
        config["topology_params"] = (
            copy.deepcopy(dict(self.topology_params)) if self.topology_params else {}
        )
        for optional in ("traffic_params", "mac_params", "routing_params", "controller_params"):
            if not config[optional]:
                del config[optional]
            else:
                config[optional] = copy.deepcopy(dict(config[optional]))
        # Same cache-key compatibility rule for the networking fields: a
        # scenario without a routing layer hashes exactly as it always did,
        # and likewise an uncontrolled scenario hashes without the
        # controller fields.
        for optional in ("routing", "queue_capacity", "controller", "control_epoch_s"):
            if config[optional] is None:
                del config[optional]
        return config

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "Scenario":
        return cls(**dict(config))

    def with_overrides(self, **overrides: Any) -> "Scenario":
        """A copy of the spec with the given fields replaced."""
        return replace(self, **overrides)


_FIELD_NAMES = tuple(spec_field.name for spec_field in fields(Scenario))
