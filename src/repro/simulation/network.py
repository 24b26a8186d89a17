"""High-level network builder and run harness.

:class:`WirelessNetwork` ties the simulator pieces together: it owns the
event engine, the medium (with a physical channel model), and the nodes, and
provides the measurement loop the testbed experiments need (run for a fixed
duration, then read per-link delivered packet counts).

Typical use::

    net = WirelessNetwork(channel=ChannelModel(...), seed=1)
    net.add_node("S1", (0, 0), mac="csma", traffic=SaturatedTraffic("R1"), rate_mbps=12)
    net.add_node("R1", (8, 0), mac="csma")
    result = net.run(duration_s=5.0)
    result.link("S1", "R1").packets_per_second
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..capacity.adaptation import FixedRate, OracleRateSelector, RateSelector
from ..capacity.rates import OFDM_RATES, RateInfo, rate_by_mbps
from ..propagation.channel import ChannelModel
from ..registry import MACS
from .engine import Simulator
from .frames import BROADCAST
from .mac.csma import CsmaMac
from .mac.tdma import TdmaMac, TdmaSchedule
from .medium import DEFAULT_DETECTABILITY_MARGIN_DB, Medium
from .node import Node
from .phy import ReceptionModel
from .radio import Radio
from .stats import LinkThroughput
from .traffic import TrafficSource

__all__ = ["WirelessNetwork", "RunResult"]

Position = Tuple[float, float]


# -- builtin MAC factories -------------------------------------------------------
#
# :meth:`WirelessNetwork.add_node` dispatches MAC construction through the
# shared :data:`repro.registry.MACS` registry, so additional protocols plug
# in with ``@MACS.register("name")`` and are selected by ``mac="name"``
# (plus free-form ``mac_params``) without touching this module or
# :class:`repro.scenarios.Scenario`.  A factory takes
# ``(network, node_id, radio, rate_selector, rng, **params)``.

@MACS.register("csma")
def _make_csma(network: "WirelessNetwork", node_id, radio, rate_selector, rng, **params):
    return CsmaMac(node_id, network.sim, radio, rate_selector, rng=rng, **params)


@MACS.register("tdma")
def _make_tdma(
    network: "WirelessNetwork", node_id, radio, rate_selector, rng, schedule=None, **params
):
    if schedule is None:
        raise ValueError("tdma MAC requires a tdma_schedule")
    return TdmaMac(node_id, network.sim, radio, rate_selector, schedule, rng=rng, **params)


@dataclass(slots=True)
class RunResult:
    """Outcome of one measurement run."""

    duration_s: float
    nodes: Dict[Hashable, Node]
    events_processed: int

    def link(self, src: Hashable, dst: Hashable) -> LinkThroughput:
        """Delivered throughput on the directed link ``src -> dst``."""
        return self.nodes[dst].stats.link_throughput(src, self.duration_s)

    def packets_delivered(self, src: Hashable, dst: Hashable) -> int:
        return self.nodes[dst].stats.packets_from.get(src, 0)

    def total_packets_per_second(self, links: Iterable[Tuple[Hashable, Hashable]]) -> float:
        """Combined delivered packet rate over the given directed links."""
        return sum(self.link(src, dst).packets_per_second for src, dst in links)


class WirelessNetwork:
    """Builds and runs a packet-level wireless network simulation."""

    __slots__ = (
        "sim",
        "channel",
        "medium",
        "default_cca_threshold_dbm",
        "cca_noise_db",
        "reception",
        "nodes",
        "route_table",
        "_rng",
        "_child_seeds",
        "_started",
    )

    def __init__(
        self,
        channel: Optional[ChannelModel] = None,
        seed: int = 0,
        cca_threshold_dbm: Optional[float] = -82.0,
        reception: Optional[ReceptionModel] = None,
        detectability_margin_db: Optional[float] = DEFAULT_DETECTABILITY_MARGIN_DB,
        cca_noise_db: float = 2.0,
    ) -> None:
        """``detectability_margin_db`` controls the medium's neighbourhood
        pruning (see :class:`~repro.simulation.medium.Medium`); pass ``None``
        for the unpruned reference medium.  ``cca_noise_db`` is the per-frame
        carrier-sense measurement noise applied by every radio (0 disables
        it, which also makes pruned and unpruned runs bit-comparable)."""
        self.sim = Simulator()
        if channel is None:
            # The default channel draws shadowing from its own stream of
            # ``seed`` (the one Scenario.channel uses), leaving ``_rng`` and
            # every radio/MAC child stream where they were.
            channel = ChannelModel(
                rng=np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 1)))
            )
        self.channel = channel
        self.medium = Medium(
            self.sim, self.channel, detectability_margin_db=detectability_margin_db
        )
        self.default_cca_threshold_dbm = cca_threshold_dbm
        self.cca_noise_db = cca_noise_db
        self.reception = reception if reception is not None else ReceptionModel()
        self.nodes: Dict[Hashable, Node] = {}
        #: Set by builders that layer multi-hop forwarding on top (see
        #: :mod:`repro.networking`); ``None`` for direct single-hop networks.
        self.route_table = None
        self._rng = np.random.default_rng(seed)
        self._child_seeds: list = []
        self._started = False

    # -- construction -----------------------------------------------------------

    #: Child seeds are drawn from ``_rng`` in blocks of this size: one
    #: vectorized ``integers`` call instead of ~2N scalar draws while
    #: constructing an N-node network.  Bounded-integer generation consumes
    #: the PCG64 stream value-by-value, so the batched draws are
    #: bit-identical to the historical one-draw-per-call sequence (pinned by
    #: tests/test_simulation_mac_network.py).
    _SEED_BATCH = 256

    def _next_child_seed(self) -> int:
        if not self._child_seeds:
            batch = self._rng.integers(0, 2**63 - 1, size=self._SEED_BATCH)
            self._child_seeds = [int(s) for s in batch[::-1]]
        return self._child_seeds.pop()

    def _child_rng(self) -> np.random.Generator:
        # Direct Generator(PCG64(seed)) construction: the same
        # SeedSequence-derived stream ``default_rng(seed)`` yields (pinned by
        # the batched-seed tests), minus a layer of dispatch overhead on a
        # path hit ~2N times per network build.
        return np.random.Generator(np.random.PCG64(self._next_child_seed()))

    def add_node(
        self,
        node_id: Hashable,
        position: Position,
        mac: str = "csma",
        traffic: Optional[TrafficSource] = None,
        rate_mbps: Optional[float] = None,
        rate_selector: Optional[RateSelector] = None,
        cca_threshold_dbm: Optional[float] = "default",
        tdma_schedule: Optional[TdmaSchedule] = None,
        use_acks: bool = False,
        use_rts_cts: bool = False,
        mac_params: Optional[Dict[str, Any]] = None,
    ) -> Node:
        """Create a node with the given MAC and traffic source.

        ``cca_threshold_dbm`` defaults to the network-wide setting; pass
        ``None`` explicitly to disable carrier sense on this node (the
        Section 4 "concurrency" configuration).  ``mac`` names an entry in
        :data:`repro.registry.MACS`; ``mac_params`` carries extra keyword
        arguments to the registered factory (how plugin MACs receive their
        configuration).  The legacy convenience flags (``tdma_schedule``,
        ``use_acks``, ``use_rts_cts``) are folded into those params.
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        if self._started:
            raise RuntimeError("cannot add nodes after the network has started")
        if cca_threshold_dbm == "default":
            cca_threshold_dbm = self.default_cca_threshold_dbm

        radio = Radio(
            node_id,
            self.sim,
            self.medium,
            reception=self.reception,
            cca_threshold_dbm=cca_threshold_dbm,
            cca_noise_db=self.cca_noise_db,
            rng=self._child_rng(),
        )
        self.medium.register(node_id, position, radio)

        if rate_selector is None:
            if rate_mbps is not None:
                rate_selector = FixedRate(rate_by_mbps(rate_mbps))
            else:
                rate_selector = FixedRate(OFDM_RATES[0])

        if mac not in MACS:
            known = ", ".join(sorted(MACS))
            raise ValueError(f"unknown MAC type {mac!r} (known: {known})")
        params: Dict[str, Any] = dict(mac_params) if mac_params else {}
        if mac == "csma":
            params.setdefault("use_acks", use_acks)
            params.setdefault("use_rts_cts", use_rts_cts)
        elif mac == "tdma" and tdma_schedule is not None:
            # Historically ``tdma_schedule`` was ignored for non-tdma MACs
            # (callers pass one network-wide schedule to every add_node);
            # keep that.  Plugin MACs receive schedules via ``mac_params``.
            params.setdefault("schedule", tdma_schedule)
        mac_obj = MACS.get(mac)(
            self, node_id, radio, rate_selector, rng=self._child_rng(), **params
        )

        node = Node(node_id=node_id, position=position, radio=radio, mac=mac_obj, traffic=traffic)
        self.nodes[node_id] = node
        return node

    # -- measurement ------------------------------------------------------------

    def link_snr_db(self, src: Hashable, dst: Hashable) -> float:
        """Interference-free SNR of a link (useful for oracle rate selection)."""
        return self.medium.snr_db(src, dst)

    def oracle_rate_selector(self, links: Sequence[Tuple[Hashable, Hashable]]) -> OracleRateSelector:
        """An oracle selector primed with the true SNR of the given links."""
        snr_map = {link: self.link_snr_db(*link) for link in links}
        return OracleRateSelector(snr_db_by_link=snr_map)

    def start(self) -> None:
        """Start all node MACs (idempotent)."""
        if self._started:
            return
        self._started = True
        # Freeze the topology up front: one vectorized rx-power pass plus the
        # per-sender pruned notification lists, before any frame hits the air.
        self.medium.finalize()
        for node in self.nodes.values():
            node.start()

    def run(self, duration_s: float) -> RunResult:
        """Run the network for ``duration_s`` simulated seconds and report."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        for node in self.nodes.values():
            node.stats.reset()
        self.start()
        end_time = self.sim.now + duration_s
        self.sim.run(until=end_time)
        return RunResult(
            duration_s=duration_s,
            nodes=dict(self.nodes),
            events_processed=self.sim.events_processed,
        )
