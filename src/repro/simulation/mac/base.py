"""MAC protocol interface.

A MAC drives one node's radio: it decides *when* to transmit the packets the
node's traffic source provides, reacts to channel busy/idle transitions, and
handles received frames.  Concrete implementations:

* :class:`repro.simulation.mac.csma.CsmaMac` -- CSMA/CA with a configurable
  CCA threshold (set the threshold to ``None`` for the "carrier sense
  disabled" concurrency mode of the Section 4 experiments), optional
  ACK/retry, and optional RTS/CTS protection.
* :class:`repro.simulation.mac.tdma.TdmaMac` -- ideal slotted time-division
  multiplexing driven by a global schedule.
"""

from __future__ import annotations

import zlib
from typing import Callable, Hashable, Optional

import numpy as np

from ...capacity.adaptation import RateSelector
from ..engine import Simulator
from ..frames import Frame
from ..phy import ReceptionOutcome
from ..radio import Radio

__all__ = ["MacBase", "MacStats"]


def _default_mac_rng(node_id: Hashable) -> np.random.Generator:
    """Deterministic fallback stream for a MAC constructed without an rng.

    Every real construction path (``WirelessNetwork.add_node``) injects a
    seeded child generator; this fallback only serves hand-built MACs in
    tests and exploratory scripts.  Seeding from the node id (salted so the
    stream differs from the radio's identically-derived fallback) keeps
    even those runs replayable, and distinct nodes still get distinct
    backoff streams.
    """
    entropy = zlib.crc32(f"mac|{node_id!r}".encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


class MacStats:
    """Counters every MAC keeps, shared across implementations."""

    __slots__ = (
        "data_frames_sent",
        "data_frames_delivered",
        "acks_sent",
        "acks_received",
        "retries",
        "drops",
        "rx_data_frames",
        "rx_failed_frames",
    )

    def __init__(self) -> None:
        self.data_frames_sent = 0
        self.data_frames_delivered = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.retries = 0
        self.drops = 0
        self.rx_data_frames = 0
        self.rx_failed_frames = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class MacBase:
    """Common wiring between a MAC, its radio, and its traffic source.

    Attributes
    ----------
    rng:
        The MAC's own random stream; nothing else may draw from it.
        :class:`~repro.simulation.mac.csma.CsmaMac` takes its backoff draws
        from ``rng.bit_generator`` directly: each raw 64-bit output serves
        two 32-bit words, and the MAC holds the unused high half itself (from
        its first draw on, including a half the generator already held).
        Its backoff values equal ``rng.integers(0, cw + 1)`` called draw by
        draw, but the generator's own held-half state is left behind, so a
        32-bit draw made on ``rng`` by anything else would not continue that
        stream.
    """

    __slots__ = (
        "node_id",
        "sim",
        "radio",
        "rate_selector",
        "rng",
        "stats",
        "traffic",
        "_sequence",
        "on_data_received",
    )

    def __init__(
        self,
        node_id: Hashable,
        sim: Simulator,
        radio: Radio,
        rate_selector: RateSelector,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.radio = radio
        self.rate_selector = rate_selector
        self.rng = rng if rng is not None else _default_mac_rng(node_id)
        self.stats = MacStats()
        self.traffic = None  # set by Node
        self._sequence = 0

        # Observers (e.g. node-level stats) may hook this to see every
        # successfully received data frame.
        self.on_data_received: Callable[[Frame], None] = lambda frame: None

        radio.on_channel_busy = self._on_channel_busy
        radio.on_channel_idle = self._on_channel_idle
        radio.on_frame_received = self._on_frame_received
        radio.on_transmit_complete = self._on_transmit_complete

    # -- to be provided by subclasses ------------------------------------------

    def start(self) -> None:
        """Begin operation (called once when the network starts)."""
        raise NotImplementedError

    def _on_channel_busy(self) -> None:
        raise NotImplementedError

    def _on_channel_idle(self) -> None:
        raise NotImplementedError

    def _on_frame_received(self, outcome: ReceptionOutcome) -> None:
        raise NotImplementedError

    def _on_transmit_complete(self, frame: Frame) -> None:
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------------

    def next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    def attach_traffic(self, traffic) -> None:
        """Connect the node's traffic source (called by Node).

        Open-loop sources expose an ``on_arrival`` hook; wiring it here (the
        single chokepoint every construction path goes through) means any
        MAC that goes dormant on an empty queue is woken by the next arrival
        without callers having to remember the plumbing.
        """
        self.traffic = traffic
        if getattr(traffic, "on_arrival", "absent") is None:
            traffic.on_arrival = self.notify_traffic

    def notify_traffic(self) -> None:
        """Hint that the traffic source has packets again.

        Open-loop sources (e.g. :class:`PoissonTraffic`) call this when a
        packet arrives into an empty queue; MACs that go dormant on an empty
        source override it to resume their access procedure.  The default is
        a no-op, which is correct for MACs that poll on their own clock.
        """
