"""A network node: radio + MAC + traffic + statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from .mac.base import MacBase
from .radio import Radio
from .stats import NodeStats
from .traffic import TrafficSource

__all__ = ["Node"]


@dataclass(slots=True)
class Node:
    """One wireless station.

    The node wires its MAC's data-reception hook to its statistics object so
    that every successfully decoded data frame addressed to (or broadcast
    past) this node is counted per source.
    """

    node_id: Hashable
    position: Tuple[float, float]
    radio: Radio
    mac: MacBase
    traffic: Optional[TrafficSource] = None
    stats: Optional[NodeStats] = None

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = NodeStats(self.node_id)
        # Bind the simulator clock so receptions of timestamped frames
        # accumulate enqueue-to-delivery latency alongside the counters.
        self.stats.clock = self.radio.sim
        if self.traffic is not None:
            self.mac.attach_traffic(self.traffic)
        self.mac.on_data_received = self.stats.record_reception

    def start(self) -> None:
        """Start the node's MAC (called by the network when the run begins)."""
        self.mac.start()
