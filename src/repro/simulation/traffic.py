"""Traffic sources.

The Section 4 experiments saturate each sender ("each of the two senders
attempts to send 1400-byte packets continuously for 15 seconds"), which is
modelled by :class:`SaturatedTraffic`.  :class:`PoissonTraffic` provides a
rate-limited open-loop alternative for examples and for exercising the MACs
under partial load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Tuple, Union

import numpy as np

from ..constants import EXPERIMENT_PAYLOAD_BYTES
from .engine import Simulator
from .frames import BROADCAST, FlowTag, Frame

__all__ = ["TrafficSource", "SaturatedTraffic", "PoissonTraffic", "OnOffTraffic"]

Packet = Tuple[Hashable, int]

#: Multi-hop sources (:class:`repro.networking.ForwardingQueue`) yield a
#: three-element form carrying the end-to-end flow tag the MAC stamps onto
#: the frame; plain sources yield ``(destination, payload_bytes)``.
TaggedPacket = Tuple[Hashable, int, FlowTag]
AnyPacket = Union[Packet, TaggedPacket]


class TrafficSource:
    """Interface the MAC uses to pull packets from the application layer."""

    __slots__ = ()

    def next_packet(self) -> Optional[AnyPacket]:
        """Return ``(destination, payload_bytes)``, optionally extended with
        a :class:`~repro.simulation.frames.FlowTag`, or ``None`` when idle."""
        raise NotImplementedError

    def notify_sent(self, frame: Frame) -> None:
        """Called by the MAC when a packet's transmission attempt concludes."""


@dataclass(slots=True)
class SaturatedTraffic(TrafficSource):
    """An always-backlogged source sending fixed-size packets to one destination."""

    destination: Hashable = BROADCAST
    payload_bytes: int = EXPERIMENT_PAYLOAD_BYTES
    packets_offered: int = 0
    packets_sent: int = 0

    def next_packet(self) -> Optional[Packet]:
        self.packets_offered += 1
        return (self.destination, self.payload_bytes)

    def notify_sent(self, frame: Frame) -> None:
        self.packets_sent += 1


@dataclass(slots=True)
class PoissonTraffic(TrafficSource):
    """Open-loop Poisson arrivals with a bounded queue.

    The MAC polls ``next_packet``; arrivals accumulate in a queue driven by
    the event engine.  This is not used by the paper reproduction experiments
    but rounds out the library for partial-load studies.
    """

    sim: Simulator
    rate_pps: float
    destination: Hashable = BROADCAST
    payload_bytes: int = EXPERIMENT_PAYLOAD_BYTES
    queue_limit: int = 1000
    #: Arrival-gap stream.  Scenario paths inject the network's seeded child
    #: generator; the fallback is a fixed-seed stream so a source built
    #: without one is still replayable (pass distinct rngs to decorrelate
    #: multiple sources).
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    packets_offered: int = 0
    packets_dropped: int = 0
    packets_sent: int = 0
    #: Invoked whenever a packet arrives into an empty queue, so a dormant
    #: MAC can resume its access procedure (see ``MacBase.notify_traffic``).
    on_arrival: Optional[Callable[[], None]] = None
    _queue_depth: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError("arrival rate must be positive")
        if self.queue_limit < 1:
            raise ValueError("queue limit must be at least 1")
        self._queue_depth = 0
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        gap = float(self.rng.exponential(1.0 / self.rate_pps))
        self.sim.schedule_call(gap, self._arrival)

    def _arrival(self) -> None:
        self.packets_offered += 1
        if self._queue_depth >= self.queue_limit:
            self.packets_dropped += 1
        else:
            self._queue_depth += 1
            if self._queue_depth == 1 and self.on_arrival is not None:
                self.on_arrival()
        self._schedule_next_arrival()

    def next_packet(self) -> Optional[Packet]:
        if self._queue_depth == 0:
            return None
        self._queue_depth -= 1
        return (self.destination, self.payload_bytes)

    def notify_sent(self, frame: Frame) -> None:
        self.packets_sent += 1

    @property
    def queue_depth(self) -> int:
        return self._queue_depth


@dataclass(slots=True)
class OnOffTraffic(TrafficSource):
    """Bursty ON/OFF source with heavy-tailed (Pareto) burst and idle times.

    During an ON period the source behaves like :class:`SaturatedTraffic`
    (always backlogged); during OFF it yields nothing.  Burst and idle
    durations are Pareto-distributed with shape ``shape`` and means
    ``mean_on_s`` / ``mean_off_s`` -- the classic heavy-tailed ON/OFF model
    whose aggregate is self-similar, and the non-stationary offered load the
    DimDim measurement study motivates for controller evaluation.

    Determinism: state toggles ride the event engine (one event per
    transition) and durations come from the injected ``rng`` -- the
    scenario path passes the network's seeded child stream, so replays are
    exact.  Duration draws use the mean-parameterised Lomax form
    ``x_m * (1 + pareto(shape))`` with ``x_m = mean * (shape - 1) / shape``,
    which has the requested mean for every ``shape > 1``.
    """

    sim: Simulator
    destination: Hashable = BROADCAST
    payload_bytes: int = EXPERIMENT_PAYLOAD_BYTES
    mean_on_s: float = 0.05
    mean_off_s: float = 0.05
    shape: float = 1.5
    start_on: bool = True
    #: Duration stream; scenario paths inject the network's seeded child
    #: generator (fixed-seed fallback keeps bare sources replayable).
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    packets_offered: int = 0
    packets_sent: int = 0
    #: Wake hook for a dormant MAC, wired by ``MacBase.attach_traffic``;
    #: invoked when an OFF->ON transition makes packets available again.
    on_arrival: Optional[Callable[[], None]] = None
    _on: bool = field(default=True, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise ValueError("mean ON/OFF durations must be positive")
        if self.shape <= 1.0:
            raise ValueError(
                "Pareto shape must exceed 1 (the mean is infinite otherwise)"
            )
        self._on = bool(self.start_on)
        self.sim.schedule_call(self._draw_duration(self._on), self._toggle)

    def _draw_duration(self, on: bool) -> float:
        mean = self.mean_on_s if on else self.mean_off_s
        scale = mean * (self.shape - 1.0) / self.shape
        return float(scale * (1.0 + self.rng.pareto(self.shape)))

    def _toggle(self) -> None:
        self._on = not self._on
        if self._on and self.on_arrival is not None:
            self.on_arrival()
        self.sim.schedule_call(self._draw_duration(self._on), self._toggle)

    def next_packet(self) -> Optional[Packet]:
        if not self._on:
            return None
        self.packets_offered += 1
        return (self.destination, self.payload_bytes)

    def notify_sent(self, frame: Frame) -> None:
        self.packets_sent += 1
