"""Frame definitions for the packet-level simulator."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, NamedTuple, Optional, Tuple

from ..capacity.rates import RateInfo, frame_airtime_s

__all__ = ["FrameKind", "Frame", "FlowTag", "BROADCAST"]

#: Destination address meaning "all stations" (the Section 4 experiments use
#: broadcast data frames, which are never acknowledged).
BROADCAST = "*"

_frame_ids = itertools.count()

#: ``frame_airtime_s`` results by (payload bytes, rate bits per symbol, rate
#: Mbps, MAC header included): exactly the inputs the function reads, so an
#: entry is the value a fresh call returns and no result depends on what the
#: memo holds.  A sender reuses a handful of keys for every frame.
_airtime_memo: Dict[Tuple[int, int, float, bool], float] = {}


class FrameKind(Enum):
    """The 802.11 frame types the simulator models."""

    DATA = "data"
    ACK = "ack"
    RTS = "rts"
    CTS = "cts"


class FlowTag(NamedTuple):
    """End-to-end flow metadata a traffic source attaches to a packet.

    Multi-hop forwarding (see :mod:`repro.networking`) hands the MAC
    three-element packets ``(next_hop, payload_bytes, FlowTag)``; the MAC
    copies the tag onto the :class:`Frame` so receivers can tell relayed
    traffic from traffic that terminates locally.  ``enqueued_at < 0``
    means "stamp the frame with the MAC's pull time" (the single-hop
    behaviour); relays carry the origin timestamp forward so delay stays
    end-to-end.  ``hops`` counts the MAC transmissions this packet has
    taken including the upcoming one.
    """

    flow_src: object
    flow_dst: object
    enqueued_at: float = -1.0
    hops: int = 1


@dataclass(slots=True, init=False, unsafe_hash=True)
class Frame:
    """An on-air frame.

    One frame object is shared by its sender and every receiver's outcome,
    so code must never mutate it: :meth:`as_retry` builds the copy a retry
    needs.  The class does not enforce this: a frozen dataclass sets each
    field through ``object.__setattr__``, which doubled the cost of the
    frame every transmission builds.  Equality, hashing and ``repr`` are the
    generated ones, as before.

    Attributes
    ----------
    kind:
        Data, ACK, RTS, or CTS.
    src, dst:
        Node identifiers; ``dst`` may be :data:`BROADCAST`.
    payload_bytes:
        MAC payload size (0 for control frames).
    rate:
        PHY rate used for the frame.
    sequence:
        Per-sender sequence number (used by receivers to count deliveries and
        detect retransmissions).
    frame_id:
        Globally unique identifier, drawn from a process-wide counter unless
        given.
    retry:
        Retry count of this transmission attempt.
    enqueued_at:
        Simulation time at which the MAC pulled the packet from its traffic
        source (-1.0 when untimestamped, e.g. control frames).  Retries keep
        the original timestamp, so receiver-side delay measures the full
        enqueue-to-delivery latency.  Excluded from equality/repr: two
        frames carrying the same payload at different times still compare
        equal, as before the column existed.
    flow_src, flow_dst:
        End-to-end flow endpoints for multi-hop traffic (``None`` for
        ordinary single-hop frames, where ``src``/``dst`` are the flow).
        A relay delivers the frame locally when ``flow_dst`` is ``None`` or
        itself, and re-queues it towards the next hop otherwise.  Excluded
        from equality/repr like ``enqueued_at``.
    hops:
        Which MAC transmission of the end-to-end path this frame is (1 for
        the origin's transmission; relays increment it).
    airtime_s:
        On-air duration at the frame's PHY rate, set at construction (the
        radio, medium, and MAC all read it repeatedly on the per-frame hot
        path) from :func:`~repro.capacity.rates.frame_airtime_s`, memoised
        per payload size, rate and header flag.
    """

    kind: FrameKind
    src: object
    dst: object
    payload_bytes: int
    rate: RateInfo
    sequence: int
    frame_id: int
    retry: int
    enqueued_at: float = field(repr=False, compare=False)
    flow_src: object = field(repr=False, compare=False)
    flow_dst: object = field(repr=False, compare=False)
    hops: int = field(repr=False, compare=False)
    airtime_s: float = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        kind: FrameKind,
        src: object,
        dst: object,
        payload_bytes: int,
        rate: RateInfo,
        sequence: int = 0,
        frame_id: Optional[int] = None,
        retry: int = 0,
        enqueued_at: float = -1.0,
        flow_src: object = None,
        flow_dst: object = None,
        hops: int = 1,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.rate = rate
        self.sequence = sequence
        self.frame_id = next(_frame_ids) if frame_id is None else frame_id
        self.retry = retry
        self.enqueued_at = enqueued_at
        self.flow_src = flow_src
        self.flow_dst = flow_dst
        self.hops = hops
        include_header = kind is FrameKind.DATA
        key = (payload_bytes, rate.bits_per_symbol, rate.mbps, include_header)
        airtime = _airtime_memo.get(key)
        if airtime is None:
            airtime = _airtime_memo[key] = frame_airtime_s(
                payload_bytes, rate, include_mac_header=include_header
            )
        self.airtime_s = airtime

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def as_retry(self) -> "Frame":
        """A copy of the frame with the retry counter incremented."""
        return Frame(
            kind=self.kind,
            src=self.src,
            dst=self.dst,
            payload_bytes=self.payload_bytes,
            rate=self.rate,
            sequence=self.sequence,
            retry=self.retry + 1,
            enqueued_at=self.enqueued_at,
            flow_src=self.flow_src,
            flow_dst=self.flow_dst,
            hops=self.hops,
        )
