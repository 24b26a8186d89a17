"""Per-node and per-link statistics collection."""

from __future__ import annotations

import random
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from .frames import Frame

__all__ = ["NodeStats", "LinkThroughput", "DelayReservoir"]

#: Default bound on per-link delay samples kept for percentile estimation.
DEFAULT_RESERVOIR_CAPACITY = 512


class DelayReservoir:
    """A bounded uniform sample of delay observations (Vitter's Algorithm R).

    Keeps at most ``capacity`` samples; once full, the ``n``-th observation
    replaces a random kept sample with probability ``capacity / n``, so the
    retained set stays a uniform sample of everything seen.  The replacement
    stream comes from a private :class:`random.Random` seeded at
    construction -- deterministic for a given seed, and fully independent of
    the simulation's numpy generators (adding samples never perturbs MAC
    backoff or channel draws).
    """

    __slots__ = ("capacity", "count", "samples", "_rng")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be at least 1")
        self.capacity = capacity
        self.count = 0
        self.samples: list = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.count += 1
        if len(self.samples) < self.capacity:
            self.samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self.samples[slot] = value

    def percentiles(self, qs: Sequence[float]) -> Tuple[float, ...]:
        """Estimated percentiles (``nan`` tuple while empty)."""
        if not self.samples:
            return tuple(float("nan") for _ in qs)
        values = np.percentile(np.asarray(self.samples, dtype=np.float64), list(qs))
        return tuple(float(v) for v in np.atleast_1d(values))

    def clear(self) -> None:
        """Drop all samples, keeping the replacement stream's state.

        Used by windowed observers (:class:`repro.control.probe.ControlProbe`)
        that reuse one reservoir across epochs: the private rng keeps
        consuming its own seeded stream across windows, so replays stay
        deterministic and the simulation's generators are never touched.
        """
        self.count = 0
        self.samples.clear()


def _reservoir_seed(node_id: Hashable, src: Hashable) -> int:
    """Deterministic cross-process seed for one (receiver, origin) link."""
    return zlib.crc32(f"{node_id!r}|{src!r}".encode("utf-8"))


@dataclass(slots=True)
class LinkThroughput:
    """Delivered traffic on one directed link over a measurement window."""

    src: Hashable
    dst: Hashable
    packets: int
    payload_bytes: int
    duration_s: float

    @property
    def packets_per_second(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.packets / self.duration_s


@dataclass(slots=True)
class NodeStats:
    """Application-level counters for one node.

    ``packets_from`` counts successfully received data frames by origin; the
    testbed harness reads it to compute per-link delivery counts exactly the
    way the paper counts "the number of packets successfully received at the
    intended receiver".  For single-hop frames the origin is the MAC sender
    (``frame.src``); frames relayed by the networking layer carry their
    end-to-end source in ``frame.flow_src`` and are counted against it, so
    multi-hop flows are accounted origin-to-destination.

    When ``clock`` is bound (the node wires its simulator in) and frames
    carry a MAC enqueue timestamp, the stats also accumulate per-origin
    enqueue-to-delivery latency, which :meth:`mean_delay_from` reports and
    :meth:`repro.scenarios.Scenario.run` surfaces as the ``delay_s`` column.
    Alongside the exact mean, a bounded :class:`DelayReservoir` per origin
    feeds the ``delay_p50_s`` / ``delay_p99_s`` percentile columns without
    unbounded memory.

    ``queue_drops`` counts packets this node's forwarding queue rejected
    (tail drops on a full relay FIFO, plus routing dead-ends), attributed
    per end-to-end flow in ``queue_drops_for``.
    """

    node_id: Hashable
    packets_received_total: int = 0
    bytes_received_total: int = 0
    packets_from: Dict[Hashable, int] = field(default_factory=lambda: defaultdict(int))
    bytes_from: Dict[Hashable, int] = field(default_factory=lambda: defaultdict(int))
    delay_sum_from: Dict[Hashable, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    delay_count_from: Dict[Hashable, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    delay_reservoir_from: Dict[Hashable, DelayReservoir] = field(
        default_factory=dict, repr=False
    )
    #: Packets rejected by this node's forwarding queue (tail drops and
    #: routing dead-ends); zero for nodes without a forwarding layer.
    queue_drops: int = 0
    queue_drops_for: Dict[Tuple[Hashable, Hashable], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: Time source for delay measurement (the owning node's simulator);
    #: ``None`` leaves the delay accumulators untouched.
    clock: object = field(default=None, repr=False, compare=False)
    #: Windowed observation plane (:mod:`repro.control`): when a probe is
    #: installed it maps flow origins to *per-epoch* delay reservoirs that
    #: the probe drains and clears at each epoch boundary.  ``None`` (the
    #: default, and what :meth:`reset` restores) keeps the reception hot
    #: path free of the extra branch's dict work.  The reservoirs use their
    #: own seeded replacement streams, so installing one never perturbs the
    #: simulation's randomness -- a probed run replays the unprobed run
    #: byte-identically.
    window_delay_from: Optional[Dict[Hashable, DelayReservoir]] = field(
        default=None, repr=False, compare=False
    )

    def record_reception(self, frame: Frame) -> None:
        origin = frame.flow_src if frame.flow_src is not None else frame.src
        self.packets_received_total += 1
        self.bytes_received_total += frame.payload_bytes
        self.packets_from[origin] += 1
        self.bytes_from[origin] += frame.payload_bytes
        if self.clock is not None and frame.enqueued_at >= 0.0:
            delay = self.clock.now - frame.enqueued_at
            self.delay_sum_from[origin] += delay
            self.delay_count_from[origin] += 1
            reservoir = self.delay_reservoir_from.get(origin)
            if reservoir is None:
                reservoir = DelayReservoir(seed=_reservoir_seed(self.node_id, origin))
                self.delay_reservoir_from[origin] = reservoir
            reservoir.add(delay)
            if self.window_delay_from is not None:
                window = self.window_delay_from.get(origin)
                if window is not None:
                    window.add(delay)

    def record_queue_drop(self, flow_src: Hashable, flow_dst: Hashable) -> None:
        """Count one packet the forwarding queue refused (see networking)."""
        self.queue_drops += 1
        self.queue_drops_for[(flow_src, flow_dst)] += 1

    def mean_delay_from(self, src: Hashable) -> float:
        """Mean enqueue-to-delivery latency of ``src -> this node`` frames.

        ``nan`` when no timestamped frame has been delivered (control-only
        links, or frames from MACs that do not timestamp).
        """
        count = self.delay_count_from.get(src, 0)
        if count == 0:
            return float("nan")
        return self.delay_sum_from[src] / count

    def delay_percentiles_from(
        self, src: Hashable, qs: Sequence[float] = (50.0, 99.0)
    ) -> Tuple[float, ...]:
        """Reservoir-estimated delay percentiles of ``src -> this node``.

        All-``nan`` when no timestamped frame from ``src`` has been
        delivered.  Percentiles beyond the reservoir's capacity are
        estimates over a uniform subsample; deterministic for a given
        (receiver, origin) pair because the reservoir's replacement rng is
        seeded from the link identity.
        """
        reservoir = self.delay_reservoir_from.get(src)
        if reservoir is None:
            return tuple(float("nan") for _ in qs)
        return reservoir.percentiles(qs)

    def link_throughput(self, src: Hashable, duration_s: float) -> LinkThroughput:
        """Throughput of the ``src -> this node`` link over a window."""
        return LinkThroughput(
            src=src,
            dst=self.node_id,
            packets=self.packets_from.get(src, 0),
            payload_bytes=self.bytes_from.get(src, 0),
            duration_s=duration_s,
        )

    def reset(self) -> None:
        self.packets_received_total = 0
        self.bytes_received_total = 0
        self.packets_from.clear()
        self.bytes_from.clear()
        self.delay_sum_from.clear()
        self.delay_count_from.clear()
        self.delay_reservoir_from.clear()
        self.queue_drops = 0
        self.queue_drops_for.clear()
        # Uninstall any observation windows: probes attach *after* the
        # pre-run reset (see SimEnv.reset), so a stale probe from an earlier
        # measurement can never leak into a new one.
        self.window_delay_from = None
