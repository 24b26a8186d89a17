"""Radio model: the MAC-facing half of carrier sense, transmission and reception.

Each node owns one :class:`Radio`.  It gives the MAC:

* **clear channel assessment (CCA)** -- the total in-band power compared to a
  configurable threshold (``cca_threshold_dbm``); setting the threshold to
  ``None`` disables carrier sense entirely, which is how the Section 4
  "concurrency" runs were taken;
* **reception** -- the radio locks onto the first detectable frame that
  starts while it is unlocked and not transmitting, accumulates the worst-case
  interference seen during the frame, and asks the :class:`ReceptionModel`
  for a verdict when the frame ends;
* **transmission** -- half-duplex: transmitting aborts a reception in
  progress.

The radio holds no per-frame state.  Its power sums, incoming-frame count,
busy verdict and lock live in the :class:`~repro.simulation.medium.Medium`,
indexed by the slot the radio gets at registration, and they are updated by
the medium's receiver pass at every frame start and end (see the medium's
module docstring).  The radio keeps its configuration (threshold, CCA noise,
reception model, rng), its counters, and the callbacks the pass fires:
channel busy/idle, frame received, transmission finished.  Callbacks fire in
the pass's receiver order, a capture's or decode's outcome before that
radio's busy edge, and they must schedule any transmission rather than start
one inline.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

import numpy as np

from .engine import Simulator
from .frames import Frame
from .medium import Medium, Transmission, linear_threshold
from .phy import ReceptionModel, ReceptionOutcome

__all__ = ["Radio", "RadioStats"]


def _default_rng(node_id: Hashable) -> np.random.Generator:
    """Deterministic fallback generator, seeded from the node id.

    Callers that care about the global random stream (the scenario layer, the
    network builder) pass an ``rng`` seeded from the scenario seed; a bare
    ``Radio(...)`` must still be reproducible run-to-run, so the fallback
    seeds from a stable hash of the node id instead of OS entropy.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=zlib.crc32(repr(node_id).encode("utf-8")))
    )


@dataclass(slots=True)
class RadioStats:
    """Low-level radio counters.

    Under a pruning medium, ``frames_missed_while_busy`` and the busy
    fraction derived from ``incoming_count`` only see above-floor frames.
    """

    frames_transmitted: int = 0
    tx_airtime_s: float = 0.0
    frames_decoded: int = 0
    frames_failed: int = 0
    frames_missed_while_busy: int = 0
    receptions_aborted_by_tx: int = 0


class Radio:
    """A half-duplex radio attached to the shared medium."""

    __slots__ = (
        "node_id",
        "sim",
        "medium",
        "reception",
        "_slot",
        "_cca_threshold_dbm",
        "_cca_threshold_mw",
        "_cca_lo_mw",
        "_cca_hi_mw",
        "_cca_noise_db",
        "rng",
        "stats",
        "_transmitting",
        "on_channel_busy",
        "on_channel_idle",
        "on_frame_received",
        "on_transmit_complete",
        "_busy_accum_s",
        "_busy_since",
    )

    def __init__(
        self,
        node_id: Hashable,
        sim: Simulator,
        medium: Medium,
        reception: Optional[ReceptionModel] = None,
        cca_threshold_dbm: Optional[float] = -82.0,
        cca_noise_db: float = 2.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not (math.isfinite(cca_noise_db) and cca_noise_db >= 0):
            raise ValueError(
                f"radio {node_id!r}: cca_noise_db must be finite and non-negative, "
                f"got {cca_noise_db!r}"
            )
        self.node_id = node_id
        self.sim = sim
        self.medium = medium
        # ``_slot`` is assigned by ``Medium.register``.
        #: Read by the medium when it finalises and builds sender rows.
        self.reception = reception if reception is not None else ReceptionModel()
        self.cca_threshold_dbm = cca_threshold_dbm
        # Per-frame measurement noise on the sensed power.  Real clear-channel
        # assessment is a noisy estimate, which is what makes marginal senders
        # "flutter" between deferring and transmitting -- a behaviour the paper
        # observes in its long-range experiments (Section 4.2).
        self._cca_noise_db = cca_noise_db
        self.rng = rng if rng is not None else _default_rng(node_id)
        self.stats = RadioStats()
        self._transmitting: Optional[Transmission] = None

        # Callbacks wired up by the MAC.
        self.on_channel_busy: Callable[[], None] = lambda: None
        self.on_channel_idle: Callable[[], None] = lambda: None
        self.on_frame_received: Callable[[ReceptionOutcome], None] = lambda outcome: None
        self.on_transmit_complete: Callable[[Frame], None] = lambda frame: None

        # Deterministic busy-time ledger, advanced on the busy/idle edges the
        # medium fires.  Observation probes read it to report sensed-busy
        # fractions without polling the channel.
        self._busy_accum_s = 0.0
        self._busy_since = 0.0

    # -- carrier sense ------------------------------------------------------------

    @property
    def cca_noise_db(self) -> float:
        """Standard deviation (dB) of the per-frame CCA measurement noise."""
        return self._cca_noise_db

    @property
    def cca_threshold_dbm(self) -> Optional[float]:
        """CCA busy threshold (dBm); ``None`` disables carrier sense.

        May change mid-run (tuned/adaptive CCA experiments); ``+inf`` also
        switches carrier sense off in effect, while NaN is rejected.
        """
        return self._cca_threshold_dbm

    @cca_threshold_dbm.setter
    def cca_threshold_dbm(self, value: Optional[float]) -> None:
        if value is not None and math.isnan(value):
            raise ValueError(f"radio {self.node_id!r}: CCA threshold must not be NaN")
        self._cca_threshold_dbm = value
        self._cca_threshold_mw, self._cca_lo_mw, self._cca_hi_mw = linear_threshold(value)
        self.medium._thresholds_stale = True

    @property
    def carrier_sense_enabled(self) -> bool:
        return self._cca_threshold_dbm is not None

    @property
    def incoming_count(self) -> int:
        return self.medium._incoming[self._slot]

    @property
    def subfloor_noise_mw(self) -> float:
        """Active power from senders pruned out of per-frame notifications."""
        return self.medium.subfloor_noise_mw(self._slot)

    def sensed_power_mw(self) -> float:
        """Total power the CCA circuit estimates (includes measurement noise)."""
        medium = self.medium
        return (
            medium._cca_sum_mw[self._slot]
            + medium.subfloor_noise_mw(self._slot)
            + medium._noise_floor_mw
        )

    def channel_busy(self) -> bool:
        """CCA verdict: busy when sensed power exceeds the threshold.

        With carrier sense disabled the channel always appears idle, and a
        radio never considers the channel busy because of its *own*
        transmission (the MAC already knows when it is transmitting).
        """
        return self.medium.channel_busy(self._slot)

    def _channel_edge(self, busy: bool) -> None:
        """Called by the medium when this radio's CCA verdict flips."""
        if busy:
            self._busy_since = self.sim._now
            self.on_channel_busy()
        else:
            self._busy_accum_s += self.sim._now - self._busy_since
            self.on_channel_idle()

    def sensed_busy_time_s(self, now: float) -> float:
        """Total time the CCA circuit has reported busy, up to ``now``.

        ``now`` must be the caller's current simulation time; an in-progress
        busy period is counted up to it.  The ledger only advances on the
        busy/idle edges the medium evaluates, so between frame edges (e.g.
        after a mid-run threshold change) it reflects the last verdict --
        exactly what the MAC itself believes.
        """
        if self.medium._busy[self._slot]:
            return self._busy_accum_s + (now - self._busy_since)
        return self._busy_accum_s

    # -- transmission ---------------------------------------------------------------

    @property
    def is_transmitting(self) -> bool:
        return self._transmitting is not None

    def transmit(self, frame: Frame) -> Transmission:
        """Put a frame on the air.  Aborts any reception in progress."""
        if self._transmitting is not None:
            raise RuntimeError(f"radio {self.node_id!r} is already transmitting")
        tx = self.medium.start_transmission(self.node_id, frame)
        # Half-duplex: transmitting destroys the frame being received.  (The
        # sender's own lock is never read by its frame's receiver pass.)
        if self.medium._lock_tx[self._slot] is not None:
            self.stats.receptions_aborted_by_tx += 1
            self.medium._unlock(self._slot)
        self._transmitting = tx
        self.stats.frames_transmitted += 1
        self.stats.tx_airtime_s += frame.airtime_s
        return tx

    def transmit_finished(self, tx: Transmission) -> None:
        """Called by the medium when this radio's own transmission ends."""
        if self._transmitting is not tx:
            return
        self._transmitting = None
        self.on_transmit_complete(tx.frame)
