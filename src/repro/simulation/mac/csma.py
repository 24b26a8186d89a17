"""CSMA/CA MAC with configurable clear-channel assessment.

This is the workhorse MAC of the reproduction.  It implements the DCF-style
access procedure used by 802.11:

1. wait for the channel to be idle for a DIFS;
2. count down a random backoff drawn from ``[0, CW]`` slots, freezing the
   countdown whenever the channel goes busy (and repeating the DIFS wait);
3. transmit the frame.

Behavioural switches reproduce the three Section 4 measurement modes:

* ``cca_threshold_dbm=<power>`` on the radio -- normal carrier sense;
* ``cca_threshold_dbm=None`` -- carrier sense disabled (the paper's
  "concurrency" runs): the channel always looks idle, so senders blast away
  regardless of each other;
* running a single sender alone -- the "multiplexing" runs (the testbed
  harness handles this; no MAC switch needed).

Optionally the MAC supports unicast operation with ACKs, retries with binary
exponential backoff, and RTS/CTS protection (``use_rts_cts=True``), which the
paper discusses as the classic heavyweight fix for hidden terminals.
Broadcast frames are never acknowledged or retried, exactly like 802.11 and
like the paper's experiments.
"""

from __future__ import annotations

import functools
import math
from typing import Hashable, Optional, Tuple

import numpy as np

from ...capacity.adaptation import RateSelector
from ...capacity.rates import (
    ACK_BYTES,
    CW_MAX,
    CW_MIN,
    DIFS_S,
    SIFS_S,
    SLOT_TIME_S,
    OFDM_RATES,
    RateInfo,
    frame_airtime_s,
)
from ..engine import Simulator
from ..frames import BROADCAST, Frame, FrameKind
from ..phy import ReceptionOutcome
from ..radio import Radio
from .base import MacBase

__all__ = ["CsmaMac"]

_RTS_BYTES = 20
_CTS_BYTES = 14

_DATA = FrameKind.DATA

#: Bit generators whose 32-bit draws are the halves of their 64-bit raw
#: outputs, low half first, the high half held for the next 32-bit draw.
#: The backoff draw (:meth:`CsmaMac._draw_backoff`) relies on this.
_HALVING_BIT_GENERATORS = (
    np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64
)
_LOW_WORD = 0xFFFFFFFF


@functools.lru_cache(maxsize=16)
def _response_timeouts(
    sifs_s: float, slot_s: float, control_rate: RateInfo
) -> Tuple[float, float]:
    """The ACK and CTS response timeouts.  They are fixed by the timing and
    the control rate, so they are computed once per setting -- not per node,
    and not from a throwaway Frame per wait."""
    wait_s = sifs_s + 2 * slot_s
    return (
        wait_s + frame_airtime_s(ACK_BYTES, control_rate, include_mac_header=False),
        wait_s + frame_airtime_s(_CTS_BYTES, control_rate, include_mac_header=False),
    )


class CsmaMac(MacBase):
    """CSMA/CA (DCF) medium access with optional ACKs and RTS/CTS."""

    __slots__ = (
        "use_acks",
        "use_rts_cts",
        "cw_min",
        "cw_max",
        "retry_limit",
        "difs_s",
        "sifs_s",
        "slot_s",
        "control_rate",
        "_cw",
        "_pending",
        "_backoff_slots_remaining",
        "_timer",
        "_backoff_started_at",
        "_state",
        "_awaiting_ack_for",
        "_awaiting_cts_for",
        "_nav_until",
        "_ack_timeout_s",
        "_cts_timeout_s",
        "slot_commit",
        "_timer_deadline",
        "_held_word",
    )

    def __init__(
        self,
        node_id: Hashable,
        sim: Simulator,
        radio: Radio,
        rate_selector: RateSelector,
        rng: Optional[np.random.Generator] = None,
        use_acks: bool = False,
        use_rts_cts: bool = False,
        slot_commit: bool = False,
        cw_min: int = CW_MIN,
        cw_max: int = CW_MAX,
        retry_limit: int = 7,
        difs_s: float = DIFS_S,
        sifs_s: float = SIFS_S,
        slot_s: float = SLOT_TIME_S,
        control_rate: RateInfo = OFDM_RATES[0],
    ) -> None:
        super().__init__(node_id, sim, radio, rate_selector, rng)
        if cw_min < 1 or cw_max < cw_min:
            raise ValueError("need 1 <= cw_min <= cw_max")
        if cw_max >= _LOW_WORD:
            raise ValueError("cw_max must be below 2**32 - 1")
        if not isinstance(self.rng.bit_generator, _HALVING_BIT_GENERATORS):
            raise ValueError(
                f"CsmaMac draws backoff from 64-bit raw outputs; "
                f"{type(self.rng.bit_generator).__name__} is not supported "
                f"(use PCG64, PCG64DXSM, Philox or SFC64)"
            )
        if retry_limit < 0:
            raise ValueError("retry limit must be non-negative")
        self.use_acks = use_acks
        self.use_rts_cts = use_rts_cts
        #: 802.11 slotting semantics: a station whose countdown expires at
        #: the very instant another station starts transmitting is already
        #: committed -- CCA takes a slot to detect energy (that is why
        #: aSlotTime exists), so same-slot decisions collide.  Off by
        #: default, which preserves the historical zero-latency carrier
        #: sense where simultaneous deciders defer synchronously; on, the
        #: MAC matches the slotted-collision structure Bianchi's model (and
        #: real DCF hardware) assumes.  See ``repro.networking.bianchi``.
        self.slot_commit = slot_commit
        self.cw_min = cw_min
        self.cw_max = cw_max
        self.retry_limit = retry_limit
        self.difs_s = difs_s
        self.sifs_s = sifs_s
        self.slot_s = slot_s
        self.control_rate = control_rate

        self._cw = cw_min
        # The high half of the last raw output, not yet drawn; -1 when none,
        # None until the first backoff draw reads the generator's own.
        self._held_word: Optional[int] = None
        self._pending: Optional[Frame] = None
        self._backoff_slots_remaining: Optional[int] = None
        # One reusable engine timer covers every exclusive MAC timeout (NAV,
        # DIFS, backoff, CTS/ACK waits, SIFS-before-data): re-arming recycles
        # the same scheduler slot instead of allocating a handle per timeout.
        self._timer = sim.timer()
        self._backoff_started_at: Optional[float] = None
        self._timer_deadline = float("inf")
        self._state = "idle"
        self._awaiting_ack_for: Optional[Frame] = None
        self._awaiting_cts_for: Optional[Frame] = None
        self._nav_until = 0.0
        self._ack_timeout_s, self._cts_timeout_s = _response_timeouts(
            sifs_s, slot_s, control_rate
        )

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Kick off the access procedure for the first queued packet."""
        self._load_next_frame()
        if self._pending is not None:
            self._begin_access()

    def notify_traffic(self) -> None:
        """Resume access when a packet arrives while the MAC sits idle."""
        if self._state == "idle" and self._pending is None:
            self.start()

    def _load_next_frame(self) -> None:
        if self.traffic is None:
            self._pending = None
            return
        packet = self.traffic.next_packet()
        if packet is None:
            self._pending = None
            return
        dst, payload_bytes = packet[0], packet[1]
        # Forwarding sources hand out (next_hop, payload, FlowTag) triples;
        # plain sources keep the historical two-element form.
        flow = packet[2] if len(packet) > 2 else None
        rate = self.rate_selector.select((self.node_id, dst))
        if flow is None:
            self._pending = Frame(
                kind=FrameKind.DATA,
                src=self.node_id,
                dst=dst,
                payload_bytes=payload_bytes,
                rate=rate,
                sequence=self.next_sequence(),
                enqueued_at=self.sim._now,
            )
        else:
            enqueued_at = flow.enqueued_at if flow.enqueued_at >= 0.0 else self.sim._now
            self._pending = Frame(
                kind=FrameKind.DATA,
                src=self.node_id,
                dst=dst,
                payload_bytes=payload_bytes,
                rate=rate,
                sequence=self.next_sequence(),
                enqueued_at=enqueued_at,
                flow_src=flow.flow_src,
                flow_dst=flow.flow_dst,
                hops=flow.hops,
            )

    # ------------------------------------------------------------------ access

    def _next_word(self) -> int:
        """The generator's next 32-bit draw, as numpy's ``next_uint32`` takes
        it: the low half of a raw 64-bit output, then its high half."""
        held = self._held_word
        if held is None:
            # First draw: a half the generator already holds comes first.
            state = self.rng.bit_generator.state
            held = state["uinteger"] if state["has_uint32"] else -1
        if held >= 0:
            self._held_word = -1
            return held
        raw = self.rng.bit_generator.random_raw()
        self._held_word = raw >> 32
        return raw & _LOW_WORD

    def _draw_backoff(self) -> int:
        """A backoff count in ``[0, cw]``, equal to ``int(rng.integers(0, cw + 1))``.

        numpy draws a bounded integer below 2**32 with Lemire's multiply and
        reject over 32-bit words (``buffered_bounded_lemire_uint32``); this
        is that loop in Python, 0.3 us against 3 us for the scalar
        ``Generator.integers`` call.  ``cw == 0`` consumes no word, as in
        numpy.
        """
        cw = self._cw
        if cw == 0:
            return 0
        bound = cw + 1
        product = self._next_word() * bound
        if (product & _LOW_WORD) < bound:
            threshold = (_LOW_WORD - cw) % bound
            while (product & _LOW_WORD) < threshold:
                product = self._next_word() * bound
        return product >> 32

    def _begin_access(self) -> None:
        """Start (or restart) the DIFS + backoff procedure for the pending frame."""
        if self._pending is None:
            self._state = "idle"
            return
        if self._backoff_slots_remaining is None:
            self._backoff_slots_remaining = self._draw_backoff()
        if self.sim._now < self._nav_until:
            self._state = "wait_idle"
            self._timer.arm_at(self._nav_until, self._nav_expired)
            return
        if self.radio.channel_busy():
            self._state = "wait_idle"
            return
        self._start_difs()

    def _nav_expired(self) -> None:
        if self._state == "wait_idle":
            self._begin_access()

    def _start_difs(self) -> None:
        self._state = "difs"
        self._timer_deadline = self.sim._now + self.difs_s
        self._timer.arm(self.difs_s, self._difs_elapsed)

    def _difs_elapsed(self) -> None:
        if self._state != "difs":
            return
        self._start_backoff()

    def _start_backoff(self) -> None:
        self._state = "backoff"
        slots = self._backoff_slots_remaining or 0
        if slots <= 0:
            self._transmit_pending()
            return
        now = self.sim._now
        self._backoff_started_at = now
        self._timer_deadline = now + slots * self.slot_s
        self._timer.arm(slots * self.slot_s, self._backoff_elapsed)

    def _backoff_elapsed(self) -> None:
        if self._state != "backoff":
            return
        self._backoff_slots_remaining = 0
        self._transmit_pending()

    def _freeze_backoff(self) -> None:
        """Channel went busy mid-countdown: remember how many slots remain."""
        if self._backoff_started_at is None or self._backoff_slots_remaining is None:
            return
        elapsed_slots = int(math.floor((self.sim._now - self._backoff_started_at) / self.slot_s))
        self._backoff_slots_remaining = max(self._backoff_slots_remaining - elapsed_slots, 1)
        self._backoff_started_at = None

    def _transmit_pending(self) -> None:
        if self._pending is None:
            self._state = "idle"
            return
        if self.use_rts_cts and not self._pending.is_broadcast:
            self._send_rts()
            return
        self._send_data()

    def _send_data(self) -> None:
        frame = self._pending
        self._state = "transmitting"
        self.stats.data_frames_sent += 1
        self.radio.transmit(frame)

    # ------------------------------------------------------------------ RTS/CTS

    def _send_rts(self) -> None:
        frame = self._pending
        rts = Frame(
            kind=FrameKind.RTS,
            src=self.node_id,
            dst=frame.dst,
            payload_bytes=_RTS_BYTES,
            rate=self.control_rate,
            sequence=frame.sequence,
        )
        self._awaiting_cts_for = frame
        self._state = "transmitting_rts"
        self.radio.transmit(rts)

    def _cts_timeout(self) -> None:
        if self._awaiting_cts_for is None:
            return
        self._awaiting_cts_for = None
        self._handle_failed_attempt()

    # ------------------------------------------------------------------ radio events

    def _committed_to_transmit(self) -> bool:
        """Under ``slot_commit``: whether the pending countdown is due at
        this very instant.

        A busy indication arriving exactly when the countdown expires is too
        late to honour: the station decided to transmit in this slot and
        cannot sense the other decider within it.  The still-armed timer
        fires later in the same timestamp batch and the frames collide on
        the air, as they would on real hardware.
        """
        if self.sim._now < self._timer_deadline - 1e-12:
            return False
        # Only a countdown that ends in a transmission commits: DIFS expiry
        # flows straight into _transmit_pending only when no backoff slots
        # remain to count.
        return self._state == "backoff" or not self._backoff_slots_remaining

    def _on_channel_busy(self) -> None:
        if self._state == "difs":
            if self.slot_commit and self._committed_to_transmit():
                return
            self._timer.cancel()
            self._state = "wait_idle"
        elif self._state == "backoff":
            if self.slot_commit and self._committed_to_transmit():
                return
            self._timer.cancel()
            self._freeze_backoff()
            self._state = "wait_idle"

    def _on_channel_idle(self) -> None:
        if self._state == "wait_idle":
            self._begin_access()

    def _on_transmit_complete(self, frame: Frame) -> None:
        if frame.kind is _DATA:
            broadcast = frame.is_broadcast
            if broadcast or not self.use_acks:
                # Fire-and-forget traffic gives the adapter no better feedback
                # than "the frame went out"; acknowledged traffic reports on
                # ACK arrival or timeout instead.
                self.rate_selector.report(
                    (self.node_id, frame.dst), frame.rate, True, frame.airtime_s
                )
            if self.use_acks and not broadcast:
                self._state = "wait_ack"
                self._awaiting_ack_for = frame
                self._timer.arm(self._ack_timeout_s, self._ack_timeout)
                return
            # Broadcast (or unacknowledged) delivery is fire-and-forget.
            self.stats.data_frames_delivered += 1
            if self.traffic is not None:
                self.traffic.notify_sent(frame)
            self._advance_after_success()
        elif frame.kind == FrameKind.RTS:
            self._state = "wait_cts"
            self._timer.arm(self._cts_timeout_s, self._cts_timeout)
        elif frame.kind in (FrameKind.ACK, FrameKind.CTS):
            # Control responses need no follow-up; resume whatever was pending.
            if self._pending is not None and self._state == "responding":
                self._begin_access()
            elif self._pending is None:
                # Poll the traffic source before parking: an open-loop packet
                # may have arrived while we were responding, and its
                # notify_traffic nudge was ignored because the MAC was busy.
                self._state = "idle"
                self.start()

    def _on_frame_received(self, outcome: ReceptionOutcome) -> None:
        frame = outcome.frame
        if not outcome.success:
            self.stats.rx_failed_frames += 1
            return
        if frame.kind is _DATA:
            if frame.dst in (self.node_id, BROADCAST):
                self.stats.rx_data_frames += 1
                self.on_data_received(frame)
                if self.use_acks and frame.dst == self.node_id:
                    self._schedule_ack(frame)
        elif frame.kind == FrameKind.ACK:
            if frame.dst == self.node_id and self._awaiting_ack_for is not None:
                self._timer.cancel()
                self.stats.acks_received += 1
                self.stats.data_frames_delivered += 1
                delivered = self._awaiting_ack_for
                self._awaiting_ack_for = None
                self.rate_selector.report(
                    (self.node_id, delivered.dst), delivered.rate, True, delivered.airtime_s
                )
                if self.traffic is not None:
                    self.traffic.notify_sent(delivered)
                self._cw = self.cw_min
                self._advance_after_success()
        elif frame.kind == FrameKind.RTS:
            if frame.dst == self.node_id:
                self._schedule_cts(frame)
            else:
                self._set_nav(frame)
        elif frame.kind == FrameKind.CTS:
            if frame.dst == self.node_id and self._awaiting_cts_for is not None:
                self._timer.cancel()
                self._awaiting_cts_for = None
                self._state = "sifs_before_data"
                self._timer.arm(self.sifs_s, self._send_data)
            else:
                self._set_nav(frame)

    # ------------------------------------------------------------------ responses

    def _schedule_ack(self, data_frame: Frame) -> None:
        def send_ack() -> None:
            if self.radio.is_transmitting:
                return
            ack = Frame(
                kind=FrameKind.ACK,
                src=self.node_id,
                dst=data_frame.src,
                payload_bytes=ACK_BYTES,
                rate=self.control_rate,
                sequence=data_frame.sequence,
            )
            self.stats.acks_sent += 1
            previous_state = self._state
            if previous_state in ("idle", "wait_idle", "difs", "backoff"):
                self._timer.cancel()
                self._state = "responding"
            self.radio.transmit(ack)

        self.sim.schedule_call(self.sifs_s, send_ack)

    def _schedule_cts(self, rts_frame: Frame) -> None:
        def send_cts() -> None:
            if self.radio.is_transmitting:
                return
            cts = Frame(
                kind=FrameKind.CTS,
                src=self.node_id,
                dst=rts_frame.src,
                payload_bytes=_CTS_BYTES,
                rate=self.control_rate,
                sequence=rts_frame.sequence,
            )
            previous_state = self._state
            if previous_state in ("idle", "wait_idle", "difs", "backoff"):
                self._timer.cancel()
                self._state = "responding"
            self.radio.transmit(cts)

        self.sim.schedule_call(self.sifs_s, send_cts)

    def _set_nav(self, frame: Frame) -> None:
        """Virtual carrier sense: defer for a conservative exchange duration."""
        reservation = self.sifs_s * 3 + 3 * frame.airtime_s + 2e-3
        self._nav_until = max(self._nav_until, self.sim._now + reservation)

    # ------------------------------------------------------------------ retry / advance

    def _ack_timeout(self) -> None:
        if self._awaiting_ack_for is None:
            return
        frame = self._awaiting_ack_for
        self._awaiting_ack_for = None
        self.rate_selector.report((self.node_id, frame.dst), frame.rate, False, frame.airtime_s)
        self._handle_failed_attempt()

    def _handle_failed_attempt(self) -> None:
        frame = self._pending
        if frame is None:
            self._state = "idle"
            return
        if frame.retry >= self.retry_limit:
            self.stats.drops += 1
            self._cw = self.cw_min
            if self.traffic is not None:
                self.traffic.notify_sent(frame)
            self._load_next_frame()
        else:
            self.stats.retries += 1
            self._cw = min(2 * self._cw + 1, self.cw_max)
            self._pending = frame.as_retry()
        self._backoff_slots_remaining = None
        if self._pending is not None:
            self._begin_access()
        else:
            self._state = "idle"

    def _advance_after_success(self) -> None:
        self._load_next_frame()
        self._backoff_slots_remaining = None
        if self._pending is not None:
            self._begin_access()
        else:
            self._state = "idle"
