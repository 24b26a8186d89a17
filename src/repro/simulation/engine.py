"""Discrete-event simulation engine.

A minimal, dependency-free event scheduler in the style of simpy's core: the
simulator keeps a priority queue of timestamped callbacks and executes them in
time order.  Everything in :mod:`repro.simulation` (radios, MACs, traffic
sources) is written against this engine.

Scheduling model
----------------
The heap holds plain ``(time, seq, slot, gen)`` tuples instead of per-event
objects.  ``slot`` indexes a slab of parallel arrays (callback, generation
counter, owner) so scheduling allocates no bookkeeping object on the hot
path, and cancellation is O(1): bumping the slot's generation counter
invalidates the heap entry without touching the heap.  Stale entries are
skipped when popped, and when cancelled entries outnumber live ones the heap
is compacted in one pass, so heavy timer churn (CSMA backoff, CCA defers)
cannot grow the queue without bound.

Three scheduling flavours trade convenience for allocation cost:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`EventHandle` that supports cancellation and records whether the
  event fired or was cancelled;
* :meth:`Simulator.schedule_call` / :meth:`Simulator.schedule_many` are
  fire-and-forget -- no handle is created at all;
* :meth:`Simulator.timer` returns a reusable :class:`Timer` that owns one
  slab slot for its whole life, so re-arming a recurring timeout (the CSMA
  MAC's DIFS/backoff/ACK timers) recycles the slot instead of allocating.

Determinism: events scheduled for the same timestamp execute in scheduling
order (a monotonically increasing sequence number breaks ties), so simulation
runs are exactly reproducible for a given seed.

The clock
---------
:attr:`Simulator.now` is the public read of the clock.  The per-frame code
of :mod:`repro.simulation` (medium, radio, CSMA MAC) reads the slot
``Simulator._now`` directly instead: a run reads the clock about three times
per event, and the property call was ~5% of a small-network run.  Only
:meth:`Simulator.run` and :meth:`Simulator.step` write it.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, List, Optional, Tuple

__all__ = ["EventHandle", "Timer", "Simulator"]

_PENDING = 0
_FIRED = 1
_CANCELLED = 2

#: Tombstone count below which compaction is never attempted (a small heap is
#: cheaper to scan lazily than to rebuild).
_COMPACT_MIN_DEAD = 512


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation.

    The handle tracks a definite lifecycle: pending, then exactly one of
    *fired* or *cancelled*.  Calling :meth:`cancel` on an event that already
    executed (or was already cancelled) is a no-op -- it neither raises nor
    disturbs whatever now occupies the event's slab slot.
    """

    __slots__ = ("_sim", "_slot", "_time", "_status")

    def __init__(self, sim: "Simulator", slot: int, time: float) -> None:
        self._sim = sim
        self._slot = slot
        self._time = time
        self._status = _PENDING

    @property
    def time(self) -> float:
        return self._time

    @property
    def pending(self) -> bool:
        return self._status == _PENDING

    @property
    def fired(self) -> bool:
        """Whether the event's callback has executed."""
        return self._status == _FIRED

    @property
    def cancelled(self) -> bool:
        return self._status == _CANCELLED

    def cancel(self) -> None:
        """Cancel the event if it is still pending; otherwise do nothing."""
        if self._status != _PENDING:
            return
        self._status = _CANCELLED
        self._sim._release_pending_slot(self._slot)


class Timer:
    """A reusable timer owning one slab slot for its whole lifetime.

    Re-arming never allocates: the slot's generation counter tombstones any
    previously pending firing and the new entry reuses the same slot.  One
    timer holds at most one pending firing; arming an armed timer replaces
    the earlier one.
    """

    __slots__ = ("_sim", "_slot", "_armed", "_time")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._slot = sim._alloc_slot()
        self._armed = False
        self._time = 0.0
        sim._owner[self._slot] = self

    @property
    def armed(self) -> bool:
        return self._armed

    @property
    def time(self) -> float:
        """Scheduled firing time of the pending arm (meaningless when idle)."""
        return self._time

    def arm(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        The body of :meth:`arm_at` written out once more: the MAC re-arms
        on every DIFS and backoff, so the hop through ``arm_at`` costs.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        sim = self._sim
        slot = self._slot
        if self._armed:
            sim._tombstone_slot(slot)
        time = sim._now + delay
        sim._cb[slot] = callback
        sim._seq += 1
        heapq.heappush(sim._heap, (time, sim._seq, slot, sim._gen[slot]))
        sim._live += 1
        self._armed = True
        self._time = time

    def arm_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute simulation time."""
        sim = self._sim
        if time < sim._now:
            raise ValueError(f"cannot schedule into the past (time={time}, now={sim._now})")
        slot = self._slot
        if self._armed:
            sim._tombstone_slot(slot)
        sim._cb[slot] = callback
        sim._seq += 1
        heapq.heappush(sim._heap, (time, sim._seq, slot, sim._gen[slot]))
        sim._live += 1
        self._armed = True
        self._time = time

    def cancel(self) -> None:
        """Disarm the timer if armed; otherwise do nothing."""
        if not self._armed:
            return
        self._armed = False
        sim = self._sim
        sim._tombstone_slot(self._slot)
        sim._cb[self._slot] = None
        sim._maybe_compact()


class Simulator:
    """Slab-backed priority-queue discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    __slots__ = (
        "_now",
        "_heap",
        "_cb",
        "_gen",
        "_owner",
        "_free",
        "_seq",
        "_live",
        "_dead",
        "_events_processed",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, int]] = []
        # Slab: parallel arrays indexed by slot.
        self._cb: List[Optional[Callable[[], None]]] = []
        self._gen: List[int] = []
        self._owner: List[object] = []
        self._free: List[int] = []
        self._seq = 0
        self._live = 0  # non-tombstoned entries in the heap
        self._dead = 0  # tombstoned entries awaiting skip/compaction
        self._events_processed = 0

    # -- slab management ----------------------------------------------------------

    def _alloc_slot(self) -> int:
        if self._free:
            return self._free.pop()
        self._cb.append(None)
        self._gen.append(0)
        self._owner.append(None)
        return len(self._cb) - 1

    def _tombstone_slot(self, slot: int) -> None:
        """Invalidate the slot's pending heap entry (generation bump)."""
        self._gen[slot] += 1
        self._live -= 1
        self._dead += 1

    def _release_pending_slot(self, slot: int) -> None:
        """Cancel path: tombstone the entry and return the slot to the pool."""
        self._tombstone_slot(slot)
        self._cb[slot] = None
        self._owner[slot] = None
        self._free.append(slot)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._dead >= _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned heap entries in one pass and re-heapify.

        Entry order is fully determined by the unique ``(time, seq)`` prefix,
        so rebuilding the heap cannot perturb execution order.  Rebuilds in
        place: the run loop holds a reference to the heap list while events
        (whose callbacks may cancel other events) execute.
        """
        gen = self._gen
        heap = self._heap
        heap[:] = [entry for entry in heap if gen[entry[2]] == entry[3]]
        heapq.heapify(heap)
        self._dead = 0

    # -- introspection -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    @property
    def cancelled_events(self) -> int:
        """Cancelled tombstones currently awaiting skip or compaction."""
        return self._dead

    @property
    def heap_size(self) -> int:
        """Raw heap length: live entries plus not-yet-collected tombstones."""
        return len(self._heap)

    # -- scheduling ----------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        slot = self._alloc_slot()
        self._cb[slot] = callback
        handle = EventHandle(self, slot, time)
        self._owner[slot] = handle
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, slot, self._gen[slot]))
        self._live += 1
        return handle

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError(f"cannot schedule into the past (time={time}, now={self._now})")
        return self.schedule(time - self._now, callback)

    def schedule_call(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget scheduling: no :class:`EventHandle` is created.

        The hot path for events that are never cancelled (frame completions,
        control-frame responses, traffic arrivals).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        slot = self._alloc_slot()
        self._cb[slot] = callback
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, slot, self._gen[slot]))
        self._live += 1

    def schedule_many(self, items: Iterable[Tuple[float, Callable[[], None]]]) -> None:
        """Batch fire-and-forget scheduling of ``(delay, callback)`` pairs.

        Preserves the iteration order for same-timestamp ties, exactly as if
        each pair had been passed to :meth:`schedule_call` in turn.
        """
        heap = self._heap
        now = self._now
        for delay, callback in items:
            if delay < 0:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
            slot = self._alloc_slot()
            self._cb[slot] = callback
            self._seq += 1
            heapq.heappush(heap, (now + delay, self._seq, slot, self._gen[slot]))
            self._live += 1

    def timer(self) -> Timer:
        """A reusable :class:`Timer` bound to this simulator."""
        return Timer(self)

    # -- execution -----------------------------------------------------------------

    def _collect_fired_slot(self, slot: int) -> Callable[[], None]:
        """Bookkeeping for a just-popped live entry; returns its callback.

        Shared by :meth:`run` and :meth:`step` so the invariant-dense slot
        recycling (generation bumps, owner lifecycle, free-list return)
        exists exactly once.
        """
        callback = self._cb[slot]
        own = self._owner[slot]
        self._live -= 1
        if own is None:
            self._gen[slot] += 1
            self._cb[slot] = None
            self._free.append(slot)
        elif own.__class__ is Timer:
            own._armed = False
            self._cb[slot] = None
        else:  # EventHandle
            own._status = _FIRED
            self._gen[slot] += 1
            self._cb[slot] = None
            self._owner[slot] = None
            self._free.append(slot)
        return callback

    def run(self, until: Optional[float] = None) -> None:
        """Run events in time order, optionally stopping at time ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue empties earlier, so measurement windows have a
        well-defined length.
        """
        heap = self._heap
        pop = heapq.heappop
        gen = self._gen
        collect = self._collect_fired_slot
        limit = math.inf if until is None else until
        while heap:
            if heap[0][0] > limit:
                break
            time, _seq, slot, entry_gen = pop(heap)
            if gen[slot] != entry_gen:
                self._dead -= 1
                continue
            callback = collect(slot)
            self._now = time
            callback()
            self._events_processed += 1
        if until is not None and until > self._now:
            self._now = until

    def run_until(self, time: float) -> None:
        """Run events up to and including ``time``, leaving the clock there.

        The bounded *re-entrant* form of :meth:`run`: calling it repeatedly
        with increasing times executes exactly the events a single
        ``run(until=last_time)`` would, in the same order, with the same
        final ``events_processed`` count.  Slot recycling guarantees the
        segmentation is invisible: one-shot events and fired timers are
        collected when they pop, so a later segment can never re-execute
        them, and ``events_processed`` counts each event exactly once.
        Events scheduled *at* a segment boundary fire in the segment that
        ends there (``run``'s inclusive-``until`` rule), so stepped drivers
        (:class:`repro.control.env.SimEnv`) observe windows with
        well-defined closed right edges.

        Unlike ``run(until=...)`` -- which silently does nothing useful for
        a bound in the past -- a backwards target is rejected, because a
        stepped caller asking to run to an earlier time is always a bug.
        """
        if time < self._now:
            raise ValueError(
                f"cannot run backwards (time={time}, now={self._now})"
            )
        self.run(until=time)

    def step(self) -> bool:
        """Execute the single next pending event.  Returns False when idle."""
        heap = self._heap
        gen = self._gen
        while heap:
            time, _seq, slot, entry_gen = heapq.heappop(heap)
            if gen[slot] != entry_gen:
                self._dead -= 1
                continue
            callback = self._collect_fired_slot(slot)
            self._now = time
            callback()
            self._events_processed += 1
            return True
        return False
