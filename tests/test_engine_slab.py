"""Semantics of the slab-based scheduler, beyond the basic engine tests.

Covers the behaviours the PR 3 rewrite must preserve or newly guarantee:
cancellation-then-reschedule, same-timestamp FIFO ordering across every
scheduling flavour, ``run(until=...)`` clock advancement, cancel-after-fire
as a no-op with a clear fired/cancelled distinction, timer slot reuse,
bounded tombstone growth under heavy cancellation (compaction), and a seeded
7-topology equivalence check against the frozen pre-slab engine.
"""

from __future__ import annotations

import pytest

import repro.simulation.network as network_module
from repro.scenarios import Scenario
from repro.simulation.engine import Simulator, Timer

from _legacy_engine import LegacySimulator


class TestHandleLifecycle:
    def test_cancel_then_reschedule_same_callback(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("first"))
        handle.cancel()
        sim.schedule(2.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["second"]
        assert handle.cancelled and not handle.fired

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        # Slot churn after the fire: a later event may reuse the slab slot.
        sim.run()
        later = sim.schedule(1.0, lambda: fired.append(2))
        assert handle.fired and not handle.cancelled
        handle.cancel()  # must not disturb the event now occupying the slab
        assert handle.fired and not handle.cancelled
        sim.run()
        assert fired == [1, 2]
        assert later.fired

    def test_double_cancel_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled and not handle.fired
        sim.run()
        assert sim.events_processed == 0

    def test_pending_fired_cancelled_are_exclusive(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending and not handle.fired and not handle.cancelled
        sim.run()
        assert not handle.pending and handle.fired and not handle.cancelled


class TestOrdering:
    def test_same_timestamp_fifo_across_flavours(self):
        sim = Simulator()
        order = []
        timer = sim.timer()
        sim.schedule(1.0, lambda: order.append("handle"))
        sim.schedule_call(1.0, lambda: order.append("call"))
        timer.arm(1.0, lambda: order.append("timer"))
        sim.schedule_many([(1.0, lambda: order.append("many-a")),
                           (1.0, lambda: order.append("many-b"))])
        sim.run()
        assert order == ["handle", "call", "timer", "many-a", "many-b"]

    def test_fifo_survives_compaction(self):
        sim = Simulator()
        order = []
        # Interleave survivors with a tombstone flood big enough to trigger
        # compaction mid-stream; survivor order must be untouched.
        survivors = []
        for wave in range(4):
            doomed = [sim.schedule(2.0, lambda: order.append("doomed")) for _ in range(400)]
            survivors.append(sim.schedule(2.0, lambda i=wave: order.append(i)))
            for handle in doomed:
                handle.cancel()
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until=4.5)
        assert sim.now == 4.5
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.run(until=5.0)
        assert fired == [] and sim.now == 5.0
        sim.run(until=20.0)
        assert fired == [14.5] and sim.now == 20.0


class TestTimer:
    def test_rearm_replaces_pending_firing(self):
        sim = Simulator()
        fired = []
        timer = sim.timer()
        timer.arm(5.0, lambda: fired.append("late"))
        timer.arm(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early"]
        assert not timer.armed

    def test_timer_slot_is_reused(self):
        sim = Simulator()
        timer = sim.timer()
        slots = set()
        for _ in range(50):
            timer.arm(1.0, lambda: None)
            slots.add(timer._slot)
            sim.run()
        assert len(slots) == 1

    def test_cancel_disarmed_timer_is_noop(self):
        sim = Simulator()
        timer = sim.timer()
        timer.cancel()
        timer.arm(1.0, lambda: None)
        sim.run()
        timer.cancel()
        assert not timer.armed

    def test_timer_rejects_past(self):
        sim = Simulator()
        timer = sim.timer()
        with pytest.raises(ValueError):
            timer.arm(-0.5, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            timer.arm_at(0.5, lambda: None)


class TestAccounting:
    def test_live_and_cancelled_counts(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        assert sim.pending_events == 10
        assert sim.cancelled_events == 0
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending_events == 6
        assert sim.cancelled_events == 4
        assert sim.heap_size == 10
        sim.run()
        assert sim.pending_events == 0
        assert sim.cancelled_events == 0
        assert sim.events_processed == 6

    def test_compaction_bounds_heap_under_cancel_churn(self):
        """Cancelled tombstones must never accumulate without bound.

        Mimics a long CSMA run's worst case: every scheduled timer is
        cancelled and replaced, millions of times over, while a small live
        population persists.
        """
        sim = Simulator()
        live = [sim.schedule(1e9, lambda: None) for _ in range(8)]
        for _ in range(20_000):
            sim.schedule(1e9, lambda: None).cancel()
        # Compaction keeps the raw heap within a small multiple of the live
        # set (the threshold allows a fixed floor of uncollected tombstones).
        assert sim.pending_events == 8
        assert sim.heap_size <= 2 * sim.pending_events + 1024
        for handle in live:
            handle.cancel()

    def test_long_csma_run_keeps_heap_bounded(self):
        """End-to-end guard: a contended CSMA run must not leak tombstones."""
        scenario = Scenario(
            name="heap-bound",
            topology="uniform_disc",
            n_nodes=14,
            extent_m=60.0,
            seed=3,
            sigma_db=0.0,
            duration_s=1.0,
        )
        net, _placement = scenario.build_network()
        net.run(scenario.duration_s)
        sim = net.sim
        assert sim.events_processed > 1000, "scenario should be contended"
        assert sim.heap_size <= sim.pending_events + 1024, (
            f"tombstones leaked: heap {sim.heap_size}, live {sim.pending_events}"
        )


class TestRunUntilSegmentation:
    """``run_until`` is the re-entrant contract the stepped control env
    relies on: splitting a run into N segments must replay the monolithic
    run exactly -- same callback order, same clock, same executed-event
    count -- with no re-fired one-shot timers or double counting."""

    def _drive(self, sim, order):
        """A workload mixing every scheduling flavour, incl. timer re-arm
        and events landing exactly on future segment boundaries."""
        timer = sim.timer()

        def tick(label, again=None):
            order.append((label, sim.now))
            if again is not None:
                timer.arm(again, lambda: tick("timer2"))

        sim.schedule(0.05, lambda: tick("a"))
        sim.schedule(0.10, lambda: tick("boundary"))  # exactly on a boundary
        sim.schedule_call(0.15, lambda: tick("call"))
        timer.arm(0.22, lambda: tick("timer1", again=0.17))
        sim.schedule(0.31, lambda: tick("z"))

    def test_segmented_run_matches_monolithic(self):
        mono_order, mono = [], Simulator()
        self._drive(mono, mono_order)
        mono.run(until=0.5)

        seg_order, seg = [], Simulator()
        self._drive(seg, seg_order)
        for k in range(1, 6):  # five 0.1 s segments
            seg.run_until(k * 0.1)
            # Re-entry at a quiet boundary must not re-fire anything.
            seg.run_until(k * 0.1)

        assert seg_order == mono_order
        assert seg.now == mono.now == 0.5
        assert seg.events_processed == mono.events_processed

    def test_run_until_rejects_backwards_target(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="backwards"):
            sim.run_until(0.5)
        sim.run_until(1.0)  # the current instant is fine
        assert sim.now == 1.0

    def test_segmented_scenario_matches_monolithic_bytes(self):
        """Whole-network check: N-segment stepping of a real contended
        scenario reproduces ``scenario.run()`` byte-identically."""
        scenario = Scenario(
            name="seg-equiv",
            topology="hidden_terminal",
            n_nodes=6,
            extent_m=120.0,
            seed=3,
            sigma_db=2.0,
            duration_s=0.25,
        )
        monolithic = scenario.run()

        net, placement = scenario.build_network()
        for node in net.nodes.values():
            node.stats.reset()
        net.start()
        start = net.sim.now
        for k in range(1, 6):
            net.sim.run_until(start + k * scenario.duration_s / 5)
        outcome = network_module.RunResult(
            duration_s=scenario.duration_s,
            nodes=dict(net.nodes),
            events_processed=net.sim.events_processed,
        )
        segmented = scenario._result_set(net, placement, outcome)
        assert segmented.to_bytes() == monolithic.to_bytes()


SWEEP_TOPOLOGIES = (
    "uniform_disc",
    "grid",
    "clustered",
    "scale_free",
    "hidden_terminal",
    "exposed_terminal",
    "line",
)


@pytest.mark.parametrize("topology", SWEEP_TOPOLOGIES)
def test_slab_engine_matches_legacy_engine(topology, monkeypatch):
    """Seeded whole-scenario equivalence against the frozen pre-slab engine.

    The legacy heap-of-dataclasses engine (tests/_legacy_engine.py) is the
    exact PR 2 implementation; swapping it into the network builder must
    yield identical per-flow stats and an identical executed-event count for
    every topology family.
    """
    scenario = Scenario(
        name=f"equiv-{topology}",
        topology=topology,
        n_nodes=10,
        extent_m=120.0,
        seed=7,
        sigma_db=4.0,
        cca_noise_db=2.0,
        duration_s=0.2,
    )
    slab_result = scenario.run()

    monkeypatch.setattr(network_module, "Simulator", LegacySimulator)
    legacy_result = scenario.run()

    assert slab_result == legacy_result
