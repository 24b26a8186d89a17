"""Pruned-medium equivalence and vectorized power bookkeeping tests.

The contract under test: for ``cca_noise_db=0`` a scenario run on the
neighbourhood-pruned medium delivers *identical* per-flow results to the
unpruned reference medium, on every registered topology generator, whether
or not pruning is actually removing links.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity.rates import rate_by_mbps
from repro.propagation.channel import ChannelModel
from repro.propagation.pathloss import LogDistancePathLoss
from repro.scenarios import TOPOLOGIES, Scenario, unpruned_variant
from repro.simulation.engine import Simulator
from repro.simulation.frames import Frame, FrameKind
from repro.simulation.medium import RESYNC_INTERVAL, Medium
from repro.simulation.phy import ReceptionModel
from repro.simulation.radio import Radio

from _topologies import sized


def build_medium(positions, detectability_margin_db=16.0, cca=-82.0):
    sim = Simulator()
    channel = ChannelModel(
        path_loss=LogDistancePathLoss(
            alpha=3.6, frequency_hz=5.24e9, reference_distance_m=20.0,
            reference_loss_db=77.0,
        ),
        sigma_db=0.0,
        rng=np.random.default_rng(0),
    )
    medium = Medium(sim, channel, detectability_margin_db=detectability_margin_db)
    radios = {}
    for i, (node_id, position) in enumerate(positions.items()):
        radio = Radio(
            node_id, sim, medium, reception=ReceptionModel(snr_jitter_db=0.0),
            cca_threshold_dbm=cca, cca_noise_db=0.0,
            rng=np.random.default_rng(100 + i),
        )
        medium.register(node_id, position, radio)
        radios[node_id] = radio
    return sim, medium, radios


def data_frame(src, mbps=6.0, payload=1400):
    return Frame(FrameKind.DATA, src, "*", payload, rate_by_mbps(mbps))


# With the parameters of build_medium (15 dBm tx, 77 dB loss at 20 m,
# alpha 3.6) the ~-110 dBm detectability floor falls around 430 m.
NEAR, FAR = (10.0, 0.0), (2000.0, 0.0)


class TestMediumFinalize:
    def test_floor_derived_from_margin(self):
        _sim, medium, _ = build_medium({"a": (0, 0)}, detectability_margin_db=16.0)
        assert medium.detectability_floor_dbm == pytest.approx(
            medium.channel.noise_floor_dbm - 16.0
        )
        _sim, unpruned, _ = build_medium({"a": (0, 0)}, detectability_margin_db=None)
        assert unpruned.detectability_floor_dbm is None

    def test_negative_margin_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Medium(sim, ChannelModel(), detectability_margin_db=-1.0)

    def test_neighborhood_prunes_sub_floor_links(self):
        _sim, medium, _ = build_medium({"a": (0, 0), "b": NEAR, "c": FAR})
        assert medium.neighborhood("a") == ["b"]
        _sim, unpruned, _ = build_medium(
            {"a": (0, 0), "b": NEAR, "c": FAR}, detectability_margin_db=None
        )
        assert unpruned.neighborhood("a") == ["b", "c"]

    def test_matrix_matches_lazy_link_budget(self):
        positions = {"a": (0, 0), "b": (35, 12), "c": (90, -40), "d": (400, 300)}
        _sim, medium, _ = build_medium(positions)
        lazy = {
            (s, d): medium.rx_power_dbm(s, d)
            for s in positions for d in positions if s != d
        }
        medium.finalize()
        for (s, d), value in lazy.items():
            assert medium.rx_power_dbm(s, d) == value

    def test_register_after_finalize_refinalizes(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.finalize()
        assert medium.finalized
        radio = Radio("c", sim, medium, cca_noise_db=0.0)
        medium.register("c", (20.0, 0.0), radio)
        assert not medium.finalized
        assert set(medium.neighborhood("a")) == {"b", "c"}

    def test_register_mid_flight_rejected(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.start_transmission("a", data_frame("a"))
        with pytest.raises(RuntimeError):
            medium.register("c", (5.0, 5.0), Radio("c", sim, medium))
        sim.run()

    def test_subfloor_power_tracks_active_transmissions(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR, "far": FAR})
        medium.finalize()
        assert radios["a"].subfloor_noise_mw == 0.0
        medium.start_transmission("far", data_frame("far"))
        expected = medium.rx_power_mw("far", "a")
        assert radios["a"].subfloor_noise_mw == pytest.approx(expected, rel=1e-12)
        # The sub-floor sender is invisible to per-frame bookkeeping but its
        # energy is part of the sensed total.
        assert radios["a"].incoming_count == 0
        assert radios["a"].sensed_power_mw() == pytest.approx(
            medium.noise_floor_mw + expected, rel=1e-12
        )
        sim.run()
        assert radios["a"].subfloor_noise_mw == 0.0

    def test_threshold_change_refreshes_medium_mirror(self):
        # Mid-run CCA threshold changes (tuned/adaptive experiments) must
        # reach the linear thresholds of the sub-floor busy-edge check.
        _sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.finalize()
        slot = medium._index["a"]
        radios["a"].cca_threshold_dbm = -70.0
        assert medium._cca_thresholds_mw()[slot] == pytest.approx(10.0 ** (-7.0))
        radios["a"].cca_threshold_dbm = None
        assert medium._cca_thresholds_mw()[slot] == np.inf

    def test_subfloor_power_change_fires_busy_idle_callbacks(self):
        # With a tight margin, aggregate sub-floor power alone can cross a
        # radio's CCA threshold.  Per-frame callbacks never reach sub-floor
        # receivers, so the medium must fire the busy/idle edges itself --
        # otherwise a MAC waiting on on_channel_idle stalls forever.  The
        # pruned callback sequence must match the unpruned reference.
        # At 165 m the sender lands at ~-95 dBm: below the margin-0 floor
        # (~-94 dBm) yet enough, summed with the noise floor, to cross a
        # -93 dBm CCA threshold.
        positions = {"a": (0.0, 0.0), "far": (165.0, 0.0)}

        def run_one(margin):
            sim, medium, radios = build_medium(
                positions, detectability_margin_db=margin, cca=-93.0
            )
            events = []
            radios["a"].on_channel_busy = lambda: events.append("busy")
            radios["a"].on_channel_idle = lambda: events.append("idle")
            medium.start_transmission("far", data_frame("far"))
            return events, medium, sim

        pruned_events, pruned_medium, pruned_sim = run_one(0.0)
        assert pruned_medium.neighborhood("far") == []  # link genuinely pruned
        pruned_sim.run()
        unpruned_events, _, unpruned_sim = run_one(None)
        unpruned_sim.run()
        assert pruned_events == unpruned_events == ["busy", "idle"]

    def test_locked_radio_samples_subfloor_interference(self):
        # A frame that a locked radio hears only as sub-floor energy must
        # still count toward the locked frame's worst-case interference, as
        # it does on the unpruned reference medium.
        positions = {"a": (0.0, 0.0), "b": NEAR, "far": (165.0, 0.0)}

        def decode_sinr_db(margin, with_far=True):
            sim, medium, radios = build_medium(positions, detectability_margin_db=margin)
            outcomes = []
            radios["a"].on_frame_received = outcomes.append
            medium.start_transmission("b", data_frame("b"))
            sim.run(until=1e-4)
            if with_far:
                medium.start_transmission("far", data_frame("far", payload=60))
            sim.run()
            return medium, outcomes[0].sinr_db

        pruned, sinr_db = decode_sinr_db(0.0)
        assert "a" not in pruned.neighborhood("far")  # a hears far only sub-floor
        assert sinr_db == decode_sinr_db(None)[1]
        assert sinr_db < decode_sinr_db(0.0, with_far=False)[1] - 0.5

    def test_subfloor_resync_restores_exact_state(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR, "far": FAR})
        medium.start_transmission("far", data_frame("far"))
        expected = radios["a"].subfloor_noise_mw
        medium._subfloor_active_mw += 123.0  # inject drift
        medium._resync_subfloor()
        assert radios["a"].subfloor_noise_mw == pytest.approx(expected, rel=1e-12)
        sim.run()
        medium._subfloor_active_mw += 123.0
        medium._resync_subfloor()
        assert radios["a"].subfloor_noise_mw == 0.0


class TestMediumPowerSums:
    """The medium's incremental per-slot power sums, driven through
    ``Medium.start_transmission`` and the engine."""

    POSITIONS = {"a": (0, 0), "b": NEAR, "c": (20.0, 0.0), "d": (35.0, 10.0), "e": (60.0, 0.0)}

    def _exact_sum_mw(self, medium, dst):
        """What the incremental sum approximates: a recompute over the live
        frames in frame-start order."""
        return sum(medium.rx_power_mw(tx.src, dst) for tx in medium.active_transmissions.values())

    def test_accumulator_matches_exact_sum(self):
        sim, medium, _ = build_medium(self.POSITIONS)
        slot = medium._index["a"]
        rng = np.random.default_rng(0)
        for _ in range(200):
            if medium.active_transmissions and rng.random() < 0.4:
                sim.step()  # the next event is a frame end
            else:
                src = ["b", "c", "d", "e"][rng.integers(4)]
                medium.start_transmission(src, data_frame(src, payload=int(rng.integers(50, 1500))))
            exact = self._exact_sum_mw(medium, "a")
            assert medium._rx_sum_mw[slot] == pytest.approx(exact, rel=1e-9, abs=1e-18)
            # cca_noise_db=0: the CCA sum is the same sum.
            assert medium._cca_sum_mw[slot] == medium._rx_sum_mw[slot]
            assert medium.radio("a").incoming_count == len(medium.active_transmissions)

    def test_empty_channel_resets_sums_exactly(self):
        sim, medium, _ = build_medium(self.POSITIONS)
        slot = medium._index["a"]
        for src, payload in (("b", 1400), ("c", 300), ("d", 900), ("e", 60)):
            medium.start_transmission(src, data_frame(src, payload=payload))
        assert medium._rx_sum_mw[slot] > 0.0
        sim.run()
        assert medium._rx_sum_mw[slot] == 0.0
        assert medium._cca_sum_mw[slot] == 0.0
        assert medium._mutations[slot] == 0

    def test_periodic_resync_bounds_drift(self):
        sim, medium, _ = build_medium(self.POSITIONS)
        slot = medium._index["a"]
        medium.start_transmission("b", data_frame("b", payload=1400))
        medium._rx_sum_mw[slot] += 1.0  # inject drift
        medium._cca_sum_mw[slot] += 1.0
        medium._mutations[slot] = RESYNC_INTERVAL - 2
        medium.start_transmission("c", data_frame("c", payload=1400))  # mutation 1023
        assert medium._rx_sum_mw[slot] > 1.0  # drift survives until the resync
        medium.start_transmission("d", data_frame("d", payload=1400))  # mutation 1024
        exact = self._exact_sum_mw(medium, "a")
        assert medium._rx_sum_mw[slot] == pytest.approx(exact, rel=1e-12)
        assert medium._cca_sum_mw[slot] == pytest.approx(exact, rel=1e-12)
        assert medium._mutations[slot] == 0
        sim.run()

    def test_lock_and_decode_without_explicit_finalize(self):
        # The first transmission finalises the medium; the receiver then
        # locks, accumulates an interferer, and decodes at the frame's end.
        sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR, "c": (60.0, 0.0)})
        outcomes = []
        radios["a"].on_frame_received = outcomes.append
        locked = medium.start_transmission("b", data_frame("b", payload=1400))
        assert medium.finalized
        assert medium._lock_tx[medium._index["a"]] is locked
        sim.run(until=1e-4)
        medium.start_transmission("c", data_frame("c", payload=100))
        sim.run()
        assert [outcome.frame for outcome in outcomes] == [locked.frame]
        assert outcomes[0].success
        assert radios["a"].stats.frames_decoded == 1
        assert medium._lock_tx[medium._index["a"]] is None


def _scenario(topology, **overrides):
    """A small scenario on the given topology with deterministic CCA."""
    params = {
        "name": f"eq-{topology}",
        **sized(topology, 12),
        "extent_m": 120.0,
        "seed": 7,
        "sigma_db": 0.0,
        "cca_noise_db": 0.0,
        "duration_s": 0.08,
    }
    params.update(overrides)
    return Scenario(**params)


def _assert_equivalent(scenario):
    pruned = scenario.run()
    unpruned = unpruned_variant(scenario).run()
    assert pruned == unpruned
    return pruned


class TestPrunedUnprunedEquivalence:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_compact_layouts_match(self, topology):
        """Dense default-extent layouts (mostly nothing to prune)."""
        _assert_equivalent(_scenario(topology))

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_shadowed_layouts_match(self, topology):
        _assert_equivalent(_scenario(topology, sigma_db=8.0, seed=3))

    def test_spread_line_matches_with_active_pruning(self):
        # 16 nodes spaced 100 m apart: adjacent flows deliver, nodes more
        # than ~430 m apart are pruned from each other's notify lists.
        scenario = _scenario("line", n_nodes=16, extent_m=1500.0, duration_s=0.05)
        net, _ = scenario.build_network()
        net.medium.finalize()
        sizes = [len(net.medium.neighborhood(n)) for n in net.nodes]
        assert max(sizes) < len(net.nodes) - 1  # pruning is really active
        result = _assert_equivalent(scenario)
        assert result.scenarios[0]["total_pps"] > 0

    def test_multi_hub_scale_free_matches_with_active_pruning(self):
        scenario = _scenario(
            "scale_free",
            n_nodes=60,
            extent_m=8000.0,
            duration_s=0.03,
            topology_params={"attach_range_frac": 0.008, "n_hubs": 8},
        )
        net, _ = scenario.build_network()
        net.medium.finalize()
        sizes = [len(net.medium.neighborhood(n)) for n in net.nodes]
        assert np.mean(sizes) < 0.7 * (len(net.nodes) - 1)
        result = _assert_equivalent(scenario)
        assert result.scenarios[0]["total_pps"] > 0

    def test_spread_clustered_matches_with_active_pruning(self):
        scenario = _scenario(
            "clustered",
            n_nodes=24,
            extent_m=4000.0,
            duration_s=0.05,
            topology_params={"n_clusters": 6, "spread_frac": 0.008},
        )
        _assert_equivalent(scenario)


class TestLazyNotifyTables:
    """Per-sender notify tables are built on first transmission, not at
    finalisation (pure receivers never pay the tuple packing)."""

    def test_finalize_builds_no_rows(self):
        _sim, medium, _ = build_medium({"a": (0, 0), "b": NEAR, "c": (20.0, 0.0)})
        medium.finalize()
        assert medium._row_built == [False, False, False]
        assert medium._notify == [None, None, None]

    def test_first_transmission_builds_only_the_sender_row(self):
        sim, medium, _ = build_medium({"a": (0, 0), "b": NEAR, "c": (20.0, 0.0)})
        medium.start_transmission("a", data_frame("a"))
        assert medium._row_built == [True, False, False]
        sim.run()
        assert medium._row_built == [True, False, False]

    def test_lazy_rows_match_neighborhood_query(self):
        _sim, medium, _ = build_medium({"a": (0, 0), "b": NEAR, "c": FAR})
        # neighborhood() forces the row; far node is pruned, near one kept.
        assert medium.neighborhood("a") == ["b"]
        assert medium._row_built[0] and not medium._row_built[1]
        assert medium._subfloor_masks[0].tolist() == [False, False, True]  # c is sub-floor

    def test_lazy_and_eager_runs_identical(self):
        """A scenario driven through lazy tables is bit-identical to itself
        (and the pruned-vs-unpruned suites above pin it against the
        reference medium)."""
        scenario = _scenario("scale_free", n_nodes=10)
        assert scenario.run() == scenario.run()


class TestSubfloorGoLive:
    """The locked-radio arrays start when the first sub-floor row is built.

    A radio that locked before then must still sample the sub-floor power of
    every later frame start, exactly as on the unpruned reference medium.
    """

    @staticmethod
    def _count_live_with_locks(monkeypatch):
        held = []
        go_live = Medium._go_live

        def counting(medium):
            held.append(sum(tx is not None for tx in medium._lock_tx))
            go_live(medium)

        monkeypatch.setattr(Medium, "_go_live", counting)
        return held

    def test_lock_held_before_first_subfloor_row_samples_it(self, monkeypatch):
        # b (100 m from a and from far) hears everyone above the zero-margin
        # floor, so its frame builds no sub-floor row and a locks onto it.
        # far's frame reaches a at -98 dBm, below the -94 dBm floor: its row
        # is the first sub-floor row, built while a holds the lock.
        positions = {"a": (0.0, 0.0), "b": (100.0, 0.0), "far": (200.0, 0.0)}
        held = self._count_live_with_locks(monkeypatch)

        def decode_sinr_db(margin, with_far=True):
            sim, medium, radios = build_medium(positions, detectability_margin_db=margin)
            outcomes = []
            radios["a"].on_frame_received = outcomes.append
            radios["b"].transmit(data_frame("b"))
            assert medium._lock_tx[medium._index["a"]] is not None
            sim.run(until=1e-4)
            if with_far:
                radios["far"].transmit(data_frame("far", payload=60))
            sim.run()
            return medium, outcomes[0]

        pruned, outcome = decode_sinr_db(0.0)
        assert held == [2]  # reached: a and far both held a lock at go-live
        assert "a" not in pruned.neighborhood("far")
        unpruned = decode_sinr_db(None)[1]
        assert (outcome.sinr_db, outcome.success) == (unpruned.sinr_db, unpruned.success)
        assert outcome.sinr_db < decode_sinr_db(0.0, with_far=False)[1].sinr_db - 0.5

    def test_scenario_with_lock_at_go_live_matches_unpruned(self, monkeypatch):
        held = self._count_live_with_locks(monkeypatch)
        scenario = Scenario(
            name="go-live", topology="uniform_disc", n_nodes=10, extent_m=300.0, seed=0,
            use_acks=True, cca_noise_db=0.0, duration_s=0.05,
        )
        pruned = scenario.run()
        assert held and held[0] > 0  # reached: locks were held at go-live
        assert pruned == unpruned_variant(scenario).run()

    @pytest.mark.parametrize("name", ["noise-subfloor", "noise-subfloor-shadowed"])
    def test_noise_subfloor_pins_hold(self, name):
        from test_fanout_pins import PIN_SCENARIOS, PINS, _pin

        assert _pin(PIN_SCENARIOS[name].run()) == PINS[name]
