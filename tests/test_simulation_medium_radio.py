"""Tests for the shared medium, radio CCA, and frame reception."""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity.error_models import packet_success_rate
from repro.capacity.rates import DSSS_RATES, OFDM_RATES, rate_by_mbps
from repro.propagation.channel import ChannelModel
from repro.propagation.pathloss import LogDistancePathLoss
from repro.simulation.engine import Simulator
from repro.simulation.frames import BROADCAST, Frame, FrameKind
from repro.simulation.medium import Medium, _lin_to_db_scalar, linear_threshold
from repro.simulation.network import WirelessNetwork
from repro.simulation.phy import ReceptionModel
from repro.simulation.radio import Radio
from repro.simulation.traffic import SaturatedTraffic


def build_medium(positions, sigma_db=0.0, reference_loss_db=77.0, cca=-82.0, jitter=0.0):
    """Construct a Simulator + Medium + Radios for the given node positions."""
    sim = Simulator()
    channel = ChannelModel(
        path_loss=LogDistancePathLoss(
            alpha=3.6, frequency_hz=5.24e9, reference_distance_m=20.0,
            reference_loss_db=reference_loss_db,
        ),
        sigma_db=sigma_db,
        rng=np.random.default_rng(0),
    )
    medium = Medium(sim, channel)
    radios = {}
    reception = ReceptionModel(snr_jitter_db=jitter)
    for i, (node_id, position) in enumerate(positions.items()):
        radio = Radio(
            node_id, sim, medium, reception=reception, cca_threshold_dbm=cca,
            cca_noise_db=0.0, rng=np.random.default_rng(100 + i),
        )
        medium.register(node_id, position, radio)
        radios[node_id] = radio
    return sim, medium, radios


def data_frame(src, dst=BROADCAST, mbps=6.0, payload=1400):
    return Frame(FrameKind.DATA, src, dst, payload, rate_by_mbps(mbps))


class TestMedium:
    def test_rx_power_decreases_with_distance(self):
        _sim, medium, _ = build_medium({"a": (0, 0), "b": (10, 0), "c": (40, 0)})
        assert medium.rx_power_dbm("a", "b") > medium.rx_power_dbm("a", "c")

    def test_snr_positive_for_nearby_link(self):
        _sim, medium, _ = build_medium({"a": (0, 0), "b": (10, 0)})
        assert medium.snr_db("a", "b") > 20.0

    def test_distance_clamped_at_minimum(self):
        _sim, medium, _ = build_medium({"a": (0, 0), "b": (0, 0.01)})
        assert medium.distance("a", "b") == medium.min_distance_m

    def test_duplicate_registration_rejected(self):
        sim, medium, _ = build_medium({"a": (0, 0)})
        with pytest.raises(ValueError):
            medium.register("a", (1, 1), Radio("a2", sim, medium))

    def test_unknown_source_rejected(self):
        _sim, medium, _ = build_medium({"a": (0, 0)})
        with pytest.raises(KeyError):
            medium.start_transmission("ghost", data_frame("ghost"))

    def test_transmission_lifecycle(self):
        sim, medium, _radios = build_medium({"a": (0, 0), "b": (10, 0)})
        medium.start_transmission("a", data_frame("a"))
        assert len(medium.active_transmissions) == 1
        sim.run()
        assert len(medium.active_transmissions) == 0


class TestRadioCarrierSense:
    def test_channel_busy_when_strong_frame_on_air(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": (10, 0)})
        assert not radios["b"].channel_busy()
        medium.start_transmission("a", data_frame("a"))
        assert radios["b"].channel_busy()
        sim.run()
        assert not radios["b"].channel_busy()

    def test_busy_idle_callbacks_fire(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": (10, 0)})
        events = []
        radios["b"].on_channel_busy = lambda: events.append("busy")
        radios["b"].on_channel_idle = lambda: events.append("idle")
        medium.start_transmission("a", data_frame("a"))
        sim.run()
        assert events == ["busy", "idle"]

    def test_cca_disabled_never_busy(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": (10, 0)}, cca=None)
        medium.start_transmission("a", data_frame("a"))
        assert not radios["b"].channel_busy()
        assert not radios["b"].carrier_sense_enabled
        sim.run()

    def test_distant_sender_not_sensed(self):
        # At ~500 m the received power falls below the CCA threshold.
        sim, medium, radios = build_medium({"a": (0, 0), "b": (500, 0)})
        medium.start_transmission("a", data_frame("a"))
        assert not radios["b"].channel_busy()
        sim.run()

    def test_sensed_power_includes_noise_floor(self):
        _sim, _medium, radios = build_medium({"a": (0, 0), "b": (10, 0)})
        assert radios["b"].sensed_power_mw() == pytest.approx(
            radios["b"].medium.noise_floor_mw
        )


class TestRadioReception:
    def test_clean_frame_is_received(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": (10, 0)})
        outcomes = []
        radios["b"].on_frame_received = outcomes.append
        medium.start_transmission("a", data_frame("a"))
        sim.run()
        assert len(outcomes) == 1
        assert outcomes[0].success
        assert outcomes[0].sinr_db > 20.0

    def test_colliding_equal_power_frames_fail(self):
        positions = {"a": (0, 0), "b": (20, 0), "r": (10, 0)}
        sim, medium, radios = build_medium(positions, cca=None)
        outcomes = []
        radios["r"].on_frame_received = outcomes.append
        medium.start_transmission("a", data_frame("a"))
        medium.start_transmission("b", data_frame("b"))
        sim.run()
        # The receiver locks onto the first frame; SINR ~ 0 dB so it fails.
        assert len(outcomes) == 1
        assert not outcomes[0].success

    def test_capture_by_much_stronger_frame(self):
        positions = {"far": (80, 0), "near": (5, 0), "r": (0, 0)}
        sim, medium, radios = build_medium(positions, cca=None)
        outcomes = []
        radios["r"].on_frame_received = outcomes.append
        medium.start_transmission("far", data_frame("far"))

        def send_near():
            medium.start_transmission("near", data_frame("near"))

        sim.schedule(1e-4, send_near)
        sim.run()
        # The near sender is >10 dB stronger, steals the lock, and is decoded.
        successes = [o for o in outcomes if o.success]
        assert any(o.frame.src == "near" for o in successes)
        assert radios["r"].stats.frames_failed >= 1

    def test_capture_delivers_failed_outcome_for_displaced_frame(self):
        # The frame that loses the lock must surface as a failed reception,
        # not silently vanish: MAC-level failure accounting has to agree with
        # the radio's frames_failed counter.
        positions = {"far": (80, 0), "near": (5, 0), "r": (0, 0)}
        sim, medium, radios = build_medium(positions, cca=None)
        outcomes = []
        radios["r"].on_frame_received = outcomes.append
        medium.start_transmission("far", data_frame("far"))
        sim.schedule(1e-4, lambda: medium.start_transmission("near", data_frame("near")))
        sim.run()
        displaced = [o for o in outcomes if o.frame.src == "far"]
        assert len(displaced) == 1
        assert not displaced[0].success
        assert displaced[0].success_probability == 0.0
        # Radio counters and delivered outcomes line up one-to-one.
        failed_outcomes = sum(1 for o in outcomes if not o.success)
        assert failed_outcomes == radios["r"].stats.frames_failed

    def test_undecodable_preamble_does_not_lock(self):
        # A frame buried under a much stronger ongoing frame never locks, so
        # only the strong frame produces a reception outcome.
        positions = {"strong": (5, 0), "weak": (80, 0), "r": (0, 0)}
        sim, medium, radios = build_medium(positions, cca=None)
        outcomes = []
        radios["r"].on_frame_received = outcomes.append
        medium.start_transmission("strong", data_frame("strong"))
        sim.schedule(1e-4, lambda: medium.start_transmission("weak", data_frame("weak")))
        sim.run()
        assert [o.frame.src for o in outcomes] == ["strong"]

    def test_transmitting_radio_does_not_receive(self):
        positions = {"a": (0, 0), "b": (10, 0)}
        sim, medium, radios = build_medium(positions, cca=None)
        outcomes = []
        radios["a"].on_frame_received = outcomes.append
        radios["a"].transmit(data_frame("a"))
        medium.start_transmission("b", data_frame("b"))
        sim.run()
        assert outcomes == []
        assert radios["a"].stats.frames_missed_while_busy >= 1

    def test_transmit_aborts_ongoing_reception(self):
        positions = {"a": (0, 0), "b": (10, 0)}
        sim, medium, radios = build_medium(positions, cca=None)
        medium.start_transmission("b", data_frame("b"))
        radios["a"].transmit(data_frame("a"))
        sim.run()
        assert radios["a"].stats.receptions_aborted_by_tx == 1

    def test_double_transmit_rejected(self):
        _sim, _medium, radios = build_medium({"a": (0, 0), "b": (10, 0)})
        radios["a"].transmit(data_frame("a"))
        with pytest.raises(RuntimeError):
            radios["a"].transmit(data_frame("a"))


class TestLinearThresholdVerdicts:
    def test_linear_verdict_matches_exact_db_comparison(self):
        """The pass decides CCA in linear mW and falls back to the exact
        ``10*log10`` only near the threshold; the two must never disagree,
        including a few ulps either side of the threshold."""
        rng = np.random.default_rng(5)
        for threshold_db in np.concatenate([rng.uniform(-100.0, -40.0, 300), [-82.0, 4.0]]):
            linear, lo, hi = linear_threshold(float(threshold_db))
            near = [linear]
            for _ in range(40):
                near.append(float(np.nextafter(near[-1], np.inf)))
            below = [linear]
            for _ in range(40):
                below.append(float(np.nextafter(below[-1], 0.0)))
            spread = linear * (1.0 + rng.uniform(-1e-8, 1e-8, 50))
            for value in [*near, *below, *spread.tolist()]:
                fast = value > hi or (value >= lo and _lin_to_db_scalar(value) > threshold_db)
                assert fast == (_lin_to_db_scalar(value) > threshold_db)

    def test_none_threshold_is_never_crossed(self):
        linear, lo, hi = linear_threshold(None)
        assert linear == lo == hi == np.inf


class TestReceiverPassGuard:
    """MAC callbacks schedule transmissions; they never start one inline."""

    def test_transmit_from_busy_callback_raises(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": (10, 0)})
        radios["b"].on_channel_busy = lambda: radios["b"].transmit(data_frame("b"))
        with pytest.raises(RuntimeError, match="receiver pass"):
            radios["a"].transmit(data_frame("a"))
        assert not radios["b"].is_transmitting

    def test_transmit_from_frame_end_callback_raises(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": (10, 0)})
        radios["b"].on_frame_received = lambda outcome: radios["b"].transmit(data_frame("b"))
        radios["a"].transmit(data_frame("a"))
        with pytest.raises(RuntimeError, match="receiver pass"):
            sim.run()

    def test_scheduled_transmit_from_callback_is_fine(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": (10, 0)})
        radios["b"].on_channel_busy = lambda: sim.schedule_call(
            0.0, lambda: radios["b"].transmit(data_frame("b"))
        )
        radios["a"].transmit(data_frame("a"))
        sim.run()
        assert radios["b"].stats.frames_transmitted == 1


class TestRadioInputValidation:
    def _network(self, **kwargs):
        return WirelessNetwork(channel=ChannelModel(rng=np.random.default_rng(0)), **kwargs)

    @pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
    def test_bad_cca_noise_rejected_at_add_node(self, noise):
        net = self._network(cca_noise_db=noise)
        with pytest.raises(ValueError, match="cca_noise_db"):
            net.add_node("a", (0.0, 0.0))

    def test_nan_threshold_rejected_at_add_node(self):
        net = self._network()
        with pytest.raises(ValueError, match="NaN"):
            net.add_node("a", (0.0, 0.0), cca_threshold_dbm=float("nan"))

    @pytest.mark.parametrize("threshold", [float("inf"), float("-inf"), None, -82.0])
    def test_infinite_and_none_thresholds_accepted(self, threshold):
        net = self._network()
        node = net.add_node("a", (0.0, 0.0), cca_threshold_dbm=threshold)
        assert node.radio.cca_threshold_dbm == threshold

    def test_nan_threshold_rejected_mid_run(self):
        net = self._network()
        net.add_node("S", (0.0, 0.0), traffic=SaturatedTraffic("*"))
        radio = net.add_node("R", (8.0, 0.0)).radio
        net.run(0.01)
        with pytest.raises(ValueError, match="NaN"):
            radio.cca_threshold_dbm = float("nan")
        assert radio.cca_threshold_dbm == -82.0
        radio.cca_threshold_dbm = float("inf")
        net.run(0.01)
        assert not radio.channel_busy()

    def test_infinite_threshold_matches_carrier_sense_off(self):
        """+inf dBm never reads busy, so it runs exactly like ``None``."""

        def run(threshold):
            net = self._network(seed=4, cca_threshold_dbm=threshold)
            for i, x in enumerate((0.0, 30.0, 60.0)):
                net.add_node(f"S{i}", (x, 0.0), traffic=SaturatedTraffic("*"))
                net.add_node(f"R{i}", (x, 8.0))
            net.run(0.05)
            return [(n.radio.stats, n.mac.stats.as_dict()) for n in net.nodes.values()]

        assert run(float("inf")) == run(None)


class TestRadioDefaultRng:
    def test_bare_radio_rng_is_deterministic(self):
        # A Radio constructed without an rng must not fall back to OS
        # entropy: runs with cca_noise_db > 0 would silently stop being
        # reproducible.  The default seeds from the node id.
        sim = Simulator()
        medium = Medium(sim, ChannelModel(rng=np.random.default_rng(0)))
        first = Radio("a", sim, medium)
        second = Radio("a2", sim, Medium(Simulator(), ChannelModel(rng=np.random.default_rng(0))))
        again = Radio("a", Simulator(), Medium(Simulator(), ChannelModel(rng=np.random.default_rng(0))))
        draws = first.rng.random(4)
        assert np.array_equal(draws, again.rng.random(4))
        # Distinct node ids get distinct (but still deterministic) streams.
        assert not np.array_equal(draws, second.rng.random(4))


class TestReceptionModel:
    def test_deterministic_mode_thresholds_at_half(self):
        model = ReceptionModel(deterministic=True)
        rate = rate_by_mbps(24.0)
        frame = Frame(FrameKind.DATA, "a", "b", 1400, rate)
        rng = np.random.default_rng(0)
        assert model.decide(frame, rate.min_snr_db + 10.0, rng).success
        assert not model.decide(frame, rate.min_snr_db - 10.0, rng).success

    def test_control_frames_get_a_bonus(self):
        model = ReceptionModel()
        rate = rate_by_mbps(6.0)
        data = Frame(FrameKind.DATA, "a", "b", 1400, rate)
        ack = Frame(FrameKind.ACK, "b", "a", 14, rate)
        snr = 4.0
        assert model.success_probability(ack, snr) > model.success_probability(data, snr)

    def test_preamble_detection_requires_power_and_sinr(self):
        model = ReceptionModel(sensitivity_dbm=-90.0, preamble_snr_threshold_db=4.0)
        assert model.preamble_detectable(-70.0, 20.0)
        assert not model.preamble_detectable(-95.0, 20.0)
        assert not model.preamble_detectable(-70.0, 1.0)

    def test_capture_requires_margin(self):
        model = ReceptionModel(capture_margin_db=10.0)
        assert model.captures(-50.0, -65.0)
        assert not model.captures(-60.0, -65.0)
        assert not model.captures(-95.0, -120.0)  # below sensitivity


def _reference_decide(model, frame, sinr_db, rng):
    """The verdict composed from the public pieces: ``rng.normal`` jitter,
    the control-frame bonus, and ``packet_success_rate`` at the clamped
    payload, then the Bernoulli draw."""
    effective_sinr = sinr_db
    if not model.deterministic and model.snr_jitter_db > 0:
        effective_sinr += float(rng.normal(0.0, model.snr_jitter_db))
    if frame.kind != FrameKind.DATA:
        effective_sinr += model.control_rate_bonus_db
    p = float(packet_success_rate(effective_sinr, frame.rate, max(frame.payload_bytes, 14)))
    success = p > 0.5 if model.deterministic else bool(rng.random() < p)
    return success, sinr_db, p


class TestDecodeParity:
    """``ReceptionModel.decide`` equals the reference composition bit for bit
    and leaves its generator where the reference leaves a twin."""

    THRESHOLD_DB = ReceptionModel().preamble_snr_threshold_db
    SINRS_DB = [float(x) for x in np.arange(-10.0, 40.0, 0.37)] + [
        40.0, THRESHOLD_DB, float(np.nextafter(THRESHOLD_DB, -np.inf)),
        float(np.nextafter(THRESHOLD_DB, np.inf)), THRESHOLD_DB - 1e-9, THRESHOLD_DB + 1e-9,
    ]

    @pytest.mark.parametrize("jitter_db", [0.0, 3.0])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_decide_matches_reference_composition(self, deterministic, jitter_db):
        model = ReceptionModel(deterministic=deterministic, snr_jitter_db=jitter_db)
        for seed, (rate, kind, payload) in enumerate(
            (rate, kind, payload)
            for rate in OFDM_RATES + DSSS_RATES
            for kind in FrameKind
            for payload in (0, 14, 100, 1400)
        ):
            frame = Frame(kind, "a", "b", payload, rate)
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for sinr_db in self.SINRS_DB:
                outcome = model.decide(frame, sinr_db, rng)
                expected = _reference_decide(model, frame, sinr_db, twin)
                assert outcome.frame is frame
                assert (outcome.success, outcome.sinr_db, outcome.success_probability) == expected, (
                    rate, kind, payload, sinr_db
                )
            assert rng.random() == twin.random(), (rate, kind, payload)
