"""Tests for the 802.11 rate tables, frame timing, and error models."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capacity.error_models import (
    _BER_EXACT_ZERO,
    _LOG_SUCCESS_EXACT_ONE,
    _MODULATION_BITS,
    _coded_ber_scalar,
    _hermegauss,
    _log_success,
    _packet_error_rate_kernel,
    _packet_error_rate_scalar,
    _saturation_edges,
    average_packet_success_rate,
    ber_bpsk,
    ber_mqam,
    coded_ber,
    packet_error_rate,
    packet_success_rate,
    raw_ber,
)
from repro.capacity.rates import (
    ACK_BYTES,
    EXPERIMENT_RATE_SET,
    OFDM_RATES,
    RateInfo,
    ack_airtime_s,
    frame_airtime_s,
    ofdm_rate_set,
    rate_by_mbps,
)
from repro.constants import EXPERIMENT_PAYLOAD_BYTES
from repro.simulation.mac.csma import _CTS_BYTES, _RTS_BYTES


class TestRateTable:
    def test_all_802_11a_rates_present(self):
        assert [r.mbps for r in OFDM_RATES] == [6.0, 9.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0]

    def test_experiment_rate_set_matches_paper(self):
        assert [r.mbps for r in EXPERIMENT_RATE_SET] == [6.0, 9.0, 12.0, 18.0, 24.0]

    def test_bits_per_symbol_consistent_with_rate(self):
        for rate in OFDM_RATES:
            # 4 microsecond OFDM symbols: data bits per symbol = Mbps * 4.
            assert rate.bits_per_symbol == pytest.approx(rate.mbps * 4.0)

    def test_min_snr_increases_with_rate(self):
        snrs = [r.min_snr_db for r in OFDM_RATES]
        assert snrs == sorted(snrs)

    def test_lookup_by_mbps(self):
        assert rate_by_mbps(24.0).modulation == "16-QAM"
        with pytest.raises(KeyError):
            rate_by_mbps(7.0)

    def test_ofdm_rate_set_sorted(self):
        rates = ofdm_rate_set([24.0, 6.0, 12.0])
        assert [r.mbps for r in rates] == [6.0, 12.0, 24.0]


class TestFrameTiming:
    def test_1400_byte_frame_at_6mbps(self):
        airtime = frame_airtime_s(1400, rate_by_mbps(6.0))
        # 1434 bytes + tail at 6 Mbps is roughly 1.9 ms plus a 20 us preamble.
        assert airtime == pytest.approx(1.936e-3, rel=0.02)

    def test_1400_byte_frame_at_24mbps(self):
        assert frame_airtime_s(1400, rate_by_mbps(24.0)) == pytest.approx(500e-6, rel=0.02)

    def test_airtime_decreases_with_rate(self):
        airtimes = [frame_airtime_s(1400, r) for r in OFDM_RATES]
        assert airtimes == sorted(airtimes, reverse=True)

    def test_ack_much_shorter_than_data(self):
        assert ack_airtime_s(rate_by_mbps(6.0)) < 0.1 * frame_airtime_s(1400, rate_by_mbps(6.0))

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            frame_airtime_s(-1, rate_by_mbps(6.0))

    @given(st.integers(min_value=0, max_value=2304), st.sampled_from([6.0, 12.0, 24.0, 54.0]))
    def test_airtime_monotone_in_payload(self, payload, mbps):
        rate = rate_by_mbps(mbps)
        assert frame_airtime_s(payload + 100, rate) >= frame_airtime_s(payload, rate)


class TestErrorModels:
    def test_bpsk_ber_at_reference_point(self):
        # Q(sqrt(2 * 10)) for 10 dB per-bit SNR is about 3.9e-6.
        assert ber_bpsk(10.0) == pytest.approx(3.87e-6, rel=0.05)

    def test_mqam_requires_power_of_two(self):
        with pytest.raises(ValueError):
            ber_mqam(1.0, 5)

    def test_coded_better_than_uncoded(self):
        rate = rate_by_mbps(12.0)
        assert coded_ber(8.0, rate) <= raw_ber(8.0, rate)

    @given(st.floats(min_value=-10.0, max_value=40.0), st.sampled_from([6.0, 12.0, 24.0, 54.0]))
    def test_per_is_a_probability(self, snr_db, mbps):
        per = packet_error_rate(snr_db, rate_by_mbps(mbps))
        assert 0.0 <= per <= 1.0

    @given(st.sampled_from([6.0, 12.0, 24.0, 54.0]))
    def test_per_monotone_decreasing_in_snr(self, mbps):
        rate = rate_by_mbps(mbps)
        snrs = np.linspace(-5.0, 40.0, 40)
        pers = np.asarray(packet_error_rate(snrs, rate))
        assert np.all(np.diff(pers) <= 1e-12)

    def test_waterfall_shape(self):
        rate = rate_by_mbps(24.0)
        assert packet_error_rate(rate.min_snr_db + 6.0, rate) < 0.01
        assert packet_error_rate(rate.min_snr_db - 8.0, rate) > 0.99

    def test_higher_rates_need_more_snr(self):
        snr = 10.0
        assert packet_success_rate(snr, rate_by_mbps(6.0)) > packet_success_rate(
            snr, rate_by_mbps(54.0)
        )

    def test_longer_packets_fail_more(self):
        rate = rate_by_mbps(12.0)
        snr = rate.min_snr_db
        assert packet_error_rate(snr, rate, 1400) >= packet_error_rate(snr, rate, 100)

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValueError):
            packet_error_rate(10.0, rate_by_mbps(6.0), payload_bytes=0)


class TestAveragePacketSuccess:
    def test_zero_sigma_matches_instantaneous(self):
        rate = rate_by_mbps(6.0)
        assert average_packet_success_rate(10.0, rate, sigma_db=0.0) == pytest.approx(
            float(packet_success_rate(10.0, rate))
        )

    def test_variation_softens_the_waterfall(self):
        rate = rate_by_mbps(6.0)
        # Well below threshold the variation can only help; well above it hurts.
        below = rate.min_snr_db - 6.0
        above = rate.min_snr_db + 10.0
        assert average_packet_success_rate(below, rate, sigma_db=8.0) > float(
            packet_success_rate(below, rate)
        )
        assert average_packet_success_rate(above, rate, sigma_db=8.0) < float(
            packet_success_rate(above, rate)
        )

    def test_monotone_in_mean_snr(self):
        rate = rate_by_mbps(6.0)
        values = [
            average_packet_success_rate(snr, rate, sigma_db=8.0) for snr in (0.0, 10.0, 20.0, 30.0)
        ]
        assert values == sorted(values)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            average_packet_success_rate(10.0, rate_by_mbps(6.0), sigma_db=-1.0)


class TestScalarFastPath:
    """The float fast path of packet_error_rate is bit-identical to the
    vectorized path (ROADMAP open item: skip the array machinery on the
    per-frame decode, never change a single result)."""

    def _vectorized_reference(self, snr_db, rate, payload_bytes):
        # Route through the array path by wrapping in a 1-element array.
        return float(
            packet_error_rate(np.asarray([snr_db]), rate, payload_bytes)[0]
        )

    def test_bit_identical_across_rates_and_payloads(self):
        snrs = np.linspace(-30.0, 50.0, 2001)
        for rate in OFDM_RATES:
            for payload in (1, 100, 1400):
                vec = packet_error_rate(np.asarray(snrs), rate, payload)
                for i, snr in enumerate(snrs.tolist()):
                    assert packet_error_rate(snr, rate, payload) == vec[i], (
                        f"{rate.mbps} Mbps, payload {payload}, snr {snr}"
                    )

    def test_scalar_edge_cases(self):
        rate = rate_by_mbps(6.0)
        assert packet_error_rate(float("-inf"), rate) == self._vectorized_reference(
            float("-inf"), rate, 1400
        )
        assert packet_error_rate(float("inf"), rate) == self._vectorized_reference(
            float("inf"), rate, 1400
        )
        assert math.isnan(packet_error_rate(float("nan"), rate))
        # int and numpy scalar inputs keep returning plain floats
        assert isinstance(packet_error_rate(10, rate), float)
        assert isinstance(packet_error_rate(np.float64(10.0), rate), float)
        assert packet_error_rate(10, rate) == packet_error_rate(10.0, rate)

    def test_invalid_payload_still_rejected(self):
        with pytest.raises(ValueError):
            packet_error_rate(10.0, rate_by_mbps(6.0), payload_bytes=0)

    def test_success_rate_complement_uses_fast_path_value(self):
        rate = rate_by_mbps(24.0)
        snr = rate.min_snr_db + 1.0
        assert packet_success_rate(snr, rate) == 1.0 - packet_error_rate(snr, rate)


#: Every payload size the MACs put on the air: data, ACK, RTS and CTS.
MAC_PAYLOADS = sorted({EXPERIMENT_PAYLOAD_BYTES, ACK_BYTES, _RTS_BYTES, _CTS_BYTES})


def _step_ulps(x: float, ulps: int) -> float:
    direction = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, direction)
    return x


class TestSaturationFastPath:
    """Beyond a rate's saturation edges the scalar path returns 0.0 or 1.0
    without the kernel; the kernel must give exactly that value there."""

    @pytest.mark.parametrize("payload", MAC_PAYLOADS)
    @pytest.mark.parametrize("rate", OFDM_RATES, ids=lambda rate: f"{rate.mbps:g}M")
    def test_edges_are_past_their_exactness_bounds(self, rate, payload):
        low, high = _saturation_edges(rate, payload)
        bits_per_symbol = _MODULATION_BITS[rate.modulation]
        assert math.isfinite(high) and low < high
        assert _coded_ber_scalar(high, rate, bits_per_symbol) <= _BER_EXACT_ZERO
        assert _coded_ber_scalar(_step_ulps(high, -1), rate, bits_per_symbol) > _BER_EXACT_ZERO
        assert _packet_error_rate_kernel(high, rate, payload) == 0.0
        bits = 8 * payload
        if math.isfinite(low):
            assert _log_success(_coded_ber_scalar(low, rate, bits_per_symbol),
                                bits) <= _LOG_SUCCESS_EXACT_ONE
            assert _log_success(_coded_ber_scalar(_step_ulps(low, 1), rate, bits_per_symbol),
                                bits) > _LOG_SUCCESS_EXACT_ONE
            assert _packet_error_rate_kernel(low, rate, payload) == 1.0
        else:
            # A short frame at a dense rate stays short of the bound even
            # at the BER of a vanishing SNR: no low edge, no shortcut.
            assert _log_success(_coded_ber_scalar(-1e6, rate, bits_per_symbol),
                                bits) > _LOG_SUCCESS_EXACT_ONE
        if payload == EXPERIMENT_PAYLOAD_BYTES:
            assert math.isfinite(low)

    @settings(max_examples=300, deadline=None)
    @given(
        rate=st.sampled_from(OFDM_RATES),
        payload=st.sampled_from(MAC_PAYLOADS),
        which=st.sampled_from([0, 1]),
        ulps=st.integers(-64, 64),
        offset_db=st.floats(-60.0, 60.0),
    )
    def test_fast_path_equals_the_full_kernel(self, rate, payload, which, ulps, offset_db):
        edge = _saturation_edges(rate, payload)[which]
        if not math.isfinite(edge):
            edge = rate.min_snr_db - 30.0
        for snr in (edge, _step_ulps(edge, ulps), edge + offset_db):
            fast = _packet_error_rate_scalar(snr, rate, payload)
            assert fast == _packet_error_rate_kernel(snr, rate, payload)
            assert fast == float(packet_error_rate(np.asarray([snr]), rate, payload)[0])

    @pytest.mark.parametrize("payload", MAC_PAYLOADS)
    def test_far_outside_and_nan(self, payload):
        for rate in OFDM_RATES:
            assert _packet_error_rate_scalar(math.inf, rate, payload) == 0.0
            assert _packet_error_rate_scalar(1e300, rate, payload) == 0.0
            assert _packet_error_rate_scalar(-math.inf, rate, payload) == \
                _packet_error_rate_kernel(-math.inf, rate, payload)
            assert math.isnan(_packet_error_rate_scalar(math.nan, rate, payload))

    def test_unknown_modulation_still_raises(self):
        with pytest.raises(KeyError, match="modulation"):
            _packet_error_rate_scalar(10.0, RateInfo(1.0, "OOK", 1.0, 0, 0.0), 1400)


class TestQuadratureCache:
    @settings(max_examples=150, deadline=None)
    @given(
        mean=st.floats(-20.0, 50.0),
        sigma=st.floats(0.01, 15.0),
        rate=st.sampled_from(OFDM_RATES),
        payload=st.sampled_from(MAC_PAYLOADS),
        n_points=st.sampled_from([2, 5, 16, 33, 64]),
    )
    def test_equals_the_uncached_formula(self, mean, sigma, rate, payload, n_points):
        nodes, weights = np.polynomial.hermite_e.hermegauss(n_points)
        success = np.asarray(packet_success_rate(mean + sigma * nodes, rate, payload))
        expected = float(np.sum(weights * success) / np.sum(weights))
        got = average_packet_success_rate(mean, rate, payload, sigma_db=sigma,
                                          n_points=n_points)
        assert got == expected

    def test_one_read_only_pair_per_size(self):
        nodes, weights = _hermegauss(33)
        assert _hermegauss(33)[0] is nodes and _hermegauss(33)[1] is weights
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0
