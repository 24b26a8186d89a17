"""Tests for the Section 4 experiment protocol and Section 5 study (reduced scale)."""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.experiments.testbed_section4 import measure_combinations
from repro.testbed.exposed import exposed_terminal_study
from repro.testbed.experiment import CampaignSummary
from repro.testbed.layout import generate_office_layout
from repro.testbed.pairs import select_competing_pairs

#: The close-pair run below -- seed 1, 6 and 24 Mbps, 0.6 s -- as recorded
#: by the testbed's former dedicated network builder, before the protocol
#: ran as scenarios: the stations (sa, ra, sb, rb), then each rate's
#: (rate, solo_a, solo_b, concurrency_a, concurrency_b, cs_a, cs_b) counts.
RECORDED_CLOSE_PAIR = (
    ("n20", "n37", "n13", "n18"),
    ((6.0, 293, 293, 150, 0, 140, 158), (24.0, 839, 966, 2, 0, 414, 538)),
)

#: Short runs and a reduced rate set keep the test quick while still
#: exercising the full protocol (solo / concurrency / carrier-sense runs,
#: per-transmitter best-rate selection).
PROTOCOL = dict(rates_mbps=(6.0, 24.0), run_duration_s=0.6, seed=1)


@pytest.fixture(scope="module")
def layout():
    return generate_office_layout(seed=7)


@pytest.fixture(scope="module")
def close_pair_result(layout):
    combos = select_competing_pairs(layout, "short", n_combinations=8, seed=3)
    closest = max(combos, key=lambda c: c.sender_sender_rssi_dbm)
    results, _ = measure_combinations([closest], **PROTOCOL)
    return closest, results[0]


class TestProtocol:
    def test_reproduces_the_recorded_counts(self, close_pair_result):
        combo, result = close_pair_result
        stations = (combo.pair_a.sender, combo.pair_a.receiver,
                    combo.pair_b.sender, combo.pair_b.receiver)
        assert (stations, tuple(astuple(d) for d in result.per_rate)) == RECORDED_CLOSE_PAIR

    def test_per_rate_details_cover_requested_rates(self, close_pair_result):
        _, result = close_pair_result
        assert [d.rate_mbps for d in result.per_rate] == [6.0, 24.0]

    def test_best_rates_come_from_the_rate_set(self, close_pair_result):
        _, result = close_pair_result
        for strategy in (result.multiplexing, result.concurrency, result.carrier_sense):
            assert strategy.rate_a_mbps in (6.0, 24.0)
            assert strategy.rate_b_mbps in (6.0, 24.0)

    def test_multiplexing_uses_half_the_solo_rate(self, close_pair_result):
        _, result = close_pair_result
        best_detail = {d.rate_mbps: d for d in result.per_rate}[result.multiplexing.rate_a_mbps]
        expected_a = 0.5 * best_detail.solo_a_packets / result.duration_s
        assert result.multiplexing.pair_a_pps == pytest.approx(expected_a)

    def test_close_senders_make_carrier_sense_beat_concurrency(self, close_pair_result):
        combo, result = close_pair_result
        assert combo.sender_sender_rssi_dbm > -70.0
        assert result.carrier_sense.combined_pps > result.concurrency.combined_pps

    def test_cs_fraction_bounded(self, close_pair_result):
        _, result = close_pair_result
        assert 0.0 <= result.cs_fraction_of_optimal <= 1.0 + 1e-9

    def test_optimal_is_max_over_strategies(self, close_pair_result):
        _, result = close_pair_result
        assert result.optimal_pps == pytest.approx(
            max(
                result.multiplexing.combined_pps,
                result.concurrency.combined_pps,
                result.carrier_sense.combined_pps,
            )
        )

    def test_invalid_protocol_rejected(self):
        with pytest.raises(ValueError):
            measure_combinations([], rates_mbps=(6.0,), run_duration_s=0.0, seed=1)
        with pytest.raises(ValueError):
            measure_combinations([], rates_mbps=(), run_duration_s=0.6, seed=1)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="run_duration_s"):
            measure_combinations([], rates_mbps=(6.0,), run_duration_s=duration, seed=1)

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValueError, match="rates_mbps: 7.0 Mbps"):
            measure_combinations([], rates_mbps=(6.0, 7.0), run_duration_s=0.6, seed=1)


class TestCampaignAndExposedStudy:
    @pytest.fixture(scope="class")
    def campaign(self, layout):
        combos = select_competing_pairs(layout, "short", n_combinations=3, seed=4)
        return CampaignSummary(results=measure_combinations(combos, **PROTOCOL)[0])

    def test_summary_averages_are_consistent(self, campaign):
        cs_mean = np.mean([r.carrier_sense.combined_pps for r in campaign.results])
        assert campaign.carrier_sense_pps == pytest.approx(cs_mean)
        assert campaign.fraction_of_optimal("carrier_sense") == pytest.approx(
            campaign.carrier_sense_pps / campaign.optimal_pps
        )

    def test_format_table_mentions_all_strategies(self, campaign):
        text = campaign.format_table()
        for word in ("Optimal", "Carrier Sense", "Multiplexing", "Concurrency"):
            assert word in text

    def test_unknown_strategy_rejected(self, campaign):
        with pytest.raises(KeyError):
            campaign.fraction_of_optimal("aloha")

    def test_exposed_study_gains_are_sane(self, campaign):
        study = exposed_terminal_study(campaign.results)
        # Adaptation should be worth a lot; exposed-terminal exploitation can
        # never lose throughput (it is a max over strategies).
        assert study.adaptation_gain > 1.5
        assert study.exposed_gain_at_base_rate >= 1.0
        assert study.exposed_gain_with_adaptation >= 1.0
        assert "Bitrate adaptation" in study.format_report()

    def test_exposed_study_requires_base_rate(self, layout):
        combos = select_competing_pairs(layout, "short", n_combinations=1, seed=4)
        results, _ = measure_combinations(combos, rates_mbps=(12.0,), run_duration_s=0.3, seed=1)
        with pytest.raises(ValueError):
            exposed_terminal_study(results, base_rate_mbps=6.0)

    def test_exposed_study_requires_results(self):
        with pytest.raises(ValueError):
            exposed_terminal_study([])
