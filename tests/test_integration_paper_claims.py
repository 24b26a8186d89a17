"""Integration tests: the paper's headline claims, end to end.

These tie together the analytical model, the packet simulator, and the
synthetic testbed at reduced scale and assert the claims the reproduction is
supposed to preserve (orderings and rough magnitudes, not exact numbers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import DEFAULT_NOISE_RATIO
from repro.core.averaging import average_policies, throughput_curves
from repro.core.geometry import Scenario
from repro.core.thresholds import optimal_threshold
from repro.experiments.testbed_section4 import measure_combinations
from repro.testbed.experiment import CampaignSummary
from repro.testbed.layout import generate_office_layout
from repro.testbed.pairs import select_competing_pairs

NOISE = DEFAULT_NOISE_RATIO


class TestAnalyticalHeadlineClaims:
    def test_carrier_sense_within_15_percent_of_optimal_everywhere(self):
        """Section 1: 'average throughput is typically less than 15% below optimal'."""
        worst = 1.0
        for rmax in (20.0, 40.0, 120.0):
            for d in (20.0, 55.0, 120.0):
                scenario = Scenario(rmax=rmax, d=d, alpha=3.0, sigma_db=8.0)
                averages = average_policies(scenario, d_threshold=55.0, n_samples=12_000, seed=0)
                worst = min(worst, averages.cs_efficiency)
        assert worst >= 0.80
        assert worst <= 0.95  # the transition region really is below optimal

    def test_single_fixed_threshold_works_across_regimes(self):
        """Section 3.3.3-3.3.4: one factory threshold is close to per-Rmax optimal."""
        for rmax in (20.0, 40.0, 120.0):
            tuned = optimal_threshold(rmax, 3.0, NOISE, sigma_db=0.0)
            for d in (20.0, 55.0, 120.0):
                scenario = Scenario(rmax=rmax, d=d, alpha=3.0, sigma_db=8.0)
                fixed = average_policies(scenario, 55.0, n_samples=10_000, seed=1)
                best = average_policies(scenario, tuned, n_samples=10_000, seed=1)
                assert fixed.carrier_sense >= 0.93 * best.carrier_sense

    def test_carrier_sense_beats_both_static_policies_on_average(self):
        """CS tracks whichever static policy wins at every D, so its average
        over a D sweep beats both pure policies."""
        d_values = np.linspace(10.0, 200.0, 16)
        curves = throughput_curves(40.0, d_values, 55.0, 3.0, NOISE, sigma_db=8.0, n_samples=8000)
        assert np.mean(curves["carrier_sense"]) > np.mean(curves["multiplexing"])
        assert np.mean(curves["carrier_sense"]) > np.mean(curves["concurrent"])

    def test_robustness_to_propagation_parameters(self):
        """Section 3.2.5: varying alpha in 2..4 and sigma in 4..12 changes little."""
        efficiencies = []
        for alpha in (2.0, 3.0, 4.0):
            for sigma in (4.0, 12.0):
                scenario = Scenario(rmax=40.0, d=55.0, alpha=alpha, sigma_db=sigma)
                averages = average_policies(scenario, 55.0, n_samples=10_000, seed=2)
                efficiencies.append(averages.cs_efficiency)
        assert min(efficiencies) > 0.70
        assert max(efficiencies) - min(efficiencies) < 0.25


class TestSimulatorAgreesWithModel:
    def test_three_regimes_versus_sender_separation(self):
        """The packet simulator shows the same three regimes as the model:
        multiplexing wins for close senders, concurrency for far senders, and
        carrier sense tracks the better of the two in both limits."""
        from repro.propagation.channel import ChannelModel
        from repro.propagation.pathloss import LogDistancePathLoss
        from repro.simulation.network import WirelessNetwork
        from repro.simulation.traffic import SaturatedTraffic

        def run(gap_m, cca):
            channel = ChannelModel(
                path_loss=LogDistancePathLoss(
                    alpha=3.6, frequency_hz=5.24e9, reference_distance_m=20.0,
                    reference_loss_db=77.0,
                ),
                sigma_db=0.0,
                rng=np.random.default_rng(0),
            )
            net = WirelessNetwork(channel=channel, seed=3, cca_threshold_dbm=cca)
            # Receivers face each other (each sits between the senders), the
            # geometry where close-range concurrency is clearly harmful.
            net.add_node("S1", (0, 0), traffic=SaturatedTraffic("*"), rate_mbps=12.0)
            net.add_node("R1", (8, 0))
            net.add_node("S2", (gap_m, 0), traffic=SaturatedTraffic("*"), rate_mbps=12.0)
            net.add_node("R2", (gap_m - 8, 0))
            result = net.run(1.0)
            return result.total_packets_per_second([("S1", "R1"), ("S2", "R2")])

        close_cs, close_conc = run(20.0, -82.0), run(20.0, None)
        far_cs, far_conc = run(700.0, -82.0), run(700.0, None)
        # Close senders: carrier sense (which defers) clearly beats concurrency.
        assert close_cs > 1.3 * close_conc
        # Far senders: carrier sense achieves the concurrency (spatial reuse) rate.
        assert far_cs == pytest.approx(far_conc, rel=0.15)
        assert far_cs > 1.5 * close_cs


@pytest.mark.slow
class TestTestbedCampaignSmall:
    def test_short_range_carrier_sense_close_to_optimal(self):
        layout = generate_office_layout(seed=7)
        combos = select_competing_pairs(layout, "short", n_combinations=4, seed=3)
        results, _ = measure_combinations(
            combos, rates_mbps=(6.0, 12.0, 24.0), run_duration_s=1.0, seed=1
        )
        summary = CampaignSummary(results=results)
        assert summary.fraction_of_optimal("carrier_sense") > 0.8
        # Carrier sense tracks the better static policy to within a few percent
        # even on this tiny (4-combination) sample.
        best_static = max(summary.concurrency_pps, summary.multiplexing_pps)
        assert summary.carrier_sense_pps > 0.9 * best_static
