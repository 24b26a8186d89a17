"""The Section 4 measurement protocol on the synthetic testbed.

For each combination of two competing sender-receiver pairs the paper
measures, at each fixed bitrate in {6, 9, 12, 18, 24} Mbps:

* **multiplexing** -- each sender runs *alone* for the measurement window
  (taking turns), so the combined rate is half the sum of the solo rates;
* **concurrency** -- both senders run simultaneously with carrier sense
  disabled;
* **carrier sense** -- both senders run simultaneously with the default
  hardware carrier sense enabled;

and then "independently identif[ies] the maximum throughput bitrate for each
transmitter".  The per-strategy combined throughput with those best rates is
what Figures 10-13 plot, and "optimal" is the per-combination maximum over
the three strategies (the summary tables of Sections 4.1 and 4.2).

:class:`TestbedExperiment` reproduces that protocol run-for-run on the packet
simulator, one pair combination at a time.  Campaigns over many combinations
run through :mod:`repro.experiments.testbed_section4`, which fans one task per
combination out through the batch runner and its result cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..capacity.rates import rate_by_mbps
from ..constants import (
    EXPERIMENT_PAYLOAD_BYTES,
    EXPERIMENT_RATES_MBPS,
    EXPERIMENT_RUN_SECONDS,
)
from ..simulation.network import WirelessNetwork
from ..simulation.traffic import SaturatedTraffic
from .layout import TestbedLayout
from .pairs import CompetingPairs

__all__ = [
    "RateRunDetail",
    "StrategyThroughput",
    "PairExperimentResult",
    "CampaignSummary",
    "TestbedExperiment",
]


@dataclass(frozen=True)
class RateRunDetail:
    """Delivered packet counts at one fixed bitrate for one pair combination."""

    rate_mbps: float
    solo_a_packets: int
    solo_b_packets: int
    concurrency_a_packets: int
    concurrency_b_packets: int
    carrier_sense_a_packets: int
    carrier_sense_b_packets: int


@dataclass(frozen=True)
class StrategyThroughput:
    """Best-rate combined throughput for one strategy."""

    strategy: str
    combined_pps: float
    rate_a_mbps: float
    rate_b_mbps: float
    pair_a_pps: float
    pair_b_pps: float


@dataclass(frozen=True)
class PairExperimentResult:
    """Full Section 4 measurement for one competing pair combination."""

    pairs: CompetingPairs
    duration_s: float
    multiplexing: StrategyThroughput
    concurrency: StrategyThroughput
    carrier_sense: StrategyThroughput
    per_rate: Tuple[RateRunDetail, ...]

    @property
    def sender_sender_rssi_dbm(self) -> float:
        return self.pairs.sender_sender_rssi_dbm

    @property
    def optimal_pps(self) -> float:
        """Best combined throughput over the three strategies."""
        return max(
            self.multiplexing.combined_pps,
            self.concurrency.combined_pps,
            self.carrier_sense.combined_pps,
        )

    @property
    def cs_fraction_of_optimal(self) -> float:
        if self.optimal_pps == 0:
            return 1.0
        return self.carrier_sense.combined_pps / self.optimal_pps


@dataclass(frozen=True)
class CampaignSummary:
    """Averages over all pair combinations (the Section 4.1 / 4.2 tables)."""

    results: Tuple[PairExperimentResult, ...]

    def _mean(self, values: Sequence[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    @property
    def optimal_pps(self) -> float:
        return self._mean([r.optimal_pps for r in self.results])

    @property
    def carrier_sense_pps(self) -> float:
        return self._mean([r.carrier_sense.combined_pps for r in self.results])

    @property
    def multiplexing_pps(self) -> float:
        return self._mean([r.multiplexing.combined_pps for r in self.results])

    @property
    def concurrency_pps(self) -> float:
        return self._mean([r.concurrency.combined_pps for r in self.results])

    def fraction_of_optimal(self, strategy: str) -> float:
        """Average strategy throughput as a fraction of average optimal."""
        by_name = {
            "carrier_sense": self.carrier_sense_pps,
            "multiplexing": self.multiplexing_pps,
            "concurrency": self.concurrency_pps,
        }
        if strategy not in by_name:
            raise KeyError(f"unknown strategy {strategy!r}")
        if self.optimal_pps == 0:
            return 1.0
        return by_name[strategy] / self.optimal_pps

    def format_table(self) -> str:
        """Render the summary in the paper's table layout."""
        lines = [
            f"Optimal (max over strategies): {self.optimal_pps:.0f} packets / sec",
            f"Carrier Sense: {self.carrier_sense_pps:.0f} pkt/s "
            f"({100 * self.fraction_of_optimal('carrier_sense'):.0f}% opt)",
            f"Multiplexing: {self.multiplexing_pps:.0f} pkt/s "
            f"({100 * self.fraction_of_optimal('multiplexing'):.0f}% opt)",
            f"Concurrency: {self.concurrency_pps:.0f} pkt/s "
            f"({100 * self.fraction_of_optimal('concurrency'):.0f}% opt)",
        ]
        return "\n".join(lines)


class TestbedExperiment:
    """Runs the Section 4 protocol for competing pair combinations."""

    # Not a pytest test class, despite the name.
    __test__ = False

    #: Saturated-source payload and the carrier-sense threshold of the
    #: "carrier sense" strategy (the hardware default).
    payload_bytes = EXPERIMENT_PAYLOAD_BYTES
    cca_threshold_dbm = -82.0

    def __init__(
        self,
        layout: TestbedLayout,
        rates_mbps: Sequence[float] = EXPERIMENT_RATES_MBPS,
        run_duration_s: float = EXPERIMENT_RUN_SECONDS,
        seed: int = 0,
    ) -> None:
        if not (math.isfinite(run_duration_s) and run_duration_s > 0):
            raise ValueError(f"run_duration_s must be finite and positive, got {run_duration_s}")
        if not rates_mbps:
            raise ValueError("rates_mbps must name at least one bitrate")
        for rate in rates_mbps:
            try:
                rate_by_mbps(float(rate))
            except KeyError:
                raise ValueError(f"rates_mbps: {rate} Mbps is not an 802.11a rate") from None
        self.layout = layout
        self.rates_mbps = tuple(float(r) for r in rates_mbps)
        self.run_duration_s = run_duration_s
        self.seed = seed

    # -- individual runs -----------------------------------------------------------

    def _build_network(
        self,
        senders: Sequence[Tuple[str, str]],
        rate_mbps: float,
        cca_threshold_dbm: Optional[float],
        extra_receivers: Sequence[str] = (),
    ) -> WirelessNetwork:
        net = WirelessNetwork(
            channel=self.layout.channel, seed=self.seed, cca_threshold_dbm=cca_threshold_dbm
        )
        added = set()
        for sender, receiver in senders:
            net.add_node(
                sender,
                self.layout.node(sender).position,
                traffic=SaturatedTraffic(destination="*", payload_bytes=self.payload_bytes),
                rate_mbps=rate_mbps,
            )
            added.add(sender)
            if receiver not in added:
                net.add_node(receiver, self.layout.node(receiver).position)
                added.add(receiver)
        for receiver in extra_receivers:
            if receiver not in added:
                net.add_node(receiver, self.layout.node(receiver).position)
                added.add(receiver)
        return net

    def _solo_packets(self, sender: str, receiver: str, rate_mbps: float) -> int:
        """Delivered packets when the pair runs alone."""
        net = self._build_network([(sender, receiver)], rate_mbps, self.cca_threshold_dbm)
        return net.run(self.run_duration_s).packets_delivered(sender, receiver)

    def _competing_packets(
        self, pairs: CompetingPairs, rate_mbps: float, cca_threshold_dbm: Optional[float]
    ) -> Tuple[int, int]:
        """Delivered packets for both pairs running simultaneously."""
        sa, ra = pairs.pair_a.sender, pairs.pair_a.receiver
        sb, rb = pairs.pair_b.sender, pairs.pair_b.receiver
        net = self._build_network([(sa, ra), (sb, rb)], rate_mbps, cca_threshold_dbm)
        result = net.run(self.run_duration_s)
        return (result.packets_delivered(sa, ra), result.packets_delivered(sb, rb))

    def measure_rates(self, pairs: CompetingPairs) -> List[RateRunDetail]:
        """Run every strategy at every fixed bitrate for one pair combination."""
        details: List[RateRunDetail] = []
        for rate in self.rates_mbps:
            solo_a = self._solo_packets(pairs.pair_a.sender, pairs.pair_a.receiver, rate)
            solo_b = self._solo_packets(pairs.pair_b.sender, pairs.pair_b.receiver, rate)
            conc_a, conc_b = self._competing_packets(pairs, rate, cca_threshold_dbm=None)
            cs_a, cs_b = self._competing_packets(pairs, rate, self.cca_threshold_dbm)
            details.append(
                RateRunDetail(
                    rate_mbps=rate,
                    solo_a_packets=solo_a,
                    solo_b_packets=solo_b,
                    concurrency_a_packets=conc_a,
                    concurrency_b_packets=conc_b,
                    carrier_sense_a_packets=cs_a,
                    carrier_sense_b_packets=cs_b,
                )
            )
        return details

    # -- per-combination aggregation --------------------------------------------------

    def _best_rate_strategy(
        self,
        strategy: str,
        details: Sequence[RateRunDetail],
        a_counts: Dict[float, int],
        b_counts: Dict[float, int],
        time_share: float,
    ) -> StrategyThroughput:
        best_rate_a = max(a_counts, key=lambda rate: a_counts[rate])
        best_rate_b = max(b_counts, key=lambda rate: b_counts[rate])
        pair_a_pps = time_share * a_counts[best_rate_a] / self.run_duration_s
        pair_b_pps = time_share * b_counts[best_rate_b] / self.run_duration_s
        return StrategyThroughput(
            strategy=strategy,
            combined_pps=pair_a_pps + pair_b_pps,
            rate_a_mbps=best_rate_a,
            rate_b_mbps=best_rate_b,
            pair_a_pps=pair_a_pps,
            pair_b_pps=pair_b_pps,
        )

    def summarise(self, pairs: CompetingPairs, details: Sequence[RateRunDetail]) -> PairExperimentResult:
        """Pick per-transmitter best rates and assemble the strategy results."""
        mux = self._best_rate_strategy(
            "multiplexing",
            details,
            {d.rate_mbps: d.solo_a_packets for d in details},
            {d.rate_mbps: d.solo_b_packets for d in details},
            time_share=0.5,
        )
        conc = self._best_rate_strategy(
            "concurrency",
            details,
            {d.rate_mbps: d.concurrency_a_packets for d in details},
            {d.rate_mbps: d.concurrency_b_packets for d in details},
            time_share=1.0,
        )
        cs = self._best_rate_strategy(
            "carrier_sense",
            details,
            {d.rate_mbps: d.carrier_sense_a_packets for d in details},
            {d.rate_mbps: d.carrier_sense_b_packets for d in details},
            time_share=1.0,
        )
        return PairExperimentResult(
            pairs=pairs,
            duration_s=self.run_duration_s,
            multiplexing=mux,
            concurrency=conc,
            carrier_sense=cs,
            per_rate=tuple(details),
        )

    def run_pair(self, pairs: CompetingPairs) -> PairExperimentResult:
        """Full protocol for one competing pair combination."""
        return self.summarise(pairs, self.measure_rates(pairs))
