"""Result records and best-rate summary of the Section 4 protocol.

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

This module holds the per-rate packet counts (:class:`RateRunDetail`) and
turns them into those strategy results (:func:`summarise`).  The runs
themselves are scenarios on the ``testbed`` topology
(:class:`repro.scenarios.Scenario`), built and run by
:mod:`repro.experiments.testbed_section4`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .pairs import CompetingPairs

__all__ = [
    "RateRunDetail",
    "StrategyThroughput",
    "PairExperimentResult",
    "CampaignSummary",
    "summarise",
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


def _best_rate_strategy(
    strategy: str,
    details: Sequence[RateRunDetail],
    fields: Tuple[str, str],
    time_share: float,
    duration_s: float,
) -> StrategyThroughput:
    """The strategy's throughput with each pair at its own best rate;
    ``fields`` name pair A's and pair B's counts in ``details``."""
    best = []
    for name in fields:
        counts = {d.rate_mbps: getattr(d, name) for d in details}
        rate = max(counts, key=counts.__getitem__)
        best.append((rate, time_share * counts[rate] / duration_s))
    (rate_a, pair_a_pps), (rate_b, pair_b_pps) = best
    return StrategyThroughput(
        strategy=strategy,
        combined_pps=pair_a_pps + pair_b_pps,
        rate_a_mbps=rate_a,
        rate_b_mbps=rate_b,
        pair_a_pps=pair_a_pps,
        pair_b_pps=pair_b_pps,
    )


def summarise(
    pairs: CompetingPairs, details: Sequence[RateRunDetail], duration_s: float
) -> PairExperimentResult:
    """Pick per-transmitter best rates and assemble the strategy results.

    ``details`` are one combination's packet counts, one per fixed bitrate,
    each run lasting ``duration_s``.  Multiplexing gives each pair half the
    window.
    """
    return PairExperimentResult(
        pairs=pairs,
        duration_s=duration_s,
        multiplexing=_best_rate_strategy(
            "multiplexing", details, ("solo_a_packets", "solo_b_packets"), 0.5, duration_s
        ),
        concurrency=_best_rate_strategy(
            "concurrency", details, ("concurrency_a_packets", "concurrency_b_packets"),
            1.0, duration_s,
        ),
        carrier_sense=_best_rate_strategy(
            "carrier_sense", details, ("carrier_sense_a_packets", "carrier_sense_b_packets"),
            1.0, duration_s,
        ),
        per_rate=tuple(details),
    )
