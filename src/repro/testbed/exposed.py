"""Section 5 exposed-terminal study.

Section 5 argues that exploiting exposed terminals is much less valuable than
bitrate adaptation: on the short-range test set,

* using even the weak 6-24 Mbps adaptation "more than doubles average
  throughput compared to the base rate";
* "perfectly exploiting the exposed terminals provides just shy of 10 %
  increased throughput" (over carrier sense at the base rate);
* combining both yields "only about 3 % more than bitrate adaptation alone".

This module computes exactly those three comparisons from the per-rate detail
the Section 4 campaign already gathered (the
:class:`~repro.testbed.experiment.RateRunDetail` counts of each
:class:`~repro.testbed.experiment.PairExperimentResult`):

* *base rate, CS*           -- carrier-sense throughput at 6 Mbps;
* *base rate, exposed*      -- per combination, the better of carrier sense
  and pure concurrency at 6 Mbps (a perfect exposed-terminal scheduler can
  always fall back to carrier sense, so the max is the right model);
* *adapted, CS*             -- carrier sense at per-transmitter best rates;
* *adapted, exposed*        -- the better of carrier sense and concurrency at
  per-transmitter best rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .experiment import PairExperimentResult

__all__ = ["ExposedTerminalStudy", "exposed_terminal_study"]


@dataclass(frozen=True)
class ExposedTerminalStudy:
    """Average throughputs (pkt/s) of the four Section 5 configurations."""

    base_rate_mbps: float
    base_rate_cs_pps: float
    base_rate_exposed_pps: float
    adapted_cs_pps: float
    adapted_exposed_pps: float
    n_combinations: int

    @property
    def adaptation_gain(self) -> float:
        """Throughput ratio of bitrate adaptation over the base rate (CS both)."""
        return self.adapted_cs_pps / self.base_rate_cs_pps

    @property
    def exposed_gain_at_base_rate(self) -> float:
        """Gain from perfect exposed-terminal exploitation at the base rate."""
        return self.base_rate_exposed_pps / self.base_rate_cs_pps

    @property
    def exposed_gain_with_adaptation(self) -> float:
        """Residual gain from exposed terminals on top of bitrate adaptation."""
        return self.adapted_exposed_pps / self.adapted_cs_pps

    def format_report(self) -> str:
        return "\n".join(
            [
                f"Base rate ({self.base_rate_mbps:g} Mbps), carrier sense: "
                f"{self.base_rate_cs_pps:.0f} pkt/s",
                f"Base rate, exposed terminals exploited: "
                f"{self.base_rate_exposed_pps:.0f} pkt/s "
                f"({100 * (self.exposed_gain_at_base_rate - 1):+.1f}%)",
                f"Bitrate adaptation, carrier sense: {self.adapted_cs_pps:.0f} pkt/s "
                f"({self.adaptation_gain:.2f}x base rate)",
                f"Bitrate adaptation + exposed terminals: {self.adapted_exposed_pps:.0f} pkt/s "
                f"({100 * (self.exposed_gain_with_adaptation - 1):+.1f}% over adaptation)",
            ]
        )


def _base_rate_detail(result: PairExperimentResult, base_rate_mbps: float):
    for detail in result.per_rate:
        if detail.rate_mbps == base_rate_mbps:
            return detail
    raise ValueError(
        f"combination has no measurements at the base rate {base_rate_mbps:g} Mbps"
    )


def exposed_terminal_study(
    results: Sequence[PairExperimentResult], base_rate_mbps: float = 6.0
) -> ExposedTerminalStudy:
    """Compute the Section 5 comparison from completed pair experiments."""
    if not results:
        raise ValueError("need at least one pair experiment result")

    base_cs, base_exposed, adapted_cs, adapted_exposed = [], [], [], []
    for result in results:
        duration = result.duration_s
        detail = _base_rate_detail(result, base_rate_mbps)
        cs_base = (detail.carrier_sense_a_packets + detail.carrier_sense_b_packets) / duration
        conc_base = (detail.concurrency_a_packets + detail.concurrency_b_packets) / duration
        base_cs.append(cs_base)
        base_exposed.append(max(cs_base, conc_base))

        cs_adapted = result.carrier_sense.combined_pps
        conc_adapted = result.concurrency.combined_pps
        adapted_cs.append(cs_adapted)
        adapted_exposed.append(max(cs_adapted, conc_adapted))

    return ExposedTerminalStudy(
        base_rate_mbps=base_rate_mbps,
        base_rate_cs_pps=float(np.mean(base_cs)),
        base_rate_exposed_pps=float(np.mean(base_exposed)),
        adapted_cs_pps=float(np.mean(adapted_cs)),
        adapted_exposed_pps=float(np.mean(adapted_exposed)),
        n_combinations=len(results),
    )
