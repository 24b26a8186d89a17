"""Figures 10-13 and the Section 4.1 / 4.2 summary tables: testbed experiments.

Runs the Section 4 measurement protocol on the synthetic testbed for the
short-range link class (Figures 10-11) and the long-range class
(Figures 12-13), producing:

* the per-combination competitive comparison (multiplexing / concurrency /
  carrier sense combined throughput, the scatter of Figures 10 and 12);
* the same data against sender-sender RSSI (Figures 11 and 13), from which
  the three regimes -- close (multiplexing wins), transition, and far
  (concurrency wins, multiplexing lags) -- are identified;
* the summary tables.  Paper values -- short range: optimal 1753 pkt/s, CS
  97 %, multiplexing 58 %, concurrency 89 %; long range: optimal 1029 pkt/s,
  CS 90 %, multiplexing 73 %, concurrency 69 %.

Absolute packet rates depend on the substrate (our simulator vs their
hardware/driver); the claims to reproduce are the orderings and rough
fractions of optimal.

``figures-10-11``, ``figures-12-13`` and ``section-5`` share one campaign
path, :func:`campaign_results`.  Every run of the protocol is a
:class:`repro.scenarios.Scenario` on the ``testbed`` topology (four per pair
combination and bitrate, see :func:`cell_scenarios`), and the whole campaign
runs as one :class:`repro.api.Study`, pooled and cached when ``workers`` /
``cache_dir`` are set.  Equal parameters give equal cache keys whichever
experiment asked.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import Study
from ..api.experiment import experiment
from ..capacity.rates import rate_by_mbps
from ..scenarios import Scenario
from ..testbed.experiment import (
    CampaignSummary, PairExperimentResult, RateRunDetail, summarise,
)
from ..testbed.layout import default_office_layout
from ..testbed.pairs import CompetingPairs, select_competing_pairs
from .base import ExperimentResult

__all__ = [
    "run",
    "cell_scenarios",
    "measure_combinations",
    "campaign_results",
    "PAPER_SHORT_RANGE",
    "PAPER_LONG_RANGE",
    "EXPERIMENT_SHORT",
    "EXPERIMENT_LONG",
]

EXPERIMENT_ID = "figures-10-13"

PAPER_SHORT_RANGE = {
    "optimal_pps": 1753,
    "carrier_sense_fraction": 0.97,
    "multiplexing_fraction": 0.58,
    "concurrency_fraction": 0.89,
}

PAPER_LONG_RANGE = {
    "optimal_pps": 1029,
    "carrier_sense_fraction": 0.90,
    "multiplexing_fraction": 0.73,
    "concurrency_fraction": 0.69,
}


def _scatter(summary: CampaignSummary) -> List[Dict[str, float]]:
    """Per-combination rows in the format of the Figure 11/13 scatter plots."""
    rows = []
    for result in summary.results:
        rows.append(
            {
                "sender_sender_rssi_dbm": result.sender_sender_rssi_dbm,
                "multiplexing_pps": result.multiplexing.combined_pps,
                "concurrency_pps": result.concurrency.combined_pps,
                "carrier_sense_pps": result.carrier_sense.combined_pps,
                "cs_fraction_of_optimal": result.cs_fraction_of_optimal,
            }
        )
    return rows


@lru_cache(maxsize=4)
def _default_selection(
    link_class: str, n_combinations: int, seed: int
) -> Tuple[CompetingPairs, ...]:
    """The default layout's pair combinations, memoised per process."""
    # Long-range links are weak because of obstructions (floors, walls), not
    # because sender and receiver span the whole building; keep the physically
    # nearer half of the in-band links for that class (see select_links).
    prefer_nearby = 0.5 if link_class == "long" else None
    return tuple(select_competing_pairs(
        default_office_layout(),
        link_class,
        n_combinations=n_combinations,
        seed=seed,
        prefer_nearby_fraction=prefer_nearby,
    ))


def cell_scenarios(
    pairs: CompetingPairs, rate_mbps: float, run_duration_s: float, seed: int
) -> Tuple[Scenario, ...]:
    """The four runs of one combination at one fixed bitrate (a *cell*).

    Pair A alone, pair B alone, both with carrier sense off, and both with
    the default hardware carrier sense (-82 dBm): the order of
    :class:`RateRunDetail`'s counts, one flow per solo run and two per
    competing run.
    """
    a = [pairs.pair_a.sender, pairs.pair_a.receiver]
    b = [pairs.pair_b.sender, pairs.pair_b.receiver]
    solo = Scenario(
        name="solo", topology="testbed", n_nodes=2, topology_params={"nodes": a},
        seed=seed, rate_mbps=rate_mbps, duration_s=run_duration_s,
    )
    both = solo.with_overrides(n_nodes=4, topology_params={"nodes": a + b})
    return (
        solo,
        solo.with_overrides(topology_params={"nodes": b}),
        both.with_overrides(name="concurrency", cca_threshold_dbm=None),
        both.with_overrides(name="carrier-sense"),
    )


def _check_protocol(rates_mbps: Sequence[float], run_duration_s: float) -> None:
    if not (math.isfinite(run_duration_s) and run_duration_s > 0):
        raise ValueError(f"run_duration_s must be finite and positive, got {run_duration_s}")
    if not rates_mbps:
        raise ValueError("rates_mbps must name at least one bitrate")
    for rate in rates_mbps:
        try:
            rate_by_mbps(float(rate))
        except KeyError:
            raise ValueError(f"rates_mbps: {rate} Mbps is not an 802.11a rate") from None


def measure_combinations(
    combos: Sequence[CompetingPairs],
    rates_mbps: Sequence[float],
    run_duration_s: float,
    seed: int,
    workers: int = 0,
    cache_dir: Optional[str] = None,
) -> Tuple[Tuple[PairExperimentResult, ...], str]:
    """Run the Section 4 protocol on each combination at every bitrate.

    Every cell's four scenarios run as one study; returns the
    per-combination results and the runner's summary line.  Bad rates or
    durations raise ``ValueError`` naming the field before any run.
    """
    _check_protocol(rates_mbps, run_duration_s)
    rates = [float(rate) for rate in rates_mbps]
    scenarios = [
        scenario
        for pairs in combos
        for rate in rates
        for scenario in cell_scenarios(pairs, rate, run_duration_s, seed)
    ]
    study_run = Study.of(scenarios).cache(cache_dir or None).run(workers=workers)
    # Six delivered-packet counts per cell, in RateRunDetail's field order.
    counts = study_run.results().delivered_packets.reshape(len(combos), len(rates), 6)
    results = tuple(
        summarise(
            pairs,
            [RateRunDetail(rate, *cell) for rate, cell in zip(rates, rows.tolist())],
            run_duration_s,
        )
        for pairs, rows in zip(combos, counts)
    )
    return results, study_run.report.summary()


def campaign_results(
    link_class: str,
    n_combinations: int,
    run_duration_s: float,
    rates_mbps: Sequence[float],
    seed: int,
    workers: int,
    cache_dir: Optional[str],
) -> Tuple[Tuple[PairExperimentResult, ...], str]:
    """Run the default campaign through the batch runner and reassemble.

    Returns the per-combination results and the runner's summary line.  Bad
    input raises ``ValueError`` naming the field before any task runs.
    """
    if link_class not in ("short", "long"):
        raise ValueError(f"link_class must be 'short' or 'long', got {link_class!r}")
    if n_combinations < 1:
        raise ValueError(f"n_combinations must be at least 1, got {n_combinations}")
    combos = _default_selection(link_class, n_combinations, seed)
    return measure_combinations(
        combos, rates_mbps, run_duration_s, seed, workers=workers, cache_dir=cache_dir
    )


def run(
    link_class: str = "short",
    n_combinations: int = 10,
    run_duration_s: float = 5.0,
    rates_mbps: Sequence[float] = (6.0, 9.0, 12.0, 18.0, 24.0),
    seed: int = 3,
    workers: int = 0,
    cache_dir: Optional[str] = None,
) -> ExperimentResult:
    """Run the Section 4 campaign for one link class on the synthetic testbed."""
    results, runner_note = campaign_results(
        link_class, n_combinations, run_duration_s, rates_mbps, seed, workers, cache_dir
    )
    summary = CampaignSummary(results=results)

    paper = PAPER_SHORT_RANGE if link_class == "short" else PAPER_LONG_RANGE
    result = ExperimentResult(
        EXPERIMENT_ID, f"Section 4 testbed campaign ({link_class} range)"
    )
    result.data["summary_table"] = summary.format_table()
    result.data["measured"] = {
        "optimal_pps": summary.optimal_pps,
        "carrier_sense_fraction": summary.fraction_of_optimal("carrier_sense"),
        "multiplexing_fraction": summary.fraction_of_optimal("multiplexing"),
        "concurrency_fraction": summary.fraction_of_optimal("concurrency"),
    }
    result.data["paper"] = paper
    result.data["scatter"] = _scatter(summary)
    result.data["n_combinations"] = len(results)
    rssi = [row["sender_sender_rssi_dbm"] for row in result.data["scatter"]]
    result.data["sender_sender_rssi_span_dbm"] = [float(min(rssi)), float(max(rssi))]
    result.add_note(
        "Carrier sense should track the per-combination optimum closely, with "
        "multiplexing winning at high sender-sender RSSI and concurrency at low "
        "RSSI, the three-regime structure of Figures 11 and 13."
    )
    result.add_note(f"runner: {runner_note}")
    result.data["campaign"] = summary
    return result


EXPERIMENT_SHORT = experiment(
    "figures-10-11",
    "Section 4 testbed campaign (short range)",
    run,
    tags=("packet-level", "testbed", "slow"),
    defaults={"link_class": "short"},
    series_keys=("scatter",),
)

EXPERIMENT_LONG = experiment(
    "figures-12-13",
    "Section 4 testbed campaign (long range)",
    run,
    tags=("packet-level", "testbed", "slow"),
    defaults={"link_class": "long"},
    series_keys=("scatter",),
)
