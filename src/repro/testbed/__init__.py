"""Synthetic indoor testbed and the Section 4 / Section 5 result records.

Substitutes for the paper's ~50-node Atheros/Soekris 802.11a testbed: a
deterministic office-building layout with the propagation statistics the
paper measured, link probing (delivery rate and RSSI), pair selection by
link-quality class, the best-rate summary of the competing-pairs protocol,
and the exposed-terminal study.  The protocol's runs are scenarios on the
``testbed`` topology (:mod:`repro.scenarios`), which places this layout's
stations; :mod:`repro.experiments.testbed_section4` builds and runs them.
"""

from .experiment import (
    CampaignSummary,
    PairExperimentResult,
    RateRunDetail,
    StrategyThroughput,
    summarise,
)
from .exposed import ExposedTerminalStudy, exposed_terminal_study
from .layout import TestbedLayout, TestbedNode, default_office_layout, generate_office_layout
from .measurement import LinkMeasurement, measure_all_links, measure_link, rssi_survey
from .pairs import CandidatePair, CompetingPairs, select_competing_pairs, select_links

__all__ = [
    "TestbedNode",
    "TestbedLayout",
    "generate_office_layout",
    "default_office_layout",
    "LinkMeasurement",
    "measure_link",
    "measure_all_links",
    "rssi_survey",
    "CandidatePair",
    "CompetingPairs",
    "select_links",
    "select_competing_pairs",
    "RateRunDetail",
    "StrategyThroughput",
    "PairExperimentResult",
    "CampaignSummary",
    "summarise",
    "ExposedTerminalStudy",
    "exposed_terminal_study",
]
