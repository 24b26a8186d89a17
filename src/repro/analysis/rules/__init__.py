"""The simlint rule set.

:func:`default_rules` returns fresh instances of every project rule --
fresh because rules may accumulate cross-file state between
``check_file`` and ``finalize`` (see
:class:`~repro.analysis.rules.slots.SlotsHotPathRule`), so instances must
never be shared across runs.
"""

from __future__ import annotations

from typing import List, Type

from ..engine import Rule
from .dispatch import RegistryDispatchRule
from .hygiene import (
    DeterministicDictIterationRule,
    NoFloatEqualityRule,
    NoMutableDefaultArgsRule,
)
from .rng import NoUnseededRngRule
from .slots import SlotsHotPathRule
from .wallclock import NoWallClockRule

__all__ = ["RULE_CLASSES", "default_rules"]

#: Every project rule, in reporting-precedence order.
RULE_CLASSES: List[Type[Rule]] = [
    NoUnseededRngRule,
    NoWallClockRule,
    SlotsHotPathRule,
    RegistryDispatchRule,
    NoMutableDefaultArgsRule,
    NoFloatEqualityRule,
    DeterministicDictIterationRule,
]


def default_rules() -> List[Rule]:
    """Fresh instances of the full rule set (one per run)."""
    return [rule_class() for rule_class in RULE_CLASSES]
