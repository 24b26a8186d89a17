"""The simlint rule set: the three rules of the determinism closure.

:func:`default_rules` returns fresh instances of every project rule.
"""

from __future__ import annotations

from typing import List, Type

from ..engine import Rule
from .iteration import DeterministicDictIterationRule
from .rng import NoUnseededRngRule
from .wallclock import NoWallClockRule

__all__ = ["RULE_CLASSES", "default_rules"]

#: Every project rule, in reporting-precedence order.
RULE_CLASSES: List[Type[Rule]] = [
    NoUnseededRngRule,
    NoWallClockRule,
    DeterministicDictIterationRule,
]


def default_rules() -> List[Rule]:
    """Fresh instances of the full rule set (one per run)."""
    return [rule_class() for rule_class in RULE_CLASSES]
