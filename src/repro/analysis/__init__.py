"""simlint: invariant-enforcing static analysis for the repro codebase.

The repo's reproducibility guarantees -- bit-identical replays across
engine rewrites, sha256-stable cache keys, deterministic seeded RNG
streams -- are properties a single stray line can break long before any
equivalence test runs.  This package machine-checks them at the AST level:

* a small rule engine (:mod:`repro.analysis.engine`) walking ``src/repro``
  with per-file :class:`~repro.analysis.context.FileContext` dispatch,
* 7 project-specific syntactic rules (:mod:`repro.analysis.rules`)
  encoding the invariants the simulator relies on by convention,
* ``# simlint: disable=<rule>`` suppression comments for justified
  exceptions at the line, and a committed JSON baseline
  (:mod:`repro.analysis.baseline`) for grandfathered findings,
* text and ``--json`` reporters (:mod:`repro.analysis.report`).

Three invariants a per-file rule cannot see are guarded at runtime instead,
in ``tests/test_replay_invariants.py``: state carried from one run into the
next (it replays every topology around an unrelated run), scenario fields
the result-cache key misses (it varies every ``Scenario`` field), and any
change to an existing cache key (it pins literal keys).

Run it as ``python -m repro.analysis check`` (see :mod:`repro.analysis.__main__`)
or from tests via :func:`run_checks` / :func:`check_source` /
:func:`check_sources`.
"""

from __future__ import annotations

from .baseline import Baseline, BaselineComparison
from .context import FileContext
from .engine import CheckRun, Rule, check_source, check_sources, run_checks
from .findings import Finding
from .report import render_json, render_text
from .rules import RULE_CLASSES, default_rules

__all__ = [
    "Baseline",
    "BaselineComparison",
    "CheckRun",
    "FileContext",
    "Finding",
    "Rule",
    "RULE_CLASSES",
    "check_source",
    "check_sources",
    "default_rules",
    "render_json",
    "render_text",
    "run_checks",
]
