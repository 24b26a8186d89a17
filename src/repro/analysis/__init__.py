"""simlint: static analysis guarding the repro codebase's determinism closure.

The repo's reproducibility guarantees -- bit-identical replays across
engine rewrites, sha256-stable cache keys, deterministic seeded RNG
streams -- are properties a single stray line can break long before any
equivalence test runs.  This package machine-checks the part of them a
single file shows, at the AST level:

* a small rule engine (:mod:`repro.analysis.engine`) walking ``src/repro``
  with per-file :class:`~repro.analysis.context.FileContext` dispatch,
* 3 syntactic rules (:mod:`repro.analysis.rules`): ``no-unseeded-rng``,
  ``no-wall-clock`` and ``deterministic-dict-iteration``,
* ``# simlint: disable=<rule>`` comments, the one exemption mechanism,
  each silencing the named rules on its own line,
* text and ``--json`` reporters (:mod:`repro.analysis.report`).

Invariants a per-file rule cannot see are guarded at runtime instead, in
``tests/test_replay_invariants.py``: state carried from one run into the
next (it replays every topology around an unrelated run), scenario fields
the result-cache key misses (it varies every ``Scenario`` field), and any
change to an existing cache key (it pins literal keys).  Hot-path classes
that carry a per-instance ``__dict__`` are caught by
``tests/test_hot_path_slots.py``.

Run it as ``python -m repro.analysis check`` (see :mod:`repro.analysis.__main__`)
or from tests via :func:`run_checks` / :func:`check_source` /
:func:`check_sources`.
"""

from __future__ import annotations

from .context import FileContext
from .engine import CheckRun, Rule, check_source, check_sources, run_checks
from .findings import Finding
from .report import render_json, render_text
from .rules import RULE_CLASSES, default_rules

__all__ = [
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
