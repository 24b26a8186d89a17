"""Shared infrastructure for the per-figure/per-table experiment harnesses.

Every experiment module exposes a ``run(...)`` function returning an
:class:`ExperimentResult`: a named collection of rows (for tables) or series
(for figures) plus free-form notes.  :class:`repro.api.Experiment` lifts it
into a typed :class:`repro.api.Artifact`, which is what the CLI prints and
saves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["ExperimentResult", "format_table", "default_cache_dir"]

#: Environment override for where experiment sweeps cache their results.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The result-cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache/``."""
    return os.environ.get(CACHE_DIR_ENV, ".repro-cache")


@dataclass
class ExperimentResult:
    """Structured output of one experiment harness."""

    experiment_id: str
    title: str
    data: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_note(self, note: str) -> None:
        self.notes.append(note)


def format_table(
    row_labels: Sequence[str], col_labels: Sequence[str], values: Sequence[Sequence[float]],
    cell_format: str = "{:.0f}%",
) -> str:
    """Render a small 2-D table as text in the paper's row/column layout."""
    header = " | ".join([" " * 12] + [f"{label:>8}" for label in col_labels])
    lines = [header, "-" * len(header)]
    for label, row in zip(row_labels, values):
        cells = " | ".join(f"{cell_format.format(v):>8}" for v in row)
        lines.append(f"{label:>12} | {cells}")
    return "\n".join(lines)
