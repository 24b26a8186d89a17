"""Text and JSON reporters for simlint runs."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .baseline import BaselineComparison
from .engine import Rule

__all__ = ["render_text", "render_json"]


def render_text(
    comparison: BaselineComparison, rules: Sequence[Rule], checked_files: int
) -> str:
    """The human reporter: one line per new finding, then a summary."""
    lines: List[str] = [finding.render() for finding in comparison.new]
    for entry in comparison.stale:
        lines.append(
            f"{entry['path']}: stale baseline entry for {entry['rule']} "
            f"(fingerprint {entry['fingerprint']}) -- the finding is gone; "
            f"remove it from the baseline"
        )
    lines.append(
        f"simlint: {checked_files} files, {len(rules)} rules, "
        f"{len(comparison.new)} new finding(s), "
        f"{len(comparison.baselined)} baselined, "
        f"{len(comparison.stale)} stale baseline entr(y/ies)"
    )
    return "\n".join(lines)


def render_json(
    comparison: BaselineComparison, rules: Sequence[Rule], checked_files: int
) -> str:
    """The machine reporter (stable key order; what CI uploads)."""
    payload: Dict[str, Any] = {
        "schema": 1,
        "checked_files": checked_files,
        "rules": [
            {"name": rule.name, "description": rule.description, "scopes": list(rule.scopes)}
            for rule in rules
        ],
        "new": [finding.as_dict() for finding in comparison.new],
        "baselined": [finding.as_dict() for finding in comparison.baselined],
        "stale_baseline_entries": comparison.stale,
        "clean": comparison.clean,
    }
    return json.dumps(payload, indent=2, sort_keys=True)

