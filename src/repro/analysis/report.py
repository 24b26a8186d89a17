"""Text and JSON reporters for simlint runs."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .engine import CheckRun, Rule

__all__ = ["render_text", "render_json"]


def render_text(run: CheckRun, rules: Sequence[Rule]) -> str:
    """The human reporter: one line per finding, then a summary."""
    lines: List[str] = [finding.render() for finding in run.findings]
    lines.append(
        f"simlint: {run.checked_files} files, {len(rules)} rules, "
        f"{len(run.findings)} finding(s)"
    )
    return "\n".join(lines)


def render_json(run: CheckRun, rules: Sequence[Rule]) -> str:
    """The machine reporter (stable key order; what CI uploads)."""
    payload: Dict[str, Any] = {
        "schema": 2,
        "checked_files": run.checked_files,
        "rules": [
            {"name": rule.name, "description": rule.description, "scopes": list(rule.scopes)}
            for rule in rules
        ],
        "findings": [finding.as_dict() for finding in run.findings],
        "clean": not run.findings,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
