"""The simlint CLI: ``python -m repro.analysis check``.

Subcommands
-----------
``check``
    Run every rule over the package tree, match findings against the
    committed baseline, and exit non-zero when new findings (or stale
    baseline entries) remain.  ``--json`` switches to the machine report
    CI uploads; ``--update-baseline`` rewrites the baseline to grandfather
    the current findings (keeping the notes of entries that survive).

    Exit codes are a contract CI relies on: **0** clean, **1** findings
    (or stale baseline entries), **2** crash or bad invocation.
    ``--exit-zero`` maps the findings case to 0 (report generation must
    not mask a crashed run, so 2 still propagates).

``rules``
    List the rule set with scopes and one-line descriptions.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import List, Optional

from .baseline import Baseline
from .engine import run_checks
from .report import render_json, render_text
from .rules import default_rules

__all__ = ["main"]

_DEFAULT_BASELINE_NAME = "simlint_baseline.json"


def _default_root() -> Path:
    """The ``repro`` package directory this module was imported from."""
    return Path(__file__).resolve().parent.parent


def _default_baseline_path(root: Path) -> Optional[Path]:
    """Find the committed baseline next to the source tree or in cwd.

    With the repo's ``src/repro`` layout the baseline lives at the repo
    root (two levels above the package); running from elsewhere, a
    baseline in the current directory also counts.  Returns ``None`` when
    neither exists (an absent baseline means "no grandfathered findings").
    """
    candidates = [
        root.parent.parent / _DEFAULT_BASELINE_NAME,
        Path.cwd() / _DEFAULT_BASELINE_NAME,
    ]
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def _cmd_check(args: argparse.Namespace) -> int:
    root = Path(args.root) if args.root else _default_root()
    if not root.is_dir():
        print(f"simlint: no such package directory: {root}", file=sys.stderr)
        return 2
    rules = default_rules()

    if args.baseline:
        baseline_path: Optional[Path] = Path(args.baseline)
    else:
        baseline_path = _default_baseline_path(root)
    baseline = (
        Baseline.load(baseline_path)
        if baseline_path is not None and baseline_path.is_file()
        else Baseline()
    )

    run = run_checks(root, rules)
    findings = run.findings

    if args.update_baseline:
        target = baseline_path or (root.parent.parent / _DEFAULT_BASELINE_NAME)
        notes = {
            str(entry["fingerprint"]): str(entry.get("note", ""))
            for entry in baseline.entries
        }
        Baseline.from_findings(findings, notes={k: v for k, v in notes.items() if v}).save(target)
        print(f"simlint: baseline rewritten with {len(findings)} finding(s): {target}")
        return 0

    comparison = baseline.compare(findings)
    if args.json:
        print(render_json(comparison, rules, run.checked_files))
    else:
        print(render_text(comparison, rules, run.checked_files))
    if comparison.clean and not comparison.stale:
        return 0
    return 0 if args.exit_zero else 1


def _cmd_rules(_args: argparse.Namespace) -> int:
    for rule in default_rules():
        scopes = ", ".join(rule.scopes)
        print(f"{rule.name}  [{scopes}]")
        print(f"    {rule.description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: invariant-enforcing static analysis for repro",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run all rules and gate on new findings")
    check.add_argument("--json", action="store_true", help="emit the JSON report")
    check.add_argument(
        "--baseline", metavar="PATH",
        help=f"baseline file (default: {_DEFAULT_BASELINE_NAME} at the repo "
             f"root or cwd, if present)",
    )
    check.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to grandfather the current findings",
    )
    check.add_argument(
        "--root", metavar="DIR",
        help="package directory to scan (default: the imported repro package)",
    )
    check.add_argument(
        "--exit-zero", action="store_true",
        help="exit 0 even with findings (crashes still exit 2)",
    )
    check.set_defaults(func=_cmd_check)

    rules = sub.add_parser("rules", help="list the rule set")
    rules.set_defaults(func=_cmd_rules)

    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except Exception:  # crash != findings: report generation must not mask it
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
