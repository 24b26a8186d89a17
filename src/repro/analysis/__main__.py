"""The simlint CLI: ``python -m repro.analysis check``.

Subcommands
-----------
``check``
    Run every rule over the package tree and exit non-zero when any
    finding remains.  ``--json`` switches to the machine report CI
    uploads.

    Exit codes are a contract CI relies on: **0** clean, **1** findings,
    **2** crash or bad invocation.
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

from .engine import run_checks
from .report import render_json, render_text
from .rules import default_rules

__all__ = ["main"]


def _default_root() -> Path:
    """The ``repro`` package directory this module was imported from."""
    return Path(__file__).resolve().parent.parent


def _cmd_check(args: argparse.Namespace) -> int:
    root = Path(args.root) if args.root else _default_root()
    if not root.is_dir():
        print(f"simlint: no such package directory: {root}", file=sys.stderr)
        return 2
    rules = default_rules()
    run = run_checks(root, rules)
    print(render_json(run, rules) if args.json else render_text(run, rules))
    return 1 if run.findings and not args.exit_zero else 0


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

    check = sub.add_parser("check", help="run all rules and gate on findings")
    check.add_argument("--json", action="store_true", help="emit the JSON report")
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
