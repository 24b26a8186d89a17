"""Run experiment harnesses from the command line.

Every command operates on the :data:`repro.api.EXPERIMENTS`
registry (tags, typed parameters, artifact outputs)::

    python -m repro.experiments list                    # all experiments + tags
    python -m repro.experiments list --tag analytical --json
    python -m repro.experiments describe table-1        # params and defaults
    python -m repro.experiments run table-1 --set n_samples=5000
    python -m repro.experiments run --tag ablation --out out/  # save artifacts
    python -m repro.experiments run figure-04 --json    # print the manifest
    python -m repro.experiments run --all --full        # include the slow campaigns
    python -m repro.experiments run run-scenarios --set topology=scale_free --set nodes=50

Bad parameters print ``<id>: <message>`` to stderr and exit 1 before any
task runs; ``run-scenarios`` prints a progress heartbeat to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..api.experiment import Experiment, parse_overrides
from . import EXPERIMENTS


def _experiment(name: str) -> Experiment:
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise SystemExit(f"unknown experiment {name!r} (known: {known})")
    return EXPERIMENTS[name]


def _select(
    ids: Sequence[str], tags: Sequence[str], run_all: bool, full: bool
) -> List[str]:
    """Resolve positional ids, ``--tag`` filters, and ``--all`` to a name list."""
    names: List[str] = []
    for name in ids:
        _experiment(name)
        if name not in names:
            names.append(name)
    if tags:
        for name in EXPERIMENTS:
            experiment = EXPERIMENTS[name]
            if all(tag in experiment.tags for tag in tags) and name not in names:
                names.append(name)
    if run_all:
        for name in EXPERIMENTS:
            experiment = EXPERIMENTS[name]
            if "sweep" in experiment.tags:
                continue  # run-scenarios sweeps whatever grid --set names
            if not full and "slow" in experiment.tags:
                continue
            if name not in names:
                names.append(name)
    return names


def _out_dir(base: str, experiment_id: str) -> Path:
    return Path(base) / experiment_id.replace("/", "-")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list registered experiments")
    list_parser.add_argument("--tag", action="append", default=[],
                             help="only experiments carrying every given tag")
    list_parser.add_argument("--json", action="store_true",
                             help="machine-readable listing (ids, tags, params)")

    describe_parser = commands.add_parser(
        "describe", help="show an experiment's tags and parameter spec"
    )
    describe_parser.add_argument("experiment", help="experiment id")
    describe_parser.add_argument("--json", action="store_true")

    run_parser = commands.add_parser("run", help="run experiments, print/save artifacts")
    run_parser.add_argument("experiment", nargs="*", help="experiment id(s)")
    run_parser.add_argument("--tag", action="append", default=[],
                            help="also run every experiment carrying the tag(s)")
    run_parser.add_argument("--all", action="store_true",
                            help="run every registered experiment (minus slow ones)")
    run_parser.add_argument("--full", action="store_true",
                            help="with --all, include the slow testbed campaigns")
    run_parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                            dest="overrides",
                            help="parameter override, coerced by the typed spec "
                                 "(repeatable; with several experiments, keys "
                                 "apply where the experiment defines them)")
    run_parser.add_argument("--json", action="store_true",
                            help="print artifact manifests as JSON instead of text")
    run_parser.add_argument("--out", default=None, metavar="DIR",
                            help="save each artifact (manifest.json + .bin "
                                 "sidecars) under DIR/<experiment-id>/")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    names = [
        name for name in EXPERIMENTS
        if all(tag in EXPERIMENTS[name].tags for tag in args.tag)
    ]
    if args.json:
        print(json.dumps([EXPERIMENTS[name].describe() for name in names], indent=1))
        return 0
    for name in names:
        experiment = EXPERIMENTS[name]
        tags = ",".join(experiment.tags) or "-"
        print(f"{name:<24} [{tags}] {experiment.title}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    experiment = _experiment(args.experiment)
    if args.json:
        print(json.dumps(experiment.describe(), indent=1))
        return 0
    print(f"{experiment.id}: {experiment.title}")
    if experiment.description:
        print(f"  {experiment.description}")
    print(f"  tags: {', '.join(experiment.tags) or '-'}")
    if experiment.params:
        print("  parameters:")
        for param in experiment.params:
            entry = param.describe()
            print(f"    {param.name:<20} {entry['kind']:<6} default={entry['default']!r}")
    else:
        print("  parameters: none")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = _select(args.experiment, args.tag, args.all, args.full)
    if not names:
        print("nothing selected; pass experiment id(s), --tag, or --all", file=sys.stderr)
        return 1
    try:
        raw_overrides = parse_overrides(args.overrides)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    # With several experiments selected, each applies the keys it defines --
    # but a key no selected experiment knows is an error (a typo would
    # otherwise silently run everything at defaults).
    known_anywhere = {
        param.name for name in names for param in _experiment(name).params
    }
    for key in raw_overrides:
        if key not in known_anywhere:
            print(
                f"--set {key}: no selected experiment has that parameter "
                f"(known: {', '.join(sorted(known_anywhere)) or '<none>'})",
                file=sys.stderr,
            )
            return 1

    manifests: List[Dict] = []
    for name in names:
        experiment = _experiment(name)
        known = {param.name for param in experiment.params}
        try:
            artifact = experiment.build(experiment.resolve({
                key: value for key, value in raw_overrides.items()
                if len(names) == 1 or key in known
            }))
        except (KeyError, ValueError) as exc:
            # Unknown or ill-typed parameters, and inputs the body rejects
            # before running anything.
            print(f"{name}: {exc.args[0]}", file=sys.stderr)
            return 1
        if args.out:
            artifact.save(_out_dir(args.out, name))
        if args.json:
            manifests.append(artifact.manifest())
        else:
            print(artifact.summary())
            print()
    if args.json:
        # Always an array, regardless of how many experiments were selected,
        # so consumers get a stable shape (tag selections vary over time).
        print(json.dumps(manifests, indent=1))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    commands = {"list": _cmd_list, "describe": _cmd_describe, "run": _cmd_run}
    return commands[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
