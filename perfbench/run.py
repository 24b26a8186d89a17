"""Layered simulator benchmark: run one workload at one seed, print its metrics.

    python3 perfbench/run.py --workload campus-500 --seed 0 --seconds 20 --trace 0

Starts one fresh process per pass (``passes.py``) until ``--seconds`` have
elapsed, and at least :data:`MIN_PASSES` passes have run.

* ``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``setup_s`` and
  ``replay_s`` from the fastest pass, ``peak_rss_mb`` as the median.
* ``--trace 1`` alternates traced and untraced passes and prints the
  per-layer metrics (fastest self times, exact counts), the layer diff of the
  first two traced passes, and ``trace.overhead_s``.

Timings take the fastest pass because interference from other work on the
host only ever adds time: on a shared 2-core VM single passes of the same
input vary by up to 50%, and the fastest of a run's passes repeats far more
closely than their median (README.md has the numbers).  The median is
printed beside it.

Every pass checks its results against ``reference.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(scenario runs checked and failed) and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fewest passes a run makes: untraced ones with ``--trace 0``, traced ones
#: with ``--trace 1`` (plus as many untraced, for the overhead).
MIN_PASSES = 3
#: A pass that runs longer than this has hung; it is killed and counted failed.
PASS_TIMEOUT_S = 60.0

#: End-to-end metrics: name, unit, and the statistic over a run's passes.
END_TO_END = (("wall_s", "s", min), ("setup_s", "s", min), ("replay_s", "s", min),
              ("peak_rss_mb", "MB", statistics.median))


def one_pass(workload: str, index: int, traced: bool, workdir: Path) -> Optional[Dict[str, Any]]:
    """Run one pass in its own process; ``None`` if it crashed or hung."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
               "--index", str(index), "--trace", str(int(traced)), "--workdir", str(workdir)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S:.0f}s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        print(f"pass exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def fastest_layers(traced: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Each layer's fastest self time over the traced passes, and its calls."""
    return {layer: {"self_s": min(record["layers"][layer]["self_s"] for record in traced),
                    "calls": traced[0]["layers"][layer]["calls"]}
            for layer in traced[0]["layers"]}


def layer_metrics(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]) -> Dict[str, tuple]:
    """Per-layer metrics: fastest self times over traced passes, exact counts."""
    layers = fastest_layers(traced)
    self_s = lambda layer: layers[layer]["self_s"]  # noqa: E731
    counts = traced[0]["counts"]
    count = lambda name: counts.get(name, 0)  # noqa: E731
    loop_s = self_s("loop")
    # ``handoff`` is zero on the cold campus path, so it stays in the layer
    # table and diff but is not a metric.
    metrics = {f"{layer}.s": (self_s(layer), "s") for layer in
               ("placement", "rxmatrix", "build", "start", "loop", "assembly", "runner", "cache")}
    metrics["results.concat_s"] = (self_s("results"), "s")
    for name in ("placement.nodes", "rxmatrix.pairs", "rxmatrix.audible_links", "build.nodes",
                 "loop.events", "loop.transmissions", "loop.notifications", "loop.decodes",
                 "assembly.flows", "runner.tasks", "runner.warm_groups", "cache.hits",
                 "cache.misses"):
        metrics[name] = (count(name), "count")
    metrics["cache.bytes"] = (count("cache.bytes"), "bytes")
    frames = max(1, count("loop.transmissions"))
    metrics["loop.fanout_mean"] = (count("loop.notifications") / frames, "receivers/frame")
    metrics["loop.wide_share"] = (count("loop.wide_frames") / frames, "frac")
    metrics["loop.us_per_notification"] = (loop_s * 1e6 / max(1, count("loop.notifications")), "us")
    metrics["loop.us_per_event"] = (loop_s * 1e6 / max(1, count("loop.events")), "us")
    metrics["trace.overhead_s"] = (
        min(r["wall_s"] for r in traced) - min(r["wall_s"] for r in untraced), "s")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="with --trace 1: save the layer table for tracing.py to diff")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import format_diff, layer_diff
    from workloads import WORKLOADS, input_index

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(sorted(WORKLOADS))})")
    index = input_index(args.seed)
    n_scenarios = len(WORKLOADS[args.workload].scenarios(index))
    workdir_root = ROOT / ".perfbench_work"

    traced: List[Dict[str, Any]] = []
    untraced: List[Dict[str, Any]] = []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    try:
        while True:
            trace_this = bool(args.trace) and len(traced) <= len(untraced)
            record = one_pass(args.workload, index, trace_this,
                              workdir_root / f"pass-{len(traced) + len(untraced)}")
            if record is None:
                attempted += n_scenarios
                failed += n_scenarios
                if perf_counter() >= deadline:
                    break
                continue
            attempted += record["attempted"]
            failed += record["failed"]
            print(f"pass {len(traced) + len(untraced) + 1} ({'traced' if trace_this else 'untraced'}): "
                  + " ".join(f"{name} {record[name]:.4f}" for name, _, _ in END_TO_END), flush=True)
            (traced if trace_this else untraced).append(record)
            enough = len(traced if args.trace else untraced) >= MIN_PASSES and bool(untraced)
            if perf_counter() >= deadline and enough:
                break
    finally:
        shutil.rmtree(workdir_root, ignore_errors=True)

    correct = failed == 0 and bool(untraced)
    metrics: Dict[str, tuple] = {}
    if not args.trace and untraced:
        metrics = {name: (statistic(r[name] for r in untraced), unit)
                   for name, unit, statistic in END_TO_END}
        print(f"{args.workload} seed {args.seed} (input {index}), {len(untraced)} passes; "
              "median of the passes in brackets")
    elif args.trace and len(traced) >= 2 and untraced:
        rows = layer_diff(traced[0], traced[1])
        print(f"layer diff, traced pass 1 -> traced pass 2 ({args.workload}, input {index}):")
        print(format_diff(rows))
        if any(row["changed"] for row in rows):
            print("counts differ between two traced passes of the same input")
            correct = False
        metrics = layer_metrics(traced, untraced)
        if args.trace_out is not None:
            args.trace_out.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "layers": fastest_layers(traced),
                "counts": traced[0]["counts"]}, indent=1, sort_keys=True) + "\n")
    else:
        correct = False
    medians = {} if args.trace or not untraced else {
        name: statistics.median(r[name] for r in untraced) for name, _, _ in END_TO_END}
    for name, (value, unit) in metrics.items():
        bracket = f"  [{medians[name]:.6f}]" if name in medians else ""
        print(f"  {name:28s} {value:16.6f} {unit}{bracket}")
    print(f"  {'failed_frac':28s} {failed / max(1, attempted):16.6f} "
          f"({failed} of {attempted} scenario runs)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
