"""Record the benchmark suite's timings into a persisted JSON trajectory.

Runs the pytest benchmark suite (via ``pytest --benchmark-json``) plus a
direct events-per-second measurement of the large scale-free scenario, and
writes one JSON document -- per-bench mean/p50 wall time and, where the
workload exposes it, simulator events per second.  The committed
``BENCH_PR3.json`` at the repo root is the first point of the trajectory;
every future PR records a new file next to it (``BENCH_PR4.json``, ...) so
performance history lives in the repo alongside the code that produced it.

Usage::

    # full suite (minutes); writes BENCH_PR10.json in the repo root
    python benchmarks/record.py --output BENCH_PR10.json

    # CI smoke: seconds, large-scenario benches only
    python benchmarks/record.py --smoke --output bench_smoke.json \
        --check-against BENCH_PR10.json --max-regression 0.25

``--check-against`` compares the recorded events-per-second benches with a
baseline file and exits non-zero when one regresses by more than
``--max-regression`` (a fraction).  Because absolute rates are not
comparable across machines (a shared CI runner is far slower than a
workstation), every recording also measures a fixed pure-Python calibration
workload, and the gate compares *calibration-normalized* throughput --
events per second per calibration op per second -- which cancels
machine/interpreter speed to first order.  Wall-clock benches are reported
for the trajectory but never gated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

SCHEMA_VERSION = 1


def _ensure_src_on_path() -> None:
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def _subprocess_env(smoke: bool) -> Dict[str, str]:
    env = dict(os.environ)
    pythonpath = env.get("PYTHONPATH", "")
    if str(SRC_DIR) not in pythonpath.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{SRC_DIR}{os.pathsep}{pythonpath}" if pythonpath else str(SRC_DIR)
        )
    if smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    return env


def run_pytest_benchmarks(smoke: bool) -> Dict[str, Dict[str, Any]]:
    """Run the benchmark suite, returning per-bench wall-time statistics."""
    targets = ["benchmarks/test_bench_large_scenario.py"] if smoke else ["benchmarks"]
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "pytest_bench.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            *targets,
            f"--benchmark-json={json_path}",
        ]
        completed = subprocess.run(
            command, cwd=REPO_ROOT, env=_subprocess_env(smoke),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stdout)
            raise SystemExit(
                f"benchmark suite failed (exit {completed.returncode}); not recording"
            )
        payload = json.loads(json_path.read_text())

    benches: Dict[str, Dict[str, Any]] = {}
    for bench in payload.get("benchmarks", []):
        stats = bench["stats"]
        benches[bench["name"]] = {
            "mean_s": float(stats["mean"]),
            "p50_s": float(stats["median"]),
            "min_s": float(stats["min"]),
            "rounds": int(stats["rounds"]),
        }
    return benches


def measure_calibration(rounds: int = 3) -> float:
    """Ops/sec of a frozen pure-Python workload, for cross-machine scaling.

    The mix (heap churn over tuples, dict traffic, float math) resembles the
    simulator's hot path but lives entirely in this file, so repo changes
    can never alter it: a drop in *normalized* scenario throughput is a code
    regression, not a slower machine.
    """
    import heapq

    def one_round() -> float:
        heap: List[Any] = []
        table: Dict[int, float] = {}
        acc = 0.0
        start = time.perf_counter()
        for i in range(60_000):
            heapq.heappush(heap, (float(i % 977), i, i & 255))
            table[i & 1023] = acc
            acc += (i % 97) * 1e-3
            if i & 1:
                acc -= table[(i - 1) & 1023] * 1e-6
                heapq.heappop(heap)
        while heap:
            heapq.heappop(heap)
        return 60_000 / (time.perf_counter() - start)

    return max(one_round() for _ in range(rounds))


def _large_scenario(smoke: bool):
    """The large-scenario spec, shared with benchmarks/test_bench_large_scenario.

    Imported from the bench module (this directory is on ``sys.path`` when
    the script runs) so the recorded workload can never drift from the one
    the pytest benchmark measures.
    """
    _ensure_src_on_path()
    if str(REPO_ROOT / "benchmarks") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from test_bench_large_scenario import large_scale_free_scenario

    return large_scale_free_scenario(smoke=smoke)


def measure_events_per_sec(smoke: bool, rounds: int) -> Dict[str, Any]:
    """Directly run the large scenario and report simulator events per second."""
    scenario = _large_scenario(smoke)
    walls: List[float] = []
    events = 0
    for _ in range(rounds):
        start = time.perf_counter()
        result = scenario.run()
        walls.append(time.perf_counter() - start)
        events = int(result.scenarios[0]["events_processed"])
    mean_s = statistics.fmean(walls)
    return {
        "mean_s": mean_s,
        "p50_s": statistics.median(walls),
        "min_s": min(walls),
        "rounds": rounds,
        "events_processed": events,
        # Events over the *best* round: the least-noisy estimate of the
        # engine's sustainable rate on this machine.
        "events_per_sec": events / min(walls),
    }


def record(smoke: bool, rounds: int) -> Dict[str, Any]:
    benches = run_pytest_benchmarks(smoke)
    if not smoke:
        benches["large_scenario_events"] = measure_events_per_sec(False, rounds)
    # Always record the smoke-size direct bench: it is the entry CI's
    # regression gate compares against the committed full-mode baseline.
    benches["large_scenario_events_smoke"] = measure_events_per_sec(True, rounds)
    return {
        "schema": SCHEMA_VERSION,
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_ops_per_sec": measure_calibration(),
        "benches": benches,
    }


def check_regressions(
    current: Dict[str, Any], baseline_path: Path, max_regression: float
) -> List[str]:
    """Compare events-per-second benches against a baseline recording.

    Only throughput-style metrics are gated, and each side's rate is first
    divided by its own calibration score so the comparison survives a
    baseline recorded on a different (faster or slower) machine.  Wall-clock
    means are recorded for the trajectory but never gated.  Returns a list
    of human-readable failures (empty = pass).
    """
    baseline = json.loads(baseline_path.read_text())
    base_cal = baseline.get("calibration_ops_per_sec")
    cur_cal = current.get("calibration_ops_per_sec")
    normalized = base_cal is not None and cur_cal is not None
    failures: List[str] = []
    for name, base in baseline.get("benches", {}).items():
        base_rate = base.get("events_per_sec")
        if base_rate is None:
            continue
        cur = current["benches"].get(name)
        if cur is None or cur.get("events_per_sec") is None:
            continue
        cur_rate = cur["events_per_sec"]
        if normalized:
            base_score = base_rate / base_cal
            cur_score = cur_rate / cur_cal
            unit = "normalized events per calibration op"
        else:
            base_score = base_rate
            cur_score = cur_rate
            unit = "events/s (no calibration in baseline; raw comparison)"
        if cur_score < base_score * (1.0 - max_regression):
            failures.append(
                f"{name}: {cur_score:.3g} is more than {max_regression:.0%} below "
                f"the baseline {base_score:.3g} [{unit}] "
                f"(raw: {cur_rate:.0f} vs {base_rate:.0f} events/s, {baseline_path})"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_PR10.json",
                        help="output JSON path (default: BENCH_PR10.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale subset: large-scenario benches only")
    parser.add_argument("--rounds", type=int, default=3,
                        help="rounds for the direct events/sec bench (default: 3)")
    parser.add_argument("--check-against", default=None,
                        help="baseline JSON to gate events/sec regressions against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional events/sec drop (default: 0.25)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    document = record(args.smoke, args.rounds)
    output = Path(args.output)
    output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(document['benches'])} benches -> {output}")
    for name, bench in sorted(document["benches"].items()):
        rate = bench.get("events_per_sec")
        rate_part = f", {rate:,.0f} events/s" if rate is not None else ""
        print(f"  {name}: mean {bench['mean_s']:.3f}s, p50 {bench['p50_s']:.3f}s{rate_part}")

    if args.check_against:
        failures = check_regressions(document, Path(args.check_against), args.max_regression)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no events/sec regressions against {args.check_against}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
