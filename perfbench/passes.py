"""One benchmark pass, in a fresh process: cold run, cache replays, checks.

A pass builds its workload's scenarios from the input index, runs them cold
into an empty :class:`~repro.runner.ResultCache`, replays the same study from
that cache ``Workload.replays`` times, and checks every result against the pinned
reference.  ``run.py`` starts each pass as its own process, so the warm-state
LRU of :mod:`repro.scenarios.execute`, the medium's lazily built tables and
the allocator all start cold, as they do for a command-line user::

    python3 perfbench/passes.py --workload campus-500 --index 0 --trace 0 \\
        --workdir .perfbench_work/pass-0

The last line of standard output is the pass record, one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import Study  # noqa: E402
from repro.results import ResultSet  # noqa: E402
from repro.runner import ResultCache  # noqa: E402
from repro.scenarios import Scenario, scenario_task  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

__all__ = ["REFERENCE_PATH", "digest", "result_key", "load_reference", "run_pass"]

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def digest(result: ResultSet) -> str:
    return hashlib.sha256(result.to_bytes()).hexdigest()[:16]


def result_key(result: ResultSet) -> List[Any]:
    """What the reference pins per scenario: bytes digest and event count."""
    return [digest(result), result.scenarios[0]["events_processed"]]


def load_reference(workload: str, index: int) -> List[List[Any]]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["workloads"][workload][str(index)]


def cold_run(workload: Workload, scenarios: Sequence[Scenario],
             cache: ResultCache) -> List[Optional[ResultSet]]:
    """The timed part of a pass: spec to final ResultSet(s)."""
    if workload.via_study:
        study = Study.of(scenarios).cache(cache).on_error("skip").run(workers=0)
        study.results()
        return list(study.raw)
    results: List[Optional[ResultSet]] = []
    for scenario in scenarios:
        try:
            results.append(scenario.run())
        except Exception:  # noqa: BLE001 -- a raising scenario is a counted failure
            traceback.print_exc()
            results.append(None)
    return results


def run_pass(workload: Workload, index: int, reference: List[List[Any]], trace: bool,
             workdir: Path) -> Dict[str, Any]:
    scenarios = workload.scenarios(index)
    cache = ResultCache(workdir)
    tracer = Tracer(full=trace)
    with tracer.installed():
        start = perf_counter()
        results = cold_run(workload, scenarios, cache)
        wall_s = perf_counter() - start
        if not workload.via_study:
            # File the cold results exactly where a Study would look them up.
            for scenario, result in zip(scenarios, results):
                if result is not None:
                    task = scenario_task(scenario)
                    cache.put(task.cache_key, {"fn": task.fn, "config": task.config}, result)
        replay_s = []
        replayed = []
        for _ in range(workload.replays):
            start = perf_counter()
            replay = Study.of(scenarios).cache(cache).on_error("skip").run(workers=0)
            replay.results()
            replay_s.append(perf_counter() - start)
            replayed.append(replay)

    failed = {i for i, result in enumerate(results)
              if result is None or result_key(result) != reference[i]}
    for replay in replayed:
        if replay.report.cache_hits != len(scenarios):
            # A replay that re-ran anything did not find the cold pass's entries.
            failed.update(range(len(scenarios)))
    if replayed:
        # Every replay reads the same entries; one digest check covers them.
        failed.update(i for i, result in enumerate(replayed[0].raw)
                      if result is None or digest(result) != reference[i][0])

    record: Dict[str, Any] = {
        "wall_s": wall_s,
        "setup_s": tracer.setup_s,
        "replay_s": statistics.median(replay_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(scenarios),
        "failed": len(failed),
    }
    if trace:
        counts = dict(tracer.counts)
        counts.update({"cache.hits": cache.hits, "cache.misses": cache.misses,
                       "cache.bytes": sum(path.stat().st_size for path in workdir.rglob("*")
                                          if path.is_file())})
        record.update(layers=tracer.layer_table(), counts=counts)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    record = run_pass(WORKLOADS[args.workload], args.index,
                      load_reference(args.workload, args.index), bool(args.trace), args.workdir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
