"""Pin the reference results that every benchmark pass is checked against.

For each workload and each of its :data:`~workloads.N_INPUTS` inputs, runs
every scenario through plain ``Scenario.run()`` and records the digest of its
``ResultSet.to_bytes()`` plus ``events_processed``.  Passes reach the same
scenarios through other doors (the traced wrappers, ``Study`` with its
warm-state hand-off, the cache replay), so a match also proves those doors
change nothing.  Re-pin only for a change meant to alter simulator output::

    python3 perfbench/pin.py                       # every workload (minutes)
    python3 perfbench/pin.py --workload pairs-sweep

``--select NAME --pool N`` instead prints the :data:`~workloads.N_INPUTS`
seeds among the first N whose event count lies closest to the pool's median:
the campus workloads draw their inputs from such a list, so a seed change
swaps the placement but not the amount of work.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import List, Optional

from passes import REFERENCE_PATH, result_key
from workloads import N_INPUTS, WORKLOADS


def select(name: str, pool: int) -> None:
    build = WORKLOADS[name].build
    events = {seed: sum(s.run().scenarios[0]["events_processed"] for s in build(seed))
              for seed in range(pool)}
    middle = statistics.median(events.values())
    chosen = sorted(sorted(events, key=lambda seed: abs(events[seed] - middle))[:N_INPUTS])
    for label, values in (("pool", list(events.values())), ("chosen", [events[s] for s in chosen])):
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{label}: events IQR / median = {(q3 - q1) / statistics.median(values):.4f}")
    print(f"seeds={tuple(chosen)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="pin only this workload (repeatable; default: all)")
    parser.add_argument("--select", choices=sorted(WORKLOADS),
                        help="print the input seeds for this workload instead of pinning")
    parser.add_argument("--pool", type=int, default=4 * N_INPUTS)
    args = parser.parse_args(argv)
    if args.select:
        select(args.select, args.pool)
        return 0
    document = {"inputs": N_INPUTS, "workloads": {}}
    if REFERENCE_PATH.exists():
        document = json.loads(REFERENCE_PATH.read_text())
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        document["workloads"][name] = {
            str(index): [result_key(scenario.run()) for scenario in workload.scenarios(index)]
            for index in range(N_INPUTS)
        }
        print(f"pinned {name}: {N_INPUTS} inputs", flush=True)
    REFERENCE_PATH.write_text(json.dumps(document, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
