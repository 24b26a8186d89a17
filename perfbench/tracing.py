"""Spans and counts around the calls into each simulator layer.

The tracer lives entirely in the benchmark: for the duration of a pass it
replaces each layer's public entry point with a wrapper that records a span
(layer, start, end, parent span) and, once the call has returned, adds the
layer's deterministic work counts.  Nothing under ``src/`` knows about it.

A layer's self time is its spans' durations minus the part their child spans
cover, so nested calls are never counted twice: ``WirelessNetwork.run`` calls
``start()``, which finalises the medium, which computes the rx matrix --
``loop.s``, ``start.s`` and ``rxmatrix.s`` each get their own share.

Untraced passes install only the three set-up timers (``compute_warm_state``,
``build_network``, ``WirelessNetwork.start``), which sum ``setup_s`` and
record no spans.

Run as a script to diff two saved layer tables (``run.py --trace-out``)::

    python3 perfbench/tracing.py parent.json change.json
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer", "LAYERS", "layer_diff", "format_diff"]

#: Layer names, in the order a cold run enters them.
LAYERS = ("placement", "rxmatrix", "handoff", "build", "start", "loop",
          "assembly", "runner", "cache", "results", "trace")

#: Frames whose sender notifies at least this many receivers are the ones a
#: vectorised fan-out can speed up.
WIDE_FANOUT = 16


def _count_placement(counts: Counter, placement: Any, *args: Any, **kwargs: Any) -> None:
    counts["placement.nodes"] += len(placement.positions)


def _count_rxmatrix(counts: Counter, rx_dbm: Any, channel: Any, ids: Any, *args: Any, **kwargs: Any) -> None:
    import numpy as np
    from repro.simulation.medium import DEFAULT_DETECTABILITY_MARGIN_DB

    n = len(ids)
    counts["rxmatrix.pairs"] += n * (n - 1)
    # Every workload runs the medium at its default pruning margin.
    floor_dbm = channel.noise_floor_dbm - DEFAULT_DETECTABILITY_MARGIN_DB
    counts["rxmatrix.audible_links"] += int(np.count_nonzero(rx_dbm >= floor_dbm))


def _count_build(counts: Counter, built: Any, *args: Any, **kwargs: Any) -> None:
    counts["build.nodes"] += len(built[0].nodes)


def _count_loop(counts: Counter, outcome: Any, net: Any, *args: Any, **kwargs: Any) -> None:
    counts["loop.events"] += outcome.events_processed
    for node_id, node in net.nodes.items():
        stats = node.radio.stats
        counts["loop.decodes"] += stats.frames_decoded + stats.frames_failed
        frames = stats.frames_transmitted
        if not frames:
            continue
        fanout = len(net.medium.neighborhood(node_id))
        counts["loop.transmissions"] += frames
        counts["loop.notifications"] += frames * fanout
        if fanout >= WIDE_FANOUT:
            counts["loop.wide_frames"] += frames


def _count_assembly(counts: Counter, result_set: Any, *args: Any, **kwargs: Any) -> None:
    counts["assembly.flows"] += result_set.n_flows


def _count_runner(counts: Counter, study_result: Any, *args: Any, **kwargs: Any) -> None:
    counts["runner.tasks"] += len(study_result.raw)
    # Distinct groups per study, not summed over the pass's replays of it.
    groups = len({scenario.warm_key() for scenario in study_result.scenarios})
    counts["runner.warm_groups"] = max(counts["runner.warm_groups"], groups)


def _patch_points() -> List[tuple]:
    """(owner, attribute, layer, adds to set-up time, count hook) per entry point."""
    from repro.api.study import Study, StudyResult
    from repro.runner import ResultCache
    from repro.scenarios import Scenario
    from repro.simulation.medium import Medium
    from repro.simulation.network import WirelessNetwork

    return [
        (Scenario, "placement", "placement", False, _count_placement),
        (Medium, "compute_rx_dbm_matrix", "rxmatrix", False, _count_rxmatrix),
        # The warm-state hand-off of the Study path: the pair-shadowing copy
        # into the warm tuple, and its copy back into the new channel.
        (Scenario, "compute_warm_state", "handoff", True, None),
        (Medium, "prime_rx_matrix", "handoff", False, None),
        (Scenario, "build_network", "build", True, _count_build),
        (WirelessNetwork, "start", "start", True, None),
        (WirelessNetwork, "run", "loop", False, _count_loop),
        (Scenario, "_result_set", "assembly", False, _count_assembly),
        (Study, "run", "runner", False, _count_runner),
        (ResultCache, "get", "cache", False, None),
        (ResultCache, "put", "cache", False, None),
        (StudyResult, "results", "results", False, None),
    ]


class Tracer:
    """Records spans and counts for one pass while :meth:`installed`."""

    def __init__(self, full: bool) -> None:
        #: False: set-up timers only, no spans or counts.
        self.full = full
        self.spans: List[List[Any]] = []  # [layer, start, end, parent index]
        self.counts: Counter = Counter()
        self.setup_s = 0.0
        self._open: List[int] = []

    def _wrap(self, fn: Callable, layer: str, setup: bool,
              count: Optional[Callable]) -> Callable:
        tracer = self
        full = self.full

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if full:
                index = len(tracer.spans)
                tracer.spans.append([layer, 0.0, 0.0, tracer._open[-1] if tracer._open else -1])
                tracer._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if setup:
                    tracer.setup_s += end - start
                if full:
                    tracer._open.pop()
                    tracer.spans[index][1] = start
                    tracer.spans[index][2] = end
            if full and count is not None:
                # Counting is the tracer's own work: its span keeps it out of
                # the enclosing layer's self time.
                parent = tracer._open[-1] if tracer._open else -1
                start = perf_counter()
                count(tracer.counts, result, *args, **kwargs)
                tracer.spans.append(["trace", start, perf_counter(), parent])
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for owner, name, layer, setup, count in _patch_points():
                if not (self.full or setup):
                    continue
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                if isinstance(original, staticmethod):
                    wrapped: Any = staticmethod(self._wrap(original.__func__, layer, setup, count))
                else:
                    wrapped = self._wrap(original, layer, setup, count)
                setattr(owner, name, wrapped)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: summed self time (s) and number of calls."""
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for (layer, start, end, _), children in zip(self.spans, child_s):
            table[layer]["self_s"] += (end - start) - children
            table[layer]["calls"] += 1
        return table


def layer_diff(before: Dict[str, Any], after: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Self-time and count deltas between two layer records.

    Each record holds ``layers`` (:meth:`Tracer.layer_table`) and ``counts``.
    Rows for counts carry ``changed`` when the two values differ at all.
    """
    rows = []
    for layer in LAYERS:
        a = before["layers"].get(layer, {"self_s": 0.0, "calls": 0})
        b = after["layers"].get(layer, {"self_s": 0.0, "calls": 0})
        rows.append({"name": f"{layer}.self_s", "before": a["self_s"], "after": b["self_s"],
                     "delta": b["self_s"] - a["self_s"], "changed": False})
        rows.append({"name": f"{layer}.calls", "before": a["calls"], "after": b["calls"],
                     "delta": b["calls"] - a["calls"], "changed": a["calls"] != b["calls"]})
    for name in sorted(set(before["counts"]) | set(after["counts"])):
        a, b = before["counts"].get(name, 0), after["counts"].get(name, 0)
        rows.append({"name": name, "before": a, "after": b, "delta": b - a, "changed": a != b})
    return rows


def format_diff(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'layer metric':28s} {'before':>14s} {'after':>14s} {'delta':>14s}"]
    for row in rows:
        flag = "  COUNT CHANGED" if row["changed"] else ""
        lines.append(f"{row['name']:28s} {row['before']:14.6g} {row['after']:14.6g} "
                     f"{row['delta']:+14.6g}{flag}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perfbench/tracing.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    with open(argv[0]) as a, open(argv[1]) as b:
        before, after = json.load(a), json.load(b)
    rows = layer_diff(before, after)
    print(format_diff(rows))
    return 1 if any(row["changed"] for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
