"""no-wall-clock: simulation code reads the sim clock, never the host's.

A single ``time.time()`` / ``perf_counter()`` / ``datetime.now()`` inside
the event engine, radios, MACs, the channel, the forwarding layer, the
closed-loop control plane, or the scenario and result layers couples
results to the machine running them -- replays stop being bit-identical
and cached sweeps stop being trustworthy.  Ambient process state (an
environment variable, OS entropy, a host- or time-derived UUID) breaks
the same guarantee, so those reads are forbidden alongside.  Inside the
scoped packages the only clock is ``Simulator.now`` and the only entropy
is the scenario seed.

The scope is every package ``Scenario.run`` / ``Simulator.run`` /
``SimEnv.step`` reach, plus ``repro.propagation``, whose channel models
run through the medium's callbacks.  Benchmark, runner and recording code
legitimately reads wall time; it lives outside these packages, so the
rule's scope already excludes it.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..context import FileContext
from ..engine import Rule
from ..findings import Finding

__all__ = ["NoWallClockRule"]

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_AMBIENT_CALLS = {
    "os.getenv",
    "os.environ.get",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}


class NoWallClockRule(Rule):
    name = "no-wall-clock"
    description = (
        "Forbid wall-clock reads (time.time/perf_counter/datetime.now) and "
        "ambient state (os.getenv/os.environ.get/os.urandom/uuid1/uuid4) in "
        "the packages a run executes -- the sim clock and the scenario seed "
        "are the only time and entropy sources."
    )
    scopes = (
        "repro.simulation",
        "repro.networking",
        "repro.control",
        "repro.scenarios",
        "repro.capacity",
        "repro.results",
        "repro.propagation",
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = ctx.resolve(node.func)
            if path in _WALL_CLOCK_CALLS:
                message = (
                    f"wall-clock read {path}() in simulation code; use the "
                    f"simulator's clock (Simulator.now)"
                )
            elif path in _AMBIENT_CALLS:
                message = (
                    f"ambient-state read {path}() in simulation code; derive "
                    f"the value from the scenario config or seed"
                )
            else:
                continue
            findings.append(self.finding(ctx, node.lineno, node.col_offset, message))
        return findings
