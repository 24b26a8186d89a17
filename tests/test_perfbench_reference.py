"""The simulator still reproduces the benchmark's own pinned results.

``perfbench/reference.json`` pins, per workload input and scenario, the
first 16 hex digits of ``sha256(ResultSet.to_bytes())`` and
``events_processed`` from plain ``Scenario.run()``.  This module reads that
file and ``perfbench/workloads.py`` (read-only: the benchmark owns both) and
replays a slice of them: campus-500 input 0, campus-2000 input 0 (the only
large network with shadowing on) and every 5th pairs-sweep cell of input 0.
A change meant to keep simulator output bit-identical must keep these green
without re-pinning.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]

CASES = [("campus-500", 0, 0), ("campus-2000", 0, 0)] + [
    ("pairs-sweep", 0, cell)
    for cell in range(0, len(WORKLOADS["pairs-sweep"].scenarios(0)), 5)
]


@pytest.mark.parametrize(("workload", "index", "cell"), CASES)
def test_scenario_run_matches_benchmark_reference(workload, index, cell):
    result = WORKLOADS[workload].scenarios(index)[cell].run()
    digest = hashlib.sha256(result.to_bytes()).hexdigest()[:16]
    events = result.scenarios[0]["events_processed"]
    assert [digest, events] == REFERENCE[workload][str(index)][cell]


def test_campus_2000_builds_rows_only_for_senders():
    """Received-power rows are built per sender on first transmission: on
    campus-2000 input 7, 760 of the 2000 nodes transmit, and only they get
    a row."""
    scenario = WORKLOADS["campus-2000"].scenarios(7)[0]
    net, _ = scenario.build_network()
    net.run(scenario.duration_s)
    senders = sum(node.radio.stats.frames_transmitted > 0 for node in net.nodes.values())
    assert net.medium.link_rows.rows_built == senders == 760
