"""Harness checks on shrunken workloads (seconds, not minutes).

Not collected by a bare ``pytest`` run of the repo; run explicitly::

    python3 -m pytest -q perfbench/check_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from passes import result_key, run_pass  # noqa: E402
from tracing import Tracer, layer_diff  # noqa: E402
from workloads import Workload, _campus  # noqa: E402

from repro.api.study import placement_seed  # noqa: E402
from repro.scenarios import Scenario  # noqa: E402


def _tiny_pairs(index):
    specs = []
    for topology, n_nodes in (("hidden_terminal", 3), ("exposed_terminal", 4)):
        config = {"topology": topology, "n_nodes": n_nodes, "extent_m": 120.0}
        for cca_threshold_dbm in (-82.0, None):
            for rate_mbps in (6.0, 24.0):
                specs.append(Scenario(seed=placement_seed(config, 0, index), sigma_db=8.0,
                                      cca_threshold_dbm=cca_threshold_dbm,
                                      rate_mbps=rate_mbps, duration_s=0.05, **config))
    return specs


TINY = {
    "campus": Workload("tiny-campus", _campus("tiny-campus", 80, 6, 1600.0, 0.04, 8.0, 0.02),
                       via_study=False, replays=2),
    "pairs": Workload("tiny-pairs", _tiny_pairs, via_study=True, replays=2),
}


def _reference(workload, index=1):
    return [result_key(scenario.run()) for scenario in workload.scenarios(index)]


@pytest.fixture(params=sorted(TINY))
def workload(request):
    return TINY[request.param]


@pytest.mark.parametrize("trace", [False, True])
def test_pass_reproduces_scenario_run(workload, trace, tmp_path):
    record = run_pass(workload, 1, _reference(workload), trace, tmp_path)
    assert record["failed"] == 0
    assert record["attempted"] == len(workload.scenarios(1))
    assert 0 < record["setup_s"] < record["wall_s"]


def test_counts_repeat_exactly(workload, tmp_path):
    reference = _reference(workload)
    first = run_pass(workload, 1, reference, True, tmp_path / "a")
    second = run_pass(workload, 1, reference, True, tmp_path / "b")
    assert first["counts"] == second["counts"]
    assert not any(row["changed"] for row in layer_diff(first, second))
    assert first["counts"]["loop.notifications"] > 0


def test_corrupted_reference_counts_as_failed(workload, tmp_path):
    reference = _reference(workload)
    reference[0] = ["0" * 16, reference[0][1]]
    reference[-1] = [reference[-1][0], reference[-1][1] + 1]
    record = run_pass(workload, 1, reference, False, tmp_path)
    assert record["failed"] == (1 if len(reference) == 1 else 2)


def test_self_times_partition_the_traced_cold_run(tmp_path):
    workload = TINY["campus"]
    record = run_pass(workload, 1, _reference(workload), True, tmp_path)
    layers = record["layers"]
    cold = sum(layers[name]["self_s"] for name in
               ("placement", "rxmatrix", "build", "start", "loop", "assembly"))
    assert cold <= record["wall_s"]
    assert layers["start"]["calls"] == layers["loop"]["calls"] == 1
    assert layers["handoff"]["calls"] == 0  # the cold path hands off no warm state


def test_tracer_restores_entry_points():
    before = Scenario.__dict__["build_network"]
    with Tracer(full=True).installed():
        assert Scenario.__dict__["build_network"] is not before
    assert Scenario.__dict__["build_network"] is before


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campus-500", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_names_every_metric_run_prints(tmp_path):
    from run import END_TO_END, layer_metrics

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {"campus-500", "campus-2000", "pairs-sweep"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in END_TO_END]
    workload = TINY["pairs"]
    reference = _reference(workload)
    traced = [run_pass(workload, 1, reference, True, tmp_path / name) for name in "ab"]
    untraced = [run_pass(workload, 1, reference, False, tmp_path / "c")]
    metrics = layer_metrics(traced, untraced)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}
