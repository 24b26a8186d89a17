"""repro.api: the fluent Study facade, CLI parity, and registry plugins.

Two contracts dominate: (1) the ``run-scenarios`` CLI and the figure
experiments produce byte-identical metrics through the Study/ResultSet path
(the pre-Study grid expansion is frozen inline here as the reference), and
(2) new topologies / traffic models / MACs plug in through the registries
without touching Scenario internals.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import EXPERIMENTS, ResultSet, Study, placement_seed, registry
from repro.api.experiment import parse_overrides
from repro.experiments import run_scenarios
from repro.experiments.__main__ import main
from repro.runner import BatchRunner, ResultCache, config_hash, expand_grid
from repro.scenarios import Scenario, aggregate_metrics, scenario_task
from repro.simulation.mac.csma import CsmaMac
from repro.simulation.traffic import SaturatedTraffic


def legacy_build_scenarios(params) -> list:
    """The pre-Study CLI expansion, frozen as the parity reference (it read an
    argparse namespace; ``params`` is the same fields as a mapping)."""
    topologies = []
    for chunk in params["topology"] or ["uniform_disc"]:
        topologies.extend(name.strip() for name in chunk.split(",") if name.strip())
    grid = {
        "topology": topologies,
        "n_nodes": params["nodes"] or [10],
        "extent_m": params["extent"] or [120.0],
        "sigma_db": params["sigma"] or [0.0],
        "cca_threshold_dbm": params["cca"] if params["cca"] is not None else [-82.0],
        "replicate": list(range(params["seeds"])),
    }
    base = {
        "mac": params["mac"],
        "traffic": params["traffic"],
        "offered_load_pps": params["load"],
        "rate_mbps": params["rate"],
        "duration_s": params["duration"],
        "detectability_margin_db": params["prune_margin"],
        "cca_noise_db": params["cca_noise"],
    }
    scenarios = []
    for config in expand_grid(base, grid):
        replicate = config.pop("replicate")
        config["seed"] = int(
            config_hash({
                "topology": config["topology"],
                "n_nodes": config["n_nodes"],
                "extent_m": config["extent_m"],
                "replicate": replicate,
                "base_seed": params["base_seed"],
            })[:8],
            16,
        )
        cca = config["cca_threshold_dbm"]
        config["name"] = (
            f"{config['topology']}-n{config['n_nodes']}"
            f"-e{config['extent_m']:g}-s{config['sigma_db']:g}"
            f"-c{'off' if cca is None else format(cca, 'g')}-r{replicate}"
        )
        scenarios.append(Scenario(**config))
    return scenarios


#: The old flag grammar's parse of ``--topology line,exposed_terminal --nodes
#: 4 --nodes 6 --sigma 0 --sigma 6 --seeds 2 --duration 0.1``, frozen.
LEGACY_PARAMS = {
    "topology": ["line,exposed_terminal"], "nodes": [4, 6], "extent": None,
    "sigma": [0.0, 6.0], "cca": None, "rate": 6.0, "prune_margin": 16.0,
    "cca_noise": 2.0, "mac": "csma", "traffic": "saturated", "load": 200.0,
    "duration": 0.1, "seeds": 2, "base_seed": 0,
}

#: The README's 48-scenario flag example, ``--topology uniform_disc,grid
#: --nodes 10 --nodes 20 --sigma 0 --sigma 8 --seeds 3 --cca -82 --cca off``.
README_LEGACY_PARAMS = {
    **LEGACY_PARAMS, "topology": ["uniform_disc,grid"], "nodes": [10, 20],
    "sigma": [0.0, 8.0], "seeds": 3, "cca": [-82.0, None], "duration": 0.5,
}


def _set_scenarios(assignments):
    """``run run-scenarios --set ...``'s scenario expansion."""
    spec = EXPERIMENTS["run-scenarios"]
    return run_scenarios.build_scenarios(
        spec.resolved_params(spec.resolve(parse_overrides(assignments)))
    )


class TestCliParity:
    def _assert_same_tasks(self, new, old):
        assert new == old
        assert [scenario_task(s).cache_key for s in new] == [
            scenario_task(s).cache_key for s in old
        ]

    def test_study_expansion_matches_legacy_cli_exactly(self):
        """Same scenarios, same order, same seeds/names -- same cache keys."""
        new = _set_scenarios([
            "topology=line,exposed_terminal", "nodes=4,6", "sigma=0,6", "seeds=2",
            "duration=0.1",
        ])
        self._assert_same_tasks(new, legacy_build_scenarios(LEGACY_PARAMS))

    def test_readme_example_matches_legacy_cli(self):
        new = _set_scenarios([
            "topology=uniform_disc,grid", "nodes=10,20", "sigma=0,8", "seeds=3",
            "cca=-82,off",
        ])
        assert len(new) == 48
        self._assert_same_tasks(new, legacy_build_scenarios(README_LEGACY_PARAMS))

    def test_cli_metrics_byte_identical_to_direct_runs(self, capsys):
        """The printed sweep aggregate equals direct runs of the frozen grid."""
        argv = ["run", "run-scenarios", "--set", "topology=exposed_terminal",
                "--set", "nodes=4,8", "--set", "duration=0.1", "--set", "no_cache=true"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        legacy = {**LEGACY_PARAMS, "topology": ["exposed_terminal"], "nodes": [4, 8],
                  "sigma": None, "seeds": 1}
        reference = aggregate_metrics(
            ResultSet.concat([s.run() for s in legacy_build_scenarios(legacy)])
        )
        for key in ("total_pps_mean", "total_pps_min", "total_pps_max"):
            assert f"{key}: {reference[key]:.4g}" in printed

    def test_placement_seed_is_the_cli_derivation(self):
        config = {"topology": "grid", "n_nodes": 10, "extent_m": 120.0}
        expected = int(
            config_hash({**config, "replicate": 3, "base_seed": 7})[:8], 16
        )
        assert placement_seed(config, 3, 7) == expected


class TestStudyFacade:
    def test_builder_steps_do_not_mutate(self):
        base = Study(topology="line", n_nodes=4, duration_s=0.1)
        swept = base.sweep(n_nodes=[4, 6])
        assert len(base.scenarios()) == 1
        assert len(swept.scenarios()) == 2
        assert len(swept.seeds(3).scenarios()) == 6

    def test_seeds_are_placement_stable_across_channel_axes(self):
        """Sigma sweeps compare the same placements, replicates differ."""
        study = (
            Study(topology="grid", n_nodes=6, duration_s=0.1)
            .sweep(sigma_db=[0.0, 8.0])
            .seeds(2)
        )
        scenarios = study.scenarios()
        assert len(scenarios) == 4
        by_sigma = {}
        for s in scenarios:
            by_sigma.setdefault(s.sigma_db, []).append(s.seed)
        assert by_sigma[0.0] == by_sigma[8.0]          # same placements
        assert len(set(by_sigma[0.0])) == 2            # distinct replicates

    def test_run_results_and_aggregate(self, tmp_path):
        run = (
            Study(topology="line", duration_s=0.1)
            .sweep(n_nodes=[4, 6])
            .cache(str(tmp_path / "cache"))
            .run()
        )
        results = run.results()
        assert isinstance(results, ResultSet)
        assert results.n_scenarios == 2
        assert run.aggregate() == aggregate_metrics(ResultSet.concat(run.raw))
        warm = (
            Study(topology="line", duration_s=0.1)
            .sweep(n_nodes=[4, 6])
            .cache(str(tmp_path / "cache"))
            .run()
        )
        assert warm.report.executed == 0
        assert warm.report.cache_hits == 2
        assert warm.results() == results

    def test_mixed_old_and_new_cache_entries(self, tmp_path):
        """A sweep where one entry predates the columnar format (an inline
        dict result) re-executes that task once; the next run is all hits,
        and ``results()`` equals a fresh run."""
        study = Study(topology="line", duration_s=0.1).sweep(n_nodes=[4, 6])
        scenarios = study.scenarios()
        cache = ResultCache(tmp_path / "cache")
        BatchRunner(workers=0, cache=cache).run([scenario_task(scenarios[1])])
        # Pre-seed task 0 with an old-format inline-JSON entry.
        task = scenario_task(scenarios[0])
        stale = {"name": scenarios[0].name, "total_pps": 1.0, "per_flow_pps": {"a->b": 1.0}}
        path = cache._path(task.cache_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"key": task.cache_key, "config": {"fn": task.fn, "config": task.config},
             "result": stale}
        ))
        run = study.cache(cache).run()
        assert run.report.executed == 1 and run.report.cache_hits == 1
        again = study.cache(cache).run()
        assert again.report.executed == 0 and again.report.cache_hits == 2
        fresh = ResultSet.concat([s.run() for s in scenarios])
        assert run.results() == fresh
        assert again.results() == fresh

    def test_task_study_explicit_and_swept(self):
        base = {"base_seed": 7}
        swept = (
            Study.tasks("repro.runner.sweep.per_task_seed", base)
            .sweep(index=[0, 1, 2])
            .run()
        )
        from repro.runner import per_task_seed
        assert swept.raw == [per_task_seed(7, i) for i in range(3)]
        explicit = Study.of_configs(
            "repro.runner.sweep.per_task_seed",
            [{"base_seed": 7, "index": i} for i in range(3)],
        ).run()
        assert explicit.raw == swept.raw

    def test_validation(self):
        with pytest.raises(ValueError):
            Study(topology="line").seeds(0)
        with pytest.raises(ValueError):
            Study.of([Scenario()]).sweep(n_nodes=[4])
        with pytest.raises(ValueError):
            Study.tasks("x.y").seeds(2)
        with pytest.raises(TypeError):
            Study(42)

    def test_fault_tolerance_builders_do_not_mutate(self):
        base = Study.tasks("repro.runner.sweep.per_task_seed", {"base_seed": 7})
        tuned = base.workers(2).on_error("skip")
        assert base._workers == 0 and base._on_error == "raise"
        assert tuned._workers == 2
        assert tuned._on_error == "skip"

    def test_bad_dispatch_settings_fail_at_the_builder(self):
        base = Study.tasks("repro.runner.sweep.per_task_seed", {"base_seed": 7})
        with pytest.raises(ValueError, match="on_error"):
            base.on_error("ignore")
        with pytest.raises(ValueError, match="workers"):
            base.workers(-1)
        assert base._on_error == "raise" and base._workers == 0

    def test_skip_mode_yields_partial_results_and_manifest(self):
        run = (
            Study.of_configs(
                "repro.runner._testing.maybe_fail",
                [{"value": 0, "fail": False}, {"value": 1, "fail": True},
                 {"value": 2, "fail": False}],
            )
            .on_error("skip")
            .run()
        )
        assert run.raw == [0, None, 4]
        assert run.completed == [0, 4]
        assert [f["index"] for f in run.failures] == [1]
        assert run.failures[0]["exc_type"] == "RuntimeError"


class TestRegistries:
    def test_builtins_present(self):
        assert {"csma", "tdma"} <= set(registry.MACS)
        assert {"saturated", "poisson"} <= set(registry.TRAFFIC_MODELS)
        assert len(registry.TOPOLOGIES) >= 7

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.MACS.register("csma", lambda *a, **k: None)

    def test_unknown_lookup_names_options(self):
        with pytest.raises(KeyError, match="unknown mac"):
            registry.MACS.get("aloha")

    def test_custom_topology_pluggable(self):
        from repro.scenarios.topologies import Placement

        @registry.TOPOLOGIES.register("two_pair_test")
        def two_pair(n_nodes, extent, rng, **params):
            positions = {f"p{i}": (float(i) * 10.0, 0.0) for i in range(n_nodes)}
            return Placement("two_pair_test", positions, (("p0", "p1"),))

        try:
            rs = Scenario(topology="two_pair_test", n_nodes=4, duration_s=0.1).run()
            assert rs.scenarios[0]["topology"] == "two_pair_test"
            assert rs.n_flows == 1 and rs.scenarios[0]["total_pps"] > 0
        finally:
            registry.TOPOLOGIES.unregister("two_pair_test")

    def test_custom_traffic_model_pluggable(self):
        @registry.TRAFFIC_MODELS.register("saturated_small")
        def saturated_small(scenario, net, destination, payload_bytes=200):
            return SaturatedTraffic(destination=destination, payload_bytes=payload_bytes)

        try:
            base = dict(topology="line", n_nodes=4, duration_s=0.1, seed=3)
            custom = Scenario(traffic="saturated_small",
                              traffic_params={"payload_bytes": 100}, **base)
            # params reach the factory and round-trip through the config
            assert Scenario.from_config(custom.as_config()) == custom
            rs = custom.run()
            small = Scenario(traffic="saturated_small", **base).run()
            # smaller frames -> more pps
            assert rs.scenarios[0]["total_pps"] > small.scenarios[0]["total_pps"] > 0
        finally:
            registry.TRAFFIC_MODELS.unregister("saturated_small")

    def test_custom_mac_pluggable_and_rng_aligned(self):
        """A registered MAC gets the same child-rng stream as a builtin."""
        @registry.MACS.register("csma_clone")
        def csma_clone(network, node_id, radio, rate_selector, rng, **params):
            return CsmaMac(node_id, network.sim, radio, rate_selector, rng=rng, **params)

        try:
            base = dict(topology="exposed_terminal", n_nodes=4, duration_s=0.2, seed=5)
            clone = Scenario(mac="csma_clone", mac_params={"use_acks": False}, **base).run()
            builtin = Scenario(mac="csma", **base).run()
            assert np.array_equal(clone.delivered_pps, builtin.delivered_pps)
        finally:
            registry.MACS.unregister("csma_clone")

    def test_empty_plugin_params_keep_cache_keys_stable(self):
        """Scenarios without plugin params hash exactly as before the fields."""
        config = Scenario(topology="line", n_nodes=4).as_config()
        assert "traffic_params" not in config
        assert "mac_params" not in config
        with_params = Scenario(topology="line", n_nodes=4,
                               traffic_params={"payload_bytes": 64})
        assert "traffic_params" in with_params.as_config()
        assert (scenario_task(Scenario(topology="line", n_nodes=4)).cache_key
                != scenario_task(with_params).cache_key)
