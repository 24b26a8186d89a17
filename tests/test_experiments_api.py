"""The declarative experiment API: registry, typed params, artifacts, CLI.

Every paper harness is a registered :class:`repro.api.Experiment`; running
one produces an :class:`repro.api.Artifact` whose numbers match the golden
fixture ``tests/data/experiment_artifacts.json`` (at reduced parameters);
artifacts round-trip through disk; and the ``list | describe | run`` CLI
behaves as documented.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import repro.experiments  # noqa: F401 -- registers the builtin experiments
from repro.api import EXPERIMENTS, Artifact, Param, ResultSet, experiment
from repro.api.experiment import parse_overrides
from repro.experiments.__main__ import main

ALL_IDS = (
    "figure-02",
    "figure-03",
    "figure-04",
    "figure-05-06",
    "figure-07",
    "figure-09",
    "table-1",
    "table-2",
    "section-3.4",
    "figures-10-11",
    "figures-12-13",
    "section-5",
    "figure-14",
    "ablation-noise-floor",
    "ablation-fixed-bitrate",
    "run-scenarios",
    "saturated-network",
    "bianchi-vs-sim",
)

#: Reduced parameters per experiment so the full parity sweep stays fast.
REDUCED = {
    "figure-02": dict(resolution=41),
    "figure-03": dict(rmax_values=(50.0,)),
    "figure-04": dict(rmax_values=(40.0,), d_values=[float(d) for d in np.linspace(10, 200, 8)]),
    "figure-05-06": dict(n_d_points=20),
    "figure-07": dict(alphas=(3.0,), rmax_values=(10.0, 40.0), n_samples=4000),
    "figure-09": dict(rmax_values=(120.0,), n_samples=4000, n_d_points=6),
    "table-1": dict(n_samples=4000),
    "table-2": dict(n_samples=4000),
    "section-3.4": dict(n_samples=20_000),
    "figures-10-11": dict(n_combinations=2, run_duration_s=0.2, rates_mbps=(6.0, 12.0)),
    "figures-12-13": dict(n_combinations=2, run_duration_s=0.2, rates_mbps=(6.0, 12.0)),
    "section-5": dict(n_combinations=2, run_duration_s=0.2, rates_mbps=(6.0, 12.0)),
    "figure-14": dict(),
    "ablation-noise-floor": dict(rmax_values=(120.0,)),
    "ablation-fixed-bitrate": dict(rmax_values=(40.0,), d_values=(55.0,), n_samples=4000),
    "run-scenarios": dict(topology="exposed_terminal", nodes=4, duration=0.2, no_cache=True),
    "saturated-network": dict(nodes=(4,), duration=0.2, no_cache=True),
    "bianchi-vs-sim": dict(n_senders=(2,), duration=0.5, no_cache=True),
}


class TestDiscovery:
    def test_every_harness_is_registered(self):
        for name in ALL_IDS:
            assert name in EXPERIMENTS
        assert set(REDUCED) == set(ALL_IDS)

    def test_every_experiment_is_tagged(self):
        for name in EXPERIMENTS:
            exp = EXPERIMENTS[name]
            assert exp.tags, f"{name} has no tags"
            assert exp.title
            assert exp.id == name

    def test_slow_tag_matches_historical_slow_tuple(self):
        slow = {name for name in EXPERIMENTS if "slow" in EXPERIMENTS[name].tags}
        assert slow == {"figures-10-11", "figures-12-13", "section-5"}

    def test_plugin_experiment_registers_like_builtins(self):
        def body(x: float = 1.0):
            from repro.experiments.base import ExperimentResult

            result = ExperimentResult("plugin-exp", "plugin")
            result.data["doubled"] = 2.0 * x
            return result

        exp = experiment("plugin-exp", "A plugin experiment", body, tags=("analytical",))
        try:
            assert "plugin-exp" in EXPERIMENTS
            artifact = EXPERIMENTS["plugin-exp"].run(x="2.5")
            assert artifact.scalars["doubled"] == 5.0
        finally:
            EXPERIMENTS.unregister("plugin-exp")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            experiment("table-1", "dup", lambda: None)


class TestParamSpec:
    def test_kinds_inferred_from_defaults(self):
        exp = EXPERIMENTS["table-1"]
        kinds = {p.name: p.resolved_kind() for p in exp.params}
        assert kinds["n_samples"] == "int"
        assert kinds["sigma_db"] == "float"
        assert kinds["rmax_values"] == "list"

    def test_optional_inferred_from_annotation_or_default(self):
        params = {p.name: p for p in EXPERIMENTS["run-scenarios"].params}
        assert params["prune_margin"].optional     # Optional[float] annotation
        assert params["cache_dir"].optional        # default None
        assert not params["duration"].optional     # plain float
        assert params["prune_margin"].coerce("off") is None

    def test_coercion_per_kind(self):
        assert Param("n", 5).coerce("12") == 12
        assert Param("x", 1.0).coerce("2.5") == 2.5
        assert Param("b", True).coerce("false") is False
        assert Param("b", True).coerce("off") is False  # bool, not None
        assert Param("b", False).coerce("yes") is True
        assert Param("s", "csma").coerce("tdma") == "tdma"
        # "none"/"off" map to None only for optional params; elsewhere they
        # are ordinary values (or coercion errors).
        assert Param("s", "csma").coerce("none") == "none"
        assert Param("dir", None).coerce("none") is None
        assert Param("margin", 16.0, optional=True).coerce("off") is None
        with pytest.raises(ValueError):
            Param("duration", 0.5).coerce("off")
        assert Param("v", (1.0, 2.0)).coerce("3,4.5") == [3, 4.5]
        assert Param("v", (1.0,)).coerce("[1, 2]") == [1, 2]
        # Per-element off/none inside list values (a CCA axis point).
        assert Param("cca", (-82.0,)).coerce("-82,off") == [-82, None]
        assert Param("j", None).coerce('{"a": 1}') == {"a": 1}

    def test_coercion_errors_name_the_parameter(self):
        with pytest.raises(ValueError, match="n_samples"):
            Param("n_samples", 5).coerce("many")

    def test_parse_overrides(self):
        assert parse_overrides(["a=1", "b=x=y"]) == {"a": "1", "b": "x=y"}
        with pytest.raises(ValueError):
            parse_overrides(["novalue"])

    def test_unknown_override_raises_with_known_names(self):
        with pytest.raises(KeyError, match="n_samples"):
            EXPERIMENTS["table-1"].run(bogus=1)


GOLDEN_PATH = Path(__file__).parent / "data" / "experiment_artifacts.json"


def _golden_entry(artifact: Artifact) -> dict:
    """What the golden fixture pins per experiment: the artifact's JSON
    payloads plus a sha256 of each attached ResultSet's binary form."""
    manifest = artifact.manifest()
    return {
        "scalars": manifest["scalars"],
        "tables": manifest["tables"],
        "series": manifest["series"],
        "result_sets": {
            name: hashlib.sha256(rs.to_bytes()).hexdigest()
            for name, rs in artifact.result_sets.items()
        },
    }


def _assert_close(actual, expected, where):
    """Floats within rel=1e-9 (NaN matches NaN); everything else exactly."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{index}]")
    elif isinstance(expected, float) or isinstance(actual, float):
        assert type(actual) in (int, float) and type(expected) in (int, float), where
        if math.isnan(expected):
            assert math.isnan(actual), where
        else:
            assert actual == pytest.approx(expected, rel=1e-9, abs=0.0), where
    else:
        assert type(actual) is type(expected) and actual == expected, where


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ALL_IDS)
def test_parity_new_path_matches_legacy(name, golden):
    """Every registered experiment reproduces, at REDUCED parameters, the
    numbers pinned in the golden fixture.  The fixture was captured on the
    last tree that could also run each harness outside the Artifact path,
    where a parity test held both paths identical."""
    artifact = EXPERIMENTS[name].run(**REDUCED[name])
    expected = golden[name]
    actual = _golden_entry(artifact)
    for part in ("scalars", "tables", "series"):
        _assert_close(json.loads(json.dumps(actual[part])), expected[part], f"{name}.{part}")
    assert actual["result_sets"] == expected["result_sets"], name
    # The declared params all appear resolved in the artifact.
    for param in EXPERIMENTS[name].params:
        assert param.name in artifact.params


class TestArtifactRoundTrip:
    def test_series_and_tables_round_trip(self, tmp_path):
        artifact = EXPERIMENTS["figure-04"].run(**REDUCED["figure-04"])
        assert "curves" in artifact.series
        artifact.save(tmp_path / "fig04")
        loaded = Artifact.load(tmp_path / "fig04")
        assert loaded.manifest() == artifact.manifest()
        assert loaded.scalars == artifact.scalars
        assert json.dumps(loaded.series, sort_keys=True) == json.dumps(
            json.loads(json.dumps(artifact.series)), sort_keys=True
        )

    def test_result_set_sidecar_round_trips(self, tmp_path):
        artifact = EXPERIMENTS["run-scenarios"].run(**REDUCED["run-scenarios"])
        rs = artifact.result_sets["results"]
        assert isinstance(rs, ResultSet) and rs.n_scenarios == 1
        manifest_path = artifact.save(tmp_path / "sweep")
        assert manifest_path.name == "manifest.json"
        assert (tmp_path / "sweep" / "results.bin").read_bytes() == rs.pack()
        loaded = Artifact.load(manifest_path)
        assert loaded.result_sets["results"] == rs
        assert loaded == artifact

    def test_schema_1_artifact_is_rejected_by_name(self, tmp_path):
        """A schema-1 directory (``.npz`` sidecars) raises ``ValueError``
        naming its schema, not an error from deep inside the decoder."""
        rs = ResultSet.from_flows({"name": "x"}, [("a", "b")], delivered_pps=[1.0])
        manifest_path = Artifact("x", "X", result_sets={"results": rs}).save(tmp_path)
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = 1
        manifest["result_sets"]["results"]["file"] = "results.npz"
        manifest_path.write_text(json.dumps(manifest))
        (tmp_path / "results.bin").unlink()
        (tmp_path / "results.npz").write_bytes(rs.to_bytes())
        with pytest.raises(ValueError, match="unsupported artifact schema 1"):
            Artifact.load(tmp_path)

    def test_extras_are_not_persisted_but_recorded(self, tmp_path):
        artifact = EXPERIMENTS["section-5"].run(**REDUCED["section-5"])
        assert "study" in artifact.extras
        artifact.save(tmp_path / "s5")
        manifest = json.loads((tmp_path / "s5" / "manifest.json").read_text())
        assert manifest["extras"] == ["study"]
        loaded = Artifact.load(tmp_path / "s5")
        assert loaded.extras == {}
        assert loaded.extra_names == ["study"]
        assert loaded.scalars == artifact.scalars
        # Round-trip equality and save-stability hold despite the dropped
        # extras: the loaded artifact remembers their names.
        assert loaded == artifact
        loaded.save(tmp_path / "s5b")
        assert (tmp_path / "s5b" / "manifest.json").read_text() == (
            tmp_path / "s5" / "manifest.json"
        ).read_text()


class TestNewCli:
    def test_list_text_and_tag_filter(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_IDS:
            assert name in out

        assert main(["list", "--tag", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "ablation-noise-floor" in out and "ablation-fixed-bitrate" in out
        assert "figure-02" not in out

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        by_id = {entry["id"]: entry for entry in listing}
        assert set(ALL_IDS) <= set(by_id)
        table1 = by_id["table-1"]
        assert "analytical" in table1["tags"]
        assert any(p["name"] == "n_samples" for p in table1["params"])

    def test_describe(self, capsys):
        assert main(["describe", "table-1"]) == 0
        out = capsys.readouterr().out
        assert "n_samples" in out and "tags: analytical" in out

        assert main(["describe", "table-1", "--json"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["id"] == "table-1"

    def test_run_with_set_json_and_out(self, tmp_path, capsys):
        assert main([
            "run", "figure-03", "--set", "rmax_values=50",
            "--json", "--out", str(tmp_path),
        ]) == 0
        manifests = json.loads(capsys.readouterr().out)
        assert isinstance(manifests, list) and len(manifests) == 1  # stable shape
        manifest = manifests[0]
        assert manifest["experiment_id"] == "figure-03"
        assert manifest["params"]["rmax_values"] == [50]
        loaded = Artifact.load(tmp_path / "figure-03")
        assert loaded.manifest() == manifest

    def test_run_rejects_unknown_set_key(self, capsys):
        assert main(["run", "figure-03", "--set", "bogus=1"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_multi_run_rejects_key_unknown_everywhere(self, capsys):
        # A typo must not silently run every selected experiment at defaults.
        assert main(["run", "--tag", "ablation", "--set", "n_smaples=10"]) == 1
        err = capsys.readouterr().err
        assert "n_smaples" in err and "no selected experiment" in err

    def test_run_by_tag(self, capsys):
        assert main(["run", "--tag", "ablation", "--set", "rmax_values=40",
                     "--set", "n_samples=2000"]) == 0
        out = capsys.readouterr().out
        assert "ablation-noise-floor" in out and "ablation-fixed-bitrate" in out


class TestLegacyCliGrammar:
    """The bare-id and ``run-scenarios`` flag grammars are gone: only
    ``list | describe | run`` parse."""

    def test_no_args_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_bare_experiment_id_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table-1"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_experiment_fails(self):
        with pytest.raises(SystemExit, match="unknown experiment 'not-an-experiment'"):
            main(["run", "not-an-experiment"])

    def test_run_scenarios_delegates(self, tmp_path, capsys):
        """Nothing to delegate to: the flag form is a usage error."""
        argv = [
            "run-scenarios", "--topology", "exposed_terminal", "--nodes", "4",
            "--duration", "0.2", "--cache-dir", str(tmp_path / "cache"),
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


#: Inputs the run-scenarios body rejects: API kwargs, the same as ``--set``
#: assignments, and the expected message.
BAD_SWEEPS = {
    "zero-seeds": (dict(seeds=0), ["seeds=0"], "seed replicate"),
    "unknown-topology": (dict(topology="nope"), ["topology=nope"], "unknown topology 'nope'"),
    "one-node-grid": (
        dict(topology="grid", nodes=1), ["topology=grid", "nodes=1"],
        "invalid scenario grid-n1-.*at least two nodes",
    ),
    "negative-workers": (dict(workers=-1), ["workers=-1"], "workers must be non-negative"),
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
class TestRunScenariosBadInput:
    """Bad sweeps raise ValueError (never SystemExit) before any task runs;
    the command line reports ``run-scenarios: <message>`` and exits 1."""

    def test_api_raises_value_error(self, case, tmp_path):
        kwargs, _, message = BAD_SWEEPS[case]
        cache = tmp_path / "cache"
        with pytest.raises(ValueError, match=message):
            EXPERIMENTS["run-scenarios"].run(cache_dir=str(cache), duration=0.1, **kwargs)
        assert not cache.exists()

    def test_set_grammar_exits_1(self, case, tmp_path, capsys):
        _, assignments, message = BAD_SWEEPS[case]
        argv = ["run", "run-scenarios", "--set", f"cache_dir={tmp_path / 'cache'}"]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("run-scenarios: ") and re.search(message, err)
        assert not (tmp_path / "cache").exists()
