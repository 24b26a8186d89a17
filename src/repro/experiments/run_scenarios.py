"""The ``run-scenarios`` CLI: sweep scenario grids through the Study facade.

Builds a :class:`repro.api.Study` over the requested parameter grid
(topology x nodes x extent x sigma x CCA threshold x seed replicate), runs
it across a multiprocessing pool with placement-stable per-replicate
seeding, caches every result on disk keyed by the scenario config hash (a
repeated invocation is a pure cache hit; the keys match those the
pre-Study CLI wrote), and aggregates the sweep's columnar
:class:`~repro.results.ResultSet` into an :class:`ExperimentResult`.

:func:`run` is the registered experiment body; the flag grammar below parses
into exactly its keyword arguments (each flag's dest is the keyword's name),
so both forms run the same sweep under the same cache keys.  Bad input
raises ``ValueError`` before any task runs; the command lines print it as
``run-scenarios: <message>`` and exit 1.  Examples::

    python -m repro.experiments run-scenarios --topology scale_free --nodes 50 --workers 4
    python -m repro.experiments run-scenarios --topology uniform_disc,grid \
        --nodes 10 --nodes 20 --sigma 0 --sigma 8 --seeds 3 --workers 4
    python -m repro.experiments run run-scenarios --set topology=grid --set nodes=10,20
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..api import Study
from ..api.experiment import experiment
from ..runner import ResultCache
from ..scenarios import TOPOLOGIES, Scenario
from ..simulation.medium import DEFAULT_DETECTABILITY_MARGIN_DB
from .base import ExperimentResult, default_cache_dir

__all__ = ["main", "run", "build_study", "build_scenarios", "EXPERIMENT"]

EXPERIMENT_ID = "run-scenarios"


def _optional_float(value: Any) -> Optional[float]:
    """A float, or ``None`` for ``None`` and the words "off"/"none"/"disabled".

    ``cca`` "off" disables carrier sense (the concurrency configuration);
    ``prune_margin`` "off" runs the unpruned reference medium.
    """
    if value is None or (
        isinstance(value, str) and value.lower() in ("off", "none", "disabled")
    ):
        return None
    return float(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments run-scenarios",
        description="Run a scenario sweep through the parallel batch runner.",
    )
    known = ", ".join(sorted(TOPOLOGIES))
    parser.add_argument(
        "--topology",
        action="append",
        default=None,
        help=f"topology name(s), comma-separable and repeatable ({known}; default: uniform_disc)",
    )
    parser.add_argument("--nodes", action="append", type=int, default=None,
                        help="node count(s) to sweep (repeatable; default: 10)")
    parser.add_argument("--extent", action="append", type=float, default=None,
                        help="spatial extent(s) in metres (repeatable; default: 120)")
    parser.add_argument("--sigma", action="append", type=float, default=None,
                        help="shadowing sigma(s) in dB (repeatable; default: 0)")
    parser.add_argument("--cca", action="append", type=_optional_float, default=None,
                        help="CCA threshold(s) in dBm, or 'off' (repeatable; default: -82)")
    parser.add_argument("--rate", type=float, default=6.0, help="bitrate in Mbps (default: 6)")
    parser.add_argument(
        "--prune-margin", type=_optional_float, default=DEFAULT_DETECTABILITY_MARGIN_DB,
        help="medium pruning margin below the noise floor in dB, or 'off' for the "
             f"unpruned reference medium (default: {DEFAULT_DETECTABILITY_MARGIN_DB:g})",
    )
    parser.add_argument(
        "--cca-noise", type=float, default=2.0,
        help="per-frame carrier-sense measurement noise in dB (default: 2)",
    )
    parser.add_argument("--mac", choices=("csma", "tdma"), default="csma")
    parser.add_argument("--traffic", choices=("saturated", "poisson"), default="saturated")
    parser.add_argument("--load", type=float, default=200.0,
                        help="per-flow offered load in pkt/s for poisson traffic")
    parser.add_argument("--duration", type=float, default=0.5,
                        help="simulated seconds per scenario (default: 0.5)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of seed replicates per grid point (default: 1)")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0/1 = in-process serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache root (default: $REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")
    parser.add_argument("--force", action="store_true",
                        help="re-execute and overwrite cached results")
    parser.add_argument("--on-error", choices=("raise", "skip"), default="raise",
                        help="after the batch drains: 'raise' on any failed task, "
                             "or 'skip' to keep partial results plus a failure "
                             "manifest (default: raise)")
    parser.add_argument("--verbose", action="store_true", help="print one line per scenario")
    return parser


def _scenario_name(config: Dict[str, Any], replicate: Optional[int]) -> str:
    cca = config["cca_threshold_dbm"]
    return (
        f"{config['topology']}-n{config['n_nodes']}"
        f"-e{config['extent_m']:g}-s{config['sigma_db']:g}"
        f"-c{'off' if cca is None else format(cca, 'g')}-r{replicate}"
    )


def _axis(value: Any, default: Sequence[Any]) -> List[Any]:
    """A sweep axis from a scalar or a sequence; ``None`` (an absent
    flag) selects the default axis."""
    if value is None:
        return list(default)
    return list(value) if isinstance(value, (list, tuple)) else [value]


def build_study(params: Mapping[str, Any]) -> Study:
    """:func:`run`'s keyword arguments (or the parsed flags) as a
    :class:`~repro.api.Study`."""
    topologies = [
        name.strip()
        for chunk in _axis(params["topology"], ["uniform_disc"])
        for name in str(chunk).split(",")
        if name.strip()
    ]
    for name in topologies:
        if name not in TOPOLOGIES:
            known = ", ".join(sorted(TOPOLOGIES))
            raise ValueError(f"unknown topology {name!r} (known: {known})")
    base = Scenario(
        mac=params["mac"],
        traffic=params["traffic"],
        offered_load_pps=float(params["load"]),
        rate_mbps=float(params["rate"]),
        duration_s=float(params["duration"]),
        detectability_margin_db=_optional_float(params["prune_margin"]),
        cca_noise_db=float(params["cca_noise"]),
    )
    return (
        Study(base)
        .sweep(
            topology=topologies,
            n_nodes=[int(n) for n in _axis(params["nodes"], [10])],
            extent_m=[float(e) for e in _axis(params["extent"], [120.0])],
            sigma_db=[float(s) for s in _axis(params["sigma"], [0.0])],
            cca_threshold_dbm=[_optional_float(c) for c in _axis(params["cca"], [-82.0])],
        )
        .seeds(int(params["seeds"]), base_seed=int(params["base_seed"]))
        .named(_scenario_name)
    )


def build_scenarios(params: Mapping[str, Any]) -> List[Scenario]:
    """Expand the sweep into validated concrete scenario specs."""
    scenarios: List[Scenario] = []
    for config in build_study(params).configs():
        try:
            scenario = Scenario.from_config(config)
            scenario.placement()  # catch generator-level errors (e.g. too few nodes) now
        except (ValueError, KeyError) as exc:
            raise ValueError(f"invalid scenario {config['name']}: {exc}") from exc
        scenarios.append(scenario)
    return scenarios


def _sweep(
    params: Mapping[str, Any], progress: Optional[Callable[[str], None]] = None
) -> ExperimentResult:
    """The one sweep body behind :func:`run` and :func:`main`."""
    scenarios = build_scenarios(params)
    cache_dir = params["cache_dir"] or default_cache_dir()
    cache = None if params["no_cache"] else ResultCache(cache_dir)
    # Warm-group dispatch comes with the Study facade: grid points sharing a
    # (topology, propagation) fingerprint travel in the same chunks so warm
    # worker pools rebuild the expensive network state once per group.
    study_run = (
        Study.of(scenarios)
        .cache(cache)
        .force(params["force"])
        .workers(params["workers"])
        .on_error(params["on_error"])
        .run(progress=progress)
    )

    results = study_run.results()
    result = ExperimentResult(EXPERIMENT_ID, "Scenario sweep")
    result.data["sweep"] = study_run.aggregate()
    # The whole sweep as one typed columnar ResultSet: the artifact persists
    # it as a packed .bin sidecar; the text summary prints its short repr.
    result.data["results"] = results
    if study_run.failures:
        # Machine-readable manifest of every failed task (only reachable
        # under on_error="skip").
        result.data["failures"] = study_run.failures
        result.add_note(f"failures: {len(study_run.failures)} task(s) skipped")
    if params["verbose"]:
        result.data["scenarios"] = {
            r["name"]: f"{r['total_pps']:.0f} pkt/s over {r['n_flows']} flows"
            for r in results.scenarios
        }
    result.add_note(f"runner: {study_run.report.summary()}")
    if cache is not None:
        result.add_note(f"cache: {cache_dir!s}")
    return result


def run(
    topology: Any = "uniform_disc",
    nodes: Any = (10,),
    extent: Any = (120.0,),
    sigma: Any = (0.0,),
    cca: Any = (-82.0,),
    rate: float = 6.0,
    prune_margin: Optional[float] = DEFAULT_DETECTABILITY_MARGIN_DB,
    cca_noise: float = 2.0,
    mac: str = "csma",
    traffic: str = "saturated",
    load: float = 200.0,
    duration: float = 0.5,
    seeds: int = 1,
    base_seed: int = 0,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    force: bool = False,
    on_error: str = "raise",
    verbose: bool = False,
) -> ExperimentResult:
    """Programmatic form of the CLI sweep (axes accept scalars or sequences).

    This is the body behind the registered ``run-scenarios`` experiment:
    the same grid expansion, placement-stable seeding, caching, and
    warm-group dispatch as the command line, returning the
    :class:`ExperimentResult` instead of printing it.
    """
    return _sweep(locals())


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Scenario sweep through the parallel batch runner",
    run,
    tags=("packet-level", "sweep"),
)


def main(argv: Optional[List[str]] = None) -> int:
    """The flag grammar: :func:`run`'s sweep with a stderr heartbeat,
    printed as the same artifact summary ``run run-scenarios`` prints."""
    params = vars(build_parser().parse_args(argv))
    try:
        result = _sweep(params, progress=lambda message: print(message, file=sys.stderr))
    except ValueError as exc:
        print(f"{EXPERIMENT_ID}: {exc}", file=sys.stderr)
        return 1
    print(EXPERIMENT._lift(result, params).summary())
    return 0
