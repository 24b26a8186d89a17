"""The ``run-scenarios`` experiment: sweep scenario grids through the Study facade.

Builds a :class:`repro.api.Study` over the requested parameter grid
(topology x nodes x extent x sigma x CCA threshold x seed replicate), runs
it across a multiprocessing pool with placement-stable per-replicate
seeding, caches every result on disk keyed by the scenario config hash (a
repeated invocation is a pure cache hit; the keys match those the
pre-Study CLI wrote), and aggregates the sweep's columnar
:class:`~repro.results.ResultSet` into an :class:`ExperimentResult`.

:func:`run` is the registered experiment body; the command line reaches it
through ``run run-scenarios --set KEY=VALUE``, and a progress heartbeat goes
to stderr while tasks execute.  Bad input raises ``ValueError`` before any
task runs; the command line prints it as ``run-scenarios: <message>`` and
exits 1.  Examples::

    python -m repro.experiments run run-scenarios --set topology=scale_free \
        --set nodes=50 --set workers=4
    python -m repro.experiments run run-scenarios --set topology=uniform_disc,grid \
        --set nodes=10,20 --set sigma=0,8 --set seeds=3 --set workers=4
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..api import Study
from ..api.experiment import experiment
from ..runner import ResultCache
from ..scenarios import TOPOLOGIES, Scenario
from ..simulation.medium import DEFAULT_DETECTABILITY_MARGIN_DB
from .base import ExperimentResult, default_cache_dir

__all__ = ["run", "build_study", "build_scenarios", "EXPERIMENT"]

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


def _scenario_name(config: Dict[str, Any], replicate: Optional[int]) -> str:
    cca = config["cca_threshold_dbm"]
    return (
        f"{config['topology']}-n{config['n_nodes']}"
        f"-e{config['extent_m']:g}-s{config['sigma_db']:g}"
        f"-c{'off' if cca is None else format(cca, 'g')}-r{replicate}"
    )


def _axis(value: Any, default: Sequence[Any]) -> List[Any]:
    """A sweep axis from a scalar or a sequence; ``None`` selects the
    default axis."""
    if value is None:
        return list(default)
    return list(value) if isinstance(value, (list, tuple)) else [value]


def build_study(params: Mapping[str, Any]) -> Study:
    """:func:`run`'s keyword arguments as a :class:`~repro.api.Study`."""
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
    """Sweep the scenario grid (axes accept scalars or sequences).

    The grid expansion, placement-stable seeding, caching and warm-group
    dispatch behind the registered ``run-scenarios`` experiment; a progress
    heartbeat goes to stderr while tasks execute.  Axes: ``topology``
    (comma-separable names), ``nodes``, ``extent`` (m), ``sigma`` (dB) and
    ``cca`` (dBm, or "off" for no carrier sense), crossed with ``seeds``
    replicates.  ``prune_margin`` is the medium's margin below the noise
    floor (dB, or "off" for the unpruned medium), ``cca_noise`` the
    per-frame carrier-sense noise (dB), ``load`` the per-flow Poisson rate
    (pkt/s); ``workers`` 0/1 runs in process, and ``cache_dir`` defaults
    to ``$REPRO_CACHE_DIR`` or ``.repro-cache``.
    """
    scenarios = build_scenarios(locals())
    cache_root = cache_dir or default_cache_dir()
    cache = None if no_cache else ResultCache(cache_root)
    # Warm-group dispatch comes with the Study facade: grid points sharing a
    # (topology, propagation) fingerprint travel in the same chunks so warm
    # worker pools rebuild the expensive network state once per group.
    study_run = (
        Study.of(scenarios)
        .cache(cache)
        .force(force)
        .workers(workers)
        .on_error(on_error)
        .run(progress=lambda message: print(message, file=sys.stderr))
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
    if verbose:
        result.data["scenarios"] = {
            r["name"]: f"{r['total_pps']:.0f} pkt/s over {r['n_flows']} flows"
            for r in results.scenarios
        }
    result.add_note(f"runner: {study_run.report.summary()}")
    if cache is not None:
        result.add_note(f"cache: {cache_root!s}")
    return result


EXPERIMENT = experiment(
    EXPERIMENT_ID,
    "Scenario sweep through the parallel batch runner",
    run,
    tags=("packet-level", "sweep"),
)

