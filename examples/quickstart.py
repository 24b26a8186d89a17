"""Quickstart: the declarative Experiment API in a few lines.

This example walks through the library's front door:

1. discover the registered paper harnesses (ids, tags, typed parameters);
2. run one with parameter overrides, getting a typed ``Artifact`` back;
3. read its scalars/tables, save it to disk, and reload it bit-for-bit;
4. drop down to the analytical core for a one-off "how good is carrier
   sense for a network like yours?" calculation.

Run it with::

    PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import repro.experiments  # noqa: F401 -- registers the builtin experiments
from repro.api import EXPERIMENTS, Artifact
from repro.constants import DEFAULT_DTHRESHOLD, DEFAULT_NOISE_RATIO
from repro.core import Scenario, average_policies, classify_regime, optimal_threshold


def main() -> None:
    # 1. Discovery: every paper harness is a tagged, typed Experiment.
    analytical = [
        name for name in EXPERIMENTS if "analytical" in EXPERIMENTS[name].tags
    ]
    print(f"{len(EXPERIMENTS)} experiments registered; analytical: {analytical}")

    table1 = EXPERIMENTS["table-1"]
    print(f"\n{table1.id}: {table1.title}")
    print("  parameters:", ", ".join(p.name for p in table1.params))

    # 2. Run with typed overrides (strings coerce through the spec, so CLI
    #    `--set n_samples=5000` and Python `n_samples=5000` are the same).
    artifact = table1.run(n_samples=5000)
    print(f"\nminimum efficiency: {artifact.scalars['minimum_efficiency_percent']:.1f}%"
          " of the optimal MAC (paper: carrier sense is within ~17% everywhere)")

    # 3. Artifacts persist as a JSON manifest plus packed .bin ResultSet
    #    sidecars and reload exactly.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table-1"
        artifact.save(out)
        reloaded = Artifact.load(out)
        print(f"saved -> {out.name}/manifest.json; reload identical: {reloaded == artifact}")

    # 4. The analytical core underneath, for a single deployment question:
    #    an 802.11-like network with receivers within Rmax = 40 of their
    #    senders and a competing sender 55 units away.
    scenario = Scenario(rmax=40.0, d=55.0, alpha=3.0, sigma_db=8.0)
    averages = average_policies(scenario, d_threshold=DEFAULT_DTHRESHOLD)
    tuned = optimal_threshold(scenario.rmax, scenario.alpha, DEFAULT_NOISE_RATIO, sigma_db=0.0)
    regime = classify_regime(scenario.rmax, tuned)
    print(f"\nTwo-pair scenario {scenario}:")
    print(f"  carrier sense achieves {100 * averages.cs_efficiency:.1f}% of optimal "
          f"(tuned threshold {tuned:.0f}, regime: {regime})")


if __name__ == "__main__":
    main()
