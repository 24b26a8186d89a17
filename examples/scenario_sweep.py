"""A worked scenario sweep on the fluent Study API: one typed ResultSet.

Declares a grid of whole-network scenarios -- every seeded topology at two
network sizes -- as a :class:`repro.api.Study`, runs it through the
worker pool with a disk cache under ``.repro-cache/``, and reduces the
sweep's columnar :class:`~repro.results.ResultSet` into a per-topology
throughput table.  Run it twice: the second invocation executes zero
simulations and reads everything from the cache.

Run it with::

    python examples/scenario_sweep.py
"""

from __future__ import annotations

import numpy as np

from repro.api import Study, registry


def main() -> None:
    # The testbed topology places named office stations, not a node count.
    seeded = sorted(name for name in registry.TOPOLOGIES if name != "testbed")
    run = (
        Study(extent_m=140.0, duration_s=0.5, rate_mbps=6.0)
        .sweep(topology=seeded, n_nodes=[8, 16])
        .seeds(1, base_seed=2026)
        .named(lambda config, replicate: f"{config['topology']}-n{config['n_nodes']}")
        .cache(".repro-cache")
        .run(workers=4, progress=print)
    )
    print(f"\n{run.report.summary()}\n")

    results = run.results()  # the whole sweep as one columnar ResultSet
    print(f"{'scenario':>24} | {'flows':>5} | {'pkt/s':>8}")
    print("-" * 45)
    for meta in results.scenarios:
        print(f"{meta['name']:>24} | {meta['n_flows']:>5} | {meta['total_pps']:>8.0f}")

    # Sweep-level reductions are now array operations over the columns.
    print("\nMean delivered pkt/s by topology (columnar group_by):")
    for name, group in results.group_by("topology").items():
        print(f"  {name:>18}: {np.mean(group.scenario_column('total_pps')):7.0f}")

    # Per-flow columns come along for free -- e.g. the lossiest flows of the
    # sweep, straight off the loss_frac column.
    finite = results.filter(np.isfinite(results.loss_frac))
    worst = np.argsort(finite.loss_frac)[-3:][::-1]
    print("\nLossiest flows across the sweep:")
    for row in worst:
        print(
            f"  {finite.src[row]}->{finite.dst[row]}: "
            f"{finite.loss_frac[row]:.0%} lost, "
            f"{finite.delivered_pps[row]:.0f} pkt/s delivered"
        )
    print(
        "\nCanonical exposed/hidden-terminal cells throttle throughput exactly "
        "as the paper's Section 3 model predicts; clustered and scale-free "
        "placements sit in between depending on how many flows share a hub."
    )


if __name__ == "__main__":
    main()
