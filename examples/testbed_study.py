"""Run a miniature Section 4 testbed campaign end to end.

This example drives the synthetic indoor testbed exactly the way the paper's
experiments drove the real one, at a reduced scale so it finishes in well
under a minute:

1. generate the 50-node, two-floor synthetic office building;
2. probe every link (RSSI and 6 Mbps delivery rate) and pick short-range
   sender-receiver pairs;
3. choose competing pair combinations spanning close, transition, and far
   sender separations;
4. for each combination and each bitrate, measure multiplexing (each pair
   alone), concurrency (carrier sense disabled), and carrier sense -- four
   ``testbed``-topology scenarios per combination and bitrate, run as one
   study across two worker processes;
5. print the per-combination scatter (the Figure 11 view) and the summary
   table (the Section 4.1 view), then the Section 5 exposed-terminal study,
   which reads the same measurements back from the result cache.

Run it with::

    python examples/testbed_study.py
"""

from __future__ import annotations

import tempfile

import repro.experiments  # noqa: F401 -- registers the builtin experiments
from repro.api import EXPERIMENTS
from repro.testbed import generate_office_layout

#: Steps 1-3 happen inside the campaign, from these parameters.
PARAMS = dict(n_combinations=6, run_duration_s=1.5, rates_mbps=(6.0, 12.0, 24.0), seed=3)


def main() -> None:
    layout = generate_office_layout()
    print(f"Synthetic testbed: {len(layout.nodes)} nodes on 2 floors, "
          f"alpha = {layout.channel.path_loss.alpha}, sigma = {layout.channel.sigma_db} dB")

    with tempfile.TemporaryDirectory() as cache_dir:
        section4 = EXPERIMENTS["figures-10-11"].run(cache_dir=cache_dir, workers=2, **PARAMS)
        summary = section4.extras["campaign"]
        low, high = section4.tables["sender_sender_rssi_span_dbm"]
        print(f"Measured {len(summary.results)} competing pair combinations "
              f"(sender-sender RSSI {low:.0f} to {high:.0f} dBm)\n")

        print("Per-combination results (combined pkt/s, best fixed rate per sender):")
        print(f"{'ss-RSSI dBm':>12} {'multiplex':>10} {'concurrency':>12} {'carrier sense':>14} {'CS/optimal':>11}")
        for result in summary.results:
            print(
                f"{result.sender_sender_rssi_dbm:12.1f} "
                f"{result.multiplexing.combined_pps:10.0f} "
                f"{result.concurrency.combined_pps:12.0f} "
                f"{result.carrier_sense.combined_pps:14.0f} "
                f"{result.cs_fraction_of_optimal:11.2f}"
            )
        print()
        print("Campaign summary (compare with the paper's Section 4.1 table):")
        print(summary.format_table())
        print()

        # Equal parameters are equal runner tasks: Section 5 executes nothing.
        section5 = EXPERIMENTS["section-5"].run(cache_dir=cache_dir, **PARAMS)
        print("Section 5 exposed-terminal study on the same runs:")
        print(section5.scalars["report"])
        print(next(note for note in section5.notes if note.startswith("runner:")))


if __name__ == "__main__":
    main()
