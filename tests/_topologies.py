"""Scenario sizing for tests that run every registered topology.

The seeded generators place ``n_nodes`` nodes from the count alone.  The
``testbed`` generator places named stations of the office layout, an even
number of them, so it gets the first ``n_nodes`` stations rounded down to
an even count.
"""

from __future__ import annotations

from typing import Any, Dict


def sized(topology: str, n_nodes: int) -> Dict[str, Any]:
    """``Scenario`` keyword arguments for ``n_nodes`` nodes of ``topology``."""
    if topology != "testbed":
        return {"topology": topology, "n_nodes": n_nodes}
    count = n_nodes - n_nodes % 2
    return {
        "topology": topology,
        "n_nodes": count,
        "topology_params": {"nodes": [f"n{index:02d}" for index in range(count)]},
    }
