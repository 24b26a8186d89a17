"""Synthetic indoor testbed layout.

The paper's experiments ran on roughly 50 Soekris single-board computers with
Atheros 802.11a radios "scattered about two closely-coupled floors of a
large, modern office building".  We cannot use that hardware, so this module
generates a statistically equivalent substitute:

* node positions scattered (with jitter) over one or two office floors;
* a physical channel with the propagation statistics the paper itself
  measured on its testbed (Figure 14: alpha approximately 3.6 and roughly
  10 dB lognormal shadowing), plus an extra attenuation for node pairs on
  different floors (the appendix notes heavy floors deserve a separate term);
* 802.11a (5 GHz) carrier frequency and 15 dBm transmit power for the
  Section 4 experiments.

The layout is deterministic for a given seed so every experiment, test, and
benchmark sees the same synthetic building.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from ..constants import DEFAULT_TX_POWER_DBM, FREQ_5_GHZ
from ..propagation.channel import ChannelModel
from ..propagation.pathloss import LogDistancePathLoss

__all__ = ["TestbedNode", "TestbedLayout", "generate_office_layout", "default_office_layout"]


@dataclass(frozen=True)
class TestbedNode:
    """One testbed station."""

    node_id: str
    x: float
    y: float
    floor: int

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass
class TestbedLayout:
    """A synthetic building full of testbed nodes plus its channel model."""

    nodes: List[TestbedNode]
    channel: ChannelModel
    floor_attenuation_db: float
    seed: int

    def __post_init__(self) -> None:
        self._by_id: Dict[str, TestbedNode] = {node.node_id: node for node in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise ValueError("duplicate node ids in layout")

    def node(self, node_id: str) -> TestbedNode:
        return self._by_id[node_id]

    @property
    def node_ids(self) -> List[str]:
        return [node.node_id for node in self.nodes]

    def distance(self, a: str, b: str) -> float:
        """Horizontal distance between two nodes in metres."""
        na, nb = self._by_id[a], self._by_id[b]
        return float(np.hypot(na.x - nb.x, na.y - nb.y))

    def same_floor(self, a: str, b: str) -> bool:
        return self._by_id[a].floor == self._by_id[b].floor


def generate_office_layout(
    n_nodes: int = 50,
    floors: int = 2,
    floor_width_m: float = 100.0,
    floor_depth_m: float = 60.0,
    alpha: float = 3.6,
    sigma_db: float = 10.0,
    floor_attenuation_db: float = 13.0,
    frequency_hz: float = FREQ_5_GHZ,
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM,
    reference_distance_m: float = 20.0,
    reference_loss_db: float = 77.0,
    seed: int = 7,
) -> TestbedLayout:
    """Generate a deterministic synthetic office testbed.

    Nodes are laid out on a jittered grid so that, like a real deployment,
    link distances span from a few metres to the full building diagonal.
    Pairs on different floors get ``floor_attenuation_db`` of extra loss baked
    into their (otherwise lognormal) shadowing value.

    The path-loss curve is anchored on the paper's own testbed characterisation
    rather than at free-space loss: Figure 14 reports link SNRs spanning from
    the high 40s of dB for nearby pairs down to a few dB at the far side of
    the building (at 2.4 GHz; the 5 GHz links of Section 4 are a little
    weaker still).  The default 77 dB of loss at the 20 m reference gives a
    5 GHz testbed whose link SNRs span roughly 0-50 dB across the building --
    the same mix of strong same-floor links and marginal far / cross-floor
    links, which is what produces distinct short-range and long-range pair
    classes and the full near/transition/far spread of sender-sender RSSI.
    """
    if n_nodes < 4:
        raise ValueError("a testbed needs at least four nodes (two pairs)")
    if floors < 1:
        raise ValueError("need at least one floor")
    rng = np.random.default_rng(seed)

    nodes: List[TestbedNode] = []
    per_floor = int(np.ceil(n_nodes / floors))
    node_index = 0
    for floor in range(floors):
        count = min(per_floor, n_nodes - node_index)
        # Jittered grid: roughly uniform coverage without unrealistic clumping.
        cols = int(np.ceil(np.sqrt(count * floor_width_m / floor_depth_m)))
        rows = int(np.ceil(count / cols))
        spots = [
            (
                (c + 0.5) * floor_width_m / cols,
                (r + 0.5) * floor_depth_m / rows,
            )
            for r in range(rows)
            for c in range(cols)
        ][:count]
        for x, y in spots:
            jitter_x = float(rng.uniform(-0.3, 0.3) * floor_width_m / cols)
            jitter_y = float(rng.uniform(-0.3, 0.3) * floor_depth_m / rows)
            nodes.append(
                TestbedNode(
                    node_id=f"n{node_index:02d}",
                    x=float(np.clip(x + jitter_x, 0.0, floor_width_m)),
                    y=float(np.clip(y + jitter_y, 0.0, floor_depth_m)),
                    floor=floor,
                )
            )
            node_index += 1

    channel = ChannelModel(
        path_loss=LogDistancePathLoss(
            alpha=alpha,
            frequency_hz=frequency_hz,
            reference_distance_m=reference_distance_m,
            reference_loss_db=reference_loss_db,
        ),
        sigma_db=sigma_db,
        tx_power_dbm=tx_power_dbm,
        rng=np.random.default_rng(seed + 1),
    )
    layout = TestbedLayout(
        nodes=nodes, channel=channel, floor_attenuation_db=floor_attenuation_db, seed=seed
    )

    # Pre-draw shadowing for every pair so the channel is frozen for the whole
    # experiment campaign, and subtract the floor penalty for cross-floor pairs.
    ids = layout.node_ids
    shadow_rng = np.random.default_rng(seed + 2)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            value = float(shadow_rng.normal(0.0, sigma_db))
            if not layout.same_floor(a, b):
                value -= floor_attenuation_db
            channel.set_shadowing_db(a, b, value)
    return layout


@lru_cache(maxsize=1)
def default_office_layout() -> TestbedLayout:
    """:func:`generate_office_layout` with its defaults, the layout every
    testbed experiment simulates, built once per process.  Shared: read it
    only (its pinned shadowing and fading-free link budgets draw nothing)."""
    return generate_office_layout()
