"""Static shortest-path route tables over the simulated radio graph.

A :class:`RouteTable` is precomputed once per network from the same N x N
received-power matrix the medium finalises with: two stations are adjacent
when the received power of one at the other clears a link threshold
(by default the decode threshold of the scenario's data rate -- noise floor
plus the rate's minimum SNR -- optionally widened or narrowed by a margin).
Routes are hop-count shortest paths over that directed adjacency, computed
by breadth-first search from every source simultaneously (vectorised as
boolean frontier-matrix products), with deterministic tie-breaking: among
equally short next hops the lowest node index (registration order) wins.

The table is static -- the topology, channel, and therefore the adjacency
never change during a run -- which mirrors the paper's fixed-placement
experiments and keeps the forwarding hot path to two dict/array lookups.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RouteTable"]


class RouteTable:
    """All-pairs next hops and hop counts for a fixed radio graph."""

    __slots__ = ("ids", "_index", "next_hop_idx", "hop_counts", "adjacency")

    def __init__(
        self,
        ids: Sequence[Hashable],
        next_hop_idx: np.ndarray,
        hop_counts: np.ndarray,
        adjacency: np.ndarray,
    ) -> None:
        self.ids: Tuple[Hashable, ...] = tuple(ids)
        self._index: Dict[Hashable, int] = {node: i for i, node in enumerate(self.ids)}
        self.next_hop_idx = next_hop_idx
        self.hop_counts = hop_counts
        self.adjacency = adjacency

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_adjacency(
        cls, ids: Sequence[Hashable], adjacency: np.ndarray
    ) -> "RouteTable":
        """Build shortest-path routes over a boolean directed adjacency.

        ``adjacency[i, j]`` means station ``i`` can transmit a decodable
        frame to station ``j``.  The diagonal is ignored.
        """
        adj = np.asarray(adjacency, dtype=bool).copy()
        n = len(ids)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency must be {n}x{n}, got {adj.shape}")
        np.fill_diagonal(adj, False)

        # Hop counts: BFS from all sources at once.  frontier[s, j] marks the
        # nodes source s first reaches at the current depth; one boolean
        # matrix product per depth layer advances every source together.
        hop_counts = np.full((n, n), -1, dtype=np.int32)
        np.fill_diagonal(hop_counts, 0)
        reached = np.eye(n, dtype=bool)
        frontier = np.eye(n, dtype=bool)
        depth = 0
        while frontier.any():
            depth += 1
            frontier = (frontier @ adj) & ~reached
            hop_counts[frontier] = depth
            reached |= frontier

        # Next hops: neighbour k of s is a valid first hop towards d when
        # hop_counts[k, d] == hop_counts[s, d] - 1; take the lowest k.
        next_hop_idx = np.full((n, n), -1, dtype=np.int32)
        for s in range(n):
            neighbours = np.flatnonzero(adj[s])
            if neighbours.size == 0:
                continue
            target = hop_counts[s] - 1  # per-destination required remaining depth
            # valid[k_row, d]: neighbour k_row works as first hop towards d
            valid = (hop_counts[neighbours] == target[None, :]) & (target[None, :] >= 0)
            has_route = valid.any(axis=0)
            first = valid.argmax(axis=0)  # lowest neighbour index wins ties
            row = np.where(has_route, neighbours[first], -1).astype(np.int32)
            row[s] = -1
            next_hop_idx[s] = row
        return cls(ids, next_hop_idx, hop_counts, adj)

    @classmethod
    def from_rx_matrix(
        cls,
        ids: Sequence[Hashable],
        rx_dbm: np.ndarray,
        threshold_dbm: float,
    ) -> "RouteTable":
        """Routes over the links whose received power clears ``threshold_dbm``.

        ``rx_dbm`` is the matrix :meth:`repro.simulation.medium.LinkRows.\
matrix` produces (``rx_dbm[i, j]`` = power of ``i``'s transmission at
        ``j``; ``-inf`` diagonal).
        """
        return cls.from_adjacency(ids, np.asarray(rx_dbm) >= threshold_dbm)

    # -- queries ---------------------------------------------------------------

    def next_hop(self, node: Hashable, dst: Hashable) -> Optional[Hashable]:
        """The neighbour to relay through towards ``dst`` (``None``: no route)."""
        idx = self.next_hop_idx[self._index[node], self._index[dst]]
        return None if idx < 0 else self.ids[idx]

    def hop_count(self, src: Hashable, dst: Hashable) -> int:
        """Shortest-path length in MAC hops (-1 when unreachable, 0 to self)."""
        return int(self.hop_counts[self._index[src], self._index[dst]])

    def has_route(self, src: Hashable, dst: Hashable) -> bool:
        return self.hop_count(src, dst) > 0

    def path(self, src: Hashable, dst: Hashable) -> Optional[List[Hashable]]:
        """The full node sequence ``[src, ..., dst]`` (``None``: unreachable)."""
        if src == dst:
            return [src]
        if not self.has_route(src, dst):
            return None
        path: List[Hashable] = [src]
        node = src
        while node != dst:
            step = self.next_hop(node, dst)
            if step is None:  # unreachable mid-walk; has_route above rules it out
                return None
            node = step
            path.append(node)
        return path

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        routed = int((self.hop_counts > 0).sum())
        return f"RouteTable(n_nodes={self.n_nodes}, routed_pairs={routed})"
