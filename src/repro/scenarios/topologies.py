"""Seeded topology generators for whole-network scenarios.

Every generator maps ``(n_nodes, extent, rng, **params)`` to a
:class:`Placement`: node positions plus the directed sender -> receiver
traffic flows, ready to feed :class:`repro.simulation.network.WirelessNetwork`.
Generators are registered by name in :data:`TOPOLOGIES` so sweeps and the
CLI can select them declaratively.

The seeded generators are deterministic for a given seed (canonical layouts
carry a small seeded jitter so distinct seeds still give distinct buildings),
respect ``n_nodes`` exactly (nodes that do not fit the layout's group size
become passive listeners), and keep every coordinate inside the box
``[-1.5 * extent, 1.5 * extent]``.  The ``testbed`` generator instead places
named stations of the synthetic office building (see :func:`testbed`).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..registry import TOPOLOGIES

__all__ = [
    "Placement",
    "TOPOLOGIES",
    "register_topology",
    "generate_topology",
]

Position = Tuple[float, float]


@dataclass(frozen=True)
class Placement:
    """Node placements and traffic flows produced by a topology generator.

    ``pinned_shadowing_db`` holds ``(a, b, dB)`` for node pairs whose static
    shadowing the layout fixes (a measured building rather than a seeded
    draw); :class:`~repro.scenarios.spec.Scenario` pins them on its channel
    before any draw.  Empty for the seeded generators.
    """

    topology: str
    positions: Dict[str, Position]
    flows: Tuple[Tuple[str, str], ...]
    pinned_shadowing_db: Tuple[Tuple[str, str, float], ...] = ()

    @property
    def n_nodes(self) -> int:
        return len(self.positions)

    @property
    def senders(self) -> Tuple[str, ...]:
        return tuple(src for src, _ in self.flows)

    def bounding_radius(self) -> float:
        """Largest coordinate magnitude over all nodes."""
        if not self.positions:
            return 0.0
        coords = np.asarray(list(self.positions.values()))
        return float(np.abs(coords).max())


Generator = Callable[..., Placement]


def register_topology(name: str) -> Callable[[Generator], Generator]:
    """Class-less plugin hook: ``@register_topology("my_layout")``.

    Kept as the historical spelling; it delegates to the shared
    :data:`repro.registry.TOPOLOGIES` registry, which is also reachable as
    ``repro.api.registry.TOPOLOGIES``.
    """
    return TOPOLOGIES.register(name)


def generate_topology(name: str, n_nodes: int, extent: float, seed: int, **params) -> Placement:
    """Instantiate a registered topology deterministically from a seed."""
    if name not in TOPOLOGIES:
        known = ", ".join(sorted(TOPOLOGIES))
        raise KeyError(f"unknown topology {name!r} (known: {known})")
    if n_nodes < 2:
        raise ValueError("a scenario needs at least two nodes")
    _require_finite("extent", extent, positive=True)
    # Mix the topology name into the seed deterministically (``hash()`` is
    # randomised per process, which would break cross-process reproducibility).
    name_tag = zlib.crc32(name.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), name_tag)))
    return TOPOLOGIES[name](n_nodes=n_nodes, extent=extent, rng=rng, **params)


def _require_finite(name: str, value: float, positive: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite (and,
    with ``positive``, above zero).  A NaN size or fraction places nodes at
    NaN, and the run would read -- and cache -- zero throughput."""
    if not (math.isfinite(value) and (value > 0 or not positive)):
        kind = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _node_id(index: int) -> str:
    return f"n{index:03d}"


def _clip_box(x: float, y: float, extent: float) -> Position:
    bound = 1.5 * extent
    return (float(min(max(x, -bound), bound)), float(min(max(y, -bound), bound)))


def _pair_consecutive(order: List[str]) -> Tuple[Tuple[str, str], ...]:
    """Flows pairing order[0]->order[1], order[2]->order[3], ...; leftover idle."""
    return tuple((order[i], order[i + 1]) for i in range(0, len(order) - 1, 2))


@register_topology("uniform_disc")
def uniform_disc(
    n_nodes: int, extent: float, rng: np.random.Generator, link_range_frac: float = 0.2
) -> Placement:
    """Senders uniform over a disc; each receiver within range of its sender.

    The continuum analogue of the paper's model geometry: sender positions are
    uniform over the disc of radius ``extent`` and each sender's receiver is
    uniform over the disc of radius ``link_range_frac * extent`` around it.
    """
    _require_finite("link_range_frac", link_range_frac)
    positions: Dict[str, Position] = {}
    flows: List[Tuple[str, str]] = []
    n_pairs = n_nodes // 2
    for pair in range(n_pairs):
        r = float(np.sqrt(rng.uniform(0.0, 1.0)) * extent)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        sx, sy = r * np.cos(theta), r * np.sin(theta)
        link = float(np.sqrt(rng.uniform(0.0, 1.0)) * link_range_frac * extent)
        link = max(link, 1.0)
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        sender, receiver = _node_id(2 * pair), _node_id(2 * pair + 1)
        positions[sender] = _clip_box(sx, sy, extent)
        positions[receiver] = _clip_box(sx + link * np.cos(phi), sy + link * np.sin(phi), extent)
        flows.append((sender, receiver))
    if n_nodes % 2:
        r = float(np.sqrt(rng.uniform(0.0, 1.0)) * extent)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        positions[_node_id(n_nodes - 1)] = _clip_box(
            r * np.cos(theta), r * np.sin(theta), extent
        )
    return Placement("uniform_disc", positions, tuple(flows))


@register_topology("grid")
def grid(
    n_nodes: int, extent: float, rng: np.random.Generator, jitter_frac: float = 0.15
) -> Placement:
    """A jittered square grid over ``[0, extent]^2``, adjacent nodes paired."""
    _require_finite("jitter_frac", jitter_frac)
    cols = int(np.ceil(np.sqrt(n_nodes)))
    rows = int(np.ceil(n_nodes / cols))
    dx, dy = extent / cols, extent / rows
    order: List[str] = []
    positions: Dict[str, Position] = {}
    index = 0
    for row in range(rows):
        for col in range(cols):
            if index >= n_nodes:
                break
            x = (col + 0.5) * dx + float(rng.uniform(-jitter_frac, jitter_frac)) * dx
            y = (row + 0.5) * dy + float(rng.uniform(-jitter_frac, jitter_frac)) * dy
            node = _node_id(index)
            positions[node] = _clip_box(np.clip(x, 0.0, extent), np.clip(y, 0.0, extent), extent)
            order.append(node)
            index += 1
    return Placement("grid", positions, _pair_consecutive(order))


@register_topology("clustered")
def clustered(
    n_nodes: int,
    extent: float,
    rng: np.random.Generator,
    n_clusters: int = 3,
    spread_frac: float = 0.08,
) -> Placement:
    """Hotspot clusters: nodes gather around a few centres, flows stay local."""
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    _require_finite("spread_frac", spread_frac)
    n_clusters = min(n_clusters, n_nodes // 2) or 1
    centres = rng.uniform(0.1 * extent, 0.9 * extent, size=(n_clusters, 2))
    assignment = rng.integers(0, n_clusters, size=n_nodes)
    positions: Dict[str, Position] = {}
    members: List[List[str]] = [[] for _ in range(n_clusters)]
    for index in range(n_nodes):
        cluster = int(assignment[index])
        cx, cy = centres[cluster]
        x = cx + float(rng.normal(0.0, spread_frac * extent))
        y = cy + float(rng.normal(0.0, spread_frac * extent))
        node = _node_id(index)
        positions[node] = _clip_box(x, y, extent)
        members[cluster].append(node)
    flows: List[Tuple[str, str]] = []
    for cluster_nodes in members:
        flows.extend(_pair_consecutive(cluster_nodes))
    return Placement("clustered", positions, tuple(flows))


@register_topology("scale_free")
def scale_free(
    n_nodes: int,
    extent: float,
    rng: np.random.Generator,
    attach_range_frac: float = 0.15,
    n_hubs: int = 1,
    flows: str = "uplink",
) -> Placement:
    """Preferential attachment: heavy-tailed hub degrees in space.

    Node ``i`` attaches to an earlier node chosen with probability
    proportional to its degree (Barabasi-Albert with m = 1) and is placed a
    short hop away from it, so hubs accumulate both graph degree and local
    node density -- the regime where carrier sense behaves very differently
    from a uniform disc ("Communication Bottlenecks in Scale-Free Networks").
    Every attachment edge becomes an uplink flow towards the hub.

    ``n_hubs > 1`` seeds that many spatially scattered hub nodes (a campus of
    buildings rather than one): attachment is still degree-proportional over
    the whole graph, but each new node is placed a short hop from its chosen
    parent, so the layout grows separated heavy-tailed clusters whose
    diameters stay small relative to their spacing -- the regime where the
    medium's neighbourhood pruning pays off at scale.

    ``flows`` selects the traffic pattern over the fixed placement (the
    position/attachment draws are identical for every mode): ``"uplink"``
    (default, historical) makes every attachment edge a single-hop flow to
    the parent; ``"to_root"`` points every non-root node's traffic at the
    first hub, the gravity pattern where multi-hop load concentrates on the
    tree core ("Communication Bottlenecks in Scale-Free Networks") --
    meaningful with a routing layer, since most sources are several hops
    out.

    Each step costs O(log N): the target comes from a Fenwick tree over the
    integer degrees (see :func:`_attachment_target`), which picks exactly
    the node the float ``cdf`` search of ``rng.choice(index, p=weights)``
    picks, and the node's three doubles come from one ``rng.random`` call
    for the whole layout.  Positions and flows equal, bit for bit, those of
    the O(N)-per-node float-``cdf`` generator that
    ``tests/test_scale_free_oracle.py`` keeps as the oracle.
    """
    if flows not in ("uplink", "to_root"):
        raise ValueError(f"unknown scale_free flow mode {flows!r} (known: uplink, to_root)")
    if n_hubs < 1:
        raise ValueError("need at least one hub")
    if n_hubs >= n_nodes:
        # Clamping silently would leave zero attachment edges -> zero flows,
        # and a cached all-zero "result" is worse than an error.
        raise ValueError(f"n_hubs ({n_hubs}) must be less than n_nodes ({n_nodes})")
    _require_finite("attach_range_frac", attach_range_frac, positive=True)
    positions: Dict[str, Position] = {}
    if n_hubs == 1:
        # Single-building layout; kept draw-for-draw identical to the
        # original generator so existing seeds reproduce bit-for-bit.
        positions[_node_id(0)] = (extent / 2.0, extent / 2.0)
    else:
        centres = rng.uniform(0.1 * extent, 0.9 * extent, size=(n_hubs, 2))
        for hub in range(n_hubs):
            positions[_node_id(hub)] = _clip_box(centres[hub, 0], centres[hub, 1], extent)
    # Each attached node's three doubles, drawn at once in the order the
    # per-node scalar draws took them: the pick, then uniform(0.3, 1.0) for
    # the hop and uniform(0, 2*pi) for its bearing (``uniform(a, b)`` is
    # ``a + (b - a) * draw``).
    count = n_nodes - n_hubs
    draws = rng.random(3 * count).reshape(count, 3)
    picks = draws[:, 0].tolist()
    hops = (0.3 + (1.0 - 0.3) * draws[:, 1]) * attach_range_frac * extent
    bearings = (2.0 * np.pi) * draws[:, 2]
    dxs = (hops * np.cos(bearings)).tolist()
    dys = (hops * np.sin(bearings)).tolist()
    names = [_node_id(index) for index in range(n_nodes)]
    # Degrees of nodes 0..index-1 live in degrees[:index]; ``tree`` is a
    # Fenwick tree over all n_nodes of them, every degree starting at 1.
    degrees = [1] * n_nodes
    tree = [position & -position for position in range(n_nodes + 1)]
    flows_out: List[Tuple[str, str]] = []
    for index in range(n_hubs, n_nodes):
        row = index - n_hubs  # this node's row of draws
        # Every node enters with degree 1 and each attachment adds 1.
        degree_sum = 2 * index - n_hubs
        target = _attachment_target(tree, degrees, index, degree_sum, picks[row])
        tx, ty = positions[names[target]]
        node = names[index]
        positions[node] = _clip_box(tx + dxs[row], ty + dys[row], extent)
        flows_out.append((node, names[target]))
        degrees[target] += 1
        position = target + 1
        while position <= n_nodes:
            tree[position] += 1
            position += position & -position
    if flows == "to_root":
        root = _node_id(0)
        flows_out = [(node, root) for node in positions if node != root]
    return Placement("scale_free", positions, tuple(flows_out))


#: Unit roundoff of float64.
_ROUNDOFF = 2.0 ** -53


def _attachment_target(
    tree: List[int], degrees: List[int], index: int, total: int, pick: float
) -> int:
    """The earlier node ``rng.choice(index, p=degrees[:index] / total)``
    picks for the uniform draw ``pick``, in O(log N).

    ``choice`` searches the float ``cdf`` of the normalised degrees, whose
    entries sit within ``(2 * index + 3)`` roundoffs of the exact prefix
    fractions (sequential ``cumsum`` plus the two divisions).  The Fenwick
    descent finds the exact answer -- the first node whose integer prefix sum
    exceeds ``pick * total`` -- and keeps it when that point clears both of
    the node's prefix boundaries by ``4 * (index + 4)`` roundoffs, twice the
    bound, so the float search must land on the same node.  A point closer
    to a boundary than that is settled by the float search itself.
    """
    point = pick * total
    below = 0  # the prefix sum before ``node``
    node = 0
    step = 1 << (index.bit_length() - 1)
    while step:
        ahead = node + step
        if ahead <= index and below + tree[ahead] <= point:
            node = ahead
            below += tree[ahead]
        step >>= 1
    margin = 4 * (index + 4) * _ROUNDOFF * total
    if node < index and point - below > margin and below + degrees[node] - point > margin:
        return node
    return _float_cdf_target(degrees, index, pick)


def _float_cdf_target(degrees: List[int], index: int, pick: float) -> int:
    """``rng.choice(index, p=weights)``'s own steps, without its per-call
    validation: the same float ``cdf`` and the same search."""
    weights = np.array(degrees[:index], dtype=float)
    weights /= float(np.sum(weights))
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(pick, side="right"))


@register_topology("hidden_terminal")
def hidden_terminal(
    n_nodes: int,
    extent: float,
    rng: np.random.Generator,
    jitter_frac: float = 0.02,
) -> Placement:
    """Rows of the canonical A ... R ... B geometry (senders out of range).

    Each group of three nodes is a hidden-terminal cell: two senders at the
    ends of a span of length ``extent``, their shared receiver in the middle.
    Rows are stacked ``extent`` apart so cells interact only weakly.
    """
    if n_nodes < 3:
        raise ValueError("hidden_terminal needs at least three nodes")
    _require_finite("jitter_frac", jitter_frac)
    positions: Dict[str, Position] = {}
    flows: List[Tuple[str, str]] = []
    n_groups = n_nodes // 3
    jitter = lambda: float(rng.normal(0.0, jitter_frac * extent))  # noqa: E731
    for group in range(n_groups):
        y = group * extent / max(1, n_groups - 1) if n_groups > 1 else 0.0
        a = _node_id(3 * group)
        b = _node_id(3 * group + 1)
        r = _node_id(3 * group + 2)
        positions[a] = _clip_box(jitter(), y + jitter(), extent)
        positions[b] = _clip_box(extent + jitter(), y + jitter(), extent)
        positions[r] = _clip_box(extent / 2.0 + jitter(), y + jitter(), extent)
        flows.append((a, r))
        flows.append((b, r))
    for extra in range(3 * n_groups, n_nodes):
        positions[_node_id(extra)] = _clip_box(
            float(rng.uniform(0.0, extent)), -0.25 * extent + jitter(), extent
        )
    return Placement("hidden_terminal", positions, tuple(flows))


@register_topology("exposed_terminal")
def exposed_terminal(
    n_nodes: int,
    extent: float,
    rng: np.random.Generator,
    sender_gap_frac: float = 0.25,
    link_frac: float = 0.07,
    jitter_frac: float = 0.02,
) -> Placement:
    """Rows of the canonical R1 <- S1 ... S2 -> R2 geometry.

    The two senders hear each other (gap ``sender_gap_frac * extent``) while
    their receivers face away, so carrier sense needlessly serialises flows
    that could run concurrently.
    """
    if n_nodes < 4:
        raise ValueError("exposed_terminal needs at least four nodes")
    _require_finite("sender_gap_frac", sender_gap_frac)
    _require_finite("link_frac", link_frac)
    _require_finite("jitter_frac", jitter_frac)
    positions: Dict[str, Position] = {}
    flows: List[Tuple[str, str]] = []
    n_groups = n_nodes // 4
    gap = sender_gap_frac * extent
    link = max(link_frac * extent, 1.0)
    jitter = lambda: float(rng.normal(0.0, jitter_frac * extent))  # noqa: E731
    for group in range(n_groups):
        y = group * extent / max(1, n_groups - 1) if n_groups > 1 else 0.0
        s1 = _node_id(4 * group)
        r1 = _node_id(4 * group + 1)
        s2 = _node_id(4 * group + 2)
        r2 = _node_id(4 * group + 3)
        positions[s1] = _clip_box(jitter(), y + jitter(), extent)
        positions[r1] = _clip_box(-link + jitter(), y + jitter(), extent)
        positions[s2] = _clip_box(gap + jitter(), y + jitter(), extent)
        positions[r2] = _clip_box(gap + link + jitter(), y + jitter(), extent)
        flows.append((s1, r1))
        flows.append((s2, r2))
    for extra in range(4 * n_groups, n_nodes):
        positions[_node_id(extra)] = _clip_box(
            float(rng.uniform(0.0, extent)), -0.25 * extent + jitter(), extent
        )
    return Placement("exposed_terminal", positions, tuple(flows))


@register_topology("line")
def line(
    n_nodes: int,
    extent: float,
    rng: np.random.Generator,
    jitter_frac: float = 0.02,
    flows: str = "adjacent",
) -> Placement:
    """A corridor: nodes evenly spaced along a line.

    ``flows`` selects the traffic pattern over the fixed placement (the
    position draws are identical for every mode, so seeds reproduce):

    * ``"adjacent"`` (default, the historical behaviour) -- consecutive
      nodes paired into independent single-hop flows;
    * ``"end_to_end"`` -- one flow from the first node to the last, the
      canonical multi-hop relay chain (needs a routing layer when the ends
      are out of range of each other);
    * ``"to_gateway"`` -- every other node sends to the first node, the
      saturated-uplink / collision-domain pattern the Bianchi cross-check
      uses.
    """
    _require_finite("jitter_frac", jitter_frac)
    spacing = extent / max(1, n_nodes - 1)
    order: List[str] = []
    positions: Dict[str, Position] = {}
    for index in range(n_nodes):
        node = _node_id(index)
        positions[node] = _clip_box(
            index * spacing + float(rng.normal(0.0, jitter_frac * spacing)),
            float(rng.normal(0.0, jitter_frac * extent)),
            extent,
        )
        order.append(node)
    if flows == "adjacent":
        flow_pairs = _pair_consecutive(order)
    elif flows == "end_to_end":
        flow_pairs = ((order[0], order[-1]),)
    elif flows == "to_gateway":
        flow_pairs = tuple((node, order[0]) for node in order[1:])
    else:
        raise ValueError(
            f"unknown line flow mode {flows!r} (known: adjacent, end_to_end, to_gateway)"
        )
    return Placement("line", positions, flow_pairs)


@register_topology("testbed")
def testbed(
    n_nodes: int, extent: float, rng: np.random.Generator, nodes: Sequence[str] = ()
) -> Placement:
    """Named stations of :func:`repro.testbed.layout.default_office_layout`.

    ``nodes`` lists ``n_nodes`` distinct station ids, an even count; flows
    pair consecutive ids (``[sa, ra, sb, rb]``: two competing pairs).  The
    layout fixes positions and pins every pair's shadowing, so ``extent``
    and the seed play no part.
    """
    from ..testbed.layout import default_office_layout  # only this generator needs it

    layout = default_office_layout()
    nodes = list(nodes)
    if len(nodes) % 2:
        raise ValueError(f"nodes must pair senders with receivers, got an odd count: {nodes}")
    if len(nodes) != n_nodes:
        raise ValueError(f"nodes lists {len(nodes)} stations but n_nodes is {n_nodes}")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"nodes must be distinct, got {nodes}")
    known = set(layout.node_ids)
    unknown = [node for node in nodes if node not in known]
    if unknown:
        raise ValueError(f"nodes: unknown testbed stations {unknown}")
    positions = {node: layout.node(node).position for node in nodes}
    pinned = tuple((a, b, layout.channel.shadowing_db(a, b))
                   for i, a in enumerate(nodes) for b in nodes[i + 1:])
    return Placement("testbed", positions, _pair_consecutive(nodes), pinned)
