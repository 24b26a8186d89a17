"""The shared wireless medium.

The medium knows every node's position and the channel model, and it is the
single place where transmissions are turned into received powers at other
radios.  Starting a transmission registers it with the radios that can
physically notice it (each sees its own received power); the end of the
transmission is scheduled on the event engine, at which point each notified
radio finalises reception or interference bookkeeping.

Scaling model
-------------
Fanning every frame out to all N radios makes per-transmission cost O(N)
*Python calls*, which caps simulations at a few hundred nodes.  Instead the
medium is *finalised* once the topology is complete: the full N x N
received-power matrix is computed in one vectorized pass through the
:class:`~repro.propagation.channel.ChannelModel`.  Each sender's pruned
notification list -- only the radios whose received power exceeds a
detectability floor (the noise floor minus ``detectability_margin_db``;
with the default margin of 16 dB and the default noise floor this lands at
about -110 dBm) -- is then built lazily on its first transmission, so the
O(N * degree) Python tuple packing is paid only for nodes that actually
send.

Power below that floor can never be locked onto (it is far under preamble
sensitivity) -- it only ever matters as summed background energy.  So
instead of notifying sub-floor receivers one Python call at a time, the
medium folds each transmission's sub-floor contributions into a single
vectorized *active sub-floor power* array (one SIMD row add on start, one
subtract on end) that every radio reads as part of its noise term, and
samples worst-case interference for locked radios the same way.  CCA and
SINR therefore see exactly the same total power as the unpruned path (up to
float associativity), while per-transmission Python work is proportional to
the sender's radio neighbourhood.  Pass ``detectability_margin_db=None`` to
disable pruning and notify every radio (the reference behaviour used by the
equivalence tests).

Two deliberately un-tracked details under pruning: per-frame CCA measurement
noise is not applied to sub-floor contributions (noise on a negligible term),
and a radio's ``frames_missed_while_busy`` / ``incoming_count`` only reflect
above-floor frames.  Neither affects delivered traffic; with
``cca_noise_db=0`` pruned and unpruned runs produce identical results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..propagation.channel import ChannelModel, ShadowingTable
from ..units import linear_to_db
from .engine import Simulator
from .frames import Frame

__all__ = [
    "Transmission",
    "Medium",
    "DEFAULT_DETECTABILITY_MARGIN_DB",
    "DEFAULT_MIN_DISTANCE_M",
]

_transmission_ids = itertools.count()

Position = Tuple[float, float]

#: Pairs closer than this are clamped to it, avoiding unphysical powers when
#: two nodes are placed (nearly) on top of each other.
DEFAULT_MIN_DISTANCE_M: float = 0.5

#: Default pruning margin below the noise floor (dB).  With the default
#: noise floor (~-94 dBm) the detectability floor sits at about -110 dBm,
#: comfortably below both typical preamble sensitivity (-90 dBm) and any
#: sane CCA threshold, so pruned frames could never have been decoded or
#: individually sensed.
DEFAULT_DETECTABILITY_MARGIN_DB: float = 16.0

#: Transmission finishes between exact resyncs of the active sub-floor
#: power vector (bounds incremental float drift).
SUBFLOOR_RESYNC_INTERVAL: int = 4096


@dataclass(slots=True)
class Transmission:
    """One in-flight frame on the medium."""

    frame: Frame
    src: Hashable
    start_time: float
    end_time: float
    tx_id: int = field(default_factory=lambda: next(_transmission_ids))

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class Medium:
    """Propagation-aware broadcast medium connecting all radios.

    Parameters
    ----------
    sim:
        The discrete-event engine.
    channel:
        Physical channel model (path loss + per-pair shadowing).
    min_distance_m:
        Pairs closer than this are clamped to it, avoiding unphysical powers
        when two nodes are placed (nearly) on top of each other.
    detectability_margin_db:
        How far below the noise floor a link may fall before the receiver is
        pruned from the sender's per-frame notification list (its power is
        then tracked in the vectorized sub-floor noise array instead).
        ``None`` disables pruning.
    """

    __slots__ = (
        "sim",
        "channel",
        "min_distance_m",
        "detectability_margin_db",
        "active_transmissions",
        "_positions",
        "_radios",
        "_rx_power_cache",
        "_primed_ids",
        "_primed_rx_dbm",
        "_finalized",
        "_index",
        "_rx_dbm_matrix",
        "_rx_mw_matrix",
        "_notify",
        "_subfloor_rows",
        "_subfloor_masks",
        "_row_built",
        "_subfloor_active_mw",
        "_above_sum_mw",
        "_locked_mask",
        "_locked_power_mw",
        "_locked_max_interference_mw",
        "_cca_live_mw",
        "_cca_threshold_mw",
        "_busy_mirror",
        "_slot_radios",
        "_finishes_since_resync",
    )

    def __init__(
        self,
        sim: Simulator,
        channel: ChannelModel,
        min_distance_m: float = DEFAULT_MIN_DISTANCE_M,
        detectability_margin_db: Optional[float] = DEFAULT_DETECTABILITY_MARGIN_DB,
    ) -> None:
        if detectability_margin_db is not None and detectability_margin_db < 0:
            raise ValueError("detectability margin must be non-negative")
        self.sim = sim
        self.channel = channel
        self.min_distance_m = min_distance_m
        self.detectability_margin_db = detectability_margin_db
        self._positions: Dict[Hashable, Position] = {}
        self._radios: Dict[Hashable, "Radio"] = {}
        self._rx_power_cache: Dict[Tuple[Hashable, Hashable], float] = {}
        self.active_transmissions: Dict[int, Transmission] = {}
        # Optional precomputed rx-power matrix (see prime_rx_matrix).
        self._primed_ids: Optional[Tuple[Hashable, ...]] = None
        self._primed_rx_dbm: Optional[np.ndarray] = None

        # Populated by finalize().
        self._finalized = False
        self._index: Dict[Hashable, int] = {}
        self._rx_dbm_matrix: Optional[np.ndarray] = None
        self._rx_mw_matrix: Optional[np.ndarray] = None
        # Per-sender notification table: (radio, power_mw, power_dbm) per
        # audible receiver.  The dBm value is precomputed when the row is
        # built so the per-frame deliver path never converts units.  Rows
        # are built *lazily*, on a sender's first transmission: finalisation
        # computes only the vectorized N x N matrices, and the Python-level
        # tuple packing -- the O(N * degree) part -- is paid per actual
        # sender, so pure receivers (most nodes of a typical scenario)
        # never pay it.
        self._notify: List[Optional[List[Tuple["Radio", float, float]]]] = []
        # Per-sender sub-floor contributions (zero where above floor / self),
        # None for senders every receiver can hear; built with the notify row.
        self._subfloor_rows: List[Optional[np.ndarray]] = []
        self._subfloor_masks: List[Optional[np.ndarray]] = []
        self._row_built: List[bool] = []
        # Live vectorized state, one slot per radio.
        self._subfloor_active_mw: np.ndarray = np.zeros(0)
        self._above_sum_mw: np.ndarray = np.zeros(0)
        self._locked_mask: np.ndarray = np.zeros(0, dtype=bool)
        self._locked_power_mw: np.ndarray = np.zeros(0)
        self._locked_max_interference_mw: np.ndarray = np.zeros(0)
        # Mirrors for the busy-edge check: per-slot CCA power sums, linear
        # CCA thresholds (inf where carrier sense is disabled; captured at
        # finalisation), and each radio's last busy/idle verdict.
        self._cca_live_mw: np.ndarray = np.zeros(0)
        self._cca_threshold_mw: np.ndarray = np.zeros(0)
        self._busy_mirror: np.ndarray = np.zeros(0, dtype=bool)
        self._slot_radios: List["Radio"] = []
        self._finishes_since_resync = 0

    # -- topology ---------------------------------------------------------------

    def register(self, node_id: Hashable, position: Position, radio: "Radio") -> None:
        """Add a node's radio to the medium at the given position."""
        if node_id in self._radios:
            raise ValueError(f"node {node_id!r} is already registered")
        if self.active_transmissions:
            raise RuntimeError("cannot register a radio while frames are in flight")
        self._positions[node_id] = (float(position[0]), float(position[1]))
        self._radios[node_id] = radio
        self._invalidate()

    def _invalidate(self) -> None:
        self._finalized = False
        self._index = {}
        self._rx_dbm_matrix = None
        self._rx_mw_matrix = None
        self._notify = []
        self._subfloor_rows = []
        self._subfloor_masks = []
        self._row_built = []

    @property
    def node_ids(self) -> list:
        return list(self._radios)

    def position(self, node_id: Hashable) -> Position:
        return self._positions[node_id]

    def radio(self, node_id: Hashable) -> "Radio":
        return self._radios[node_id]

    def distance(self, a: Hashable, b: Hashable) -> float:
        """Euclidean distance between two nodes, clamped at ``min_distance_m``."""
        ax, ay = self._positions[a]
        bx, by = self._positions[b]
        return max(float(np.hypot(ax - bx, ay - by)), self.min_distance_m)

    # -- finalisation ----------------------------------------------------------

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def detectability_floor_dbm(self) -> Optional[float]:
        """Received power below which a link is pruned (``None``: no pruning)."""
        if self.detectability_margin_db is None:
            return None
        return self.channel.noise_floor_dbm - self.detectability_margin_db

    @staticmethod
    def compute_rx_dbm_matrix(
        channel: ChannelModel,
        ids: List[Hashable],
        positions: Dict[Hashable, Position],
        min_distance_m: float = DEFAULT_MIN_DISTANCE_M,
    ) -> np.ndarray:
        """The N x N received-power matrix (dBm) finalisation computes.

        Factored out so the warm-pool dispatch path (see
        :mod:`repro.scenarios.execute`) can precompute the matrix once per
        (topology, propagation) group and hand it to later networks through
        :meth:`prime_rx_matrix` -- byte-for-byte the same computation either
        way, including the shadowing draws consumed from ``channel``'s rng.
        """
        coords = np.asarray([positions[node_id] for node_id in ids], dtype=float)
        dx = coords[:, 0][:, None] - coords[:, 0][None, :]
        dy = coords[:, 1][:, None] - coords[:, 1][None, :]
        distances = np.hypot(dx, dy)
        np.maximum(distances, min_distance_m, out=distances)
        rx_dbm = channel.rx_power_matrix(ids, distances)
        np.fill_diagonal(rx_dbm, -np.inf)
        return rx_dbm

    def prime_rx_matrix(
        self,
        ids: List[Hashable],
        rx_dbm: np.ndarray,
        shadowing: Optional[ShadowingTable] = None,
    ) -> None:
        """Provide a precomputed rx-power matrix for the coming finalisation.

        ``ids`` must list every registered node in registration order by the
        time :meth:`finalize` runs, and ``rx_dbm`` must be the matrix
        :meth:`compute_rx_dbm_matrix` would produce for this medium's channel
        (same channel config and rng seed).  ``shadowing`` is the
        :class:`~repro.propagation.channel.ShadowingTable` that computation
        drew; the channel adopts it (shared, read-only), so later per-pair
        queries (``rx_power_dbm`` before finalisation, oracle SNRs, link
        budgets) agree with the primed matrix instead of lazily re-drawing
        different values.

        Priming is only sound while the channel holds no shadowing yet: if
        pairs were already drawn or pinned, the primed state is discarded and
        finalisation computes everything itself.  The caller must not pin
        shadowing values between priming and finalisation.
        """
        if self.channel.holds_shadowing:
            # The channel already has draws/pins the primed matrix cannot
            # account for; refuse the shortcut rather than risk divergence.
            self._primed_ids = None
            self._primed_rx_dbm = None
            return
        self._primed_ids = tuple(ids)
        self._primed_rx_dbm = np.asarray(rx_dbm, dtype=float)
        if shadowing is not None:
            self.channel.load_shadowing_table(shadowing)

    def _primed_matrix_for(self, ids: List[Hashable]) -> Optional[np.ndarray]:
        if self._primed_rx_dbm is None:
            return None
        if self._primed_ids != tuple(ids):
            return None
        if self._primed_rx_dbm.shape != (len(ids), len(ids)):
            return None
        # Copy: the primed matrix may be shared by many media (warm cache).
        return self._primed_rx_dbm.copy()

    def finalize(self) -> None:
        """Freeze the topology: batch-compute the rx-power matrices.

        Called automatically by the first :meth:`start_transmission`; safe to
        call again (a no-op once finalised, re-run after new registrations).

        Finalisation does only the vectorized work (the N x N dBm and
        milliwatt matrices plus per-slot state); the per-sender notification
        and sub-floor tables -- Python tuple packing proportional to each
        sender's audible neighbourhood -- are built lazily by
        :meth:`_sender_tables` on a sender's first transmission, so network
        construction no longer pays O(N * degree) for nodes that never
        transmit.
        """
        if self._finalized:
            return
        ids = list(self._radios)
        self._index = {node_id: i for i, node_id in enumerate(ids)}
        n = len(ids)
        radios = [self._radios[node_id] for node_id in ids]

        self._subfloor_active_mw = np.zeros(n)
        self._above_sum_mw = np.zeros(n)
        self._locked_mask = np.zeros(n, dtype=bool)
        self._locked_power_mw = np.zeros(n)
        self._locked_max_interference_mw = np.zeros(n)
        self._cca_live_mw = np.zeros(n)
        self._cca_threshold_mw = np.full(n, np.inf)
        self._busy_mirror = np.zeros(n, dtype=bool)
        self._slot_radios = radios
        self._finishes_since_resync = 0

        self._notify = [None] * n
        self._subfloor_rows = [None] * n
        self._subfloor_masks = [None] * n
        self._row_built = [False] * n

        if n == 0:
            self._rx_dbm_matrix = np.zeros((0, 0))
            self._rx_mw_matrix = np.zeros((0, 0))
            self._finalized = True
            return

        rx_dbm = self._primed_matrix_for(ids)
        if rx_dbm is None:
            rx_dbm = self.compute_rx_dbm_matrix(
                self.channel, ids, self._positions, self.min_distance_m
            )
        rx_mw = np.power(10.0, rx_dbm / 10.0)  # diagonal decays to exactly 0

        for slot, radio in enumerate(radios):
            radio._attach_slot(slot)

        self._rx_dbm_matrix = rx_dbm
        self._rx_mw_matrix = rx_mw
        self._finalized = True

    def _sender_tables(
        self, slot: int
    ) -> Tuple[List[Tuple["Radio", float, float]], Optional[np.ndarray], Optional[np.ndarray]]:
        """The (notify row, sub-floor row, sub-floor mask) for one sender slot,
        built on first use.

        The values are exactly what eager finalisation used to produce: the
        audible set from the dBm matrix against the detectability floor, and
        per-link dBm through :func:`linear_to_db` of the milliwatt row (a
        round trip through linear milliwatts, deliberately NOT the dBm
        matrix, whose floats differ in the last ulp).
        """
        if not self._row_built[slot]:
            rx_dbm_row = self._rx_dbm_matrix[slot]
            rx_mw_row = self._rx_mw_matrix[slot]
            n = len(rx_mw_row)
            floor = self.detectability_floor_dbm
            if floor is None:
                audible = [j for j in range(n) if j != slot]
            else:
                below = rx_dbm_row < floor
                below[slot] = False  # a sender never interferes with itself
                audible = np.nonzero(~below)[0].tolist()
                audible.remove(slot)
                if below.any():
                    self._subfloor_rows[slot] = np.where(below, rx_mw_row, 0.0)
                    self._subfloor_masks[slot] = below
            # Both rows drop to Python-float lists once, so the tuple packing
            # avoids per-element numpy scalar extraction.
            row_mw = rx_mw_row.tolist()
            row_dbm = linear_to_db(rx_mw_row).tolist()
            radios = self._slot_radios
            self._notify[slot] = [(radios[j], row_mw[j], row_dbm[j]) for j in audible]
            self._row_built[slot] = True
        return self._notify[slot], self._subfloor_rows[slot], self._subfloor_masks[slot]

    def neighborhood(self, src: Hashable) -> List[Hashable]:
        """Node ids notified per-frame when ``src`` transmits (after finalisation)."""
        self.finalize()
        notify, _, _ = self._sender_tables(self._index[src])
        return [entry[0].node_id for entry in notify]

    # -- vectorized per-slot state (used by Radio) -------------------------------

    def subfloor_noise_mw(self, slot: int) -> float:
        """Currently-active sub-floor power arriving at the given radio slot."""
        return float(self._subfloor_active_mw[slot])

    def _resync_subfloor(self) -> None:
        """Recompute the active sub-floor vector exactly (bounds float drift)."""
        self._finishes_since_resync = 0
        if not len(self._subfloor_active_mw):
            return
        if not self.active_transmissions:
            self._subfloor_active_mw[:] = 0.0
            return
        total = np.zeros_like(self._subfloor_active_mw)
        for tx in self.active_transmissions.values():
            row = self._subfloor_rows[self._index[tx.src]]
            if row is not None:
                total += row
        self._subfloor_active_mw = total

    def _sync_subfloor_busy_edges(self, mask: np.ndarray) -> None:
        """Fire busy/idle callbacks on radios whose CCA verdict was flipped by
        a sub-floor power change.

        Per-frame notifications only reach above-floor receivers, so a MAC
        waiting on ``on_channel_idle`` would otherwise stall if aggregate
        sub-floor power alone ever crossed its CCA threshold (possible with a
        small ``detectability_margin_db`` and many concurrent far senders).
        One vectorized compare finds candidate flips; only those radios pay a
        Python call, which re-derives the exact verdict.
        """
        live = self._cca_live_mw + self._subfloor_active_mw
        busy = (live > 0.0) & (live + self.noise_floor_mw > self._cca_threshold_mw)
        changed = np.nonzero(mask & (busy != self._busy_mirror))[0]
        for slot in changed:
            self._slot_radios[slot]._update_busy_state()

    # -- static link queries ---------------------------------------------------

    def rx_power_dbm(self, src: Hashable, dst: Hashable) -> float:
        """Static received power (dBm) from ``src`` at ``dst`` (cached)."""
        if self._finalized:
            return float(self._rx_dbm_matrix[self._index[src], self._index[dst]])
        key = (src, dst)
        if key not in self._rx_power_cache:
            budget = self.channel.link_budget(src, dst, self.distance(src, dst))
            self._rx_power_cache[key] = budget.rx_power_dbm
        return self._rx_power_cache[key]

    def rx_power_mw(self, src: Hashable, dst: Hashable) -> float:
        """Static received power (milliwatts) from ``src`` at ``dst``."""
        if self._finalized:
            return float(self._rx_mw_matrix[self._index[src], self._index[dst]])
        return float(10.0 ** (self.rx_power_dbm(src, dst) / 10.0))

    def snr_db(self, src: Hashable, dst: Hashable) -> float:
        """Interference-free SNR (dB) of the ``src -> dst`` link."""
        return self.rx_power_dbm(src, dst) - self.channel.noise_floor_dbm

    @property
    def noise_floor_mw(self) -> float:
        return self.channel.noise_floor_mw

    # -- transmission lifecycle ---------------------------------------------------

    def start_transmission(self, src: Hashable, frame: Frame) -> Transmission:
        """Put a frame on the air from ``src``; returns the transmission record."""
        if src not in self._radios:
            raise KeyError(f"unknown source node {src!r}")
        self.finalize()
        duration = frame.airtime_s
        tx = Transmission(
            frame=frame, src=src, start_time=self.sim.now, end_time=self.sim.now + duration
        )
        self.active_transmissions[tx.tx_id] = tx
        src_slot = self._index[src]

        notify, subfloor, _ = self._sender_tables(src_slot)
        if subfloor is not None:
            self._subfloor_active_mw += subfloor
            # The unpruned path samples worst-case interference at *every*
            # frame start seen by a locked radio; replicate that for radios
            # that only hear this frame as sub-floor energy, in one masked op.
            mask = self._locked_mask & self._subfloor_masks[src_slot]
            if mask.any():
                interference = (
                    self._above_sum_mw[mask]
                    + self._subfloor_active_mw[mask]
                    - self._locked_power_mw[mask]
                )
                np.maximum(
                    self._locked_max_interference_mw[mask],
                    interference,
                    out=interference,
                )
                self._locked_max_interference_mw[mask] = interference

        for radio, power_mw, power_dbm in notify:
            radio.incoming_started(tx, power_mw, power_dbm)
        if subfloor is not None:
            self._sync_subfloor_busy_edges(self._subfloor_masks[src_slot])
        self.sim.schedule_call(duration, lambda: self._finish_transmission(tx))
        return tx

    def _finish_transmission(self, tx: Transmission) -> None:
        del self.active_transmissions[tx.tx_id]
        src_slot = self._index[tx.src]
        # The sender's tables were built when its transmission started.
        subfloor = self._subfloor_rows[src_slot]
        if subfloor is not None:
            self._subfloor_active_mw -= subfloor
            self._finishes_since_resync += 1
            if (
                self._finishes_since_resync >= SUBFLOOR_RESYNC_INTERVAL
                or not self.active_transmissions
            ):
                self._resync_subfloor()
        for entry in self._notify[src_slot]:
            entry[0].incoming_ended(tx)
        if subfloor is not None:
            self._sync_subfloor_busy_edges(self._subfloor_masks[src_slot])
        self._radios[tx.src].transmit_finished(tx)

    def busy_fraction_estimate(self) -> float:
        """Fraction of radios currently observing an active (audible) transmission."""
        if not self._radios:
            return 0.0
        busy = sum(1 for radio in self._radios.values() if radio.incoming_count > 0)
        return busy / len(self._radios)
