"""The shared wireless medium and every radio's receive-side state.

The medium knows every node's position and the channel model, and it is the
single place where transmissions are turned into received powers at other
radios.  It also owns all per-receiver bookkeeping; a
:class:`~repro.simulation.radio.Radio` is only the MAC-facing object.

Scaling model
-------------
Once the topology is complete the medium is *finalised*: it takes a
:class:`LinkRows` table over the node set -- the coordinates plus the
channel's condensed shadowing draws -- and computes nothing else.  A
sender's received-power row is built on its first transmission, together
with its notification row: the radios whose received power clears a
detectability floor, the noise floor minus ``detectability_margin_db``
(about -110 dBm by default).  Nodes that never transmit never get a row, so
no N x N matrix exists on a cold run.  The row is kept once, in milliwatts;
its dBm form is built only transiently.  Power below that floor can never
be locked onto; it only matters as summed background energy, so it is folded
into one vectorized *active sub-floor power* array (the sender's mW row
added where its sub-floor mask is set on frame start, subtracted on end)
that CCA and SINR read as part of their noise term.
Masked vector ops over that array sample worst-case interference at locked
radios and fire busy edges caused by sub-floor power alone.  CCA and SINR
thus see the totals of the unpruned path (``detectability_margin_db=None``);
only per-frame CCA noise on sub-floor contributions and ``incoming_count``
differ, so with ``cca_noise_db=0`` pruned and unpruned runs are identical.

Receiver state and the receiver pass
------------------------------------
A radio gets a *slot* when it registers.  Per slot, plain Python lists hold
the above-floor power sum, the CCA power sum (with per-frame measurement
noise), the incoming-frame count, the mutations since the last exact resync,
the busy verdict, and the lock (transmission, power, capture threshold,
worst-case interference).

The sub-floor ops read numpy mirrors of some of that state: the CCA sums
and busy verdicts, and per locked slot the lock mask, locked power,
above-floor sum and sub-floor interference maximum.  Only the receiver pass
and the lock/unlock steps write them, and only once some sender has a
sub-floor row.  Until then no sub-floor power exists and nothing reads
them, so a run whose senders all hear every radio above the floor (every
small cell) never touches them.  The first sub-floor row starts them from
the lists (:meth:`Medium._go_live`).

A frame's start and its end each run one inlined pass over the sender's row
of ``(radio, slot, mW, dBm, decodable)`` entries (``decodable`` is the static
test ``dBm >= sensitivity``), with the sub-floor power at those receivers
gathered once per edge.  CCA and preamble verdicts compare in linear
milliwatts and take the exact ``10*log10`` only within a 1e-9 relative band
of the threshold, so an uneventful receiver calls no method; a lock,
capture, decode or busy flip does.  Callbacks fire per receiver in row
order, a capture's failed outcome or a decode outcome before that receiver's
busy edge, and each radio's rng draws CCA noise at frame start and decodes
at frame end.  The power sums are incremental: an emptied channel resets
them to exactly 0.0, and every :data:`RESYNC_INTERVAL` mutations ``sum()``
re-derives them over the live frames in frame-start order.

Callbacks schedule; they never transmit inline.  A pass reads its per-edge
gathers throughout, so :meth:`Medium.start_transmission` raises
``RuntimeError`` when called from inside another frame's pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..propagation.channel import ChannelModel, ShadowingTable
from ..units import linear_to_db
from .engine import Simulator
from .frames import Frame
from .phy import ReceptionOutcome

__all__ = [
    "Transmission",
    "LinkRows",
    "Medium",
    "DEFAULT_DETECTABILITY_MARGIN_DB",
    "DEFAULT_MIN_DISTANCE_M",
    "RESYNC_INTERVAL",
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

#: Receiver mutations (frame starts + ends) between exact power-sum resyncs.
RESYNC_INTERVAL: int = 1024

#: Relative band around a linear threshold inside which a verdict is taken
#: with the exact dB comparison instead (far wider than log10 rounding).
_EXACT_BAND = 1e-9

_np_log10 = np.log10

#: The sub-floor power at every receiver of a row while no sender has a
#: sub-floor row.  ``repeat`` without a count has no state to exhaust, so
#: every pass zips over this one object.
_NO_SUBFLOOR = itertools.repeat(0.0)


def _lin_to_db_scalar(value_mw: float) -> float:
    """``float(linear_to_db(x))`` for strictly positive scalars, minus the
    array/errstate overhead (verified bit-identical for positive inputs)."""
    return 10.0 * float(_np_log10(value_mw))


def linear_threshold(threshold_db: Optional[float]) -> Tuple[float, float, float]:
    """``(linear, lo, hi)`` for a dB threshold; ``None`` is never crossed.

    A linear value above ``hi`` is surely above the dB threshold and one
    below ``lo`` surely under it; in between, decide with the exact dB value.
    """
    linear = math.inf if threshold_db is None else float(10.0 ** (threshold_db / 10.0))
    return linear, linear * (1.0 - _EXACT_BAND), linear * (1.0 + _EXACT_BAND)


class LinkRows:
    """Read-only received-power rows of one node set, each built on first use.

    Holds the node coordinates and the channel's :class:`ShadowingTable`
    over ``ids`` (drawn from ``channel`` here, exactly as a full matrix would
    draw it).  Sender ``i``'s dBm row is::

        tx_power - loss_db(max(hypot(x_i - x, y_i - y), min_distance)) + shadowing_row_i

    with ``-inf`` at ``i``, and its mW row ``10 ** (dbm / 10)``: element for
    element the full-matrix formula, so every value is bit-identical to
    :meth:`matrix`.  The medium reads only the mW rows (:meth:`mw`,
    :meth:`audible`), so a sender's dBm row is built transiently for its mW
    row and cached only when :meth:`dbm` itself is asked for it.  One table
    may serve many media over the same node set (the warm state of
    :mod:`repro.scenarios.execute`), which then share its rows.
    """

    __slots__ = ("ids", "shadowing", "_x", "_y", "_tx_power_dbm", "_path_loss",
                 "_min_distance_m", "_dbm", "_mw")

    def __init__(
        self,
        channel: ChannelModel,
        ids: Sequence[Hashable],
        positions: Mapping[Hashable, Position],
        min_distance_m: float = DEFAULT_MIN_DISTANCE_M,
    ) -> None:
        self.ids = tuple(ids)
        coords = np.asarray([positions[node] for node in self.ids], dtype=float).reshape(-1, 2)
        self._x = coords[:, 0].copy()
        self._y = coords[:, 1].copy()
        self.shadowing: Optional[ShadowingTable] = channel.shadowing_for(self.ids)
        self._tx_power_dbm = channel.tx_power_dbm
        self._path_loss = channel.path_loss
        self._min_distance_m = min_distance_m
        self._dbm: List[Optional[np.ndarray]] = [None] * len(self.ids)
        self._mw: List[Optional[np.ndarray]] = [None] * len(self.ids)

    @property
    def rows_built(self) -> int:
        """How many senders have a row (mW, dBm or both) so far."""
        return sum(mw is not None or dbm is not None for mw, dbm in zip(self._mw, self._dbm))

    def _dbm_row(self, i: int) -> np.ndarray:
        """Sender ``i``'s dBm row: the cached one, or else a fresh uncached one."""
        row = self._dbm[i]
        if row is None:
            distances = np.hypot(self._x[i] - self._x, self._y[i] - self._y)
            np.maximum(distances, self._min_distance_m, out=distances)
            row = self._tx_power_dbm - np.asarray(self._path_loss.loss_db(distances))
            if self.shadowing is not None:
                row += self.shadowing.row(i)
            row[i] = -np.inf
        return row

    def dbm(self, i: int) -> np.ndarray:
        """Received power (dBm) of node ``i``'s transmission at every node."""
        row = self._dbm[i]
        if row is None:
            row = self._dbm_row(i)
            row.flags.writeable = False
            self._dbm[i] = row
        return row

    def mw(self, i: int) -> np.ndarray:
        """:meth:`dbm` in milliwatts (exactly 0 at ``i``)."""
        row = self._mw[i]
        if row is None:
            row = np.power(10.0, self._dbm_row(i) / 10.0)
            row.flags.writeable = False
            self._mw[i] = row
        return row

    def audible(self, i: int, floor_dbm: float) -> np.ndarray:
        """``dbm(i) >= floor_dbm`` as a fresh bool row, read off :meth:`mw`.

        An entry outside the 1e-9 relative band of :func:`linear_threshold`
        around the floor in milliwatts is settled there (``10 ** (x / 10)``
        errs by ulps, far less than the band); only when some entry falls
        inside the band is the dBm row consulted, built transiently unless
        it is cached.
        """
        mw = self.mw(i)
        _, lo, hi = linear_threshold(floor_dbm)
        audible = mw > hi
        band = mw >= lo
        band ^= audible
        if band.any():
            audible[band] = self._dbm_row(i)[band] >= floor_dbm
        return audible

    def matrix(self) -> np.ndarray:
        """The full N x N dBm matrix: every row, built where still missing."""
        n = len(self.ids)
        return np.array([self.dbm(i) for i in range(n)]).reshape(n, n)


@dataclass(slots=True)
class Transmission:
    """One in-flight frame on the medium."""

    frame: Frame
    src: Hashable
    start_time: float
    end_time: float
    tx_id: int = field(default_factory=_transmission_ids.__next__)

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
        # configuration and topology
        "sim", "channel", "min_distance_m", "detectability_margin_db", "active_transmissions",
        "_positions", "_radios", "_index", "_rx_power_cache", "_rows", "_finalized",
        "_noise_floor_mw",
        # per-sender tables
        "_notify", "_notify_mw", "_gather", "_subfloor_masks", "_row_built",
        # per-slot receiver state and reception constants
        "_slot_radios", "_rx_sum_mw", "_cca_sum_mw", "_incoming", "_mutations", "_busy",
        "_lock_tx", "_lock_mw", "_capture_dbm", "_lock_max_mw",
        "_preamble_lo", "_preamble_hi", "_capture_margin_db", "_cca_noise_db", "_frame_cca_mw",
        # arrays for the O(N) sub-floor ops
        "_subfloor_live", "_subfloor_active_mw", "_finishes_since_resync", "_locked_mask",
        "_locked_power_mw", "_locked_above_mw", "_locked_subfloor_max_mw", "_cca_live_mw",
        "_busy_mirror", "_cca_threshold_mw", "_thresholds_stale",
        "_in_pass",
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
        self._index: Dict[Hashable, int] = {}
        self._rx_power_cache: Dict[Tuple[Hashable, Hashable], float] = {}
        self.active_transmissions: Dict[int, Transmission] = {}
        # The received-power rows: primed (see prime_rx_matrix) or built by
        # finalize().
        self._rows: Optional[LinkRows] = None
        self._noise_floor_mw = float(channel.noise_floor_mw)
        self._finalized = False
        # Per-sender tables, built lazily by _sender_tables(): the notify row,
        # its powers in mW, its receiver slots as an index array, and the
        # sub-floor mask over the sender's mW row (None where every receiver
        # is audible).
        self._notify: List[Optional[List[tuple]]] = []
        self._notify_mw: List[Optional[List[float]]] = []
        self._gather: List[Optional[np.ndarray]] = []
        self._subfloor_masks: List[Optional[np.ndarray]] = []
        self._row_built: List[bool] = []
        # Per-slot receiver state, appended by register().
        self._slot_radios: List["Radio"] = []
        self._rx_sum_mw: List[float] = []
        self._cca_sum_mw: List[float] = []
        self._incoming: List[int] = []
        self._mutations: List[int] = []
        self._busy: List[bool] = []
        self._lock_tx: List[Optional[Transmission]] = []
        self._lock_mw: List[float] = []
        #: The locked frame's dBm plus the capture margin: what a new frame
        #: needs to steal the lock.
        self._capture_dbm: List[float] = []
        self._lock_max_mw: List[float] = []
        # Per-slot reception constants, read from each radio at finalisation.
        self._preamble_lo: List[float] = []
        self._preamble_hi: List[float] = []
        self._capture_margin_db: List[float] = []
        self._cca_noise_db: Optional[List[float]] = None  # None: no radio is noisy
        # tx_id -> CCA power per row entry, for the frame's end and resyncs.
        self._frame_cca_mw: Dict[int, List[float]] = {}
        # The arrays for the O(N) sub-floor ops: the active sub-floor power is
        # allocated by finalize(), the rest by _go_live().
        self._subfloor_live = False
        self._thresholds_stale = True
        self._in_pass = False

    # -- topology ---------------------------------------------------------------

    def register(self, node_id: Hashable, position: Position, radio: "Radio") -> None:
        """Add a node's radio to the medium at the given position."""
        if node_id in self._radios:
            raise ValueError(f"node {node_id!r} is already registered")
        if self.active_transmissions:
            raise RuntimeError("cannot register a radio while frames are in flight")
        self._positions[node_id] = (float(position[0]), float(position[1]))
        self._radios[node_id] = radio
        self._index[node_id] = radio._slot = len(self._slot_radios)
        self._slot_radios.append(radio)
        self._rx_sum_mw.append(0.0)
        self._cca_sum_mw.append(0.0)
        self._incoming.append(0)
        self._mutations.append(0)
        self._busy.append(False)
        self._lock_tx.append(None)
        self._lock_mw.append(0.0)
        self._capture_dbm.append(math.inf)
        self._lock_max_mw.append(0.0)
        self._finalized = False

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
        """The full N x N received-power matrix (dBm) of a fresh
        :class:`LinkRows` table: :meth:`LinkRows.matrix`, drawing the
        shadowing from ``channel`` exactly as finalisation would."""
        return LinkRows(channel, ids, positions, min_distance_m).matrix()

    def prime_rx_matrix(self, rows: LinkRows) -> None:
        """Provide the received-power rows for the coming finalisation.

        ``rows`` must be a :class:`LinkRows` built with the same channel
        config and rng seed over every node this medium will hold, in
        registration order; the same table may prime many media.  The
        channel adopts its :class:`~repro.propagation.channel.ShadowingTable`
        (shared, read-only), so per-pair queries before finalisation (oracle
        SNRs, link budgets) agree with the rows instead of lazily drawing
        different values.

        Priming is only sound while the channel holds no shadowing yet: if
        pairs were already drawn or pinned, the rows are not used and
        finalisation builds its own.  Pinning a different value after
        priming makes :meth:`finalize` raise ``ValueError``.
        """
        if self.channel.holds_shadowing:
            # The channel already has draws/pins the primed rows cannot
            # account for; refuse the shortcut rather than risk divergence.
            self._rows = None
            return
        self._rows = rows
        if rows.shadowing is not None:
            self.channel.load_shadowing_table(rows.shadowing)

    def finalize(self) -> None:
        """Freeze the topology: settle the received-power rows.

        Called automatically by the first :meth:`start_transmission`; safe to
        call again (a no-op once finalised, re-run after new registrations,
        which can only happen while no frame is in flight).

        Finalisation takes the primed :class:`LinkRows` when they cover
        exactly the registered nodes, or else a fresh table from the channel,
        and reads each radio's reception constants; every row, and the
        per-sender notification and sub-floor tables, is built lazily by
        :meth:`_sender_tables` on a sender's first transmission.

        Raises ``ValueError`` when the channel pinned a pair to a value the
        primed rows do not hold (a pin made after priming).
        """
        if self._finalized:
            return
        ids = tuple(self._radios)
        rows = self._rows
        if rows is not None and rows.ids == ids:
            overridden = self.channel.overridden_pairs(ids, rows.shadowing)
            if overridden:
                raise ValueError(
                    f"shadowing of {overridden[0]!r} was pinned after the medium was "
                    "primed: pin before priming, or build the network cold"
                )
        else:
            rows = LinkRows(self.channel, ids, self._positions, self.min_distance_m)
        self._rows = rows
        n = len(ids)
        radios = self._slot_radios
        preamble = [linear_threshold(r.reception.preamble_snr_threshold_db) for r in radios]
        self._preamble_lo = [lo for _, lo, _ in preamble]
        self._preamble_hi = [hi for _, _, hi in preamble]
        self._capture_margin_db = [r.reception.capture_margin_db for r in radios]
        noise = [r.cca_noise_db for r in radios]
        self._cca_noise_db = noise if any(noise) else None

        self._subfloor_active_mw = np.zeros(n)
        self._finishes_since_resync = 0
        self._thresholds_stale = True
        self._subfloor_live = False
        self._notify = [None] * n
        self._notify_mw = [None] * n
        self._gather = [None] * n
        self._subfloor_masks = [None] * n
        self._row_built = [False] * n
        self._finalized = True

    @property
    def link_rows(self) -> Optional[LinkRows]:
        """The received-power rows finalisation settled on (``None`` before)."""
        return self._rows if self._finalized else None

    def _sender_tables(self, slot: int) -> List[tuple]:
        """The notify row of one sender slot, built (with the sender's other
        tables) on first use.

        The sender's one cached array is its mW row in :class:`LinkRows`;
        the medium adds only the notify row and, when some receiver lies
        below the detectability floor, a bool mask of those receivers, over
        which the sub-floor ops add and subtract that same mW row.  The
        audible set is :meth:`LinkRows.audible` (the dBm row against the
        floor); per-link dBm goes through :func:`linear_to_db` of the
        milliwatt row (a round trip through linear milliwatts, deliberately
        NOT the dBm row, whose floats differ in the last ulp), over the
        audible entries only.
        """
        if not self._row_built[slot]:
            rows = self._rows
            rx_mw_row = rows.mw(slot)
            floor = self.detectability_floor_dbm
            if floor is None:
                audible = np.ones(len(rx_mw_row), dtype=bool)
            else:
                audible = rows.audible(slot, floor)
            audible[slot] = False  # a sender never hears (or interferes with) itself
            below = ~audible
            below[slot] = False
            if below.any():
                self._subfloor_masks[slot] = below
                if not self._subfloor_live:
                    self._go_live()
            gather = np.flatnonzero(audible)
            row_mw_array = rx_mw_row[gather]
            row_mw = row_mw_array.tolist()
            radios = self._slot_radios
            self._notify[slot] = [
                (radios[j], j, mw, dbm, dbm >= radios[j].reception.sensitivity_dbm)
                for j, mw, dbm in zip(gather.tolist(), row_mw, linear_to_db(row_mw_array).tolist())
            ]
            self._notify_mw[slot] = row_mw
            self._gather[slot] = gather
            self._row_built[slot] = True
        return self._notify[slot]

    def _go_live(self) -> None:
        """Start the arrays the sub-floor ops read; the first sub-floor row
        calls this, before that row's power is added.

        Until then no sub-floor power is active, the sub-floor ops never run
        and nothing reads these arrays, so the passes and the lock
        bookkeeping skip them.  From here on they keep them current.  Each
        starts from the per-slot state it mirrors: CCA sums, busy verdicts,
        and, for slots holding a lock, the lock mask, locked power and
        above-floor sum.  No sub-floor power has reached a lock yet, so every
        sub-floor interference maximum starts at ``-inf``.
        """
        self._subfloor_live = True
        self._cca_live_mw = np.array(self._cca_sum_mw, dtype=float)
        self._busy_mirror = np.array(self._busy, dtype=bool)
        self._locked_mask = np.array([tx is not None for tx in self._lock_tx], dtype=bool)
        self._locked_power_mw = np.array(self._lock_mw, dtype=float)
        self._locked_above_mw = np.array(self._rx_sum_mw, dtype=float)
        self._locked_subfloor_max_mw = np.full(len(self._lock_tx), -math.inf)

    def neighborhood(self, src: Hashable) -> List[Hashable]:
        """Node ids notified per-frame when ``src`` transmits (after finalisation)."""
        self.finalize()
        return [entry[0].node_id for entry in self._sender_tables(self._index[src])]

    # -- per-slot queries (read by Radio) ----------------------------------------

    def subfloor_noise_mw(self, slot: int) -> float:
        """Currently-active sub-floor power arriving at the given radio slot."""
        return float(self._subfloor_active_mw[slot]) if self._subfloor_live else 0.0

    def channel_busy(self, slot: int) -> bool:
        """The exact CCA verdict of one slot against its radio's threshold."""
        sub = float(self._subfloor_active_mw[slot]) if self._subfloor_live else 0.0
        if not self._incoming[slot] and sub == 0.0:
            return False
        radio = self._slot_radios[slot]
        sensed = self._cca_sum_mw[slot] + sub + self._noise_floor_mw
        return sensed > radio._cca_hi_mw or (
            sensed >= radio._cca_lo_mw and _lin_to_db_scalar(sensed) > radio._cca_threshold_dbm
        )

    # -- sub-floor vector ops --------------------------------------------------

    def _resync_subfloor(self) -> None:
        """Recompute the active sub-floor vector exactly (bounds float drift).

        Every add and subtract of a sender's sub-floor power runs over its
        mW row where its mask is set; the entries it skips would have added
        exactly +0.0 to a non-negative sum, so the masked forms leave the
        same bits as adding a zero-filled sub-floor row.
        """
        self._finishes_since_resync = 0
        active = self._subfloor_active_mw
        active.fill(0.0)
        for tx in self.active_transmissions.values():
            slot = self._index[tx.src]
            below = self._subfloor_masks[slot]
            if below is not None:
                np.add(active, self._rows.mw(slot), out=active, where=below)

    def _sample_locked_subfloor(self, below: np.ndarray) -> None:
        """Raise the worst-case interference of locked radios that hear the
        starting frame only as sub-floor energy.

        The unpruned path samples it at *every* frame start a locked radio
        sees; one masked op covers the radios the notify row skips.  These
        samples keep their own running max, which the verdict combines with
        the pass's (max is exact, so the split changes no bit).  The
        arithmetic runs over every slot and the mask only picks what is
        stored: about half the radios hold a lock at a busy frame start, so
        full-array ops beat gathering and scattering them.
        """
        interference = self._locked_above_mw + self._subfloor_active_mw
        interference -= self._locked_power_mw
        peak = self._locked_subfloor_max_mw
        np.maximum(peak, interference, out=peak, where=self._locked_mask & below)

    def _sync_subfloor_busy_edges(self, below: np.ndarray) -> None:
        """Fire busy/idle edges on radios whose CCA verdict was flipped by a
        sub-floor power change.

        Per-frame passes only reach above-floor receivers, so a MAC waiting on
        ``on_channel_idle`` would otherwise stall if aggregate sub-floor power
        alone ever crossed its CCA threshold (possible with a small
        ``detectability_margin_db`` and many concurrent far senders).  One
        vectorized compare finds candidate flips; only those re-derive the
        exact verdict.
        """
        live = self._cca_live_mw + self._subfloor_active_mw
        busy = (live > 0.0) & (live + self._noise_floor_mw > self._cca_thresholds_mw())
        for slot in np.flatnonzero(below & (busy != self._busy_mirror)).tolist():
            verdict = self.channel_busy(slot)
            if verdict is not self._busy[slot]:
                self._set_busy(self._slot_radios[slot], slot, verdict)

    def _cca_thresholds_mw(self) -> np.ndarray:
        """Per-slot linear CCA thresholds, rebuilt after a radio changed its own."""
        if self._thresholds_stale:
            self._cca_threshold_mw = np.array([r._cca_threshold_mw for r in self._slot_radios])
            self._thresholds_stale = False
        return self._cca_threshold_mw

    # -- static link queries ---------------------------------------------------

    def rx_power_dbm(self, src: Hashable, dst: Hashable) -> float:
        """Static received power (dBm) from ``src`` at ``dst`` (cached)."""
        if self._finalized:
            return float(self._rows.dbm(self._index[src])[self._index[dst]])
        key = (src, dst)
        if key not in self._rx_power_cache:
            budget = self.channel.link_budget(src, dst, self.distance(src, dst))
            self._rx_power_cache[key] = budget.rx_power_dbm
        return self._rx_power_cache[key]

    def rx_power_mw(self, src: Hashable, dst: Hashable) -> float:
        """Static received power (milliwatts) from ``src`` at ``dst``."""
        if self._finalized:
            return float(self._rows.mw(self._index[src])[self._index[dst]])
        return float(10.0 ** (self.rx_power_dbm(src, dst) / 10.0))

    def snr_db(self, src: Hashable, dst: Hashable) -> float:
        """Interference-free SNR (dB) of the ``src -> dst`` link."""
        return self.rx_power_dbm(src, dst) - self.channel.noise_floor_dbm

    @property
    def noise_floor_mw(self) -> float:
        return self.channel.noise_floor_mw

    # -- receiver events (the pass's method calls) ------------------------------

    def _set_busy(self, radio: "Radio", slot: int, busy: bool) -> None:
        self._busy[slot] = busy
        if self._subfloor_live:
            self._busy_mirror[slot] = busy
        radio._channel_edge(busy)

    def _lock(
        self, slot: int, tx: Transmission, mw: float, dbm: float, interference: float
    ) -> None:
        self._lock_tx[slot] = tx
        self._lock_mw[slot] = mw
        self._capture_dbm[slot] = dbm + self._capture_margin_db[slot]
        self._lock_max_mw[slot] = interference
        if self._subfloor_live:
            self._locked_mask[slot] = True
            self._locked_power_mw[slot] = mw
            self._locked_above_mw[slot] = self._rx_sum_mw[slot]
            self._locked_subfloor_max_mw[slot] = -math.inf

    def _lock_max_interference_mw(self, slot: int) -> float:
        if self._subfloor_live:
            return max(self._lock_max_mw[slot], float(self._locked_subfloor_max_mw[slot]))
        return self._lock_max_mw[slot]

    def _unlock(self, slot: int) -> None:
        self._lock_tx[slot] = None
        if self._subfloor_live:
            self._locked_mask[slot] = False

    def _capture(self, radio: "Radio", slot: int, tx: Transmission, mw: float, dbm: float,
                 rx_sum: float, sub: float) -> None:
        """Physical-layer capture: the stronger frame steals the lock and the
        frame received so far is lost.  The displaced frame still gets a
        (failed) outcome so link-level failure accounting matches the radio
        counters."""
        displaced = self._lock_tx[slot]
        lock_mw = self._lock_mw[slot]
        interference = max(self._lock_max_interference_mw(slot), rx_sum - lock_mw + sub)
        sinr_db = _lin_to_db_scalar(lock_mw / (self._noise_floor_mw + interference))
        radio.stats.frames_failed += 1
        self._lock(slot, tx, mw, dbm, rx_sum - mw + sub)
        radio.on_frame_received(
            ReceptionOutcome(
                frame=displaced.frame, success=False, sinr_db=sinr_db, success_probability=0.0
            )
        )

    def _decode(self, radio: "Radio", slot: int, tx: Transmission) -> None:
        sinr_db = _lin_to_db_scalar(
            self._lock_mw[slot] / (self._noise_floor_mw + self._lock_max_interference_mw(slot))
        )
        outcome = radio.reception.decide(tx.frame, sinr_db, radio.rng)
        if outcome.success:
            radio.stats.frames_decoded += 1
        else:
            radio.stats.frames_failed += 1
        self._unlock(slot)
        radio.on_frame_received(outcome)

    def _resync_slot(self, slot: int) -> None:
        """Re-derive one receiver's power sums exactly: ``sum()`` over its live
        frames in frame-start order (the order of ``active_transmissions``)."""
        powers, cca_powers = [], []
        for tx in self.active_transmissions.values():
            row = self._notify[self._index[tx.src]]
            for i, entry in enumerate(row):
                if entry[1] == slot:
                    powers.append(entry[2])
                    cca_powers.append(self._frame_cca_mw[tx.tx_id][i])
                    break
        self._rx_sum_mw[slot] = sum(powers)
        self._cca_sum_mw[slot] = sum(cca_powers)
        self._mutations[slot] = 0

    # -- transmission lifecycle ---------------------------------------------------

    def start_transmission(self, src: Hashable, frame: Frame) -> Transmission:
        """Put a frame on the air from ``src``; returns the transmission record."""
        if self._in_pass:
            raise RuntimeError(
                f"node {src!r} started a transmission inside another frame's receiver "
                "pass: MAC callbacks must schedule transmissions, never start them inline"
            )
        if src not in self._radios:
            raise KeyError(f"unknown source node {src!r}")
        if not self._finalized:
            self.finalize()
        duration = frame.airtime_s
        now = self.sim._now
        tx = Transmission(frame, src, now, now + duration)
        self.active_transmissions[tx.tx_id] = tx
        src_slot = self._index[src]
        row = self._notify[src_slot]
        if row is None:
            row = self._sender_tables(src_slot)
        below = self._subfloor_masks[src_slot]
        if below is not None:
            active = self._subfloor_active_mw
            np.add(active, self._rows.mw(src_slot), out=active, where=below)
            self._sample_locked_subfloor(below)
        noise_db = self._cca_noise_db
        cca_powers = self._notify_mw[src_slot] if noise_db is None else []
        self._frame_cca_mw[tx.tx_id] = cca_powers

        nf = self._noise_floor_mw
        rx_sum, cca_sum, incoming, mutations = (
            self._rx_sum_mw, self._cca_sum_mw, self._incoming, self._mutations
        )
        lock_tx, lock_mw, lock_max = self._lock_tx, self._lock_mw, self._lock_max_mw
        capture_dbm, busy_now = self._capture_dbm, self._busy
        preamble_lo, preamble_hi = self._preamble_lo, self._preamble_hi
        if self._subfloor_live:
            subs = self._subfloor_active_mw[self._gather[src_slot]].tolist()
            mirror, locked_above = self._cca_live_mw, self._locked_above_mw
        else:
            subs, mirror, locked_above = _NO_SUBFLOOR, None, None
        self._in_pass = True
        try:
            for (radio, j, mw, dbm, decodable), sub in zip(row, subs):
                rxs = rx_sum[j] + mw
                rx_sum[j] = rxs
                cca = mw
                if noise_db is not None:
                    if noise_db[j] > 0:
                        # == rng.normal(0.0, noise_db[j]), as in ReceptionModel.decide
                        cca *= 10.0 ** (noise_db[j] * radio.rng.standard_normal() / 10.0)
                    cca_powers.append(cca)
                ccs = cca_sum[j] + cca
                cca_sum[j] = ccs
                incoming[j] += 1
                mutation = mutations[j] + 1
                if mutation < RESYNC_INTERVAL:
                    mutations[j] = mutation
                else:
                    self._resync_slot(j)
                    rxs, ccs = rx_sum[j], cca_sum[j]
                if mirror is not None:
                    mirror[j] = ccs

                if radio._transmitting is not None:
                    radio.stats.frames_missed_while_busy += 1
                elif lock_tx[j] is None:
                    if decodable:
                        interference = rxs - mw + sub
                        ratio = mw / (nf + interference)
                        if ratio >= preamble_hi[j] or (
                            ratio >= preamble_lo[j]
                            and _lin_to_db_scalar(ratio)
                            >= radio.reception.preamble_snr_threshold_db
                        ):
                            self._lock(j, tx, mw, dbm, interference)
                elif decodable and dbm >= capture_dbm[j]:
                    self._capture(radio, j, tx, mw, dbm, rxs, sub)
                else:
                    if locked_above is not None:
                        locked_above[j] = rxs
                    interference = rxs - lock_mw[j] + sub
                    if interference > lock_max[j]:
                        lock_max[j] = interference

                sensed = ccs + sub + nf
                busy = sensed > radio._cca_hi_mw or (
                    sensed >= radio._cca_lo_mw
                    and _lin_to_db_scalar(sensed) > radio._cca_threshold_dbm
                )
                if busy is not busy_now[j]:
                    self._set_busy(radio, j, busy)
            if below is not None:
                self._sync_subfloor_busy_edges(below)
        finally:
            self._in_pass = False
        self.sim.schedule_call(duration, lambda: self._finish_transmission(tx))
        return tx

    def _finish_transmission(self, tx: Transmission) -> None:
        del self.active_transmissions[tx.tx_id]
        cca_powers = self._frame_cca_mw.pop(tx.tx_id)
        src_slot = self._index[tx.src]
        below = self._subfloor_masks[src_slot]
        if below is not None:
            active = self._subfloor_active_mw
            np.subtract(active, self._rows.mw(src_slot), out=active, where=below)
            self._finishes_since_resync += 1
            if (
                self._finishes_since_resync >= SUBFLOOR_RESYNC_INTERVAL
                or not self.active_transmissions
            ):
                self._resync_subfloor()

        nf = self._noise_floor_mw
        rx_sum, cca_sum, incoming, mutations = (
            self._rx_sum_mw, self._cca_sum_mw, self._incoming, self._mutations
        )
        lock_tx, busy_now = self._lock_tx, self._busy
        if self._subfloor_live:
            subs = self._subfloor_active_mw[self._gather[src_slot]].tolist()
            mirror, locked_above = self._cca_live_mw, self._locked_above_mw
        else:
            subs, mirror, locked_above = _NO_SUBFLOOR, None, None
        self._in_pass = True
        try:
            for (radio, j, mw, _dbm, _decodable), sub, cca in zip(
                self._notify[src_slot], subs, cca_powers
            ):
                remaining = incoming[j] - 1
                incoming[j] = remaining
                if remaining:
                    rxs = rx_sum[j] - mw
                    rx_sum[j] = rxs
                    ccs = cca_sum[j] - cca
                    cca_sum[j] = ccs
                    mutation = mutations[j] + 1
                    if mutation < RESYNC_INTERVAL:
                        mutations[j] = mutation
                    else:
                        self._resync_slot(j)
                        rxs, ccs = rx_sum[j], cca_sum[j]
                else:
                    # An emptied channel is the cheapest exact state: reset
                    # outright so drift can never outlive a quiet moment.
                    rx_sum[j] = cca_sum[j] = rxs = ccs = 0.0
                    mutations[j] = 0
                if mirror is not None:
                    mirror[j] = ccs

                locked = lock_tx[j]
                if locked is tx:
                    self._decode(radio, j, tx)
                elif locked is not None and locked_above is not None:
                    locked_above[j] = rxs

                if remaining or sub != 0.0:
                    sensed = ccs + sub + nf
                    busy = sensed > radio._cca_hi_mw or (
                        sensed >= radio._cca_lo_mw
                        and _lin_to_db_scalar(sensed) > radio._cca_threshold_dbm
                    )
                else:
                    busy = False
                if busy is not busy_now[j]:
                    self._set_busy(radio, j, busy)
            if below is not None:
                self._sync_subfloor_busy_edges(below)
        finally:
            self._in_pass = False
        self._radios[tx.src].transmit_finished(tx)
