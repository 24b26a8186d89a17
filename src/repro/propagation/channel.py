"""Composite path-loss + shadowing + fading channel model.

This is the "basic path loss - shadowing - fading model" of Section 2, in a
form usable both by the analytical carrier-sense model (normalised units, fold
transmit power into the noise floor) and by the packet simulator / synthetic
testbed (physical units: dBm, metres).

A :class:`ChannelModel` owns one shadowing value per ordered (or unordered)
node pair so that repeated queries between the same pair are consistent over a
simulation run, which is how real static shadowing behaves and what the
testbed experiments require (a link's quality should not change between the
probing phase and the measurement phase).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple, Union, cast

import numpy as np

from ..constants import (
    DEFAULT_NOISE_FLOOR_DBM,
    DEFAULT_TX_POWER_DBM,
    FREQ_2_4_GHZ,
)
from ..units import db_to_linear
from .fading import RayleighFading
from .pathloss import ArrayLike, LogDistancePathLoss, path_gain
from .shadowing import ShadowingModel

__all__ = ["NormalizedChannel", "ChannelModel", "LinkBudget", "ShadowingTable"]

PairKey = Tuple[Hashable, Hashable]
IndexLike = Union[int, np.ndarray]


@dataclass(frozen=True)
class LinkBudget:
    """Complete accounting of a single link power calculation (dB/dBm)."""

    tx_power_dbm: float
    path_loss_db: float
    shadowing_db: float
    fading_db: float
    rx_power_dbm: float
    noise_floor_dbm: float

    @property
    def snr_db(self) -> float:
        return self.rx_power_dbm - self.noise_floor_dbm


@dataclass
class NormalizedChannel:
    """Channel in the paper's normalised units (P0 folded into the noise term).

    Received power from a node at distance ``r`` is ``r ** -alpha * L`` where
    ``L`` is a lognormal shadowing gain; the noise floor is ``N = N0 / P0``.
    """

    alpha: float = 3.0
    sigma_db: float = 0.0
    noise: float = cast(float, db_to_linear(-65.0))
    # Deliberately unseeded exploratory default: every experiment and
    # scenario path injects a seeded generator.
    rng: np.random.Generator = field(default_factory=np.random.default_rng)  # simlint: disable=no-unseeded-rng

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")
        if self.noise <= 0:
            raise ValueError("noise must be positive")
        self._shadowing = ShadowingModel(self.sigma_db, rng=self.rng)

    def received_power(
        self, distance: ArrayLike, shadowing_gain: Optional[ArrayLike] = None
    ) -> ArrayLike:
        """Normalised received power at the given distance(s).

        ``shadowing_gain`` may be supplied explicitly (e.g. a pre-drawn Monte
        Carlo sample); otherwise a fresh value is drawn when sigma > 0.
        """
        gain = path_gain(distance, self.alpha)
        if shadowing_gain is None:
            size = None if np.ndim(distance) == 0 else np.shape(distance)
            shadowing_gain = self._shadowing.sample_linear(size)
        return gain * shadowing_gain

    def snr(
        self,
        distance: ArrayLike,
        shadowing_gain: Optional[ArrayLike] = None,
        interference: float = 0.0,
    ) -> ArrayLike:
        """Signal-to-interference-plus-noise ratio at the given distance(s)."""
        return self.received_power(distance, shadowing_gain) / (self.noise + interference)


def _pair_index(i: IndexLike, j: IndexLike, n: int) -> IndexLike:
    """Position of the pair ``(i, j)``, ``i < j``, in an ``n``-node condensed
    vector (row-major upper triangle); works on scalars and index arrays."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


class ShadowingTable(NamedTuple):
    """A channel's batch-drawn shadowing over one node order, condensed.

    ``condensed_db`` holds the static shadowing (dB) of every unordered pair
    ``(ids[i], ids[j])``, ``i < j``, in row-major order -- the order of the
    one batched ``rng.normal`` draw, so a cold draw is stored as it comes out
    (``n (n - 1) / 2`` values, half a square matrix).  :meth:`value` reads one
    pair and :meth:`row` one node's shadowing towards every node.  Read-only.
    """

    ids: Tuple[Hashable, ...]
    condensed_db: np.ndarray

    def value(self, i: int, j: int) -> float:
        """Shadowing (dB) between positions ``i != j``."""
        if i > j:
            i, j = j, i
        return float(self.condensed_db[_pair_index(i, j, len(self.ids))])

    def row(self, i: int) -> np.ndarray:
        """Shadowing (dB) from position ``i`` to every position; 0 at ``i``."""
        n = len(self.ids)
        row = np.empty(n)
        lower = np.arange(i)
        row[:i] = self.condensed_db[_pair_index(lower, i, n)]
        row[i] = 0.0
        start = i * (2 * n - i - 1) // 2  # the pair (i, i + 1)
        row[i + 1:] = self.condensed_db[start:start + n - i - 1]
        return row


@dataclass
class ChannelModel:
    """Physical-unit channel used by the simulator and synthetic testbed.

    Combines log-distance path loss, per-pair static lognormal shadowing, and
    optional per-packet Rayleigh fading residue.  Shadowing is one value per
    unordered node pair, so links are reciprocal (the paper's Figure 14 fit
    assumes symmetric channels).  It lives in two places, consulted in this
    order: a small dict of pinned (:meth:`set_shadowing_db`) and lazily drawn
    pairs, then the :class:`ShadowingTable` that :meth:`shadowing_for` draws
    in one batch.  A pair found in neither is drawn on first query and kept
    in the dict.
    """

    path_loss: LogDistancePathLoss = field(
        default_factory=lambda: LogDistancePathLoss(alpha=3.5, frequency_hz=FREQ_2_4_GHZ)
    )
    sigma_db: float = 8.0
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM
    fading_sigma_db: float = 0.0
    # Deliberately unseeded exploratory default: every experiment and
    # scenario path injects a seeded generator.
    rng: np.random.Generator = field(default_factory=np.random.default_rng)  # simlint: disable=no-unseeded-rng

    def __post_init__(self) -> None:
        if self.sigma_db < 0 or self.fading_sigma_db < 0:
            raise ValueError("sigma values must be non-negative")
        self._pair_shadowing_db: Dict[PairKey, float] = {}
        self._table: Optional[ShadowingTable] = None
        self._table_index: Dict[Hashable, int] = {}

    # -- shadowing bookkeeping -------------------------------------------------

    def _pair_key(self, a: Hashable, b: Hashable) -> PairKey:
        return (a, b) if repr(a) <= repr(b) else (b, a)

    @property
    def shadowing_table(self) -> Optional[ShadowingTable]:
        """The batch-drawn shadowing, or ``None`` before any batch draw."""
        return self._table

    @property
    def holds_shadowing(self) -> bool:
        """Whether any pair has been drawn or pinned on this channel."""
        return self._table is not None or bool(self._pair_shadowing_db)

    def load_shadowing_table(self, table: ShadowingTable) -> None:
        """Adopt the table another channel of the same config and seed drew.

        The table is shared, not copied (it is read-only).  Only an untouched
        channel can adopt one: earlier draws or pins would disagree with it.
        """
        if self.holds_shadowing:
            raise ValueError("channel already holds shadowing draws or pins")
        self._set_table(table)

    def _set_table(self, table: ShadowingTable) -> None:
        table.condensed_db.flags.writeable = False
        self._table = table
        self._table_index = {node: i for i, node in enumerate(table.ids)}

    def shadowing_db(self, a: Hashable, b: Hashable) -> float:
        """Static shadowing value (dB) for the unordered pair ``(a, b)``."""
        key = self._pair_key(a, b)
        value = self._pair_shadowing_db.get(key)
        if value is not None:
            return value
        i = self._table_index.get(a)
        j = self._table_index.get(b)
        if self._table is not None and i is not None and j is not None and i != j:
            return self._table.value(i, j)
        value = 0.0 if self.sigma_db == 0.0 else float(self.rng.normal(0.0, self.sigma_db))
        self._pair_shadowing_db[key] = value
        return value

    def set_shadowing_db(self, a: Hashable, b: Hashable, value_db: float) -> None:
        """Pin the shadowing value for a pair (used by tests and scenarios)."""
        self._pair_shadowing_db[self._pair_key(a, b)] = float(value_db)

    def shadowing_for(self, ids: Sequence[Hashable]) -> Optional[ShadowingTable]:
        """The shadowing of every pair over ``ids``, in that node order.

        ``None`` means every pair is at 0 dB: ``sigma_db == 0`` and nothing
        was drawn or pinned.  On an untouched channel (the cold scenario run)
        the pairs are drawn in one batch, which becomes the channel's table
        as it comes out.  Otherwise known values (pinned, drawn lazily, or in
        the table) are reused verbatim and only the missing pairs are drawn,
        in one batch in ``(i, j), i < j`` order, and kept so later per-pair
        queries agree with the result.
        """
        n = len(ids)
        if not n:
            return None
        if not self.holds_shadowing:
            if self.sigma_db == 0.0:
                return None
            table = ShadowingTable(
                tuple(ids), self.rng.normal(0.0, self.sigma_db, size=n * (n - 1) // 2)
            )
            self._set_table(table)
            return table
        values, known = self._known_shadowing(ids)
        missing = np.flatnonzero(~known)
        if self.sigma_db > 0.0:
            draws = self.rng.normal(0.0, self.sigma_db, size=missing.size)
        else:
            draws = np.zeros(missing.size)
        values[missing] = draws
        table = ShadowingTable(tuple(ids), values)
        old = self._table
        if old is None or all(node in table.ids for node in old.ids):
            # The new table holds every old table value: it supersedes it.
            self._set_table(table)
        else:
            rows, columns = np.triu_indices(n, k=1)
            for i, j, draw in zip(rows[missing].tolist(), columns[missing].tolist(),
                                  draws.tolist()):
                self._pair_shadowing_db[self._pair_key(ids[i], ids[j])] = draw
        return table

    def _known_shadowing(self, ids: Sequence[Hashable]) -> Tuple[np.ndarray, np.ndarray]:
        """The already-known values over ``ids`` in condensed order, and the
        mask of which are known (the dict wins over the table)."""
        n = len(ids)
        values = np.zeros(n * (n - 1) // 2)
        known = np.zeros(values.size, dtype=bool)
        if self._table is not None:
            old = np.fromiter(
                (self._table_index.get(node, -1) for node in ids), dtype=np.intp, count=n
            )
            present = np.flatnonzero(old >= 0)
            first, second = np.triu_indices(present.size, k=1)
            i, j = present[first], present[second]
            a, b = old[i], old[j]
            new = _pair_index(i, j, n)
            values[new] = self._table.condensed_db[
                _pair_index(np.minimum(a, b), np.maximum(a, b), len(self._table.ids))
            ]
            known[new] = True
        position = {node: i for i, node in enumerate(ids)}
        for (a_id, b_id), value in self._pair_shadowing_db.items():
            p = position.get(a_id)
            q = position.get(b_id)
            if p is not None and q is not None and p != q:
                k = _pair_index(min(p, q), max(p, q), n)
                values[k] = value
                known[k] = True
        return values, known

    def overridden_pairs(
        self, ids: Sequence[Hashable], table: Optional[ShadowingTable]
    ) -> List[PairKey]:
        """Pairs over ``ids`` whose pinned or lazily drawn value differs from
        ``table`` (``None``: every pair at 0 dB)."""
        position = {node: i for i, node in enumerate(ids)}
        overridden: List[PairKey] = []
        for (a, b), value in self._pair_shadowing_db.items():
            i = position.get(a)
            j = position.get(b)
            if i is None or j is None or i == j:
                continue
            if value != (0.0 if table is None else table.value(i, j)):
                overridden.append((a, b))
        return overridden

    # -- link budget -----------------------------------------------------------

    def link_budget(
        self,
        a: Hashable,
        b: Hashable,
        distance_m: float,
        include_fading: bool = False,
    ) -> LinkBudget:
        """Full link budget from node ``a`` to node ``b`` at the given distance."""
        if distance_m <= 0:
            raise ValueError("distance must be strictly positive")
        loss = float(self.path_loss.loss_db(distance_m))
        shadow = self.shadowing_db(a, b)
        fading = 0.0
        if include_fading and self.fading_sigma_db > 0:
            fading = float(self.rng.normal(0.0, self.fading_sigma_db))
        rx = self.tx_power_dbm - loss + shadow + fading
        return LinkBudget(
            tx_power_dbm=self.tx_power_dbm,
            path_loss_db=loss,
            shadowing_db=shadow,
            fading_db=fading,
            rx_power_dbm=rx,
            noise_floor_dbm=self.noise_floor_dbm,
        )

    def rx_power_dbm(
        self, a: Hashable, b: Hashable, distance_m: float, include_fading: bool = False
    ) -> float:
        """Received power (dBm) from ``a`` at ``b``."""
        return self.link_budget(a, b, distance_m, include_fading).rx_power_dbm

    def rx_power_mw(
        self, a: Hashable, b: Hashable, distance_m: float, include_fading: bool = False
    ) -> float:
        """Received power (milliwatts) from ``a`` at ``b``."""
        return float(10.0 ** (self.rx_power_dbm(a, b, distance_m, include_fading) / 10.0))

    @property
    def noise_floor_mw(self) -> float:
        """Noise floor expressed in milliwatts."""
        return float(10.0 ** (self.noise_floor_dbm / 10.0))
