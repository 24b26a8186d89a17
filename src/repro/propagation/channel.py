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
from typing import Dict, Hashable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..constants import (
    DEFAULT_NOISE_FLOOR_DBM,
    DEFAULT_TX_POWER_DBM,
    FREQ_2_4_GHZ,
)
from ..units import db_to_linear
from .fading import RayleighFading
from .pathloss import LogDistancePathLoss, path_gain
from .shadowing import ShadowingModel

__all__ = ["NormalizedChannel", "ChannelModel", "LinkBudget", "ShadowingTable"]

PairKey = Tuple[Hashable, Hashable]


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
    noise: float = db_to_linear(-65.0)
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

    def received_power(self, distance: Union[float, np.ndarray], shadowing_gain=None):
        """Normalised received power at the given distance(s).

        ``shadowing_gain`` may be supplied explicitly (e.g. a pre-drawn Monte
        Carlo sample); otherwise a fresh value is drawn when sigma > 0.
        """
        gain = path_gain(distance, self.alpha)
        if shadowing_gain is None:
            size = None if np.ndim(distance) == 0 else np.shape(distance)
            shadowing_gain = self._shadowing.sample_linear(size)
        return gain * shadowing_gain

    def snr(self, distance, shadowing_gain=None, interference: float = 0.0):
        """Signal-to-interference-plus-noise ratio at the given distance(s)."""
        return self.received_power(distance, shadowing_gain) / (self.noise + interference)

    def draw_shadowing(self, size=None):
        """Draw lognormal shadowing gain(s) from this channel's distribution."""
        return self._shadowing.sample_linear(size)


class ShadowingTable(NamedTuple):
    """A channel's batch-drawn shadowing: one read-only symmetric matrix.

    ``matrix_db[i, j]`` is the static shadowing (dB) of the unordered pair
    ``(ids[i], ids[j])``; the diagonal is zero and never queried.
    """

    ids: Tuple[Hashable, ...]
    matrix_db: np.ndarray


@dataclass
class ChannelModel:
    """Physical-unit channel used by the simulator and synthetic testbed.

    Combines log-distance path loss, per-pair static lognormal shadowing, and
    optional per-packet Rayleigh fading residue.  Shadowing is one value per
    unordered node pair, so links are reciprocal (the paper's Figure 14 fit
    assumes symmetric channels).  It lives in two places, consulted in this
    order: a small dict of pinned (:meth:`set_shadowing_db`) and lazily drawn
    pairs, then the :class:`ShadowingTable` that :meth:`shadowing_matrix`
    draws in one batch.  A pair found in neither is drawn on first query and
    kept in the dict.
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
        self._set_table(table.ids, table.matrix_db)

    def _set_table(self, ids: Sequence[Hashable], matrix_db: np.ndarray) -> None:
        matrix_db.flags.writeable = False
        self._table = ShadowingTable(tuple(ids), matrix_db)
        self._table_index = {node: i for i, node in enumerate(ids)}

    def shadowing_db(self, a: Hashable, b: Hashable) -> float:
        """Static shadowing value (dB) for the unordered pair ``(a, b)``."""
        key = self._pair_key(a, b)
        value = self._pair_shadowing_db.get(key)
        if value is not None:
            return value
        i = self._table_index.get(a)
        j = self._table_index.get(b)
        if i is not None and j is not None and i != j:
            return float(self._table.matrix_db[i, j])
        value = 0.0 if self.sigma_db == 0.0 else float(self.rng.normal(0.0, self.sigma_db))
        self._pair_shadowing_db[key] = value
        return value

    def set_shadowing_db(self, a: Hashable, b: Hashable, value_db: float) -> None:
        """Pin the shadowing value for a pair (used by tests and scenarios)."""
        self._pair_shadowing_db[self._pair_key(a, b)] = float(value_db)

    def shadowing_matrix(self, ids: Sequence[Hashable]) -> np.ndarray:
        """Symmetric per-pair shadowing matrix (dB) for the given node order.

        Known values (pinned, drawn lazily, or in the table) are reused
        verbatim; missing pairs are drawn in one batched call, in
        deterministic ``(i, j), i < j`` order, and kept so later per-pair
        queries agree with the matrix.  The result may be the channel's own
        read-only table: copy it before writing.
        """
        n = len(ids)
        if not self.holds_shadowing:
            if self.sigma_db == 0.0:
                return np.zeros((n, n))
            # Cold start (the common scenario-run case): the batch becomes
            # the table, with no per-pair bookkeeping.
            iu, ju = np.triu_indices(n, k=1)
            draws = self.rng.normal(0.0, self.sigma_db, size=iu.size)
            matrix = np.zeros((n, n))
            matrix[iu, ju] = draws
            matrix[ju, iu] = draws
            self._set_table(ids, matrix)
            return matrix
        position = {node: i for i, node in enumerate(ids)}
        matrix, known = self._known_shadowing(position)
        iu, ju = np.nonzero(np.triu(~known, k=1))  # row-major: (i, j), i < j
        if not iu.size:
            return matrix
        if self.sigma_db > 0.0:
            draws = self.rng.normal(0.0, self.sigma_db, size=iu.size)
        else:
            draws = np.zeros(iu.size)
        matrix[iu, ju] = draws
        matrix[ju, iu] = draws
        if self._table is None or all(node in position for node in self._table.ids):
            # The new matrix holds every table value: it supersedes the table.
            self._set_table(ids, matrix)
        else:
            for i, j, draw in zip(iu.tolist(), ju.tolist(), draws.tolist()):
                self._pair_shadowing_db[self._pair_key(ids[i], ids[j])] = draw
        return matrix

    def _known_shadowing(
        self, position: Dict[Hashable, int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The matrix of already-known values over ``position``'s node order,
        and the mask of which entries are known (the dict wins over the table).
        """
        n = len(position)
        matrix = np.zeros((n, n))
        known = np.zeros((n, n), dtype=bool)
        if self._table is not None:
            rows = np.fromiter(
                (self._table_index.get(node, -1) for node in position),
                dtype=np.intp,
                count=n,
            )
            present = np.flatnonzero(rows >= 0)
            matrix[np.ix_(present, present)] = self._table.matrix_db[
                np.ix_(rows[present], rows[present])
            ]
            known[np.ix_(present, present)] = True
        for (a, b), value in self._pair_shadowing_db.items():
            i = position.get(a)
            j = position.get(b)
            if i is not None and j is not None and i != j:
                matrix[i, j] = matrix[j, i] = value
                known[i, j] = known[j, i] = True
        return matrix, known

    def rx_power_matrix(
        self, ids: Sequence[Hashable], distance_m: np.ndarray
    ) -> np.ndarray:
        """Received power (dBm) for every ordered pair, in one vectorized pass.

        ``distance_m[i, j]`` is the (already clamped) distance from node
        ``ids[i]`` to node ``ids[j]``; the diagonal is ignored by callers but
        must still be strictly positive for the path-loss model.  The result
        composes path loss and per-pair shadowing exactly like
        :meth:`link_budget` (without fading), so matrix entries are
        bit-identical to per-pair ``rx_power_dbm`` queries.
        """
        distances = np.asarray(distance_m, dtype=float)
        if distances.shape != (len(ids), len(ids)):
            raise ValueError("distance matrix shape must match the node list")
        loss = np.asarray(self.path_loss.loss_db(distances), dtype=float)
        return self.tx_power_dbm - loss + self.shadowing_matrix(ids)

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

    def rx_power_dbm(self, a, b, distance_m: float, include_fading: bool = False) -> float:
        """Received power (dBm) from ``a`` at ``b``."""
        return self.link_budget(a, b, distance_m, include_fading).rx_power_dbm

    def rx_power_mw(self, a, b, distance_m: float, include_fading: bool = False) -> float:
        """Received power (milliwatts) from ``a`` at ``b``."""
        return float(10.0 ** (self.rx_power_dbm(a, b, distance_m, include_fading) / 10.0))

    @property
    def noise_floor_mw(self) -> float:
        """Noise floor expressed in milliwatts."""
        return float(10.0 ** (self.noise_floor_dbm / 10.0))
