"""Observation plane: windowed, deterministic measurements of a live network.

A :class:`ControlProbe` watches a running :class:`~repro.simulation.network.
WirelessNetwork` and closes fixed-length *epochs*, each summarised into a
typed :class:`Observation`: per-window delivered/offered packet rates, loss
fraction, the mean sensed-busy fraction across all radios, and delay
p50/p99 drawn from bounded per-window reservoirs installed next to
:class:`~repro.simulation.stats.NodeStats`.

A driver (:class:`repro.control.env.SimEnv`) runs the engine between epoch
boundaries with :meth:`Simulator.run_until` and calls :meth:`collect` in the
gaps.  The probe schedules no events, so a run observed this way (with a
no-op controller) replays the unobserved run byte-identically -- per-flow
results *and* ``events_processed``.

Determinism: the probe only *reads* cumulative counters the simulation
already maintains (snapshot deltas per window) and drains per-window delay
reservoirs whose replacement streams are privately seeded from the link
identity -- it consumes no simulation randomness.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..capacity.adaptation import FixedRate
from ..capacity.rates import OFDM_RATES, RateInfo
from ..simulation.network import WirelessNetwork
from ..simulation.stats import DelayReservoir

if TYPE_CHECKING:
    from .env import Action

__all__ = ["Observation", "ControlProbe", "DEFAULT_EPOCHS"]

#: Default epoch count when a scenario enables control without choosing an
#: epoch length: ``duration_s / DEFAULT_EPOCHS`` per window.
DEFAULT_EPOCHS = 10


@dataclass(frozen=True, slots=True)
class Observation:
    """One epoch's windowed measurement summary.

    Rates and fractions are ``nan`` when the window provides no evidence
    (zero width, no packets sent); :meth:`as_dict` maps non-finite values to
    ``None`` so traces embed cleanly in JSON manifests.
    """

    #: Window index (0-based); ``-1`` for the zero-width pre-run baseline.
    epoch: int
    t_start: float
    t_end: float
    #: Aggregate delivered/offered packet rates over all flows.
    delivered_pps: float
    offered_pps: float
    #: ``1 - delivered/sent`` over the window (``nan`` with nothing sent).
    loss_frac: float
    #: Mean fraction of the window each radio's CCA circuit reported busy.
    busy_frac: float
    #: Pooled per-window delay percentiles across all flow destinations.
    delay_p50_s: float
    delay_p99_s: float
    delivered_packets: int
    offered_packets: int
    sent_packets: int
    #: Current network operating point: the common CCA threshold across
    #: carrier-sensing radios and the common FixedRate bitrate (``nan`` when
    #: disabled or heterogeneous) -- what AIMD-style controllers steer.
    cca_threshold_dbm: float
    rate_mbps: float

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe plain-dict form (non-finite floats become ``None``)."""
        out: Dict[str, Any] = {}
        for key, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            out[key] = value
        return out


def _window_seed(dst: Hashable, src: Hashable) -> int:
    """Deterministic seed for one flow's per-window delay reservoir."""
    return zlib.crc32(f"window|{dst!r}|{src!r}".encode("utf-8"))


def _rate_index(rate: RateInfo) -> Optional[int]:
    for index, candidate in enumerate(OFDM_RATES):
        if candidate.mbps == rate.mbps:
            return index
    return None


class ControlProbe:
    """Windowed observer + bounded actuator for one network run."""

    __slots__ = (
        "net",
        "flows",
        "epoch_s",
        "history",
        "cca_min_dbm",
        "cca_max_dbm",
        "max_cca_step_db",
        "max_rate_step",
        "_t0",
        "_epoch",
        "_window_start",
        "_prev_delivered",
        "_prev_offered",
        "_prev_sent",
        "_prev_busy",
    )

    def __init__(
        self,
        net: WirelessNetwork,
        flows: Sequence[Tuple[Hashable, Hashable]],
        epoch_s: float,
        cca_min_dbm: float = -110.0,
        cca_max_dbm: float = -40.0,
        max_cca_step_db: float = 6.0,
        max_rate_step: int = 4,
    ) -> None:
        if epoch_s <= 0 or not math.isfinite(epoch_s):
            raise ValueError("epoch_s must be positive and finite")
        if cca_min_dbm >= cca_max_dbm:
            raise ValueError("cca_min_dbm must be below cca_max_dbm")
        if max_cca_step_db <= 0 or max_rate_step < 1:
            raise ValueError("per-step actuation bounds must be positive")
        self.net = net
        self.flows = list(flows)
        self.epoch_s = float(epoch_s)
        self.history: List[Observation] = []
        self.cca_min_dbm = float(cca_min_dbm)
        self.cca_max_dbm = float(cca_max_dbm)
        self.max_cca_step_db = float(max_cca_step_db)
        self.max_rate_step = int(max_rate_step)
        self._t0 = 0.0
        self._epoch = 0
        self._window_start = 0.0
        self._prev_delivered: List[int] = []
        self._prev_offered: List[int] = []
        self._prev_sent: List[int] = []
        self._prev_busy: List[float] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Attach per-window delay reservoirs and open the first window.

        Call after the pre-run stats reset (:meth:`NodeStats.reset`
        uninstalls windows) and before any events execute, so window deltas
        sum exactly to the run's cumulative totals.
        """
        self._t0 = self._window_start = self.net.sim.now
        self._epoch = 0
        self.history = []
        for src, dst in self.flows:
            stats = self.net.nodes[dst].stats
            if stats.window_delay_from is None:
                stats.window_delay_from = {}
            stats.window_delay_from[src] = DelayReservoir(seed=_window_seed(dst, src))
        self._snapshot()

    def _origin_traffic(self, src: Hashable) -> Any:
        """The end-to-end source for a flow (unwraps forwarding queues)."""
        traffic = self.net.nodes[src].traffic
        origin = getattr(traffic, "origin", None)
        return origin if origin is not None else traffic

    def _snapshot(self) -> None:
        nodes = self.net.nodes
        delivered: List[int] = []
        offered: List[int] = []
        sent: List[int] = []
        for src, dst in self.flows:
            delivered.append(nodes[dst].stats.packets_from.get(src, 0))
            traffic = self._origin_traffic(src)
            offered.append(int(getattr(traffic, "packets_offered", 0)))
            sent.append(int(getattr(traffic, "packets_sent", 0)))
        self._prev_delivered = delivered
        self._prev_offered = offered
        self._prev_sent = sent
        now = self.net.sim.now
        self._prev_busy = [
            node.radio.sensed_busy_time_s(now) for node in nodes.values()
        ]

    # -- observation -----------------------------------------------------------

    def next_boundary(self) -> float:
        """Absolute time of the next epoch boundary (drift-free multiples)."""
        return self._t0 + (self._epoch + 1) * self.epoch_s

    def _current_cca_dbm(self) -> float:
        values = {
            node.radio.cca_threshold_dbm for node in self.net.nodes.values()
        }
        values.discard(None)
        if len(values) == 1:
            return float(next(iter(values)))  # type: ignore[arg-type]
        return float("nan")

    def _current_rate_mbps(self) -> float:
        rates = set()
        for node in self.net.nodes.values():
            selector = node.mac.rate_selector
            if isinstance(selector, FixedRate):
                rates.add(selector.rate.mbps)
        if len(rates) == 1:
            return float(next(iter(rates)))
        return float("nan")

    def baseline(self) -> Observation:
        """The zero-width pre-run observation (epoch ``-1``).

        What :meth:`SimEnv.reset` hands the controller before any window has
        closed: all counts zero, all rates ``nan``, but the operating point
        (threshold/bitrate) already populated.
        """
        now = self.net.sim.now
        nan = float("nan")
        return Observation(
            epoch=-1,
            t_start=now,
            t_end=now,
            delivered_pps=nan,
            offered_pps=nan,
            loss_frac=nan,
            busy_frac=nan,
            delay_p50_s=nan,
            delay_p99_s=nan,
            delivered_packets=0,
            offered_packets=0,
            sent_packets=0,
            cca_threshold_dbm=self._current_cca_dbm(),
            rate_mbps=self._current_rate_mbps(),
        )

    def collect(self) -> Observation:
        """Close the current window at the present sim time.

        Reads snapshot deltas of the cumulative counters, drains and clears
        every per-window delay reservoir, appends the observation to
        :attr:`history`, and opens the next window.  Consumes no simulation
        randomness.
        """
        now = self.net.sim.now
        width = now - self._window_start
        nodes = self.net.nodes
        delivered = offered = sent = 0
        samples: List[float] = []
        for row, (src, dst) in enumerate(self.flows):
            stats = nodes[dst].stats
            delivered += stats.packets_from.get(src, 0) - self._prev_delivered[row]
            traffic = self._origin_traffic(src)
            offered += int(getattr(traffic, "packets_offered", 0)) - self._prev_offered[row]
            sent += int(getattr(traffic, "packets_sent", 0)) - self._prev_sent[row]
            windows = stats.window_delay_from
            reservoir = windows.get(src) if windows is not None else None
            if reservoir is not None:
                samples.extend(reservoir.samples)
                reservoir.clear()
        busy_s = 0.0
        for row, node in enumerate(nodes.values()):
            busy_s += node.radio.sensed_busy_time_s(now) - self._prev_busy[row]
        nan = float("nan")
        if width > 0:
            delivered_pps = delivered / width
            offered_pps = offered / width
            busy_frac = busy_s / (width * len(nodes)) if nodes else nan
        else:
            delivered_pps = offered_pps = busy_frac = nan
        loss_frac = 1.0 - delivered / sent if sent > 0 else nan
        if samples:
            p50, p99 = np.percentile(
                np.asarray(samples, dtype=np.float64), [50.0, 99.0]
            )
            delay_p50_s, delay_p99_s = float(p50), float(p99)
        else:
            delay_p50_s = delay_p99_s = nan
        observation = Observation(
            epoch=self._epoch,
            t_start=self._window_start,
            t_end=now,
            delivered_pps=delivered_pps,
            offered_pps=offered_pps,
            loss_frac=loss_frac,
            busy_frac=busy_frac,
            delay_p50_s=delay_p50_s,
            delay_p99_s=delay_p99_s,
            delivered_packets=delivered,
            offered_packets=offered,
            sent_packets=sent,
            cca_threshold_dbm=self._current_cca_dbm(),
            rate_mbps=self._current_rate_mbps(),
        )
        self._epoch += 1
        self._window_start = now
        self._snapshot()
        self.history.append(observation)
        return observation

    # -- actuation -------------------------------------------------------------

    def apply(self, action: Optional["Action"]) -> None:
        """Apply a controller's adjustments through the existing setters.

        Per-step deltas are clamped to ``max_cca_step_db`` /
        ``max_rate_step`` and the resulting operating point to the probe's
        absolute bounds.  Radios with carrier sense disabled and MACs with
        adaptive (non-``FixedRate``) selectors are left alone -- they own
        their own decisions.  ``None`` (and the zero action) is a strict
        no-op: nothing is touched.
        """
        if action is None:
            return
        cca_delta = float(getattr(action, "cca_delta_db", 0.0))
        rate_step = int(getattr(action, "rate_step", 0))
        if cca_delta:
            step = max(-self.max_cca_step_db, min(self.max_cca_step_db, cca_delta))
            for node in self.net.nodes.values():
                radio = node.radio
                current = radio.cca_threshold_dbm
                if current is None:
                    continue
                radio.cca_threshold_dbm = max(
                    self.cca_min_dbm, min(self.cca_max_dbm, current + step)
                )
        if rate_step:
            step = max(-self.max_rate_step, min(self.max_rate_step, rate_step))
            top = len(OFDM_RATES) - 1
            for node in self.net.nodes.values():
                selector = node.mac.rate_selector
                if not isinstance(selector, FixedRate):
                    continue
                index = _rate_index(selector.rate)
                if index is None:
                    continue
                bumped = max(0, min(top, index + step))
                if bumped != index:
                    node.mac.rate_selector = FixedRate(OFDM_RATES[bumped])
