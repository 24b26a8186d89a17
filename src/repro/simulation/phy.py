"""PHY reception model: deciding whether a frame survives its SINR.

The medium computes, for every frame arriving at a radio, the received signal
power and the worst-case interference power overlapping the frame.  This
module turns those numbers into a success/failure decision using the
modulation/coding error models of :mod:`repro.capacity.error_models`.

Two details mirror real 802.11 hardware (and the paper's experimental
conditions):

* **Sensitivity / preamble detection** -- a frame whose received power is
  below the radio's sensitivity is never locked onto; it only ever appears as
  interference (this is also what makes "hidden" senders invisible to carrier
  sense when energy detection is disabled).
* **No receive abort** -- once a radio locks onto a frame it stays locked for
  the frame's duration even if a much stronger frame arrives; the later frame
  is treated purely as interference.  The paper notes its testbed behaved this
  way ("we used broadcast packets and did not have receive abort enabled").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..capacity.error_models import _packet_error_rate_scalar
from .frames import Frame, FrameKind

__all__ = ["ReceptionModel", "ReceptionOutcome"]

_DATA = FrameKind.DATA


class ReceptionOutcome(NamedTuple):
    """The result of attempting to decode one frame."""

    frame: Frame
    success: bool
    sinr_db: float
    success_probability: float


@dataclass(slots=True)
class ReceptionModel:
    """SINR-based frame reception decisions.

    Parameters
    ----------
    sensitivity_dbm:
        Minimum received power for preamble detection / locking.  -90 dBm is
        typical of good 802.11a hardware at the 6 Mbps rate.
    snr_jitter_db:
        Per-frame Gaussian SNR perturbation (dB) representing the residual
        fading and temporal channel variation that a wideband radio cannot
        average away.  Applied before the error model; set to zero for fully
        deterministic link behaviour.
    deterministic:
        When true, a frame succeeds iff its success probability exceeds 0.5
        and no jitter is applied (useful for exactly reproducible unit
        tests); otherwise the outcome is a Bernoulli draw.
    control_rate_bonus_db:
        Extra robustness granted to short control frames (ACK/RTS/CTS), which
        in real hardware are sent at base rate and are much shorter than data
        frames.  Expressed as an equivalent SINR bonus.
    """

    sensitivity_dbm: float = -90.0
    snr_jitter_db: float = 3.0
    preamble_snr_threshold_db: float = 4.0
    capture_margin_db: float = 10.0
    deterministic: bool = False
    control_rate_bonus_db: float = 3.0

    def detectable(self, rx_power_dbm: float) -> bool:
        """Whether a frame at this power can be locked onto at all."""
        return rx_power_dbm >= self.sensitivity_dbm

    def preamble_detectable(self, rx_power_dbm: float, sinr_db: float) -> bool:
        """Whether the PLCP preamble can actually be acquired.

        Locking requires both adequate absolute power and enough SINR for the
        preamble correlator; a frame buried under stronger interference never
        produces a lock, it is just energy on the channel.
        """
        return rx_power_dbm >= self.sensitivity_dbm and sinr_db >= self.preamble_snr_threshold_db

    def captures(self, new_power_dbm: float, locked_power_dbm: float) -> bool:
        """Whether a newly arriving frame steals the lock from the current one.

        Models physical-layer capture / receiver restart: commodity OFDM
        receivers re-synchronise onto a preamble that is sufficiently stronger
        than the frame they are currently (hopelessly) decoding.
        """
        if not self.detectable(new_power_dbm):
            return False
        return new_power_dbm >= locked_power_dbm + self.capture_margin_db

    def success_probability(self, frame: Frame, sinr_db: float) -> float:
        """Probability that the frame decodes at the given SINR.

        Calls the scalar error-rate kernel directly: ``1.0 -
        _packet_error_rate_scalar(...)`` is the float ``packet_success_rate``
        returns for a scalar, without its two dispatch frames.
        """
        if frame.kind is not _DATA:
            sinr_db += self.control_rate_bonus_db
        payload = frame.payload_bytes if frame.payload_bytes > 14 else 14
        return 1.0 - _packet_error_rate_scalar(sinr_db, frame.rate, payload)

    def decide(self, frame: Frame, sinr_db: float, rng: np.random.Generator) -> ReceptionOutcome:
        """Decide whether the frame is received.

        Runs once per decoded frame.  The jitter is ``snr_jitter_db *
        rng.standard_normal()``: numpy's ``rng.normal(0.0, snr_jitter_db)``
        computes ``0.0 + snr_jitter_db * z`` from the same draw, so the float
        is the same, and the call is cheaper.  Draw order per frame: the
        jitter normal, then the Bernoulli uniform.
        """
        if self.deterministic:
            p = self.success_probability(frame, sinr_db)
            return ReceptionOutcome(frame, p > 0.5, sinr_db, p)
        effective_sinr = sinr_db
        if self.snr_jitter_db > 0:
            effective_sinr += self.snr_jitter_db * rng.standard_normal()
        p = self.success_probability(frame, effective_sinr)
        return ReceptionOutcome(frame, rng.random() < p, sinr_db, p)
