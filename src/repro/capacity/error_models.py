"""SNR -> bit/packet error rate models for the packet simulator.

The analytical model works directly with Shannon capacity, but the packet
simulator needs to decide whether each individual frame is received given its
SINR and bitrate.  We use standard AWGN bit-error-rate expressions for the
802.11a modulations, a simple hard-decision Viterbi coding-gain approximation,
and an independent-bit-error packet-error model.  The resulting per-rate PER
curves have the familiar waterfall shape: ~0 above the rate's minimum SNR and
~1 a few dB below it, which is all the reproduction's conclusions depend on
(the paper's own model is even coarser -- pure Shannon capacity).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple, Union

import numpy as np
from scipy.special import erfc

from .rates import RateInfo

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "ber_bpsk",
    "ber_qpsk",
    "ber_mqam",
    "coded_ber",
    "raw_ber",
    "packet_error_rate",
    "packet_success_rate",
    "average_packet_success_rate",
]


def _q_function(x: ArrayLike) -> ArrayLike:
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def ber_bpsk(snr_linear: ArrayLike) -> ArrayLike:
    """BPSK bit error rate versus per-bit SNR (AWGN)."""
    snr = np.maximum(np.asarray(snr_linear, dtype=float), 0.0)
    return _q_function(np.sqrt(2.0 * snr))


def ber_qpsk(snr_linear: ArrayLike) -> ArrayLike:
    """QPSK bit error rate versus per-bit SNR (same as BPSK per bit)."""
    return ber_bpsk(snr_linear)


def ber_mqam(snr_linear: ArrayLike, m: int) -> ArrayLike:
    """Square M-QAM approximate bit error rate versus per-bit SNR."""
    if m < 4 or (m & (m - 1)) != 0:
        raise ValueError("M must be a power of two >= 4")
    k = math.log2(m)
    snr = np.maximum(np.asarray(snr_linear, dtype=float), 0.0)
    arg = np.sqrt(3.0 * k * snr / (m - 1.0))
    return (4.0 / k) * (1.0 - 1.0 / math.sqrt(m)) * _q_function(arg)


_MODULATION_BITS = {
    "BPSK": 1,
    "DBPSK": 1,
    "QPSK": 2,
    "DQPSK": 2,
    "CCK": 4,
    "16-QAM": 4,
    "64-QAM": 6,
}


def raw_ber(snr_db: ArrayLike, rate: RateInfo) -> ArrayLike:
    """Uncoded bit error rate for the modulation of ``rate`` at the given SNR (dB).

    The SNR is the per-symbol SNR of the 20 MHz channel; it is converted to a
    per-bit SNR by dividing by the modulation's bits per symbol.
    """
    bits = _MODULATION_BITS.get(rate.modulation)
    if bits is None:
        raise KeyError(f"unknown modulation {rate.modulation!r}")
    snr_linear = np.power(10.0, np.asarray(snr_db, dtype=float) / 10.0) / bits
    if bits == 1:
        return ber_bpsk(snr_linear)
    if bits == 2:
        return ber_qpsk(snr_linear)
    if rate.modulation == "CCK":
        # Treat CCK roughly as QPSK with a 3 dB spreading gain.
        return ber_qpsk(2.0 * snr_linear)
    return ber_mqam(snr_linear, 2**bits)


#: Approximate coding gain (dB) of the 802.11a convolutional code at each rate.
_CODING_GAIN_DB = {1 / 2: 5.0, 2 / 3: 4.0, 3 / 4: 3.5, 1.0: 0.0}


def coded_ber(snr_db: ArrayLike, rate: RateInfo) -> ArrayLike:
    """Post-decoding bit error rate, approximating Viterbi decoding as an SNR gain."""
    gain = _CODING_GAIN_DB.get(rate.code_rate, 3.0)
    return raw_ber(np.asarray(snr_db, dtype=float) + gain, rate)


#: The base of the scalar path's ``np.power``.  ``np.power`` on two Python
#: floats costs about twice as much as with this 0-d float64 array base, which
#: reaches the same float64 kernel and returns the same float.
_TEN = np.array(10.0)


def _coded_ber_scalar(snr_db: float, rate: RateInfo, bits_per_symbol: int) -> float:
    """:func:`coded_ber` of one non-NaN float, capped at 1.0, with plain
    Python float arithmetic between the numpy/scipy transcendental calls."""
    gain = _CODING_GAIN_DB.get(rate.code_rate, 3.0)
    snr_linear = float(np.power(_TEN, (snr_db + gain) / 10.0)) / bits_per_symbol
    if snr_linear < 0.0:
        snr_linear = 0.0
    if bits_per_symbol <= 2:
        ber = 0.5 * float(erfc(math.sqrt(2.0 * snr_linear) / math.sqrt(2.0)))
    elif rate.modulation == "CCK":
        ber = 0.5 * float(erfc(math.sqrt(2.0 * 2.0 * snr_linear) / math.sqrt(2.0)))
    else:
        m = 2**bits_per_symbol
        k = math.log2(m)
        arg = math.sqrt(3.0 * k * snr_linear / (m - 1.0))
        ber = (
            (4.0 / k)
            * (1.0 - 1.0 / math.sqrt(m))
            * (0.5 * float(erfc(arg / math.sqrt(2.0))))
        )
    return 1.0 if ber > 1.0 else ber


def _log_success(ber: float, bits: int) -> float:
    """``log`` of the all-bits-correct probability, as the PER formula takes it."""
    return bits * float(np.log1p(-min(ber, 1.0 - 1e-15)))


def _packet_error_rate_kernel(snr_db: float, rate: RateInfo, payload_bytes: int) -> float:
    """The scalar PER formula: no array coercion, ``np.clip``, or ``errstate``.

    Bit-identical to the vectorized path on the same input (pinned by
    tests/test_capacity_rates_errors.py): the transcendental steps that
    numpy evaluates with its own kernels (``power``, ``exp``, ``log1p``,
    ``erfc``) stay numpy/scipy scalar calls -- ``math``'s libm versions can
    differ in the last ulp -- while the pure-IEEE arithmetic (multiply,
    divide, ``sqrt``, min/max) runs as plain Python float ops.
    """
    bits_per_symbol = _MODULATION_BITS.get(rate.modulation)
    if bits_per_symbol is None:
        raise KeyError(f"unknown modulation {rate.modulation!r}")
    if snr_db != snr_db:  # NaN propagates exactly as through the array path
        return float("nan")
    ber = _coded_ber_scalar(snr_db, rate, bits_per_symbol)
    per = 1.0 - float(np.exp(_log_success(ber, 8 * payload_bytes)))
    if per < 0.0:
        return 0.0
    if per > 1.0:
        return 1.0
    return per


#: A coded BER at or under this makes PER exactly 0.0: ``log1p(-ber)`` is
#: ``-ber``, and ``bits * ber`` stays far under 2**-54, below which ``exp``
#: of its negative rounds to 1.0 (checked per payload in
#: :func:`_saturation_edges`).
_BER_EXACT_ZERO = 1e-25

#: A ``_log_success`` at or under this makes PER exactly 1.0: ``exp(-42)``
#: is about 5.7e-19, far under 2**-54 (5.6e-17), so ``1.0 - exp`` rounds
#: to 1.0.
_LOG_SUCCESS_EXACT_ONE = -42.0

#: How far out (dB) the edge search starts; both edges of every rate and
#: payload lie well inside.
_EDGE_SEARCH_DB = 300.0

#: ``(modulation, code rate, payload bytes)`` -> the ``(low, high)`` SNR edges
#: of :func:`_saturation_edges`.
_PER_EDGES: Dict[Tuple[str, float, int], Tuple[float, float]] = {}


def _saturation_edge(holds: Callable[[float], bool], side: float) -> float:
    """Bisect for where ``holds`` starts to hold on the way out towards
    ``side * inf`` (``side`` -1: low SNRs, +1: high SNRs), ``holds`` being
    monotone in that direction.  Returns the innermost SNR (dB) at which
    ``holds`` was seen true, or ``side * inf`` when it fails even
    ``_EDGE_SEARCH_DB`` out, so that no finite SNR takes the shortcut."""
    inner, outer = -side * _EDGE_SEARCH_DB, side * _EDGE_SEARCH_DB
    if not holds(outer):
        return side * math.inf
    while True:
        middle = (inner + outer) / 2.0
        if middle == inner or middle == outer:
            return outer
        if holds(middle):
            outer = middle
        else:
            inner = middle


def _saturation_edges(rate: RateInfo, payload_bytes: int) -> Tuple[float, float]:
    """``(low, high)``: at or under ``low`` dB the kernel returns exactly 1.0,
    at or over ``high`` exactly 0.0.

    Each edge is an SNR where the kernel's own BER was seen past its
    exactness bound.  The BER falls with the SNR (``power`` and ``erfc`` are
    monotone up to an ulp, far inside the bounds' margins), so every SNR
    beyond an edge is past the bound too.
    """
    bits_per_symbol = _MODULATION_BITS.get(rate.modulation)
    if bits_per_symbol is None:
        raise KeyError(f"unknown modulation {rate.modulation!r}")
    bits = 8 * payload_bytes
    low = _saturation_edge(
        lambda snr: _log_success(_coded_ber_scalar(snr, rate, bits_per_symbol), bits)
        <= _LOG_SUCCESS_EXACT_ONE,
        -1.0,
    )
    if bits * _BER_EXACT_ZERO < 2.0**-60:
        high = _saturation_edge(
            lambda snr: _coded_ber_scalar(snr, rate, bits_per_symbol) <= _BER_EXACT_ZERO, 1.0
        )
    else:
        high = math.inf
    return low, high


def _packet_error_rate_scalar(snr_db: float, rate: RateInfo, payload_bytes: int) -> float:
    """Scalar fast path: :func:`_packet_error_rate_kernel`, or its exact
    0.0 or 1.0 without the kernel when the SNR lies beyond a saturation edge.

    The packet simulator calls this once per decoded frame, and half or
    more of its decodes lie beyond the rate's waterfall.  The edges are found once
    per ``(modulation, code rate, payload)``; NaN passes neither comparison
    and reaches the kernel.
    """
    key = (rate.modulation, rate.code_rate, payload_bytes)
    edges = _PER_EDGES.get(key)
    if edges is None:
        edges = _PER_EDGES[key] = _saturation_edges(rate, payload_bytes)
    if snr_db >= edges[1]:
        return 0.0
    if snr_db <= edges[0]:
        return 1.0
    return _packet_error_rate_kernel(snr_db, rate, payload_bytes)


def packet_error_rate(snr_db: ArrayLike, rate: RateInfo, payload_bytes: int = 1400) -> ArrayLike:
    """Packet error rate assuming independent bit errors after decoding.

    Python/numpy float scalars take a dedicated fast path (see
    :func:`_packet_error_rate_scalar`) that returns the bit-identical value
    without any array machinery; array inputs vectorize as before.
    """
    if payload_bytes <= 0:
        raise ValueError("payload size must be positive")
    if isinstance(snr_db, (int, float)) and not isinstance(snr_db, bool):
        return _packet_error_rate_scalar(float(snr_db), rate, payload_bytes)
    ber = np.asarray(coded_ber(snr_db, rate), dtype=float)
    ber = np.clip(ber, 0.0, 1.0)
    bits = 8 * payload_bytes
    with np.errstate(invalid="ignore"):
        per = 1.0 - np.exp(bits * np.log1p(-np.minimum(ber, 1.0 - 1e-15)))
    per = np.clip(per, 0.0, 1.0)
    if np.ndim(snr_db) == 0:
        return float(per)
    return per


def packet_success_rate(snr_db: ArrayLike, rate: RateInfo, payload_bytes: int = 1400) -> ArrayLike:
    """Complement of :func:`packet_error_rate`."""
    return 1.0 - packet_error_rate(snr_db, rate, payload_bytes)


#: ``n_points`` -> the read-only ``hermegauss(n_points)`` pair.
_QUADRATURE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _hermegauss(n_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite (probabilists') nodes and weights, built once per size."""
    pair = _QUADRATURE.get(n_points)
    if pair is None:
        nodes, weights = np.polynomial.hermite_e.hermegauss(n_points)
        nodes.flags.writeable = False
        weights.flags.writeable = False
        pair = _QUADRATURE[n_points] = (nodes, weights)
    return pair


def average_packet_success_rate(
    mean_snr_db: float,
    rate: RateInfo,
    payload_bytes: int = 1400,
    sigma_db: float = 0.0,
    n_points: int = 33,
) -> float:
    """Delivery rate averaged over Gaussian (dB) SNR variation around a mean.

    Real links measured over many seconds see the SNR wander (residual fading,
    people moving, hardware drift), which softens the otherwise knife-edge
    delivery-vs-SNR curve.  The long-run delivery rate is the expectation of
    the instantaneous success probability over that variation; this helper
    computes it by Gauss-Hermite quadrature over a normal dB perturbation with
    standard deviation ``sigma_db``.
    """
    if sigma_db < 0:
        raise ValueError("sigma must be non-negative")
    if sigma_db == 0.0:
        return float(packet_success_rate(mean_snr_db, rate, payload_bytes))
    nodes, weights = _hermegauss(n_points)
    snr_values = mean_snr_db + sigma_db * nodes
    success = np.asarray(packet_success_rate(snr_values, rate, payload_bytes))
    return float(np.sum(weights * success) / np.sum(weights))
