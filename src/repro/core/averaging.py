"""Spatial averaging of the per-configuration capacities.

The paper's headline quantities are *expected* throughputs,

    <Ci>(Rmax, D) = 1 / (pi Rmax^2) * integral over the receiver disc of Ci,

evaluated numerically (the paper used Maple Monte-Carlo integration).  Two
integration paths are provided:

* ``method="quadrature"`` -- a deterministic equal-area grid over the disc.
  Only valid for the simplified sigma = 0 model, where capacity is a smooth
  deterministic function of position.
* ``method="montecarlo"`` -- uniform random receiver positions plus
  independent lognormal shadowing draws for every link.  This is the general
  path and the one used for every table/figure involving shadowing.

For sweeps over ``D`` (the throughput-vs-distance curves of Figures 4, 5, 6,
and 9) the same receiver positions and shadowing draws are reused at every
``D`` (common random numbers), which makes the sampled curves smooth and the
concurrency/multiplexing crossing well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Sequence

import numpy as np

from ..units import db_to_linear
from .geometry import Scenario, receiver_grid, sample_receiver_positions
from .throughput import (
    c_carrier_sense,
    c_concurrent,
    c_multiplexing,
    c_optimal_pair,
    c_single,
    c_upper_bound,
    carrier_sense_defers,
)

__all__ = [
    "PolicyAverages",
    "ConfigurationSamples",
    "draw_configuration",
    "average_policies",
    "single_sender_average",
    "normalization_capacity",
    "throughput_curves",
]

#: Default Monte-Carlo sample count.  Chosen so that the Table 1 percentages
#: are stable to about +/-1 point, matching the paper's reporting resolution.
DEFAULT_SAMPLES = 20_000


@dataclass(frozen=True)
class PolicyAverages:
    """Expected per-sender capacities under each MAC policy for one scenario."""

    scenario: Scenario
    d_threshold: float
    single: float
    multiplexing: float
    concurrent: float
    carrier_sense: float
    optimal: float
    upper_bound: float
    defer_probability: float
    n_samples: int

    @property
    def cs_efficiency(self) -> float:
        """Carrier-sense throughput as a fraction of the oracle throughput."""
        return self.carrier_sense / self.optimal

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view of the averages (useful for tabulation)."""
        return {
            "single": self.single,
            "multiplexing": self.multiplexing,
            "concurrent": self.concurrent,
            "carrier_sense": self.carrier_sense,
            "optimal": self.optimal,
            "upper_bound": self.upper_bound,
        }


@dataclass
class ConfigurationSamples:
    """A reusable batch of sampled receiver positions and shadowing draws.

    Shadowing is stored in dB so that the same draws can be reused across
    scenarios that differ only in ``sigma_db`` (scale the dB values) or in
    ``D`` (no dependence at all).
    """

    r1: np.ndarray
    theta1: np.ndarray
    r2: np.ndarray
    theta2: np.ndarray
    unit_shadow_db: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self._gain_cache: Dict[float, Dict[str, np.ndarray]] = {}

    @property
    def n(self) -> int:
        return int(self.r1.size)

    def shadow_gains(self, sigma_db: float) -> Dict[str, np.ndarray]:
        """Linear shadowing gains for the given sigma (1.0 everywhere if zero).

        The conversion is vectorised over all links at once and memoised per
        sigma: sweeps over ``D`` or the threshold (Figures 4-9, the Figure 7
        crossing search) re-evaluate the same sample batch at every sweep
        point, and the lognormal exponentiations dominated that inner loop.
        Callers must treat the returned arrays as read-only.
        """
        sigma_db = float(sigma_db)
        cached = self._gain_cache.get(sigma_db)
        if cached is not None:
            return cached
        if sigma_db == 0.0:
            ones = np.ones(self.n)
            gains = {key: ones for key in self.unit_shadow_db}
        else:
            keys = list(self.unit_shadow_db)
            stacked = np.stack([self.unit_shadow_db[key] for key in keys])
            linear = np.asarray(db_to_linear(sigma_db * stacked))
            gains = {key: linear[row] for row, key in enumerate(keys)}
        self._gain_cache[sigma_db] = gains
        return gains


_SHADOW_KEYS = ("s1_r1", "s2_r1", "s2_r2", "s1_r2", "sense")


def draw_configuration(
    rmax: float, n_samples: int, rng: np.random.Generator
) -> ConfigurationSamples:
    """Draw receiver positions for both pairs plus unit-variance shadowing.

    The per-link shadowing draws are batched into a single ``(5, n)`` normal
    draw; the generator consumes variates sequentially, so row ``k`` equals
    the ``k``-th per-key draw of the unbatched formulation and existing seeds
    reproduce bit-identical samples.
    """
    r1, theta1 = sample_receiver_positions(rmax, n_samples, rng)
    r2, theta2 = sample_receiver_positions(rmax, n_samples, rng)
    draws = rng.standard_normal((len(_SHADOW_KEYS), n_samples))
    unit_shadow = {key: draws[row] for row, key in enumerate(_SHADOW_KEYS)}
    return ConfigurationSamples(r1, theta1, r2, theta2, unit_shadow)


def _evaluate(
    scenario: Scenario, d_threshold: float, samples: ConfigurationSamples
) -> PolicyAverages:
    """Evaluate every policy on a batch of sampled configurations."""
    gains = samples.shadow_gains(scenario.sigma_db)
    alpha, noise, d = scenario.alpha, scenario.noise, scenario.d

    single = c_single(samples.r1, alpha, noise, gains["s1_r1"])
    mux = 0.5 * single
    conc = c_concurrent(
        samples.r1, samples.theta1, d, alpha, noise, gains["s1_r1"], gains["s2_r1"]
    )
    cs = c_carrier_sense(
        samples.r1,
        samples.theta1,
        d,
        d_threshold,
        alpha,
        noise,
        gains["s1_r1"],
        gains["s2_r1"],
        gains["sense"],
    )
    ub = np.maximum(mux, conc)
    optimal = c_optimal_pair(
        samples.r1,
        samples.theta1,
        samples.r2,
        samples.theta2,
        d,
        alpha,
        noise,
        gains["s1_r1"],
        gains["s2_r1"],
        gains["s2_r2"],
        gains["s1_r2"],
    )
    defers = carrier_sense_defers(d, d_threshold, alpha, gains["sense"])

    return PolicyAverages(
        scenario=scenario,
        d_threshold=d_threshold,
        single=float(np.mean(single)),
        multiplexing=float(np.mean(mux)),
        concurrent=float(np.mean(conc)),
        carrier_sense=float(np.mean(cs)),
        optimal=float(np.mean(optimal)),
        upper_bound=float(np.mean(ub)),
        defer_probability=float(np.mean(defers)),
        n_samples=samples.n,
    )


def _quadrature_samples(rmax: float, n_r: int = 160, n_theta: int = 128) -> ConfigurationSamples:
    """Deterministic grid 'samples' (equal weights) for the sigma = 0 path.

    The per-pair policies (single, multiplexing, concurrency, carrier sense,
    CUBmax) are exact integrals over the grid.  The joint "optimal" policy
    needs an expectation over *independent* receiver positions; pairing each
    grid point with the point a large, co-prime offset away in the flattened
    grid keeps both marginals exact while decorrelating the pairing, which is
    accurate to well under a percent for the grid sizes used here.
    """
    r, theta, _weights = receiver_grid(rmax, n_r, n_theta)
    zeros = {key: np.zeros(r.size) for key in _SHADOW_KEYS}
    # Pair each grid point with a (deterministically) shuffled copy of the grid
    # so the two receivers are effectively independent while both marginals
    # remain the exact equal-area grid.
    permutation = np.random.default_rng(20480).permutation(r.size)
    return ConfigurationSamples(r, theta, r[permutation], theta[permutation], zeros)


def average_policies(
    scenario: Scenario,
    d_threshold: float,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int | None = 0,
    method: str = "auto",
    samples: ConfigurationSamples | None = None,
) -> PolicyAverages:
    """Expected per-sender capacity of every MAC policy for one scenario.

    Parameters
    ----------
    scenario:
        The ``(Rmax, D, alpha, sigma, N)`` scenario to evaluate.
    d_threshold:
        Carrier-sense threshold expressed as an equivalent distance.
    n_samples:
        Monte-Carlo sample count (ignored when an explicit ``samples`` batch
        or the quadrature method is used).
    seed:
        Seed for the Monte-Carlo random generator; fixed by default so that
        tables and tests are reproducible.
    method:
        ``"montecarlo"``, ``"quadrature"`` (sigma = 0 only), or ``"auto"``
        (quadrature when sigma = 0, Monte Carlo otherwise).
    samples:
        Optional pre-drawn configuration batch (for common-random-number
        sweeps over ``D`` or thresholds).
    """
    if d_threshold <= 0:
        raise ValueError("threshold distance must be positive")
    if method not in ("auto", "montecarlo", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "quadrature" and scenario.sigma_db != 0.0:
        raise ValueError("quadrature integration requires sigma_db = 0")

    if samples is None:
        if method == "quadrature" or (method == "auto" and scenario.sigma_db == 0.0):
            samples = _quadrature_samples(scenario.rmax)
        else:
            rng = np.random.default_rng(seed)
            samples = draw_configuration(scenario.rmax, n_samples, rng)
    return _evaluate(scenario, d_threshold, samples)


def single_sender_average(
    rmax: float,
    alpha: float,
    noise: float,
    sigma_db: float = 0.0,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int | None = 0,
) -> float:
    """Expected capacity of a lone sender over the receiver disc."""
    if sigma_db == 0.0:
        r, _theta, weights = receiver_grid(rmax, 200, 8)
        values = c_single(r, alpha, noise)
        return float(np.sum(values * weights))
    rng = np.random.default_rng(seed)
    r, _theta = sample_receiver_positions(rmax, n_samples, rng)
    gains = db_to_linear(rng.normal(0.0, sigma_db, size=n_samples))
    return float(np.mean(c_single(r, alpha, noise, gains)))


@lru_cache(maxsize=None)
def _normalization_capacity_cached(alpha: float, noise: float, rmax: float) -> float:
    return single_sender_average(rmax, alpha, noise, sigma_db=0.0)


def normalization_capacity(alpha: float, noise: float, rmax: float = 20.0) -> float:
    """The paper's normalisation constant: Rmax = 20, D = infinity throughput.

    At infinite separation, concurrency equals the competition-free capacity,
    so this is simply the lone-sender average over an Rmax = 20 disc.

    Memoised by ``(alpha, noise, rmax)``: the quadrature integral is
    deterministic in its arguments, and the threshold/figure sweeps ask for
    the same normalisation constant at every grid point.
    """
    return _normalization_capacity_cached(float(alpha), float(noise), float(rmax))


def throughput_curves(
    rmax: float,
    d_values: Sequence[float],
    d_threshold: float,
    alpha: float,
    noise: float,
    sigma_db: float = 0.0,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int | None = 0,
    normalize: bool = True,
) -> Dict[str, np.ndarray]:
    """Average throughput of every policy as a function of sender separation D.

    This is the machinery behind Figures 4, 5, 6 and 9.  Returns a dict with
    keys ``"d"``, ``"multiplexing"``, ``"concurrent"``, ``"carrier_sense"``,
    ``"optimal"``, ``"upper_bound"``, and ``"defer_probability"``; capacity
    arrays are normalised to the Rmax = 20, D = infinity value when
    ``normalize`` is true (the paper's vertical axis).
    """
    d_values = np.asarray(list(d_values), dtype=float)
    if d_values.size == 0:
        raise ValueError("need at least one D value")
    if np.any(d_values <= 0):
        raise ValueError("all D values must be positive")

    if sigma_db == 0.0:
        samples = _quadrature_samples(rmax)
    else:
        rng = np.random.default_rng(seed)
        samples = draw_configuration(rmax, n_samples, rng)

    keys = ("multiplexing", "concurrent", "carrier_sense", "optimal", "upper_bound")
    results = {key: np.empty(d_values.size) for key in keys}
    results["defer_probability"] = np.empty(d_values.size)
    base = Scenario(rmax=rmax, d=float(d_values[0]), alpha=alpha, sigma_db=sigma_db, noise=noise)
    for i, d in enumerate(d_values):
        averages = _evaluate(base.with_d(float(d)), d_threshold, samples)
        for key in keys:
            results[key][i] = getattr(averages, key if key != "carrier_sense" else "carrier_sense")
        results["defer_probability"][i] = averages.defer_probability

    if normalize:
        norm = normalization_capacity(alpha, noise)
        for key in keys:
            results[key] = results[key] / norm
    results["d"] = d_values
    return results
