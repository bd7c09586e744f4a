"""Click statistics of a multiplexed on/off photodetector.

A single mode split evenly over N identical binary detectors of total
efficiency eta has N+1 outcomes (k = 0 .. N simultaneous clicks).  The outcome
operators expand into normally ordered exponentials, so the probability of any
outcome on our state models reduces to the alternating sum

    Pr_{N,k}(rho) = C(N,k) * sum_{l=0}^{k} C(k,l) (-1)^(k-l) <:exp(-s_l n):>,
    s_l = eta * (1 - l/N),

with the normally ordered moment available in closed form for both thermal
mixtures and displaced thermal states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import NumericalInstabilityError, UnsupportedStateError
from .states import (DisplacedThermal, SignedThermalMixture, check_count, check_efficiency,
                     check_outcome, clamp_probability)

__all__ = [
    "ClickMultiplex",
    "normal_ordered_moment",
    "click_probability",
    "click_distribution",
    "povm_fock_diagonal",
]

@dataclass(frozen=True)
class ClickMultiplex:
    """N identical on/off detectors sharing one mode, with common efficiency eta.

    Outcome counts (``clicks`` arguments below) are capped at 64 alternating
    terms; detector counts beyond 64 are allowed so the large-N Poisson limit
    can be probed at small click numbers.  Thermal mixtures are summed
    exactly, but displaced-thermal sums are doubles: at efficiency 0.9 a
    coherent ``click_distribution`` first fails at N = 12 (mean 1) or N = 13
    (means 0.09 and 3), and then at most but not all larger N: bare at mean
    1 it fails at 12, 13 and 15 to 24, through ``TargetChannel(0.1, 3)`` at
    mean 0.09 at 13 and 15 to 24.
    """

    detector_count: int
    efficiency: float

    def __post_init__(self):
        check_outcome(self.detector_count, 0)  # any N >= 1: the cap is on clicks
        check_efficiency(self.efficiency)


def normal_ordered_moment(state, s: float) -> float:
    """Normally ordered exponential moment <:exp(-s n):>.

    Thermal component of mean m contributes 1 / (1 + s m); a displaced thermal
    state gives exp(-s mu / (1 + s m)) / (1 + s m).
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"moment parameter must lie in [0, 1], got {s}")
    if isinstance(state, SignedThermalMixture):
        return math.fsum(w / (1.0 + s * m) for w, m in zip(state.weights, state.means))
    if isinstance(state, DisplacedThermal):
        denom = 1.0 + s * state.thermal_mean
        return math.exp(-s * state.coherent_mean / denom) / denom
    raise UnsupportedStateError(f"no moment rule for {type(state).__name__}")


def _thermal_outcome_value(mean: float, detector_count: int, clicks: int, efficiency: float) -> float:
    """Exact Pr_{N,k} for a single thermal state, via integer arithmetic.

    The alternating sum is a k-th finite difference of O(1) terms whose value
    can sit far below double-precision resolution (e.g. N = 1e4, k = 4 leaves
    a difference of order 1e-16), so it is evaluated exactly on the rounded
    float inputs.  With m = a/A and eta = b/B, 1 + s_l m = D_l / (N A B) for
    D_l = N A B + a b (N - l).  Over the common denominator prod_j D_j, term l
    has numerator +-C(k,l) prod_{j!=l} D_j (prefix times suffix product), and
    the one int/int division at the end is correctly rounded.
    """
    a, big_a = float(mean).as_integer_ratio()
    b, big_b = float(efficiency).as_integer_ratio()
    nab = detector_count * big_a * big_b
    d = [nab + a * b * (detector_count - l) for l in range(clicks + 1)]
    prefix = list(accumulate(d, mul, initial=1))
    suffix = list(accumulate(reversed(d), mul, initial=1))[::-1]
    total = sum(
        (-1) ** (clicks - l) * math.comb(clicks, l) * prefix[l] * suffix[l + 1]
        for l in range(clicks + 1)
    )
    return math.comb(detector_count, clicks) * nab * total / suffix[0]


def click_probability(multiplex: ClickMultiplex, clicks: int, state) -> float:
    """Probability of exactly ``clicks`` simultaneous clicks on the multiplex."""
    check_outcome(multiplex.detector_count, clicks)
    n, eta = multiplex.detector_count, multiplex.efficiency
    if isinstance(state, SignedThermalMixture):
        raw = math.fsum(
            w * _thermal_outcome_value(m, n, clicks, eta)
            for w, m in zip(state.weights, state.means)
        )
    elif isinstance(state, DisplacedThermal):
        terms = [
            (-1) ** (clicks - l)
            * math.comb(clicks, l)
            * normal_ordered_moment(state, eta * (n - l) / n)
            for l in range(clicks + 1)
        ]
        raw = math.comb(n, clicks) * math.fsum(terms)
    else:
        raise UnsupportedStateError(f"no click rule for {type(state).__name__}")
    return clamp_probability(raw)


def click_distribution(multiplex: ClickMultiplex, state) -> np.ndarray:
    """All N+1 outcome probabilities; they must sum to one (POVM completeness)."""
    probs = np.array(
        [click_probability(multiplex, k, state) for k in range(multiplex.detector_count + 1)]
    )
    scale = 1.0
    if isinstance(state, SignedThermalMixture):
        scale = max(1.0, float(np.sum(np.abs(state.weights))))
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > 1e-12 * scale:
        raise NumericalInstabilityError(
            f"click distribution sums to {total!r}, completeness lost"
        )
    return probs


def povm_fock_diagonal(detector_count: int, clicks: int, efficiency: float, n_max: int) -> np.ndarray:
    """Diagonal Fock coefficients of the k-click POVM element, n = 0 .. n_max.

    Coefficient at n is C(N,k) * sum_l C(k,l) (-1)^(k-l) [1 - eta(1 - l/N)]^n.
    For n < k it vanishes identically (a k-th finite difference of a degree-n
    polynomial; physically, n photons cannot fire more than n detectors), so
    those entries are exactly zero.
    """
    check_outcome(detector_count, clicks)
    check_efficiency(efficiency)
    check_count(n_max, "n_max")

    prefactor = math.comb(detector_count, clicks)
    signs = [(-1) ** (clicks - l) * math.comb(clicks, l) for l in range(clicks + 1)]
    xs = np.array(
        [1.0 - efficiency * (detector_count - l) / detector_count for l in range(clicks + 1)]
    )
    coeffs = np.zeros(n_max + 1)
    powers = xs[None, :] ** np.arange(n_max + 1)[:, None]
    for n in range(clicks, n_max + 1):
        value = prefactor * math.fsum(s * p for s, p in zip(signs, powers[n]))
        coeffs[n] = clamp_probability(value)
    return coeffs
