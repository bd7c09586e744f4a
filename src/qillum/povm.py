"""Click statistics of a multiplexed on/off photodetector.

A single mode split evenly over N identical binary detectors of total
efficiency eta has N+1 outcomes (k = 0 .. N simultaneous clicks).  The outcome
operators expand into normally ordered exponentials, so the probability of any
outcome on our state models reduces to the alternating sum

    Pr_{N,k}(rho) = C(N,k) * sum_{l=0}^{k} C(k,l) (-1)^(k-l) <:exp(-s_l n):>,
    s_l = eta * (1 - l/N),

with the normally ordered moment available in closed form for both thermal
mixtures and displaced thermal states.  A thermal moment is a simple pole in
l, so the identity sum_{l=0}^{k} (-1)^(k-l) C(k,l) / (alpha - beta l) =
k! beta^k / prod_{l=0}^{k} (alpha - beta l) makes its sum a product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import NumericalInstabilityError, UnsupportedStateError
from .states import (DisplacedThermal, SignedThermalMixture, check_count, check_efficiency,
                     check_outcome, check_real, clamp_probability)


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
    if not (0.0 <= check_real(s, "moment parameter") <= 1.0):
        raise ValueError(f"moment parameter must lie in [0, 1], got {s}")
    if isinstance(state, SignedThermalMixture):
        return math.fsum(w / (1.0 + s * m) for w, m in zip(state.weights, state.means))
    if isinstance(state, DisplacedThermal):
        denom = 1.0 + s * state.thermal_mean
        return math.exp(-s * state.coherent_mean / denom) / denom
    raise UnsupportedStateError(f"no moment rule for {type(state).__name__}")


def _thermal_outcome_values(mean: float, detector_count: int, clicks: int,
                            efficiency: float) -> list[float]:
    """Exact Pr_{N,k} of a single thermal state at k = 0 .. clicks, via integer arithmetic.

    The value can sit far below the resolution of the sum's O(1) terms (N = 1e4,
    k = 4 leaves 1e-16), so it is exact on the rounded inputs: with m = a/A,
    eta = b/B and D_l = N A B + a b (N - l), the identity above gives
    Pr_{N,k} = N!/(N-k)! (N A B) (a b)^k / prod_{l=0}^{k} D_l, a running
    product with one correctly rounded int/int division per k.
    """
    a, big_a = float(mean).as_integer_ratio()
    b, big_b = float(efficiency).as_integer_ratio()
    nab, ab = detector_count * big_a * big_b, a * b
    numerator, denominator = nab, nab + ab * detector_count
    values = [numerator / denominator]
    for k in range(1, clicks + 1):
        numerator *= (detector_count - k + 1) * ab
        denominator *= nab + ab * (detector_count - k)
        values.append(numerator / denominator)
    return values


def click_probability(multiplex: ClickMultiplex, clicks: int, state) -> float:
    """Probability of exactly ``clicks`` simultaneous clicks on the multiplex."""
    check_outcome(multiplex.detector_count, clicks)
    n, eta = multiplex.detector_count, multiplex.efficiency
    if isinstance(state, SignedThermalMixture):
        raw = math.fsum(w * _thermal_outcome_values(m, n, clicks, eta)[clicks]
                        for w, m in zip(state.weights, state.means))
    elif isinstance(state, DisplacedThermal):
        raw = math.comb(n, clicks) * math.fsum(
            (-1) ** (clicks - l) * math.comb(clicks, l)
            * normal_ordered_moment(state, eta * (n - l) / n) for l in range(clicks + 1))
    else:
        raise UnsupportedStateError(f"no click rule for {type(state).__name__}")
    return clamp_probability(raw)


def click_distribution(multiplex: ClickMultiplex, state) -> np.ndarray:
    """All N+1 outcome probabilities, each ``click_probability``'s; they must sum to one."""
    n, eta = multiplex.detector_count, multiplex.efficiency
    check_outcome(n, n)
    if not isinstance(state, SignedThermalMixture):
        probs = np.array([click_probability(multiplex, k, state) for k in range(n + 1)])
        scale = 1.0
    else:  # every outcome of a thermal component from one pass
        columns = list(zip(*(_thermal_outcome_values(m, n, n, eta) for m in state.means)))
        probs = np.array([clamp_probability(math.fsum(map(mul, state.weights, column)))
                          for column in columns])
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
    those entries are exactly zero; every other row of signed powers gets one fsum.
    """
    check_outcome(detector_count, clicks)
    check_efficiency(efficiency)
    check_count(n_max, "n_max")

    coeffs = np.zeros(n_max + 1)
    if n_max < clicks:
        return coeffs
    signs = np.array([float((-1) ** (clicks - l) * math.comb(clicks, l))
                      for l in range(clicks + 1)])
    xs = np.array([1.0 - efficiency * (detector_count - l) / detector_count
                   for l in range(clicks + 1)])
    # All n_max + 1 rows: numpy's power may round an entry differently in another shape.
    terms = (xs[None, :] ** np.arange(n_max + 1)[:, None])[clicks:] * signs
    sums = np.array([math.fsum(row) for row in terms.tolist()])
    values = float(math.comb(detector_count, clicks)) * sums
    clamped = np.where(values > 0.0, np.minimum(values, 1.0), 0.0)  # -0.0 too becomes 0.0
    for value in values[values != clamped].tolist():
        clamp_probability(value)  # raises at the first excursion beyond its tolerance
    coeffs[clicks:] = clamped
    return coeffs
