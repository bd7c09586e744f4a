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

from .errors import NumericalInstabilityError
from .states import (DisplacedThermal, SignedThermalMixture, check_count, check_efficiency,
                     check_outcome, check_real, clamp_probability, expansion_terms)


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


def normal_ordered_moment(state: DisplacedThermal, s: float) -> float:
    """<:exp(-s n):> of a displaced thermal state, exp(-s mu / (1 + s m)) / (1 + s m).

    A thermal mixture's click probabilities take the exact product form
    (``_thermal_outcome_values``) instead of its moments 1 / (1 + s m).
    """
    if not (0.0 <= check_real(s, "moment parameter") <= 1.0):
        raise ValueError(f"moment parameter must lie in [0, 1], got {s}")
    if not isinstance(state, DisplacedThermal):
        raise TypeError(f"no moment rule for {type(state).__name__}")
    denom = 1.0 + s * state.thermal_mean
    return math.exp(-s * state.coherent_mean / denom) / denom


def _thermal_outcome_values(means, detector_count: int, clicks: int,
                            efficiency_ratio: tuple[int, int], first: int = 0) -> list[list[float]]:
    """Exact Pr_{N,k} of a thermal state of each mean of ``means`` at k = first .. clicks.

    The value can sit far below the resolution of the sum's O(1) terms (N = 1e4,
    k = 4 leaves 1e-16), so it is exact on the rounded inputs: with m = a/A,
    eta = b/B (``efficiency_ratio``, from ``eta.as_integer_ratio()``) and
    D_l = N A B + a b (N - l), the identity above gives
    Pr_{N,k} = N!/(N-k)! (N A B) (a b)^k / prod_{l=0}^{k} D_l, a running
    product with one correctly rounded int/int division per k.
    """
    b, big_b = efficiency_ratio
    rows = []
    for mean in means:
        a, big_a = float(mean).as_integer_ratio()
        nab, ab = detector_count * big_a * big_b, a * b
        numerator, denominator = nab, nab + ab * detector_count
        values = [numerator / denominator] if first == 0 else []
        for k in range(1, clicks + 1):
            numerator *= (detector_count - k + 1) * ab
            denominator *= nab + ab * (detector_count - k)
            if k >= first:
                values.append(numerator / denominator)
        rows.append(values)
    return rows


def _outcome_values(multiplex: ClickMultiplex, states, first: int, last: int):
    """Yield the clamped Pr_{N,k}, k = first .. last, of each state; the caller checks k.

    A thermal mixture is exact, every outcome of a component from one pass.  A
    displaced thermal state takes its moments at s_l once, for l <= last.
    """
    n, eta = multiplex.detector_count, multiplex.efficiency
    ratio, terms = float(eta).as_integer_ratio(), None
    for state in states:
        if isinstance(state, SignedThermalMixture):
            rows = _thermal_outcome_values(state.means, n, last, ratio, first)
            yield [clamp_probability(math.fsum(map(mul, state.weights, column)))
                   for column in zip(*rows)]
        elif isinstance(state, DisplacedThermal):
            if terms is None:  # check_outcome returns C(N, k)
                scales = expansion_terms(n, last, eta)[1]
                terms = [(check_outcome(n, k), expansion_terms(n, k, eta)[0])
                         for k in range(first, last + 1)]
            moments = [normal_ordered_moment(state, s) for s in scales]
            # map stops at the k + 1 signs of outcome k
            yield [clamp_probability(combinations * math.fsum(map(mul, signs, moments)))
                   for combinations, signs in terms]
        else:
            raise TypeError(f"no click rule for {type(state).__name__}")


def click_probability(multiplex: ClickMultiplex, clicks: int, state) -> float:
    """Probability of exactly ``clicks`` simultaneous clicks on the multiplex."""
    return click_probabilities(multiplex, clicks, [state])[0]


def click_probabilities(multiplex: ClickMultiplex, clicks: int, states) -> list[float]:
    """``click_probability`` of each of ``states``, the outcome checked once for the column.

    The column shares constants only: the efficiency's ratio and the expansion's terms.
    """
    check_outcome(multiplex.detector_count, clicks)
    return [value for value, in _outcome_values(multiplex, states, clicks, clicks)]


def click_distribution(multiplex: ClickMultiplex, state) -> np.ndarray:
    """All N+1 outcome probabilities, each ``click_probability``'s; they must sum to one."""
    n = multiplex.detector_count
    check_outcome(n, n)
    probs = np.array(next(_outcome_values(multiplex, [state], 0, n)))
    weights = state.weights if isinstance(state, SignedThermalMixture) else ()
    scale = max(1.0, float(np.sum(np.abs(weights))))
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
    combinations = check_outcome(detector_count, clicks)
    check_efficiency(efficiency)
    check_count(n_max, "n_max")

    coeffs = np.zeros(n_max + 1)
    signs, scales = map(np.array, expansion_terms(detector_count, clicks, efficiency))
    # Powers of every n from 0, then the rows n < k dropped.  No entry depends
    # on n_max: each leading block of a width-700 row equalled the narrower
    # call (N <= 4, every k, eta 0.5, 0.9 and 1, at default SIMD dispatch and
    # with AVX512 disabled), and tests/test_povm.py pins this for N <= 8.
    terms = ((1.0 - scales)[None, :] ** np.arange(n_max + 1)[:, None])[clicks:] * signs
    sums = np.array([math.fsum(row) for row in terms.tolist()])
    values = float(combinations) * sums
    clamped = np.where(values > 0.0, np.minimum(values, 1.0), 0.0)  # -0.0 too becomes 0.0
    for value in values[values != clamped].tolist():
        clamp_probability(value)  # raises at the first excursion beyond its tolerance
    coeffs[clicks:] = clamped
    return coeffs
