"""Closed-form references for the click statistics and photon distributions.

``thermal_outcome_value`` is the ``Fraction`` evaluation of the thermal click
probability as the alternating sum itself.  ``qillum.povm._thermal_outcome_values``
evaluates it on integers through the identity
sum_l (-1)^(k-l) C(k,l) / (alpha - beta l) = k! beta^k / prod_{l=0}^{k} (alpha - beta l),
which gives the same rational number, so both must return the same double.
``mixture_distribution`` sums ``w * m^n / (1 + m)^(n+1)`` over the exact
rationals of the stored weights and means, the reference for
``qillum.states._mixture_distribution``.
``poisson_limit_reference`` is the large-N limit of the click distribution in
doubles, which a finite multiplex must approach.
"""

import math
from fractions import Fraction

from qillum.states import SignedThermalMixture, check_count, check_efficiency, clamp_probability


def thermal_outcome_value(mean: float, detector_count: int, clicks: int, efficiency: float) -> float:
    """Exact Pr_{N,k} for a single thermal state, via rational arithmetic."""
    m = Fraction(float(mean))
    e = Fraction(float(efficiency))
    total = Fraction(0)
    for l in range(clicks + 1):
        s = e * Fraction(detector_count - l, detector_count)
        term = Fraction(math.comb(clicks, l)) / (1 + s * m)
        total += term if (clicks - l) % 2 == 0 else -term
    return float(math.comb(detector_count, clicks) * total)


def mixture_distribution(weights, means, n_max: int, number=Fraction) -> list:
    """Exact p_0 .. p_{n_max} of the signed thermal mixture, or in ``number`` arithmetic.

    ``number=Decimal`` evaluates the same sums in the current decimal context,
    each operation exact to its precision and no value underflowing, much
    faster than ``Fraction`` at hundreds of levels.
    """
    probs = [number(0)] * (n_max + 1)
    for w, m in zip(weights, means):
        w, m = number(float(w)), number(float(m))
        ratio, term = m / (1 + m), w / (1 + m)
        for n in range(n_max + 1):
            probs[n] += term
            term *= ratio
    return probs


def poisson_limit_reference(clicks: int, efficiency: float, state) -> float:
    """Large-N limit of the click distribution: <:(eta n)^k exp(-eta n) / k!:>.

    For a thermal component of mean m the closed form is
    (eta m)^k / (1 + eta m)^(k+1).  Used as the convergence target when
    checking that finite multiplexes become Poissonian.
    """
    check_count(clicks, "click count")
    check_efficiency(efficiency)
    if not isinstance(state, SignedThermalMixture):
        raise TypeError("poisson_limit_reference supports thermal mixtures only")
    total = math.fsum(
        w * (efficiency * m) ** clicks / (1.0 + efficiency * m) ** (clicks + 1)
        for w, m in zip(state.weights, state.means)
    )
    return clamp_probability(total)
