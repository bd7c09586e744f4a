"""Exact-rational references for the closed-form evaluators.

``thermal_outcome_value`` is the ``Fraction`` evaluation of the thermal click
probability that ``qillum.povm._thermal_outcome_value`` replaces with integer
arithmetic; both must return the same double.  ``mixture_distribution`` sums
``w * m^n / (1 + m)^(n+1)`` over the exact rationals of the stored weights and
means, the reference for ``qillum.states._mixture_distribution``.
"""

import math
from fractions import Fraction


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


def mixture_distribution(weights, means, n_max: int) -> list[Fraction]:
    """Exact p_0 .. p_{n_max} of the signed thermal mixture."""
    probs = [Fraction(0)] * (n_max + 1)
    for w, m in zip(weights, means):
        w, m = Fraction(float(w)), Fraction(float(m))
        ratio, term = m / (1 + m), w / (1 + m)
        for n in range(n_max + 1):
            probs[n] += term
            term *= ratio
    return probs
