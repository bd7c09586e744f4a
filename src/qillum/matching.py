"""Click-probability matching between thermal and coherent signals.

A single on/off detector clicks less often on a thermal beam than on a
coherent beam of equal mean photon number.  Matching raises the thermal mean
until the two single-click probabilities coincide, letting the thermal probe
run hotter without becoming more discoverable to a single-click eavesdropper.
Matching is defined against a single-click detector only.  Each formula here
takes a mean and an efficiency as plain numbers and checks both itself.
"""

from __future__ import annotations

import math

from .states import check_efficiency, check_mean, check_real


def coherent_click_prob(coherent_mean: float, efficiency: float) -> float:
    """Single-click probability of a coherent beam: 1 - exp(-eta * nbar_alpha)."""
    check_mean(coherent_mean, "coherent mean")
    check_efficiency(efficiency)
    return -math.expm1(-efficiency * coherent_mean)


def thermal_click_prob(thermal_mean: float, efficiency: float) -> float:
    """Single-click probability of a thermal beam: eta*n / (1 + eta*n)."""
    check_mean(thermal_mean, "thermal mean")
    check_efficiency(efficiency)
    x = efficiency * thermal_mean
    return x / (1.0 + x)


def matched_mean(coherent_mean: float, efficiency: float) -> float:
    """Thermal mean whose click probability equals the coherent one.

    Solves eta*n/(1 + eta*n) = 1 - exp(-eta*nbar_alpha) for n, giving
    n = (exp(eta*nbar_alpha) - 1) / eta.  Always >= nbar_alpha, with equality
    only at zero.  The eavesdropper efficiency must lie in (0, 1], and a
    result that overflows a double is a ValueError.
    """
    check_mean(coherent_mean, "coherent mean")
    if not (0.0 < check_real(efficiency, "eavesdropper efficiency") <= 1.0):
        raise ValueError(f"eavesdropper efficiency must lie in (0, 1], got {efficiency}")
    x = efficiency * coherent_mean
    try:
        matched = math.expm1(x) / efficiency
    except OverflowError:
        matched = math.inf
    if not math.isfinite(matched):
        raise ValueError(f"matched mean overflows: eta * nbar_alpha = {x} is too large")
    return matched
