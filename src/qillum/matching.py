"""Click-probability matching between thermal and coherent signals.

A single on/off detector clicks less often on a thermal beam than on a
coherent beam of equal mean photon number.  Matching raises the thermal mean
until the two single-click probabilities coincide, letting the thermal probe
run hotter without becoming more discoverable to a single-click eavesdropper.
Matching is defined against a single-click detector only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import check_efficiency, check_mean, check_real


@dataclass(frozen=True)
class MatchSpec:
    coherent_mean: float
    eavesdropper_efficiency: float

    def __post_init__(self):
        check_mean(self.coherent_mean, "coherent mean")
        if not (0.0 < check_real(self.eavesdropper_efficiency, "eavesdropper efficiency") <= 1.0):
            raise ValueError(
                "eavesdropper efficiency must lie in (0, 1], got "
                f"{self.eavesdropper_efficiency}"
            )
        x = self.eavesdropper_efficiency * self.coherent_mean
        if not math.isfinite(_matched(x, self.eavesdropper_efficiency)):
            raise ValueError(f"matched mean overflows: eta * nbar_alpha = {x} is too large")


def _matched(x: float, eta: float) -> float:
    try:
        return math.expm1(x) / eta
    except OverflowError:
        return math.inf


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


def matched_mean(spec: MatchSpec) -> float:
    """Thermal mean whose click probability equals the coherent one.

    Solves eta*n/(1 + eta*n) = 1 - exp(-eta*nbar_alpha) for n, giving
    n = (exp(eta*nbar_alpha) - 1) / eta.  Always >= nbar_alpha, with equality
    only at zero.  ``MatchSpec`` rejects inputs whose result overflows a double.
    """
    eta = spec.eavesdropper_efficiency
    return _matched(eta * spec.coherent_mean, eta)
