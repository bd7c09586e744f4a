"""Target-interaction channel and Bayesian inference on receiver clicks.

A target of reflectivity kappa embedded in thermal background couples the
signal mode to the background mode on a beamsplitter; the background is
pre-scaled to nbar_b / (1 - kappa) so the received noise stays independent of
the reflectivity.  On our state models the whole channel acts in closed form:
every thermal component of mean m maps to a thermal of mean kappa*m + nbar_b
with its weight unchanged, and a displaced thermal maps affinely in both its
coherent and thermal parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UndefinedPosteriorError, UnsupportedStateError
from .povm import ClickMultiplex, click_probability
from .states import DisplacedThermal, SignedThermalMixture, StateModel


@dataclass(frozen=True)
class TargetChannel:
    """Reflectivity and background mean defining the H0/H1 state pair."""

    reflectivity: float
    background_mean: float

    def __post_init__(self):
        if not (0.0 < self.reflectivity < 1.0):
            raise ValueError(
                f"reflectivity must lie strictly in (0, 1), got {self.reflectivity}"
            )
        if not (math.isfinite(self.background_mean) and self.background_mean >= 0.0):
            raise ValueError(
                f"background mean must be finite and nonnegative, got {self.background_mean}"
            )


def background_state(channel: TargetChannel) -> SignedThermalMixture:
    """State reaching the receiver when the target is absent: pure background."""
    return SignedThermalMixture.thermal(channel.background_mean)


def apply_channel(channel: TargetChannel, signal) -> StateModel:
    """Return state for a present target: reflected signal plus background."""
    kappa, nb = channel.reflectivity, channel.background_mean
    if isinstance(signal, SignedThermalMixture):
        return SignedThermalMixture(signal.weights, tuple(kappa * m + nb for m in signal.means))
    if isinstance(signal, DisplacedThermal):
        return DisplacedThermal(kappa * signal.coherent_mean, kappa * signal.thermal_mean + nb)
    raise UnsupportedStateError(f"channel undefined for {type(signal).__name__}")


def receiver_click_prob(receiver: ClickMultiplex, clicks: int, hyp_state) -> float:
    """Probability of ``clicks`` receiver clicks on a hypothesis state.

    This is the multiplex click probability evaluated on the (already
    channel-transformed) conditional state; for mixtures it is weight-linear
    over the transformed components, which avoids the doubly alternating sum.
    """
    return click_probability(receiver, clicks, hyp_state)


def posterior(prior_h1: float, likelihood_h0: float, likelihood_h1: float) -> float:
    """Bayes update for the target-present probability after one outcome."""
    for name, value in (
        ("prior_h1", prior_h1),
        ("likelihood_h0", likelihood_h0),
        ("likelihood_h1", likelihood_h1),
    ):
        if not (0.0 <= value <= 1.0) or not math.isfinite(value):
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    numerator = prior_h1 * likelihood_h1
    denominator = numerator + (1.0 - prior_h1) * likelihood_h0
    if denominator == 0.0:
        raise UndefinedPosteriorError("both hypothesis likelihoods are zero")
    return numerator / denominator
