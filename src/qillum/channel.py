"""Target-interaction channel: the H0 and H1 states a receiver sees.

A target of reflectivity kappa embedded in thermal background couples the
signal mode to the background mode on a beamsplitter; the background is
pre-scaled to nbar_b / (1 - kappa) so the received noise stays independent of
the reflectivity.  On our state models the whole channel acts in closed form:
every thermal component of mean m maps to a thermal of mean kappa*m + nbar_b
with its weight unchanged, and a displaced thermal maps affinely in both its
coherent and thermal parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedStateError
from .povm import ClickMultiplex, click_probability
from .states import DisplacedThermal, SignedThermalMixture, check_mean, checked_mixtures


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
        check_mean(self.background_mean, "background mean")


def background_state(channel: TargetChannel) -> SignedThermalMixture:
    """State reaching the receiver when the target is absent: pure background."""
    return SignedThermalMixture.thermal(channel.background_mean)


def apply_channel(channel: TargetChannel, signal) -> SignedThermalMixture | DisplacedThermal:
    """Return state for a present target: reflected signal plus background."""
    if isinstance(signal, SignedThermalMixture):
        return channel_images([(channel, signal)])[0]
    if isinstance(signal, DisplacedThermal):
        kappa, nb = channel.reflectivity, channel.background_mean
        return DisplacedThermal(kappa * signal.coherent_mean, kappa * signal.thermal_mean + nb)
    raise UnsupportedStateError(f"channel undefined for {type(signal).__name__}")


def channel_images(pairs) -> list[SignedThermalMixture]:
    """``apply_channel`` on each ``(channel, signed mixture)`` pair, the images checked together."""
    return checked_mixtures(
        (mixture.weights,
         tuple(channel.reflectivity * m + channel.background_mean for m in mixture.means))
        for channel, mixture in pairs)


def receiver_click_prob(receiver: ClickMultiplex, clicks: int, hyp_state) -> float:
    """``povm.click_probability`` under a second name, which nothing calls.

    It stays only because ``perfbench/tracer.py`` wraps it by name in its
    ``TARGETS``; it goes together with that entry.
    """
    return click_probability(receiver, clicks, hyp_state)
