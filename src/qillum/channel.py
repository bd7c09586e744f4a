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
from itertools import chain

import numpy as np

from .povm import ClickMultiplex, click_probability
from .states import (_ARRAY_ROWS, DisplacedThermal, SignedThermalMixture, _checked_table, _floats,
                     check_mean, checked_mixtures)


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
    if not isinstance(signal, DisplacedThermal):
        raise TypeError(f"channel undefined for {type(signal).__name__}")
    if not isinstance(channel, TargetChannel):
        raise _not_a_channel(channel)
    kappa, nb = channel.reflectivity, channel.background_mean
    return DisplacedThermal(kappa * signal.coherent_mean, kappa * signal.thermal_mean + nb)


def _not_a_channel(channel) -> TypeError:
    return TypeError(f"channel must be a TargetChannel, got {type(channel).__name__}")


def channel_images(pairs) -> list[SignedThermalMixture]:
    """``apply_channel`` on each ``(channel, signed mixture)`` pair, the images checked together.

    A pair that is not a ``TargetChannel`` and a ``SignedThermalMixture``
    raises after the images before it are checked.
    """
    images, error = [], None
    try:
        for channel, mixture in pairs:
            if not isinstance(mixture, SignedThermalMixture):
                raise TypeError(f"channel undefined for {type(mixture).__name__}")
            if not isinstance(channel, TargetChannel):
                raise _not_a_channel(channel)
            images.append((channel, mixture))
    except Exception as exc:
        error = exc
    checked = _checked_images(images) if len(images) >= _ARRAY_ROWS else []

    def rest():
        for channel, mixture in images[len(checked):]:
            kappa, nb = channel.reflectivity, channel.background_mean
            yield mixture.weights, tuple(kappa * m + nb for m in mixture.means)
        if error is not None:
            raise error

    return checked + checked_mixtures(rest())


def _checked_images(images) -> list[SignedThermalMixture]:
    """The checked images of a column of ``(channel, mixture)`` pairs, else [].

    A column of floats whose mixtures have one component count maps its
    stacked means ``M`` as ``kappa * M + n_B`` at once, with a reflectivity
    and background per row.
    """
    kappas = [channel.reflectivity for channel, _ in images]
    backgrounds = [channel.background_mean for channel, _ in images]
    weights = [mixture.weights for _, mixture in images]
    means = [mixture.means for _, mixture in images]
    if (len(set(map(len, means))) > 1 or not _floats(kappas + backgrounds)
            or not _floats(chain.from_iterable(weights + means))):
        return []
    with np.errstate(over="ignore"):  # as Python's float arithmetic overflows to inf
        table = np.array(kappas)[:, None] * np.array(means) + np.array(backgrounds)[:, None]
    image_means = list(map(tuple, table.tolist()))
    return _checked_table(weights, image_means, np.array(weights), table)


def receiver_click_prob(receiver: ClickMultiplex, clicks: int, hyp_state) -> float:
    """``povm.click_probability`` under a second name, which nothing calls.

    It stays only because ``perfbench/tracer.py`` wraps it by name in its
    ``TARGETS``; it goes together with that entry.
    """
    return click_probability(receiver, clicks, hyp_state)
