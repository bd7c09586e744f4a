"""Shared numeric helpers: compensated sums and probability clamps."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalInstabilityError

# Outcome counts are capped at 64 alternating terms.  The cap does not make the
# double-precision displaced-thermal sums stable: at eta 0.9 a coherent click
# distribution already loses completeness from 12 or 13 detectors.
MAX_ALTERNATING_TERMS = 64


def clamp_probability(value: float, excursion_tol: float = 1e-10) -> float:
    """Clamp a computed probability onto [0, 1].

    Excursions beyond ``excursion_tol`` indicate the alternating sum has lost
    too much precision to trust, and raise instead of silently clamping.
    """
    if not math.isfinite(value):
        raise NumericalInstabilityError(f"probability evaluated to {value}")
    if value < -excursion_tol or value > 1.0 + excursion_tol:
        raise NumericalInstabilityError(
            f"probability {value!r} is outside [0, 1] by more than {excursion_tol}"
        )
    return min(1.0, max(0.0, value))


class CompensatedVectorSum:
    """Neumaier-compensated elementwise accumulator for ndarray partial sums.

    Used to reduce Monte-Carlo trial chunks in a fixed order so the ensemble
    mean is independent of how many workers produced the chunks.
    """

    def __init__(self, size: int):
        self._total = np.zeros(size)
        self._comp = np.zeros(size)

    def add(self, values: np.ndarray) -> None:
        t = self._total + values
        swap = np.abs(self._total) >= np.abs(values)
        self._comp += np.where(swap, (self._total - t) + values, (values - t) + self._total)
        self._total = t

    def result(self) -> np.ndarray:
        return self._total + self._comp
