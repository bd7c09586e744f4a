"""State models for the illumination pipeline.

Every state the closed-form pipeline touches is either a signed affine
combination of thermal density matrices (the exact representation of any
multiplex-click heralded TMSV signal mode) or a displaced thermal state (a
coherent signal after mixing with thermal background).  Both are fully
phase-insensitive for our purposes, so photon-number statistics and the
rotationally symmetric Wigner function characterize them completely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DegenerateHeraldingError, UnsupportedStateError

# Physicality of a signed mixture is spot-checked on this many Fock levels;
# beyond it thermal tails decay monotonically and need no check.
PHYSICALITY_CHECK_LEVELS = 200

# Near-degenerate heralds carry weights of magnitude ~1/denominator, and a sum
# of doubles of magnitude W cannot hit an absolute target better than ~W*eps.
# Validation tolerances therefore carry a weight-scale term.
_TRACE_TOL_FLOOR = 1e-12
_TRACE_TOL_PER_WEIGHT = 1e-14
_PHYSICALITY_TOL_FLOOR = 1e-12
_PHYSICALITY_TOL_PER_WEIGHT = 1e-15


@dataclass(frozen=True)
class SignedThermalMixture:
    """Affine combination ``sum_i weights[i] * varrho[means[i]]`` of thermal states.

    Weights may be negative but must sum to one; the combination must still
    describe a valid density matrix, which is spot-checked through the
    photon-number distribution on construction.
    """

    weights: tuple[float, ...]
    means: tuple[float, ...]

    def __post_init__(self):
        weights, means = self.weights, self.means
        if not weights:
            raise ValueError("a mixture needs at least one component")
        if len(weights) != len(means):
            raise ValueError(f"{len(weights)} weights but {len(means)} means")
        for weight, mean in zip(weights, means):
            if not math.isfinite(weight):
                raise ValueError(f"component weight must be finite, got {weight}")
            if not (math.isfinite(mean) and mean >= 0.0):
                raise ValueError(f"thermal mean must be finite and nonnegative, got {mean}")
        scale = math.fsum(map(abs, weights))
        trace = math.fsum(weights)
        trace_tol = _TRACE_TOL_FLOOR + _TRACE_TOL_PER_WEIGHT * scale
        if abs(trace - 1.0) > trace_tol:
            raise ValueError(f"mixture trace {trace!r} deviates from 1 beyond {trace_tol}")
        tol = _PHYSICALITY_TOL_FLOOR + _PHYSICALITY_TOL_PER_WEIGHT * scale
        probs = _mixture_distribution(weights, means, PHYSICALITY_CHECK_LEVELS)
        lowest = float(probs.min())  # NaN if any p_n is NaN, and then fails
        if not (lowest >= -tol):
            raise ValueError(
                f"mixture is unphysical: p_n reaches {lowest:.3e} (tolerance {tol:.1e})"
            )

    @classmethod
    def thermal(cls, mean: float) -> "SignedThermalMixture":
        return cls((1.0,), (float(mean),))


@dataclass(frozen=True)
class DisplacedThermal:
    """Coherent signal of mean |beta|^2 photons on top of a thermal background."""

    coherent_mean: float
    thermal_mean: float

    def __post_init__(self):
        for name, value in (("coherent", self.coherent_mean), ("thermal", self.thermal_mean)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} mean must be finite and nonnegative, got {value}")


StateModel = Union[SignedThermalMixture, DisplacedThermal]


class HeraldedState(NamedTuple):
    """A conditioned signal state together with the probability of heralding it."""

    state: SignedThermalMixture
    herald_probability: float


def tmsv_marginal(nbar: float) -> SignedThermalMixture:
    """Signal (or idler) mode of the TMSV observed alone: thermal with mean nbar."""
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValueError(f"mean photon number must be finite and nonnegative, got {nbar}")
    return SignedThermalMixture.thermal(nbar)


def squeezing_to_mean(r: float) -> float:
    """Convert a squeezing amplitude to the per-mode mean photon number sinh^2(r)."""
    return math.sinh(r) ** 2


def scaled_component_mean(nbar: float, efficiency: float, detectors: int, l: int) -> float:
    """Thermal mean of the l-th component of a heralded state.

    Measuring the idler with the no-click operator of strength
    s = eta*(1 - l/N) reshapes the signal thermal mean to
    (nbar - nbar*s) / (1 + nbar*s).
    """
    s = efficiency * (detectors - l) / detectors
    return (nbar - nbar * s) / (1.0 + nbar * s)


def herald_state(nbar: float, efficiency: float, detectors: int, clicks: int) -> HeraldedState:
    """Signal state conditioned on k clicks from an N-detector idler multiplex.

    The conditioned state is an exact signed mixture of ``clicks + 1`` thermal
    states: component l has mean ``scaled_component_mean(nbar, eta, N, l)`` and
    weight proportional to ``C(k, l) * (-1)^(k-l) * (1 + mean_l)``.  The
    normalization of those weights also fixes the heralding probability,
    ``Pr_{N,k} = C(N,k) * sum_of_terms / (1 + nbar)``, which equals the click
    probability of an N-multiplex observing the thermal idler directly.
    """
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValueError(f"mean photon number must be finite and nonnegative, got {nbar}")
    if not (0.0 <= efficiency <= 1.0):
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency}")
    if detectors < 1:
        raise ValueError(f"need at least one detector, got {detectors}")
    if not (0 <= clicks <= detectors):
        raise ValueError(f"clicks must lie in [0, {detectors}], got {clicks}")

    means = [scaled_component_mean(nbar, efficiency, detectors, l) for l in range(clicks + 1)]
    terms = [
        math.comb(clicks, l) * (-1) ** (clicks - l) * (1.0 + means[l])
        for l in range(clicks + 1)
    ]
    denom = math.fsum(terms)
    if abs(denom) < 1e-300:
        raise DegenerateHeraldingError(
            f"herald normalization vanished for nbar={nbar}, eta={efficiency}, "
            f"N={detectors}, k={clicks}"
        )

    weights = [t / denom for t in terms]
    # Absorb the division-rounding residual into the smallest-magnitude weight,
    # where one ulp is finest, so the stored trace is exactly one whenever
    # doubles permit.
    j = min(range(len(weights)), key=lambda i: abs(weights[i]))
    for _ in range(4):
        residual = math.fsum(weights) - 1.0
        if residual == 0.0:
            break
        adjusted = weights[j] - residual
        if adjusted == weights[j]:
            break
        weights[j] = adjusted

    probability = math.comb(detectors, clicks) * denom / (1.0 + nbar)
    probability = min(1.0, max(0.0, probability))

    return HeraldedState(SignedThermalMixture(tuple(weights), tuple(means)), probability)


def mean_photon(state) -> float:
    """First moment of the photon number operator."""
    if isinstance(state, SignedThermalMixture):
        return math.fsum(w * m for w, m in zip(state.weights, state.means))
    if isinstance(state, DisplacedThermal):
        return state.coherent_mean + state.thermal_mean
    raise UnsupportedStateError(f"mean_photon undefined for {type(state).__name__}")


def second_moment(state) -> float:
    """Second moment <n^2>; for a thermal component it is 2m^2 + m."""
    if isinstance(state, SignedThermalMixture):
        return math.fsum(w * (2.0 * m**2 + m) for w, m in zip(state.weights, state.means))
    if isinstance(state, DisplacedThermal):
        mu, m = state.coherent_mean, state.thermal_mean
        variance = mu * (1.0 + 2.0 * m) + m * (1.0 + m)
        mean = mu + m
        return variance + mean**2
    raise UnsupportedStateError(f"second_moment undefined for {type(state).__name__}")


def fano_factor(state) -> float:
    """Photon-number variance divided by the mean; < 1 flags sub-Poissonian light."""
    mean = mean_photon(state)
    if mean <= 0.0:
        raise ValueError("Fano factor is undefined for zero mean photon number")
    return (second_moment(state) - mean**2) / mean


def _mixture_distribution(weights, means, n_max: int) -> np.ndarray:
    """Longdouble p_0 .. p_{n_max} of sum_i w_i m_i^n / (1 + m_i)^(n+1).

    Near-degenerate heralds carry weights of magnitude ~1e7 whose signed sum
    must cancel to ~1e-12 absolute, hence extended precision.  Each row is a
    running product, 1/(1+m) times n factors m/(1+m); a vacuum row is [1, 0, ...].
    """
    m = np.array(means, dtype=np.longdouble)[:, None]
    comp = np.repeat(m / (1.0 + m), n_max + 1, axis=1)
    comp[:, :1] = 1.0 / (1.0 + m)
    np.multiply.accumulate(comp, axis=1, out=comp)
    return np.array(weights, dtype=np.longdouble) @ comp


def photon_number_distribution(state, n_max: int) -> np.ndarray:
    """Photon-number probabilities p_0 .. p_{n_max}.

    Only signed thermal mixtures have a closed form here; displaced thermal
    distributions live in the oracle's Fock construction.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if isinstance(state, DisplacedThermal):
        raise UnsupportedStateError(
            "displaced thermal photon distributions are computed by "
            "oracle.displaced_thermal_diag"
        )
    if not isinstance(state, SignedThermalMixture):
        raise UnsupportedStateError(f"no distribution for {type(state).__name__}")
    return _mixture_distribution(state.weights, state.means, n_max).astype(float)


def wigner_slice(state, q_grid) -> np.ndarray:
    """W(q, 0) for a signed thermal mixture.

    Convention: W_vac(q, p) = exp(-q^2 - p^2) / pi, so a thermal component of
    mean m contributes w * exp(-q^2 / (2m + 1)) / (pi * (2m + 1)) and the full
    2-D integral of each component equals its weight.
    """
    if not isinstance(state, SignedThermalMixture):
        raise UnsupportedStateError("wigner_slice is defined for signed thermal mixtures")
    q = np.atleast_1d(np.asarray(q_grid, dtype=float))
    widths = 2.0 * np.array(state.means) + 1.0
    gauss = np.exp(-np.square(q)[None, :] / widths[:, None])
    return (np.array(state.weights) / (np.pi * widths)) @ gauss
