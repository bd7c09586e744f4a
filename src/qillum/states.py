"""State models for the illumination pipeline.

Every state the closed-form pipeline touches is either a signed affine
combination of thermal density matrices (the exact representation of any
multiplex-click heralded TMSV signal mode) or a displaced thermal state (a
coherent signal after mixing with thermal background).  Both are fully
phase-insensitive for our purposes, so photon-number statistics and the
rotationally symmetric Wigner function characterize them completely.

Every signed mixture passes one physicality check, ``checked_mixtures``,
which takes rows of weights and means and scans them in blocks.  A grid
column of heralds (``herald_states``) is computed row by row into it, with
the column's constants computed once.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateHeraldingError, NumericalInstabilityError

# Physicality of a signed mixture is checked on Fock levels 0 .. this many.
# Past them, a mixture whose largest-mean component has positive weight (and
# no tie) is positive once that component dominates; any other may turn
# negative unseen: 2*thermal(10) - thermal(10.5) first turns negative at
# n = 171, but 2*thermal(10) - thermal(10.2) only at n = 399.
PHYSICALITY_CHECK_LEVELS = 200

# Near-degenerate heralds carry weights of magnitude ~1/denominator, and a sum
# of doubles of magnitude W cannot hit an absolute target better than ~W*eps.
# Validation tolerances therefore carry a weight-scale term.
_TRACE_TOL_FLOOR = 1e-12
_TRACE_TOL_PER_WEIGHT = 1e-14
_PHYSICALITY_TOL_FLOOR = 1e-12
_PHYSICALITY_TOL_PER_WEIGHT = 1e-15

# Mixtures of one grid column are scanned this many at a time.  A block's
# longdouble running products are a (rows, widest row's components, levels)
# array, about 1 MB for 64 five-component heralds; a whole 500-point column
# would be 8 MB.
_CHECK_BLOCK_ROWS = 64

# Outcome counts are capped at 64 alternating terms.  The cap does not make the
# double-precision displaced-thermal sums stable: at eta 0.9 a coherent click
# distribution already loses completeness at 12 or 13 detectors, and at most
# sizes above.
MAX_ALTERNATING_TERMS = 64


# The input rules of every layer, stated once: the library, the oracle and
# the CLI all call these.  Each raises ValueError on a value out of range.
def check_real(value, what: str):
    """Anything but a bool (or ``np.bool_``), which arithmetic would take as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return value


def check_mean(value: float, what: str) -> float:
    """A mean photon number: finite and nonnegative, and not a bool; returned as a float."""
    exact = type(value) is float  # a float is no bool: the common case skips the call
    if not exact:
        check_real(value, what)
    try:
        ok = math.isfinite(value) and value >= 0.0
    except OverflowError:  # an int or a Fraction past the largest double
        ok = False
    if not ok:
        raise ValueError(f"{what} must be finite and nonnegative, got {value}")
    return value if exact else float(value)


# A computed probability further than this outside [0, 1] means the
# alternating sum lost too much precision to trust.
_EXCURSION_TOL = 1e-10


def clamp_probability(value: float) -> float:
    """Clamp a computed probability onto [0, 1], raising on a larger excursion."""
    if not math.isfinite(value):
        raise NumericalInstabilityError(f"probability evaluated to {value}")
    if value < -_EXCURSION_TOL or value > 1.0 + _EXCURSION_TOL:
        raise NumericalInstabilityError(
            f"probability {value!r} is outside [0, 1] by more than {_EXCURSION_TOL}"
        )
    return min(1.0, max(0.0, value))


def check_efficiency(eta: float) -> float:
    """A detector efficiency in [0, 1], and not a bool."""
    check_real(eta, "efficiency")
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    return eta


def check_integer(value, what: str) -> None:
    """A count: any value ``operator.index`` accepts, except a bool."""
    if type(value) is int:  # an int is no bool: the common case skips the rest
        return
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_coordinates(q) -> np.ndarray:
    """Phase-space coordinates ``q``, a number or a sequence of them, as a 1-D float array.

    Each must be finite and not a bool; ``None`` converts to NaN and is rejected with it.
    """
    items = q if isinstance(q, (list, tuple)) else [q]
    if np.asarray(q).dtype == bool or any(isinstance(v, (bool, np.bool_)) for v in items):
        raise ValueError(f"q must be a real number, got {q!r}")
    values = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.isfinite(values).all():
        raise ValueError(f"q must be finite, got {q!r}")
    return values


def check_count(value, what: str) -> int:
    """A nonnegative integer: a truncation level or a click count."""
    check_integer(value, what)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


def check_outcome(detectors: int, clicks: int) -> int:
    """An outcome of an N-detector multiplex: integers N >= 1 and 0 <= k <= min(N, 64).

    N and C(N, k) must not exceed the largest double: the closed forms read
    both as doubles.  Returns C(N, k), the outcome's prefactor.
    """
    check_integer(detectors, "detector count")
    check_integer(clicks, "click count")
    if detectors < 1:
        raise ValueError(f"need at least one detector, got {detectors}")
    if detectors > sys.float_info.max:  # only a Python int gets here
        raise ValueError("detector count must not exceed the largest double, got an integer "
                         f"of {detectors.bit_length()} bits")
    if not (0 <= clicks <= detectors):
        raise ValueError(f"clicks must lie in [0, {detectors}], got {clicks}")
    if clicks > MAX_ALTERNATING_TERMS:
        raise ValueError(
            f"click counts beyond {MAX_ALTERNATING_TERMS} exceed the stable "
            f"alternating-sum range, got {clicks}"
        )
    combinations = math.comb(detectors, clicks)
    if combinations > sys.float_info.max:  # int against float: an exact comparison
        raise ValueError(f"C(N, k) must not exceed the largest double, got an integer of "
                         f"{combinations.bit_length()} bits at k = {clicks}")
    return combinations


def expansion_terms(detectors: int, clicks: int, efficiency: float) -> tuple[list, list]:
    """Signed binomials C(k,l) (-1)^(k-l) as floats and scales s_l = eta (N - l) / N, l <= k,
    of the expansion Pr_{N,k} = C(N,k) sum_l C(k,l) (-1)^(k-l) <:exp(-s_l n):>."""
    signs = [float(math.comb(clicks, l) * (-1) ** (clicks - l)) for l in range(clicks + 1)]
    return signs, [efficiency * (detectors - l) / detectors for l in range(clicks + 1)]


@dataclass(frozen=True)
class SignedThermalMixture:
    """Affine combination ``sum_i weights[i] * varrho[means[i]]`` of thermal states.

    Weights may be negative but must sum to one; the combination must still
    describe a valid density matrix, which is spot-checked through the
    photon-number distribution on construction.  Weights and means are
    stored as tuples of floats, whatever sequences of numbers they came in.
    """

    weights: tuple[float, ...]
    means: tuple[float, ...]

    def __post_init__(self):
        checked, = checked_mixtures([(self.weights, self.means)])
        object.__setattr__(self, "weights", checked.weights)
        object.__setattr__(self, "means", checked.means)

    @classmethod
    def thermal(cls, mean: float) -> "SignedThermalMixture":
        return cls((1.0,), (check_mean(mean, "thermal mean"),))


def checked_mixtures(rows) -> list[SignedThermalMixture]:
    """One mixture per ``(weights, means)`` pair of ``rows``, checked in one pass.

    Each row gets the cheap checks in order (components, real and finite
    weights, ``check_mean``, trace) and is kept as tuples of floats; every
    ``_CHECK_BLOCK_ROWS`` rows are then scanned together for p_n >= -tolerance
    on levels 0 .. PHYSICALITY_CHECK_LEVELS, in doubles wherever a rounding
    bound decides a level and in longdouble where it does not (``_scanned``).
    ``rows`` may be a generator that raises.  When it or a cheap check raises,
    the rows before are scanned first, so the error is the one the first
    failing row raises alone.
    """
    mixtures, block = [], []
    try:
        for weights, means in rows:
            block.append(_checked_row(tuple(weights), tuple(means)))
            if len(block) == _CHECK_BLOCK_ROWS:
                full, block = block, []
                mixtures += _scanned(full)
    except Exception:
        _scanned(block)
        raise
    return mixtures + _scanned(block)


def _checked_row(weights: tuple, means: tuple) -> tuple:
    """Check one row's components and trace; return its weights, means and p_n tolerance.

    Weights and means that are not all floats are returned as floats.
    """
    if not weights:
        raise ValueError("a mixture needs at least one component")
    if len(weights) != len(means):
        raise ValueError(f"{len(weights)} weights but {len(means)} means")
    floats = True
    for weight, mean in zip(weights, means):
        if type(weight) is not float:  # a float is no bool: the common case skips the call
            check_real(weight, "component weight")
            floats = False
        try:
            finite = math.isfinite(weight)
        except OverflowError:  # an int or a Fraction past the largest double
            finite = False
        if not finite:
            shown = f"an integer of {weight.bit_length()} bits" if isinstance(weight, int) else weight
            raise ValueError(f"component weight must be finite, got {shown}")
        if not (type(mean) is float and 0.0 <= mean < math.inf):  # the common case skips the call
            check_mean(mean, "thermal mean")
            floats = False
    if not floats:
        weights, means = tuple(map(float, weights)), tuple(map(float, means))
    scale = math.fsum(map(abs, weights))
    trace = math.fsum(weights)
    trace_bound = _TRACE_TOL_FLOOR + _TRACE_TOL_PER_WEIGHT * scale
    if abs(trace - 1.0) > trace_bound:
        raise ValueError(f"mixture trace {trace!r} deviates from 1 beyond {trace_bound}")
    return weights, means, _PHYSICALITY_TOL_FLOOR + _PHYSICALITY_TOL_PER_WEIGHT * scale


def _scanned(block) -> list[SignedThermalMixture]:
    """The mixtures of ``(weights, means, tolerance)`` rows whose p_n all pass the scan.

    Rows are padded to the widest with weight-0, mean-0 components, whose
    running product is [1, 0, ...]: each adds exactly zero to every p_n.  A
    doubles pass reads every level, the weights stacked as [w, |w|] so that
    the same running products give p_n and S_n = sum_l |w_l| a_l r_l^n.  A
    level is decided, passed by every evaluation, when p_n + tolerance (summed
    first, so the subnormal term survives) exceeds twice the doubles and the
    longdouble ``_rounding_error``; the 2 covers rounding.  A NaN or an inf
    leaves it open.  Open rows are read again in longdouble up to the block's
    last open level; a failing row's minimum is open, so that pass alone fails it.
    """
    if not block:
        return []
    width = max(len(weights) for weights, _, _ in block)
    stacked = np.empty((2, len(block), width))
    weights, sizes = stacked
    weights[...] = [w + (0.0,) * (width - len(w)) for w, _, _ in block]
    np.abs(weights, out=sizes)
    means = np.array([m + (0.0,) * (width - len(m)) for _, m, _ in block], dtype=float)
    relative, absolute = _rounding_error(width, np.float64, np.longdouble)
    tols = np.array([tol for _, _, tol in block])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        probs, sums = _mixture_distribution(stacked, means, PHYSICALITY_CHECK_LEVELS, np.float64)
        floors = 2 * absolute * (1.0 + sizes.sum(axis=-1, keepdims=True))
        decided = probs + tols - 2 * relative * sums > floors
    minima = {}
    if not decided.all():
        reread = np.flatnonzero(~decided.all(axis=-1))
        last = np.flatnonzero(~decided.all(axis=0))[-1]
        probs = _mixture_distribution(weights[reread], means[reread], last)
        minima = dict(zip(reread.tolist(), probs.min(axis=-1).astype(float).tolist()))
    mixtures = []
    for row, (weights, means, tol) in enumerate(block):
        if row in minima and not (minima[row] >= -tol):  # a NaN p_n fails too
            raise ValueError(
                f"mixture is unphysical: p_n reaches {minima[row]:.3e} (tolerance {tol:.1e})"
            )
        mixture = object.__new__(SignedThermalMixture)
        object.__setattr__(mixture, "weights", weights)
        object.__setattr__(mixture, "means", means)
        mixtures.append(mixture)
    return mixtures


@functools.cache
def _rounding_error(width: int, *dtypes) -> tuple[np.ndarray, float]:
    """``(gamma_K, K tiny)`` of the scanned p_n of width-W rows, summed over ``dtypes``.

    In ``_mixture_distribution`` a_l r_l^n is 1/(1+m_l) (two roundings) times
    n factors m_l/(1+m_l) (three each); weighting and summing W components,
    in any order, with or without FMA, adds at most W.  So with K = 3n + W + 2
    and unit roundoff u, |p_n - exact| <= K u / (1 - K u) S_n + K tiny
    (1 + sum_l |w_l|) (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 3.1 and 4.2), tiny the smallest subnormal, here at the last K.
    """
    relative = absolute = 0
    for info in map(np.finfo, dtypes):
        roundings = 3 * np.arange(PHYSICALITY_CHECK_LEVELS + 1, dtype=info.dtype) + width + 2
        unit = roundings * (info.eps / 2)
        relative = relative + unit / (1 - unit)
        absolute = absolute + roundings[-1] * info.smallest_subnormal
    return relative.astype(float), float(absolute)


@dataclass(frozen=True)
class DisplacedThermal:
    """Coherent signal of mean |beta|^2 photons on top of a thermal background.

    Both means are stored as floats, whatever numbers they came in.
    """

    coherent_mean: float
    thermal_mean: float

    def __post_init__(self):
        object.__setattr__(self, "coherent_mean", check_mean(self.coherent_mean, "coherent mean"))
        object.__setattr__(self, "thermal_mean", check_mean(self.thermal_mean, "thermal mean"))


class HeraldedState(NamedTuple):
    """A conditioned signal state together with the probability of heralding it."""

    state: SignedThermalMixture
    herald_probability: float


def tmsv_marginal(nbar: float) -> SignedThermalMixture:
    """Signal (or idler) mode of the TMSV observed alone: thermal with mean nbar."""
    return SignedThermalMixture.thermal(check_mean(nbar, "mean photon number"))


def herald_state(nbar: float, efficiency: float, detectors: int, clicks: int) -> HeraldedState:
    """Signal state conditioned on k clicks from an N-detector idler multiplex.

    The conditioned state is an exact signed mixture of ``clicks + 1`` thermal
    states.  Measuring the idler with the no-click operator of strength
    s_l = eta*(1 - l/N) reshapes the signal thermal mean to
    mean_l = (nbar - nbar*s_l) / (1 + nbar*s_l), and component l has that mean
    and weight proportional to ``C(k, l) * (-1)^(k-l) * (1 + mean_l)``.  The
    normalization of those weights also fixes the heralding probability,
    ``Pr_{N,k} = C(N,k) * sum_of_terms / (1 + nbar)``, which equals the click
    probability of an N-multiplex observing the thermal idler directly.
    """
    return herald_states([nbar], efficiency, detectors, clicks)[0]


def herald_states(nbars, efficiency: float, detectors: int, clicks: int) -> list[HeraldedState]:
    """``herald_state`` at each mean of ``nbars``, with the mixtures checked together.

    The column's scales s_l, signed binomials and C(N, k) are computed once,
    after its first mean passes ``check_mean``.  Each row is computed on the
    mean as a double.  A row whose mean is negative (``_mean_is_negative``)
    raises ``NumericalInstabilityError``.  A failing grid raises the error its
    first failing mean raises alone.
    """
    probabilities = []

    def rows():
        scales = None
        for nbar in nbars:
            x = check_mean(nbar, "mean photon number")
            if scales is None:
                check_efficiency(efficiency)
                combinations = check_outcome(detectors, clicks)
                signs, scales = expansion_terms(detectors, clicks, efficiency)
            means = [(x - x * s) / (1.0 + x * s) for s in scales]
            terms = [sign * (1.0 + mean) for sign, mean in zip(signs, means)]
            denom = math.fsum(terms)
            if abs(denom) < 1e-300:
                raise DegenerateHeraldingError(
                    f"herald normalization vanished for nbar={nbar}, eta={efficiency}, "
                    f"N={detectors}, k={clicks}"
                )
            weights = [t / denom for t in terms]
            _absorb_residual(weights)
            probabilities.append(clamp_probability(combinations * denom / (1.0 + x)))
            if _mean_is_negative(weights, means):
                raise NumericalInstabilityError(
                    f"herald mean {math.fsum(map(operator.mul, weights, means))!r} is negative "
                    f"for nbar={nbar}, eta={efficiency}, N={detectors}, k={clicks}"
                )
            yield tuple(weights), tuple(means)

    return list(map(HeraldedState, checked_mixtures(rows()), probabilities))


def _mean_is_negative(weights: list, means: list) -> bool:
    """Whether the mean sum_l w_l m_l of a row of doubles is negative, evaluated exactly.

    A true herald mean is nonnegative; a negative one is cancellation in the
    weights.  Each product rounds by at most 2^-53 of itself (2^-1075 when
    subnormal) and ``math.fsum`` rounds the sum once, so a rounded mean above
    twice that bound is positive.  A mean at or below it is summed again in
    integers, each double as its exact multiple of 2^-1074, so the exact 0.0
    mean of a k = 0 herald at eta 1 passes.
    """
    products = list(map(operator.mul, weights, means))
    bound = 2.0 ** -52 * math.fsum(map(abs, products)) + len(products) * 2.0 ** -1074
    if math.fsum(products) > bound:
        return False

    def units(x: float) -> int:
        numerator, denominator = x.as_integer_ratio()  # the denominator is a power of 2
        return (numerator << 1074) // denominator

    return sum(units(w) * units(m) for w, m in zip(weights, means)) < 0


def _absorb_residual(weights: list) -> None:
    """Absorb the division-rounding residual into the smallest-magnitude weight, in place.

    One ulp is finest there, so the stored trace is exactly one whenever
    doubles permit.
    """
    j = min(range(len(weights)), key=list(map(abs, weights)).__getitem__)
    for _ in range(4):
        residual = math.fsum(weights) - 1.0
        if residual == 0.0:
            break
        adjusted = weights[j] - residual
        if adjusted == weights[j]:
            break
        weights[j] = adjusted


def mean_photon(state) -> float:
    """First moment of the photon number operator."""
    if isinstance(state, SignedThermalMixture):
        return math.fsum(w * m for w, m in zip(state.weights, state.means))
    if isinstance(state, DisplacedThermal):
        return state.coherent_mean + state.thermal_mean
    raise TypeError(f"mean_photon undefined for {type(state).__name__}")


def _mixture_distribution(weights, means, n_max: int, dtype=np.longdouble) -> np.ndarray:
    """p_0 .. p_{n_max} of sum_i w_i m_i^n / (1 + m_i)^(n+1), evaluated in ``dtype``.

    Near-degenerate heralds carry weights of magnitude ~1e7 whose signed sum
    must cancel to ~1e-12 absolute, hence longdouble unless doubles are shown
    enough.  Each component is a running product, 1/(1+m) times n factors
    m/(1+m); a vacuum component is [1, 0, ...].  Leading axes are rows of
    mixtures, each computed as a row alone is; ``weights`` may lead with one
    more, weightings of the same products.  Entries are read as doubles.
    """
    m = np.asarray(means, dtype=float).astype(dtype, copy=False)[..., None]
    total = 1.0 + m
    comp = np.repeat(m / total, n_max + 1, axis=-1)
    comp[..., :1] = 1.0 / total
    np.multiply.accumulate(comp, axis=-1, out=comp)
    weights = np.asarray(weights, dtype=float).astype(dtype, copy=False)
    return (weights[..., None, :] @ comp)[..., 0, :]


def photon_number_distribution(state, n_max: int) -> np.ndarray:
    """Photon-number probabilities p_0 .. p_{n_max}.

    Only signed thermal mixtures have a closed form here; displaced thermal
    distributions live in the oracle's Fock construction.
    """
    check_count(n_max, "n_max")
    if isinstance(state, DisplacedThermal):
        raise TypeError(
            "displaced thermal photon distributions are computed by "
            "oracle.displaced_thermal_diag"
        )
    if not isinstance(state, SignedThermalMixture):
        raise TypeError(f"no distribution for {type(state).__name__}")
    return _mixture_distribution(state.weights, state.means, n_max).astype(float)


def wigner_slice(state, q_grid) -> np.ndarray:
    """W(q, 0) for a signed thermal mixture.

    Convention: W_vac(q, p) = exp(-q^2 - p^2) / pi, so a thermal component of
    mean m contributes w * exp(-q^2 / (2m + 1)) / (pi * (2m + 1)) and the full
    2-D integral of each component equals its weight.  Each exp is libm's, so
    the slice does not depend on numpy's SIMD level.
    """
    if not isinstance(state, SignedThermalMixture):
        raise TypeError("wigner_slice is defined for signed thermal mixtures")
    q = check_coordinates(q_grid)
    for mean in state.means:
        if not math.isfinite(math.pi * (2.0 * mean + 1.0)):
            raise ValueError(f"Wigner norm pi * (2m + 1) is not finite at thermal mean m = {mean!r}")
    widths = 2.0 * np.array(state.means) + 1.0
    # q^2 overflows to inf at |q| beyond about 1e154, and exp(-inf) is the limit, 0.
    with np.errstate(over="ignore"):
        exponents = -np.square(q)[None, :] / widths[:, None]
    gauss = np.array([list(map(math.exp, row)) for row in exponents.tolist()])
    return (np.array(state.weights) / (np.pi * widths)) @ gauss
