"""Truncated Fock-space brute force for cross-checking every closed form.

Nothing here reuses the geometric-series shortcuts of the main pipeline: click
probabilities are literal contractions of POVM Fock coefficients against
explicit photon-number vectors, the target channel acts through discrete
loss/amplifier kernels on those vectors (with a full two-mode unitary mode for
spot checks), and Wigner values come from the Laguerre series.  Truncation
adequacy is always self-reported through the trace deficit.

The POVM coefficients and the loss and amplifier kernels are cached by their
physical parameters alone.  This relies on a prefix invariant: coefficient n,
and kernel entry (row, column), depend only on that index and the parameters,
never on the truncation, so the result at any size is the leading block of
the result at a larger size.  Each key holds one read-only array that a
larger request rebuilds and replaces (at the largest size seen per
dimension); every smaller request gets a leading-block view of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import TargetChannel
from .errors import TruncationError
from .povm import povm_fock_diagonal
from .states import check_mean

DEFAULT_TRUNCATION = 160
DEFAULT_TRACE_TOL = 1e-10
_TAIL_TARGET = 1e-13


@dataclass(frozen=True)
class FockVector:
    """Diagonal photon-number probabilities up to a truncation level.

    Every entry must be finite, and the trace deficit (one minus the retained
    mass) is checked on construction; a vector that lost more than
    ``trace_tol`` cannot back a comparison at the oracle's advertised accuracy.
    """

    probs: np.ndarray
    trace_tol: float = field(default=DEFAULT_TRACE_TOL)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("FockVector needs a nonempty 1-D probability array")
        if not np.isfinite(probs).all():
            raise ValueError("non-finite probability in Fock vector")
        if float(probs.min()) < -1e-12:
            raise ValueError(f"negative probability {probs.min():.3e} in Fock vector")
        deficit = self.trace_deficit
        if not deficit <= self.trace_tol:
            raise TruncationError(
                f"trace deficit {deficit:.3e} exceeds tolerance {self.trace_tol:.1e}; "
                f"increase n_max beyond {self.n_max}"
            )

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    @property
    def trace_deficit(self) -> float:
        return 1.0 - math.fsum(self.probs.tolist())


def choose_truncation(mean: float) -> int:
    """Smallest truncation of at least ``DEFAULT_TRUNCATION`` keeping the thermal
    tail (m/(1+m))^n below ``_TAIL_TARGET``.
    """
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean}")
    if mean <= 0.0:
        return DEFAULT_TRUNCATION
    ratio = mean / (1.0 + mean)
    needed = int(math.ceil(math.log(_TAIL_TARGET) / math.log(ratio))) + 2
    return max(DEFAULT_TRUNCATION, needed)


def thermal_diag(mean: float, n_max: int = DEFAULT_TRUNCATION, trace_tol: float = DEFAULT_TRACE_TOL) -> FockVector:
    """Bose-Einstein distribution truncated at n_max."""
    check_mean(mean, "thermal mean")
    n = np.arange(n_max + 1)
    if mean == 0.0:
        probs = np.zeros(n_max + 1)
        probs[0] = 1.0
    else:
        probs = np.exp(n * math.log(mean / (1.0 + mean))) / (1.0 + mean)
    return FockVector(probs, trace_tol)


def poisson_diag(mean: float, n_max: int = DEFAULT_TRUNCATION, trace_tol: float = DEFAULT_TRACE_TOL) -> FockVector:
    """Poisson distribution (coherent-state photon statistics) truncated at n_max."""
    check_mean(mean, "coherent mean")
    n = np.arange(n_max + 1)
    if mean == 0.0:
        probs = np.zeros(n_max + 1)
        probs[0] = 1.0
    else:
        probs = np.exp(n * math.log(mean) - mean - _log_factorial(n))
    return FockVector(probs, trace_tol)


def fock_diag(level: int, n_max: int = DEFAULT_TRUNCATION) -> FockVector:
    """Number state |level><level| as a diagonal vector."""
    if not (0 <= level <= n_max):
        raise ValueError(f"level must lie in [0, {n_max}], got {level}")
    probs = np.zeros(n_max + 1)
    probs[level] = 1.0
    return FockVector(probs)


# log(n!) for 0 <= n < size, from math.lgamma; grown like the caches below,
# never shrunk or rewritten.
_log_factorials = np.zeros(1)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """log(n!) of an integer array, inf where n < 0 (the poles of lgamma(n + 1))."""
    global _log_factorials
    table = _log_factorials
    top = int(n.max(initial=0))
    if top >= table.size:
        grown = [math.lgamma(k + 1.0) for k in range(table.size, top + 1)]
        table = np.concatenate([table, grown])
        table.setflags(write=False)
        _log_factorials = table
    return np.where(n >= 0, table.take(np.maximum(n, 0)), np.inf)


_coeff_cache: dict = {}


def _povm_coeffs(detectors: int, clicks: int, efficiency: float, n_max: int) -> np.ndarray:
    key = (detectors, clicks, float(efficiency))
    coeffs = _coeff_cache.get(key)
    if coeffs is None or not 0 <= n_max < coeffs.size:
        coeffs = povm_fock_diagonal(detectors, clicks, efficiency, n_max)
        coeffs.setflags(write=False)
        _coeff_cache[key] = coeffs
    return coeffs[: n_max + 1]


def oracle_click_prob(detectors: int, clicks: int, efficiency: float, diag: FockVector) -> float:
    """Click probability as an explicit sum of Fock coefficients times p_n."""
    coeffs = _povm_coeffs(detectors, clicks, efficiency, diag.n_max)
    return math.fsum((coeffs * diag.probs).tolist())


def oracle_herald_state(
    nbar: float,
    efficiency: float,
    detectors: int,
    clicks: int,
    n_max: int = DEFAULT_TRUNCATION,
) -> FockVector:
    """Heralded signal distribution by direct summation over the TMSV Schmidt weights.

    The two-mode squeezed vacuum is perfectly photon-number correlated, so the
    idler POVM coefficient at n multiplies the joint weight at |n, n> and the
    normalized remainder is the conditioned signal distribution.
    """
    schmidt = thermal_diag(nbar, n_max)
    coeffs = _povm_coeffs(detectors, clicks, efficiency, n_max)
    unnorm = coeffs * schmidt.probs
    weight = math.fsum(unnorm.tolist())
    if weight <= 0.0:
        raise TruncationError(
            f"herald weight {weight!r} is not positive; outcome unreachable or truncated away"
        )
    return FockVector(unnorm / weight)


_kernel_cache: dict = {}


def _loss_kernel(transmission: float, n_in: int) -> np.ndarray:
    """Binomial-thinning kernel of the pure-loss channel: out j from in n."""
    key = ("loss", float(transmission))
    kernel = _kernel_cache.get(key)
    if kernel is None or kernel.shape[0] <= n_in:
        n = np.arange(n_in + 1)
        j = n[:, None]  # output index
        nn = n[None, :]
        if transmission == 1.0:
            kernel = np.eye(n_in + 1)
        elif transmission == 0.0:
            kernel = np.zeros((n_in + 1, n_in + 1))
            kernel[0, :] = 1.0
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                log_binom = _log_factorial(nn) - _log_factorial(j) - _log_factorial(nn - j)
                log_k = log_binom + j * math.log(transmission) + (nn - j) * math.log1p(-transmission)
                kernel = np.where(j <= nn, np.exp(log_k), 0.0)
        kernel.setflags(write=False)
        _kernel_cache[key] = kernel
    return kernel[: n_in + 1, : n_in + 1]


def _amplifier_kernel(gain: float, n_in: int, n_out: int) -> np.ndarray:
    """Quantum-limited amplifier kernel on Fock diagonals.

    P(n | j) = C(n, j) (1/G)^(j+1) (1 - 1/G)^(n-j) for n >= j; the vacuum
    column reproduces a thermal state of mean G - 1.
    """
    if gain < 1.0:
        raise ValueError(f"amplifier gain must be >= 1, got {gain}")
    key = ("amp", float(gain))
    kernel = _kernel_cache.get(key)
    if kernel is None or kernel.shape[0] <= n_out or kernel.shape[1] <= n_in:
        rows, cols = n_out + 1, n_in + 1
        if kernel is not None:
            rows, cols = max(rows, kernel.shape[0]), max(cols, kernel.shape[1])
        n = np.arange(rows)[:, None]
        j = np.arange(cols)[None, :]
        if gain == 1.0:
            kernel = np.eye(rows, cols)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                log_binom = _log_factorial(n) - _log_factorial(j) - _log_factorial(n - j)
                log_k = log_binom - (j + 1) * math.log(gain) + (n - j) * math.log1p(-1.0 / gain)
                kernel = np.where(n >= j, np.exp(log_k), 0.0)
        kernel.setflags(write=False)
        _kernel_cache[key] = kernel
    return kernel[: n_out + 1, : n_in + 1]


def displaced_thermal_diag(
    coherent_mean: float,
    thermal_mean: float,
    n_max: int = DEFAULT_TRUNCATION,
) -> FockVector:
    """Photon distribution of a displaced thermal state, built through kernels.

    Amplifying a coherent state of mean mu/(1+m) with gain 1+m yields exactly
    the displaced thermal state (coherent part mu, thermal part m); both steps
    have exact Fock-diagonal kernels, so no quadrature is involved.
    """
    check_mean(thermal_mean, "thermal mean")
    if thermal_mean == 0.0:
        return poisson_diag(coherent_mean, n_max)
    gain = 1.0 + thermal_mean
    seed = poisson_diag(coherent_mean / gain, n_max, trace_tol=1.0)
    amp = _amplifier_kernel(gain, n_max, n_max)
    return FockVector(amp @ seed.probs)


def oracle_beamsplitter(
    signal: FockVector,
    reflectivity: float,
    background_mean: float,
    n_max: int | None = None,
    trace_tol: float = DEFAULT_TRACE_TOL,
    full_matrix: bool = False,
) -> FockVector:
    """Return-mode photon distribution after target reflection into background.

    The beamsplitter with the rescaled background nbar_b/(1-kappa) acts on the
    signal as a thermal attenuator, which factors exactly into a pure-loss
    channel of transmission kappa/(1+nbar_b) followed by a quantum-limited
    amplifier of gain 1+nbar_b.  Both factors are positive discrete kernels on
    photon distributions, valid for any phase-insensitive input.

    ``full_matrix=True`` instead builds the literal two-mode unitary matrix
    elements (numerically heavier; intended for spot checks at n_max <= 40).
    """
    TargetChannel(reflectivity, background_mean)
    if n_max is None:
        out_mean = reflectivity * float(np.arange(signal.n_max + 1) @ signal.probs) + background_mean
        n_max = choose_truncation(out_mean)
    if full_matrix:
        return _beamsplitter_full_matrix(signal, reflectivity, background_mean, n_max, trace_tol)
    gain = 1.0 + background_mean
    loss = _loss_kernel(reflectivity / gain, signal.n_max)
    amp = _amplifier_kernel(gain, signal.n_max, n_max)
    return FockVector(amp @ (loss @ signal.probs), trace_tol)


def _beamsplitter_full_matrix(
    signal: FockVector,
    reflectivity: float,
    background_mean: float,
    n_max: int,
    trace_tol: float,
) -> FockVector:
    """Literal two-mode computation: U = exp(i theta (a_S^dag a_B + h.c.)).

    For each Fock pair |n_S, n_B> the output-mode amplitudes follow from
    expanding (sqrt(k) b1 + sqrt(1-k) b2)^{n_S} (-sqrt(1-k) b1 + sqrt(k) b2)^{n_B},
    i.e. a polynomial convolution; the environment mode is traced out by
    summing squared amplitudes at fixed output photon number.
    """
    if signal.n_max > 40:
        raise ValueError("full-matrix mode is meant for spot checks at n_max <= 40")
    kappa = reflectivity
    scaled_bg = background_mean / (1.0 - kappa)
    bg = thermal_diag(scaled_bg, signal.n_max, trace_tol=1.0)
    size = 2 * signal.n_max + 1
    out = np.zeros(size)
    sqrt_k = math.sqrt(kappa)
    sqrt_r = math.sqrt(1.0 - kappa)
    log_fact = _log_factorial(np.arange(size + 1))
    for n_s in range(signal.n_max + 1):
        p_s = signal.probs[n_s]
        if p_s == 0.0:
            continue
        poly_s = np.array(
            [math.comb(n_s, i) * sqrt_k**i * sqrt_r ** (n_s - i) for i in range(n_s + 1)]
        )
        for n_b in range(bg.n_max + 1):
            p_b = bg.probs[n_b]
            if p_b < 1e-18:
                continue
            jj = np.arange(n_b + 1)
            poly_b = np.array(
                [math.comb(n_b, j) * (-sqrt_r) ** j * sqrt_k ** (n_b - j) for j in jj]
            )
            conv = np.convolve(poly_s, poly_b)
            total = n_s + n_b
            n_out = np.arange(total + 1)
            norm = 0.5 * (
                log_fact[n_out] + log_fact[total - n_out] - log_fact[n_s] - log_fact[n_b]
            )
            amps = conv * np.exp(norm)
            out[: total + 1] += p_s * p_b * amps**2
    return FockVector(out[: n_max + 1], trace_tol)


def oracle_wigner(diag: FockVector, q: float) -> float:
    """W(q, 0) from the Laguerre series: pi^-1 sum_n p_n (-1)^n e^{-q^2} L_n(2 q^2).

    The Laguerre polynomials are evaluated by the three-term recurrence.
    Matches the convention W_vac(q, p) = exp(-q^2 - p^2) / pi.
    """
    x = 2.0 * q * q
    n_max = diag.n_max
    values = np.empty(n_max + 1)
    lm1, l0 = 0.0, 1.0
    values[0] = l0
    for n in range(1, n_max + 1):
        lnext = ((2 * n - 1 - x) * l0 - (n - 1) * lm1) / n
        values[n] = lnext
        lm1, l0 = l0, lnext
    signs = np.where(np.arange(n_max + 1) % 2 == 0, 1.0, -1.0)
    series = math.fsum((diag.probs * signs * values).tolist())
    return math.exp(-q * q) * series / math.pi
