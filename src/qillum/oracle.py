"""Truncated Fock-space brute force for cross-checking every closed form.

Nothing here reuses the geometric-series shortcuts of the main pipeline: click
probabilities are literal contractions of POVM Fock coefficients against
explicit photon-number vectors, the target channel acts through discrete
loss/amplifier kernels on those vectors, and Wigner values come from the
Laguerre series.  Every ``FockVector`` checks its trace deficit against the
one tolerance ``TRACE_TOL``.

Every table the oracle reuses (log factorials, a multiplex's POVM
coefficients with a row per outcome, loss and amplifier kernels) sits behind
``_leading_block``, keyed by its physical parameters alone.  This relies on a
prefix invariant: every entry depends only on its indices and the parameters,
so the table at any size is the leading block of the table at a larger size,
and a table that is too small is grown by its missing block: the stored
entries are copied, and only the new ones are computed.  Every 2-D table
(POVM coefficients, loss and amplifier kernels) is filled by ``_filled``, a
block of ``_FILL_ROWS`` rows at a time from its entry rule, so a fill's
scratch space is one block; each entry comes from the same operations as a
whole-grid build.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import TargetChannel
from .errors import TruncationError
from .povm import povm_fock_diagonal
from .states import check_coordinates, check_count, check_efficiency, check_mean, check_outcome

DEFAULT_TRUNCATION = 160
# The most levels choose_truncation returns: a square kernel at this size
# already takes 134 MB, and no caller needs more than 616 (a mean of 20).
MAX_TRUNCATION = 4096
TRACE_TOL = 1e-10
_TAIL_TARGET = 1e-13
# Rows per block when a kernel is filled from its entry formula.
_FILL_ROWS = 32


@dataclass(frozen=True)
class FockVector:
    """Diagonal photon-number probabilities up to a truncation level.

    Every entry must be finite, and the trace deficit (one minus the retained
    mass) is checked on construction; a vector that lost more than
    ``TRACE_TOL`` cannot back a comparison at the oracle's advertised accuracy.
    """

    probs: np.ndarray

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
        if not deficit <= TRACE_TOL:
            raise TruncationError(
                f"trace deficit {deficit:.3e} exceeds tolerance {TRACE_TOL:.1e}; "
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

    A mean that needs more than ``MAX_TRUNCATION`` levels raises
    ``TruncationError``, as does one whose ratio m/(1+m) rounds to 1 (from
    about 1e16), where no truncation reaches the target.
    """
    if check_mean(mean, "mean") == 0.0:
        return DEFAULT_TRUNCATION
    ratio = mean / (1.0 + mean)
    levels = math.log(_TAIL_TARGET) / math.log(ratio) if ratio < 1.0 else math.inf
    if levels > MAX_TRUNCATION - 2:
        # log1p(1/m) = -log(m/(1+m)) stays positive where the ratio has rounded to 1.
        estimate = math.log(_TAIL_TARGET) / -math.log1p(1.0 / mean)
        raise TruncationError(
            f"mean {mean!r} needs about {estimate:.3g} levels to keep its thermal tail "
            f"below {_TAIL_TARGET:.0e}, beyond the ceiling of {MAX_TRUNCATION}"
        )
    return max(DEFAULT_TRUNCATION, int(math.ceil(levels)) + 2)


def thermal_diag(mean: float, n_max: int = DEFAULT_TRUNCATION) -> FockVector:
    """Bose-Einstein distribution truncated at n_max."""
    check_mean(mean, "thermal mean")
    check_count(n_max, "n_max")
    if mean == 0.0:
        return fock_diag(0, n_max)
    n = np.arange(n_max + 1)
    return FockVector(np.exp(n * math.log(mean / (1.0 + mean))) / (1.0 + mean))


def poisson_diag(mean: float, n_max: int = DEFAULT_TRUNCATION) -> FockVector:
    """Poisson distribution (coherent-state photon statistics) truncated at n_max."""
    check_mean(mean, "coherent mean")
    check_count(n_max, "n_max")
    if mean == 0.0:
        return fock_diag(0, n_max)
    n = np.arange(n_max + 1)
    return FockVector(np.exp(n * math.log(mean) - mean - _log_factorial(n)))


def fock_diag(level: int, n_max: int = DEFAULT_TRUNCATION) -> FockVector:
    """Number state |level><level| as a diagonal vector."""
    if check_count(level, "level") > check_count(n_max, "n_max"):
        raise ValueError(f"level must lie in [0, {n_max}], got {level}")
    probs = np.zeros(n_max + 1)
    probs[level] = 1.0
    return FockVector(probs)


# Key -> one read-only table, grown on each axis to the largest shape requested.
_tables: dict = {}


def _leading_block(key, shape: tuple, fill) -> np.ndarray:
    """The leading ``shape`` block of the table under ``key``.

    When a request exceeds the stored table on some axis, the table is grown
    by its missing block to the largest size seen on each axis, never shrunk:
    the stored table is copied into the leading ``have`` block of the new
    array, and ``fill(table, have)`` writes every entry outside that block
    (all of them on a cold key).  The old and the new table coexist for the
    copy; if ``fill`` raises, the stored table stays.
    """
    table = _tables.get(key)
    have = (0,) * len(shape) if table is None else table.shape
    if table is None or not all(map(operator.le, shape, have)):
        grown = np.empty(tuple(map(max, shape, have)))
        if table is not None:
            grown[tuple(map(slice, have))] = table
        fill(grown, have)
        grown.setflags(write=False)
        _tables[key] = table = grown
    return table[tuple(map(slice, shape))]


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """log(n!) of an integer array from ``math.lgamma``, inf where n < 0 (its poles)."""

    def fill(table, have):
        table[have[0]:] = [math.lgamma(k + 1.0) for k in range(have[0], table.size)]

    table = _leading_block(("log_factorial",), (int(n.max(initial=0)) + 1,), fill)
    return np.where(n >= 0, table.take(np.maximum(n, 0)), np.inf)


def _povm_table(detectors: int, clicks: int, efficiency: float, n_max: int) -> np.ndarray:
    """POVM coefficients at n <= n_max of the outcomes k <= clicks, one row each; rows
    above ``clicks`` are not built, so an unstable row (N = 32, eta 0.9) fails no lower one.
    New columns are sliced from rows built at the new width, whose leading entries
    are the old ones (tests/test_povm.py), so the first row to raise is a cold build's."""
    # The key cannot tell 2.0 from 2, so the inputs are checked on every call, not on a miss.
    check_outcome(detectors, clicks)
    check_efficiency(efficiency)

    def entry(k, n):  # outcome k, photon number n: each row's powers from the whole grid
        return [povm_fock_diagonal(detectors, row, efficiency, int(n[0, -1]))[n[0]]
                for row in k.ravel().tolist()]

    return _leading_block(("povm", detectors, float(efficiency)), (clicks + 1, n_max + 1),
                          lambda table, have: _filled(table, have, entry))


def oracle_click_prob(detectors: int, clicks: int, efficiency: float, diag: FockVector) -> float:
    """Click probability as an explicit sum of Fock coefficients times p_n."""
    coeffs = _povm_table(detectors, clicks, efficiency, diag.n_max)[clicks]
    return math.fsum((coeffs * diag.probs).tolist())


def oracle_click_distribution(detectors: int, efficiency: float, diag: FockVector) -> list[float]:
    """``oracle_click_prob`` at every outcome k = 0 .. N, from one product with the POVM table."""
    table = _povm_table(detectors, detectors, efficiency, diag.n_max)
    return [math.fsum(row) for row in (table * diag.probs).tolist()]


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
    coeffs = _povm_table(detectors, clicks, efficiency, n_max)[clicks]
    unnorm = coeffs * schmidt.probs
    weight = math.fsum(unnorm.tolist())
    if weight <= 0.0:
        raise TruncationError(
            f"herald weight {weight!r} is not positive; outcome unreachable or truncated away"
        )
    return FockVector(unnorm / weight)


def _filled(table: np.ndarray, have: tuple, entry) -> None:
    """Write ``entry(i, j)`` into every entry of ``table`` outside its leading ``have`` block.

    The new columns of the old rows are filled first, then the new rows at
    every column, ``_FILL_ROWS`` rows at a time, so rows are filled in
    increasing order whatever the growth.  ``entry`` maps a column of row
    indices and a row of column indices to the entries they span.  Only one
    block's temporaries are alive at once, and each entry comes from the same
    operations on the same inputs as a whole-grid build, so the table is
    bit-identical to one.
    """
    rows, cols = table.shape
    # Every entry formula reads log factorials up to this index; growing that
    # table once here spares a regrowth per block.
    _log_factorial(np.array([max(rows, cols) - 1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for first, last, left in ((0, have[0], have[1]), (have[0], rows, 0)):
            if left == cols:
                continue
            j = np.arange(left, cols)[None, :]
            for start in range(first, last, _FILL_ROWS):
                stop = min(start + _FILL_ROWS, last)
                table[start:stop, left:] = entry(np.arange(start, stop)[:, None], j)


def _loss_kernel(transmission: float, n_in: int) -> np.ndarray:
    """Binomial-thinning kernel of the pure-loss channel: out j from in n."""

    def entry(j, nn):  # output index j, input index nn
        if transmission == 1.0:
            return np.where(j == nn, 1.0, 0.0)
        if transmission == 0.0:
            return np.where(j == 0, 1.0, 0.0)
        log_binom = _log_factorial(nn) - _log_factorial(j) - _log_factorial(nn - j)
        log_k = log_binom + j * math.log(transmission) + (nn - j) * math.log1p(-transmission)
        return np.where(j <= nn, np.exp(log_k), 0.0)

    return _leading_block(("loss", float(transmission)), (n_in + 1, n_in + 1),
                          lambda table, have: _filled(table, have, entry))


def _amplifier_kernel(gain: float, n_in: int, n_out: int) -> np.ndarray:
    """Quantum-limited amplifier kernel on Fock diagonals.

    P(n | j) = C(n, j) (1/G)^(j+1) (1 - 1/G)^(n-j) for n >= j; the vacuum
    column reproduces a thermal state of mean G - 1.
    """
    if gain < 1.0:
        raise ValueError(f"amplifier gain must be >= 1, got {gain}")

    def entry(n, j):  # output index n, input index j
        if gain == 1.0:
            return np.where(n == j, 1.0, 0.0)
        log_binom = _log_factorial(n) - _log_factorial(j) - _log_factorial(n - j)
        log_k = log_binom - (j + 1) * math.log(gain) + (n - j) * math.log1p(-1.0 / gain)
        return np.where(n >= j, np.exp(log_k), 0.0)

    return _leading_block(("amp", float(gain)), (n_out + 1, n_in + 1),
                          lambda table, have: _filled(table, have, entry))


def displaced_thermal_diag(
    coherent_mean: float,
    thermal_mean: float,
    n_max: int = DEFAULT_TRUNCATION,
) -> FockVector:
    """Photon distribution of a displaced thermal state, built through kernels.

    Amplifying a coherent state of mean mu/(1+m) with gain 1+m yields exactly
    the displaced thermal state (coherent part mu, thermal part m); both steps
    have exact Fock-diagonal kernels, so no quadrature is involved.  The
    truncated amplifier block never adds mass, so the seed's trace deficit is
    at most the output's: checking the seed rejects no output that passes.
    """
    check_mean(thermal_mean, "thermal mean")
    check_mean(coherent_mean, "coherent mean")
    gain = 1.0 + thermal_mean
    seed = poisson_diag(coherent_mean / gain, n_max)
    amp = _amplifier_kernel(gain, n_max, n_max)
    return FockVector(amp @ seed.probs)


def oracle_beamsplitter(signal: FockVector, reflectivity: float, background_mean: float) -> FockVector:
    """Return-mode photon distribution after target reflection into background.

    The beamsplitter with the rescaled background nbar_b/(1-kappa) acts on the
    signal as a thermal attenuator, which factors exactly into a pure-loss
    channel of transmission kappa/(1+nbar_b) followed by a quantum-limited
    amplifier of gain 1+nbar_b.  Both factors are positive discrete kernels on
    photon distributions, valid for any phase-insensitive input.  The output
    is truncated by ``choose_truncation`` at its mean.
    """
    TargetChannel(reflectivity, background_mean)
    out_mean = reflectivity * float(np.arange(signal.n_max + 1) @ signal.probs) + background_mean
    gain = 1.0 + background_mean
    loss = _loss_kernel(reflectivity / gain, signal.n_max)
    # A FockVector may hold entries down to -1e-12, so its mean may dip below zero.
    amp = _amplifier_kernel(gain, signal.n_max, choose_truncation(max(out_mean, 0.0)))
    return FockVector(amp @ (loss @ signal.probs))


def oracle_wigner(diag: FockVector, q: float) -> float:
    """W(q, 0) from the Laguerre series: pi^-1 sum_n p_n (-1)^n e^{-q^2} L_n(2 q^2).

    The Laguerre polynomials are evaluated by the three-term recurrence; a q
    where it overflows raises ``ValueError``.
    Matches the convention W_vac(q, p) = exp(-q^2 - p^2) / pi.
    """
    check_coordinates(q)
    x = 2.0 * q * q
    n_max = diag.n_max
    values = np.empty(n_max + 1)
    lm1, l0 = 0.0, 1.0
    values[0] = l0
    for n in range(1, n_max + 1):
        lnext = ((2 * n - 1 - x) * l0 - (n - 1) * lm1) / n
        values[n] = lnext
        lm1, l0 = l0, lnext
    # Past some q (about 26.6 at 616 levels, 50.4 at 160) the recurrence
    # overflows and then subtracts infinities.
    if not np.isfinite(values).all():
        raise ValueError(f"the Laguerre series at q = {q!r} is not finite for n_max {n_max}")
    signs = np.where(np.arange(n_max + 1) % 2 == 0, 1.0, -1.0)
    series = math.fsum((diag.probs * signs * values).tolist())
    return math.exp(-q * q) * series / math.pi
