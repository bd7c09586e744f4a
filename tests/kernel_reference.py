"""Whole-grid references for the oracle's loss and amplifier kernels.

These evaluate each kernel's entry formula over the full ``(rows, cols)``
grid in one pass, where ``qillum.oracle`` fills a block of rows at a time.
Both routes apply the same operations to the same inputs at every entry, so
the tables must be equal bit for bit.
"""

import math

import numpy as np

from qillum.oracle import _log_factorial


def loss_kernel(transmission: float, rows: int, cols: int) -> np.ndarray:
    """Binomial-thinning kernel of the pure-loss channel: out j from in n."""
    if transmission == 1.0:
        return np.eye(rows, cols)
    if transmission == 0.0:
        kernel = np.zeros((rows, cols))
        kernel[0, :] = 1.0
        return kernel
    j = np.arange(rows)[:, None]  # output index
    nn = np.arange(cols)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_binom = _log_factorial(nn) - _log_factorial(j) - _log_factorial(nn - j)
        log_k = log_binom + j * math.log(transmission) + (nn - j) * math.log1p(-transmission)
        return np.where(j <= nn, np.exp(log_k), 0.0)


def amplifier_kernel(gain: float, rows: int, cols: int) -> np.ndarray:
    """Quantum-limited amplifier kernel: out n from in j."""
    if gain == 1.0:
        return np.eye(rows, cols)
    n = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_binom = _log_factorial(n) - _log_factorial(j) - _log_factorial(n - j)
        log_k = log_binom - (j + 1) * math.log(gain) + (n - j) * math.log1p(-1.0 / gain)
        return np.where(n >= j, np.exp(log_k), 0.0)
