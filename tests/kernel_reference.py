"""References for the oracle's loss and amplifier kernels.

``loss_kernel`` and ``amplifier_kernel`` evaluate each kernel's entry formula
over the full ``(rows, cols)`` grid in one pass, where ``qillum.oracle`` fills
a block of rows at a time.  Both routes apply the same operations to the same
inputs at every entry, so the tables must be equal bit for bit.
``oracle_beamsplitter_unitary`` checks the route the two kernels make
together, ``qillum.oracle.oracle_beamsplitter``, against the literal
two-mode unitary.
"""

import math

import numpy as np

from qillum.channel import TargetChannel
from qillum.oracle import FockVector, _log_factorial


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


def oracle_beamsplitter_unitary(
    signal: FockVector, reflectivity: float, background_mean: float
) -> np.ndarray:
    """Reference for ``oracle_beamsplitter``: the literal two-mode unitary
    U = exp(i theta (a_S^dag a_B + h.c.)), for spot checks at n_max <= 40.

    For each Fock pair |n_S, n_B> the output-mode amplitudes follow from
    expanding (sqrt(k) b1 + sqrt(1-k) b2)^{n_S} (-sqrt(1-k) b1 + sqrt(k) b2)^{n_B},
    i.e. a polynomial convolution; the environment mode is traced out by
    summing squared amplitudes at fixed output photon number.  The rescaled
    background is truncated at the signal's n_max, so the returned raw array
    of entries 0 .. n_max falls short of unit trace by more than ``TRACE_TOL``.
    """
    TargetChannel(reflectivity, background_mean)
    if signal.n_max > 40:
        raise ValueError("the two-mode unitary is meant for spot checks at n_max <= 40")
    kappa = reflectivity
    scaled_bg = background_mean / (1.0 - kappa)
    bg = scaled_bg / (1.0 + scaled_bg)
    bg_probs = bg ** np.arange(signal.n_max + 1) / (1.0 + scaled_bg)
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
        for n_b, p_b in enumerate(bg_probs):
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
    return out[: signal.n_max + 1]
