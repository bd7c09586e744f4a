"""References for the oracle's kernels, its POVM coefficients and its sweep.

``loss_kernel`` and ``amplifier_kernel`` evaluate each kernel's entry formula
over the full ``(rows, cols)`` grid in one pass, where ``qillum.oracle`` fills
a block of rows at a time.  Both routes apply the same operations to the same
inputs at every entry, so the tables must be equal bit for bit.
``oracle_beamsplitter_unitary`` checks the route the two kernels make
together, ``qillum.oracle.oracle_beamsplitter``, against the literal
two-mode unitary.

``povm_fock_diagonal`` sums and clamps one n at a time, where
``qillum.povm.povm_fock_diagonal`` builds one table of signed powers; the
coefficients must be equal, or both must raise the same error.  ``povm_table``
stacks its rows into the whole table the oracle grows a block at a time.
``end_to_end_clicks`` is the end-to-end verify family one receiver outcome at
a time, where ``qillum.verify`` takes whole click distributions; both must
yield equal ``(error, case)`` pairs in the same order.
"""

import math
from itertools import product

import numpy as np

from qillum import oracle
from qillum.channel import TargetChannel, apply_channel, receiver_click_prob
from qillum.oracle import FockVector, _log_factorial
from qillum.povm import ClickMultiplex
from qillum.states import (check_count, check_efficiency, check_outcome, clamp_probability,
                           herald_state)
from qillum.verify import _outcomes


def povm_fock_diagonal(detector_count: int, clicks: int, efficiency: float, n_max: int) -> np.ndarray:
    """Diagonal Fock coefficients of the k-click POVM element, one n at a time."""
    check_outcome(detector_count, clicks)
    check_efficiency(efficiency)
    check_count(n_max, "n_max")

    prefactor = math.comb(detector_count, clicks)
    signs = [(-1) ** (clicks - l) * math.comb(clicks, l) for l in range(clicks + 1)]
    xs = np.array(
        [1.0 - efficiency * (detector_count - l) / detector_count for l in range(clicks + 1)]
    )
    coeffs = np.zeros(n_max + 1)
    powers = xs[None, :] ** np.arange(n_max + 1)[:, None]
    for n in range(clicks, n_max + 1):
        value = prefactor * math.fsum(s * p for s, p in zip(signs, powers[n]))
        coeffs[n] = clamp_probability(value)
    return coeffs


def povm_table(detector_count: int, efficiency: float, rows: int, cols: int) -> np.ndarray:
    """The oracle's POVM table at ``(rows, cols)``: one ``povm_fock_diagonal`` row per outcome."""
    return np.array([povm_fock_diagonal(detector_count, k, efficiency, cols - 1)
                     for k in range(rows)])


def end_to_end_clicks(s):
    """End-to-end receiver click probabilities: herald -> channel -> receiver."""
    nbars = [nbar for nbar in s.grid.nbars if nbar <= 2.0]
    for nbar, eta, (detectors, clicks) in product(nbars, s.grid.etas, _outcomes(3)):
        trunc = oracle.choose_truncation(nbar)
        diag = oracle.oracle_herald_state(nbar, eta, detectors, clicks, trunc)
        conditioned = herald_state(nbar, eta, detectors, clicks).state
        for kappa, nb in product(s.grid.kappas, s.grid.backgrounds):
            closed_state = apply_channel(TargetChannel(kappa, nb), conditioned)
            brute_out = oracle.oracle_beamsplitter(diag, kappa, nb)
            for n_s, k_s in _outcomes(2):
                closed = receiver_click_prob(ClickMultiplex(n_s, 0.9), k_s, closed_state)
                brute = oracle.oracle_click_prob(n_s, k_s, 0.9, brute_out)
                yield abs(closed - brute), dict(
                    nbar=nbar, eta=eta, detectors=detectors, clicks=clicks, kappa=kappa,
                    nbar_b=nb, receiver_detectors=n_s, receiver_clicks=k_s,
                )


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
