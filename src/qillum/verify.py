"""Oracle equivalence sweep: every closed form against the Fock brute force.

Each check family is a generator of ``(error, case)`` pairs over the parameter
grid; ``FAMILIES`` lists them in report order, and the report keeps the worst
error of each.  The sweep backs the test suite's oracle-equivalence properties
and the CLI ``verify`` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from . import oracle
from .channel import TargetChannel, apply_channel, background_state, channel_images
from .povm import ClickMultiplex, click_distribution, click_probability, normal_ordered_moment
from .states import (
    DisplacedThermal,
    SignedThermalMixture,
    herald_state,
    photon_number_distribution,
    wigner_slice,
)

CLOSED_FORM_TOL = 1e-9
MAX_HERALD_DETECTORS = 4


class Grid(NamedTuple):
    nbars: tuple
    etas: tuple
    kappas: tuple
    backgrounds: tuple


FULL_GRID = Grid((0.1, 1.0, 2.0, 5.0), (0.5, 0.9, 1.0), (0.1, 0.3, 0.8), (0.0, 3.0, 10.0))
QUICK_GRID = Grid((0.1, 1.0), (0.9,), (0.1, 0.8), (0.0, 3.0))


@dataclass(frozen=True)
class CheckResult:
    """Worst deviation of one check family, with the parameters that produced it."""

    name: str
    max_error: float
    tolerance: float
    cases: int
    worst_case: tuple[tuple[str, object], ...]

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def worst_line(self) -> str:
        params = ", ".join(f"{key}={value}" for key, value in self.worst_case)
        return f"worst {self.name}: {params}"


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(
                f"{status}  {c.name}: max |error| = {c.max_error:.3e} "
                f"(tolerance {c.tolerance:.1e}, {c.cases} cases)"
            )
        return out


@dataclass(frozen=True)
class _Sweep:
    """What the families read: the grid and the self-test offset."""

    grid: Grid
    perturbation: float


def _outcomes(max_detectors: int):
    """Every (N, k) outcome of an N-detector multiplex, N = 1 .. max_detectors."""
    return [(n, k) for n in range(1, max_detectors + 1) for k in range(n + 1)]


def _herald_distributions(s: _Sweep):
    """Heralded photon-number distributions vs direct TMSV contraction."""
    for nbar, eta, (detectors, clicks) in product(
        s.grid.nbars, s.grid.etas, _outcomes(MAX_HERALD_DETECTORS)
    ):
        trunc = oracle.choose_truncation(nbar)
        diag = oracle.oracle_herald_state(nbar, eta, detectors, clicks, trunc)
        closed = photon_number_distribution(herald_state(nbar, eta, detectors, clicks).state, trunc)
        error = float(np.abs(closed - diag.probs).max())
        yield error, dict(nbar=nbar, eta=eta, detectors=detectors, clicks=clicks)


def _thermal_clicks(s: _Sweep):
    """Thermal click probabilities vs Fock contraction; the self-test offset lands on the first."""
    offset = s.perturbation
    for nbar in s.grid.nbars:
        diag = oracle.thermal_diag(nbar, oracle.choose_truncation(nbar))
        thermal = SignedThermalMixture.thermal(nbar)
        for eta, (detectors, clicks) in product((0.5, 0.9), _outcomes(MAX_HERALD_DETECTORS)):
            closed = click_probability(ClickMultiplex(detectors, eta), clicks, thermal) + offset
            offset = 0.0
            brute = oracle.oracle_click_prob(detectors, clicks, eta, diag)
            yield abs(closed - brute), dict(nbar=nbar, eta=eta, detectors=detectors, clicks=clicks)


def _channel_thermals(s: _Sweep):
    """Channel action on thermals vs loss/amplifier kernels."""
    for nbar in s.grid.nbars:
        diag = oracle.thermal_diag(nbar, oracle.choose_truncation(nbar))
        thermal = SignedThermalMixture.thermal(nbar)
        for kappa, nb in product(s.grid.kappas, s.grid.backgrounds):
            out = oracle.oracle_beamsplitter(diag, kappa, nb)
            closed_state = apply_channel(TargetChannel(kappa, nb), thermal)
            closed = photon_number_distribution(closed_state, out.n_max)
            yield float(np.abs(closed - out.probs).max()), dict(nbar=nbar, kappa=kappa, nbar_b=nb)


def _displaced_moments(s: _Sweep):
    """Displaced thermal moments vs kernel-built distributions."""
    for mu, kappa, nb in product((0.5, 1.0, 2.0), s.grid.kappas, s.grid.backgrounds):
        returned = apply_channel(TargetChannel(kappa, nb), DisplacedThermal(mu, 0.0))
        diag = oracle.displaced_thermal_diag(
            returned.coherent_mean, returned.thermal_mean, oracle.choose_truncation(mu + nb)
        )
        for eta in (0.5, 0.9):
            closed = normal_ordered_moment(returned, eta)
            brute = oracle.oracle_click_prob(1, 0, eta, diag)
            yield abs(closed - brute), dict(mu=mu, kappa=kappa, nbar_b=nb, eta=eta)


def _end_to_end_clicks(s: _Sweep):
    """End-to-end receiver click distributions: herald -> channel -> receiver."""
    nbars = [nbar for nbar in s.grid.nbars if nbar <= 2.0]
    channels = [TargetChannel(*pair) for pair in product(s.grid.kappas, s.grid.backgrounds)]
    receivers = [ClickMultiplex(n_s, 0.9) for n_s in (1, 2)]
    for nbar, eta, (detectors, clicks) in product(nbars, s.grid.etas, _outcomes(3)):
        trunc = oracle.choose_truncation(nbar)
        diag = oracle.oracle_herald_state(nbar, eta, detectors, clicks, trunc)
        conditioned = herald_state(nbar, eta, detectors, clicks).state
        images = channel_images((channel, conditioned) for channel in channels)
        for channel, closed_state in zip(channels, images):
            kappa, nb = channel.reflectivity, channel.background_mean
            brute_out = oracle.oracle_beamsplitter(diag, kappa, nb)
            for receiver in receivers:
                n_s = receiver.detector_count
                closed = click_distribution(receiver, closed_state).tolist()
                brute = oracle.oracle_click_distribution(n_s, 0.9, brute_out)
                for k_s in range(n_s + 1):
                    yield abs(closed[k_s] - brute[k_s]), dict(
                        nbar=nbar, eta=eta, detectors=detectors, clicks=clicks, kappa=kappa,
                        nbar_b=nb, receiver_detectors=n_s, receiver_clicks=k_s,
                    )


def _wigner_slices(s: _Sweep):
    """Wigner slices vs the Laguerre series."""
    q_points = (0.0, 0.5, 1.0, 2.0)
    for nbar, (detectors, clicks) in product(s.grid.nbars, ((1, 1), (2, 1), (2, 2))):
        trunc = oracle.choose_truncation(nbar)
        diag = oracle.oracle_herald_state(nbar, 0.9, detectors, clicks, trunc)
        closed = wigner_slice(herald_state(nbar, 0.9, detectors, clicks).state, q_points)
        for value, q in zip(closed, q_points):
            yield abs(float(value) - oracle.oracle_wigner(diag, q)), dict(
                nbar=nbar, eta=0.9, detectors=detectors, clicks=clicks, q=q
            )


def _background_clicks(s: _Sweep):
    """H0 receiver statistics against a plain thermal contraction."""
    for nb in s.grid.backgrounds:
        if nb == 0.0:
            continue
        background = background_state(TargetChannel(0.5, nb))
        diag = oracle.thermal_diag(nb, oracle.choose_truncation(nb))
        for n_s, k_s in _outcomes(2):
            closed = click_probability(ClickMultiplex(n_s, 0.9), k_s, background)
            brute = oracle.oracle_click_prob(n_s, k_s, 0.9, diag)
            yield abs(closed - brute), dict(nbar_b=nb, receiver_detectors=n_s, receiver_clicks=k_s)


# Report order, with each family's tolerance as a multiple of the closed-form
# one: the end-to-end and Wigner families chain several closed forms.
FAMILIES = (
    ("herald photon distributions", 1.0, _herald_distributions),
    ("thermal click probabilities", 1.0, _thermal_clicks),
    ("channel thermal transform", 1.0, _channel_thermals),
    ("displaced thermal moments", 1.0, _displaced_moments),
    ("end-to-end receiver clicks", 10.0, _end_to_end_clicks),
    ("wigner slices", 10.0, _wigner_slices),
    ("background receiver clicks", 1.0, _background_clicks),
)


def _worst(name: str, tolerance: float, pairs) -> CheckResult:
    """Reduce a family to its first case with the largest error.

    A NaN error ranks above every number, so it becomes the maximum and fails
    the family instead of being skipped by the comparison.
    """
    max_error, worst, cases = 0.0, None, 0
    for error, case in pairs:
        cases += 1
        if worst is None or (not error <= max_error and not math.isnan(max_error)):
            max_error, worst = error, case
    return CheckResult(name, max_error, tolerance, cases, tuple((worst or {}).items()))


def run_verification(quick: bool = False, perturbation: float = 0.0) -> VerifyReport:
    """Run the equivalence sweep and return a report.

    ``CLOSED_FORM_TOL`` bounds the closed-form families; the chained
    end-to-end and Wigner families get ten times it.  Every oracle vector is
    truncated by ``oracle.choose_truncation`` at its mean.  ``perturbation``
    is added to one closed-form click probability to prove the sweep actually
    detects drift (sensitivity self-test).
    """
    sweep = _Sweep(QUICK_GRID if quick else FULL_GRID, perturbation)
    return VerifyReport(tuple(
        _worst(name, scale * CLOSED_FORM_TOL, family(sweep)) for name, scale, family in FAMILIES
    ))
