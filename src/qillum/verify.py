"""Oracle equivalence sweep: every closed form against the Fock brute force.

The sweep walks the standard parameter grid and reports the worst deviation
per check family.  It backs the test suite's oracle-equivalence properties and
the CLI ``verify`` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .channel import TargetChannel, apply_channel, background_state, receiver_click_prob
from .povm import ClickMultiplex, click_probability, normal_ordered_moment
from .states import (
    DisplacedThermal,
    SignedThermalMixture,
    herald_state,
    photon_number_distribution,
    wigner_slice,
)

CLOSED_FORM_TOL = 1e-9
END_TO_END_TOL = 1e-8
WIGNER_TOL = 1e-8

NBAR_GRID = (0.1, 1.0, 2.0, 5.0)
ETA_GRID = (0.5, 0.9, 1.0)
KAPPA_GRID = (0.1, 0.3, 0.8)
BACKGROUND_GRID = (0.0, 3.0, 10.0)
MAX_HERALD_DETECTORS = 4

QUICK_NBAR_GRID = (0.1, 1.0)
QUICK_ETA_GRID = (0.9,)
QUICK_KAPPA_GRID = (0.1, 0.8)
QUICK_BACKGROUND_GRID = (0.0, 3.0)


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


@dataclass
class _Worst:
    """Running maximum of one family's errors and the first case attaining it.

    A NaN error ranks above every number, so it becomes the maximum and fails
    the family instead of being skipped by the comparison.
    """

    max_error: float = 0.0
    case: dict | None = None
    cases: int = 0

    def add(self, error: float, **case) -> None:
        self.cases += 1
        if self.case is None or (not error <= self.max_error and not math.isnan(self.max_error)):
            self.max_error, self.case = error, case

    def result(self, name: str, tolerance: float) -> CheckResult:
        return CheckResult(
            name, self.max_error, tolerance, self.cases, tuple((self.case or {}).items())
        )


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


def _herald_grid(nbars, etas, max_detectors):
    for nbar in nbars:
        for eta in etas:
            for detectors in range(1, max_detectors + 1):
                for clicks in range(detectors + 1):
                    yield nbar, eta, detectors, clicks


def run_verification(
    closed_tol: float = CLOSED_FORM_TOL,
    end_to_end_tol: float = END_TO_END_TOL,
    wigner_tol: float = WIGNER_TOL,
    quick: bool = False,
    n_max: int | None = None,
    perturbation: float = 0.0,
) -> VerifyReport:
    """Run the full equivalence sweep and return a report.

    ``perturbation`` is added to one closed-form click probability to prove
    the sweep actually detects drift (sensitivity self-test).
    ``n_max`` overrides the adaptive truncation (small values exercise the
    truncation-insufficient path).
    """
    nbars = QUICK_NBAR_GRID if quick else NBAR_GRID
    etas = QUICK_ETA_GRID if quick else ETA_GRID
    kappas = QUICK_KAPPA_GRID if quick else KAPPA_GRID
    backgrounds = QUICK_BACKGROUND_GRID if quick else BACKGROUND_GRID

    def signal_truncation(nbar):
        return n_max if n_max is not None else oracle.choose_truncation(nbar)

    checks = []

    # Heralded photon-number distributions vs direct TMSV contraction.
    worst = _Worst()
    herald_diags = {}
    for nbar, eta, detectors, clicks in _herald_grid(nbars, etas, MAX_HERALD_DETECTORS):
        trunc = signal_truncation(nbar)
        diag = oracle.oracle_herald_state(nbar, eta, detectors, clicks, trunc)
        herald_diags[(nbar, eta, detectors, clicks)] = diag
        closed = photon_number_distribution(
            herald_state(nbar, eta, detectors, clicks), min(60, trunc)
        )
        error = float(np.abs(closed - diag.probs[: closed.size]).max())
        worst.add(error, nbar=nbar, eta=eta, detectors=detectors, clicks=clicks)
    checks.append(worst.result("herald photon distributions", closed_tol))

    # Thermal click probabilities vs Fock contraction.
    worst = _Worst()
    first = True
    for nbar in nbars:
        trunc = signal_truncation(nbar)
        diag = oracle.thermal_diag(nbar, trunc)
        for eta in (0.5, 0.9):
            for detectors in range(1, MAX_HERALD_DETECTORS + 1):
                mux = ClickMultiplex(detectors, eta)
                for clicks in range(detectors + 1):
                    closed = click_probability(mux, clicks, SignedThermalMixture.thermal(nbar))
                    if first:
                        closed += perturbation
                        first = False
                    brute = oracle.oracle_click_prob(detectors, clicks, eta, diag)
                    worst.add(
                        abs(closed - brute), nbar=nbar, eta=eta, detectors=detectors, clicks=clicks
                    )
    checks.append(worst.result("thermal click probabilities", closed_tol))

    # Channel action on thermals vs loss/amplifier kernels.
    worst = _Worst()
    for nbar in nbars:
        trunc = signal_truncation(nbar)
        diag = oracle.thermal_diag(nbar, trunc)
        for kappa in kappas:
            for nb in backgrounds:
                channel = TargetChannel(kappa, nb)
                out = oracle.oracle_beamsplitter(diag, kappa, nb)
                closed_state = apply_channel(channel, SignedThermalMixture.thermal(nbar))
                closed = photon_number_distribution(closed_state, out.n_max)
                error = float(np.abs(closed - out.probs).max())
                worst.add(error, nbar=nbar, kappa=kappa, nbar_b=nb)
    checks.append(worst.result("channel thermal transform", closed_tol))

    # Displaced thermal moments vs kernel-built distributions.
    worst = _Worst()
    for mu in (0.5, 1.0, 2.0):
        for kappa in kappas:
            for nb in backgrounds:
                channel = TargetChannel(kappa, nb)
                returned = apply_channel(channel, DisplacedThermal(mu, 0.0))
                trunc = oracle.choose_truncation(mu + nb) if n_max is None else n_max
                diag = oracle.displaced_thermal_diag(
                    returned.coherent_mean, returned.thermal_mean, trunc
                )
                for eta in (0.5, 0.9):
                    closed = normal_ordered_moment(returned, eta)
                    brute = oracle.oracle_click_prob(1, 0, eta, diag)
                    worst.add(abs(closed - brute), mu=mu, kappa=kappa, nbar_b=nb, eta=eta)
    checks.append(worst.result("displaced thermal moments", closed_tol))

    # End-to-end receiver click probabilities: herald -> channel -> receiver.
    worst = _Worst()
    e2e_nbars = tuple(n for n in nbars if n <= 2.0)
    for nbar in e2e_nbars:
        for eta in etas:
            for detectors in range(1, min(3, MAX_HERALD_DETECTORS) + 1):
                for clicks in range(detectors + 1):
                    key = (nbar, eta, detectors, clicks)
                    diag = herald_diags.get(key)
                    if diag is None:
                        diag = oracle.oracle_herald_state(
                            nbar, eta, detectors, clicks, signal_truncation(nbar)
                        )
                    conditioned = herald_state(nbar, eta, detectors, clicks)
                    for kappa in kappas:
                        for nb in backgrounds:
                            channel = TargetChannel(kappa, nb)
                            closed_state = apply_channel(channel, conditioned)
                            brute_out = oracle.oracle_beamsplitter(diag, kappa, nb)
                            for n_s in (1, 2):
                                receiver = ClickMultiplex(n_s, 0.9)
                                for k_s in range(n_s + 1):
                                    closed = receiver_click_prob(receiver, k_s, closed_state)
                                    brute = oracle.oracle_click_prob(n_s, k_s, 0.9, brute_out)
                                    worst.add(
                                        abs(closed - brute),
                                        nbar=nbar, eta=eta, detectors=detectors, clicks=clicks,
                                        kappa=kappa, nbar_b=nb, receiver_detectors=n_s,
                                        receiver_clicks=k_s,
                                    )
    checks.append(worst.result("end-to-end receiver clicks", end_to_end_tol))

    # Wigner slices vs the Laguerre series.
    worst = _Worst()
    q_points = (0.0, 0.5, 1.0, 2.0)
    for nbar in nbars:
        for eta in (0.9,):
            for detectors, clicks in ((1, 1), (2, 1), (2, 2)):
                key = (nbar, eta, detectors, clicks)
                diag = herald_diags.get(key)
                if diag is None:
                    diag = oracle.oracle_herald_state(
                        nbar, eta, detectors, clicks, signal_truncation(nbar)
                    )
                conditioned = herald_state(nbar, eta, detectors, clicks)
                closed = wigner_slice(conditioned, q_points)
                for i, q in enumerate(q_points):
                    brute = oracle.oracle_wigner(diag, q)
                    worst.add(
                        abs(float(closed[i]) - brute),
                        nbar=nbar, eta=eta, detectors=detectors, clicks=clicks, q=q,
                    )
    checks.append(worst.result("wigner slices", wigner_tol))

    # H0 receiver statistics against a plain thermal contraction.
    worst = _Worst()
    for nb in backgrounds:
        if nb == 0.0:
            continue
        channel = TargetChannel(0.5, nb)
        diag = oracle.thermal_diag(nb, signal_truncation(nb))
        for n_s in (1, 2):
            receiver = ClickMultiplex(n_s, 0.9)
            for k_s in range(n_s + 1):
                closed = receiver_click_prob(receiver, k_s, background_state(channel))
                brute = oracle.oracle_click_prob(n_s, k_s, 0.9, diag)
                worst.add(
                    abs(closed - brute), nbar_b=nb, receiver_detectors=n_s, receiver_clicks=k_s
                )
    checks.append(worst.result("background receiver clicks", closed_tol))

    return VerifyReport(tuple(checks))
