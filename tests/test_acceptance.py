"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
Monte-Carlo criteria share one ensemble cache (seed 7, 12000 trials of 30000
shots each), built in one call with one thread per core; the reproducibility
contract makes it bit-identical to a one-thread build.  Each ensemble is its
mean posterior curve, and a crossing shot is ``first_crossing(curve, thr)``,
as the CLI sidecar reports it.  The module took 48-51 s on a 2-core Xeon VM.

Criterion 4 needs the default 12000 trials.  Its q2_present@0.9 reference
(18092) sits 2.8% above the exact infinite-trial crossing (17590), so little of
the 5% band is left for Monte-Carlo noise: at 3000 trials the mean curve
crosses at 17045, outside the band.  QILLUM_ACCEPTANCE_TRIALS=3000 is a smoke
run for the other criteria only.

Where a criterion cannot be pinned to a published constant, it is checked
against an independent exact reference instead:

- criterion 1 (heralding crossover): the root found through the
  truncated-Fock oracle, which shares no code path with the closed form;
- criterion 6 (target-absent consistency): Bayes' rule, which makes the
  target-absent and target-present mean posteriors sum to one at every shot;
- criterion 7f (heralded Wigner values at the origin): the parity identity
  W(0, 0) = pi^-1 sum_n (-1)^n p_n over the oracle's heralded distribution.

Three constants these criteria once required contradict the model and were
dropped; each test's docstring gives the reason.  They are the crossover at
nbar = 5.4 +/- 0.1 (criterion 1), a target-absent bar of 0.05 at shot 30000
(criterion 6), and Wigner negativity at the origin for the (2, 2) herald
(criterion 7f).
"""

import math
import os

import numpy as np
import pytest
from scipy.optimize import brentq

from qillum.channel import TargetChannel, apply_channel
from qillum.matching import MatchSpec, coherent_click_prob, matched_mean, thermal_click_prob
from qillum.mc import (
    _LOG_RATIO_CLIP,
    SignalKind,
    TrajectoryConfig,
    average_trajectories,
    build_tables,
    first_crossing,
)
from qillum.oracle import choose_truncation, oracle_click_prob, oracle_herald_state, thermal_diag
from qillum.povm import ClickMultiplex, click_distribution, click_probability
from qillum.states import (
    DisplacedThermal,
    SignedThermalMixture,
    fano_factor,
    herald_state,
    mean_photon,
    photon_number_distribution,
    tmsv_marginal,
    wigner_slice,
)
from qillum.verify import run_verification

from fraction_reference import poisson_limit_reference

SEED = 7
TRIALS = int(os.environ.get("QILLUM_ACCEPTANCE_TRIALS", "12000"))
SHOTS = 30_000

# Reference shots at which the ensemble-mean posterior first reaches a
# threshold (criterion 4); criterion 6 checks the target-absent mirror image.
CROSSING_TARGETS = [
    ("q1_present", 0.8, 11166),
    ("coherent_present", 0.8, 21386),
    ("q1_present", 0.9, 21045),
    ("q2_present", 0.9, 18092),
    ("q4_present", 0.9, 15689),
]


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} - {detail}"
    print(line)
    assert passed, line


def base_config(kind, herald_detectors, target_present, nbar=1.0):
    return TrajectoryConfig(
        nbar=nbar,
        herald_efficiency=0.9,
        herald_detectors=herald_detectors,
        receiver_efficiency=0.9,
        receiver_detectors=1,
        reflectivity=0.1,
        background_mean=3.0,
        shots=SHOTS,
        trials=TRIALS,
        seed=SEED,
        signal_kind=kind,
        target_present=target_present,
    )


@pytest.fixture(scope="module")
def ensembles():
    specs = {
        "q1_present": (SignalKind.QUANTUM_HERALDED, 1, True),
        "q2_present": (SignalKind.QUANTUM_HERALDED, 2, True),
        "q4_present": (SignalKind.QUANTUM_HERALDED, 4, True),
        "coherent_present": (SignalKind.COHERENT, 1, True),
        # the heralded probe brightened to the coherent probe's single-click rate
        "matched_q1_present": (SignalKind.QUANTUM_HERALDED, 1, True,
                               matched_mean(MatchSpec(1.0, 0.9))),
        "q1_absent": (SignalKind.QUANTUM_HERALDED, 1, False),
        "q2_absent": (SignalKind.QUANTUM_HERALDED, 2, False),
        "q4_absent": (SignalKind.QUANTUM_HERALDED, 4, False),
        "coherent_absent": (SignalKind.COHERENT, 1, False),
    }
    # The nine ensembles share SEED, TRIALS and SHOTS, so one call draws each
    # trial's uniforms once for all of them.
    configs = [base_config(*spec) for spec in specs.values()]
    curves = average_trajectories(configs, threads=os.cpu_count() or 1)
    return dict(zip(specs, curves))


def test_criterion_1_heralding_crossover():
    """Pr_{4,4}(nbar) = Pr_{2,1}(nbar) at eta = 0.95: the closed-form root is the oracle root.

    Reference: the truncated-Fock oracle.  It contracts the POVM Fock
    coefficients against an explicit Bose-Einstein vector and shares nothing
    with the rational alternating sums of the closed form.  The gap
    Pr_44 - Pr_21 must change sign exactly once in [0.5, 20], from negative to
    positive.  The closed-form root must equal the oracle root within 1e-8,
    and the crossing probability Pr_44 there must equal the oracle's within
    1e-10 (a relative error common to both outcomes leaves the root in place).

    The former requirement, a root at nbar = 5.4 +/- 0.1, was dropped.  Both
    the closed form and the oracle put the root at 4.98012, and a root at 5.4
    needs eta = 0.876.  No nearby reading (other (N, k) pairs, eta squared,
    nbar counted as sinh^2 r) gives 5.4.  PAPER.md holds only the abstract,
    so the repo cannot settle whether the paper's 5.4 comes from another
    efficiency or another detector model.  The line reports that efficiency.
    """
    lo, hi = 0.5, 20.0

    def closed_form(nbar, eta=0.95):
        state = SignedThermalMixture.thermal(nbar)
        return click_probability(ClickMultiplex(4, eta), 4, state), click_probability(
            ClickMultiplex(2, eta), 1, state
        )

    def oracle(nbar):
        diag = thermal_diag(nbar, choose_truncation(nbar))
        return oracle_click_prob(4, 4, 0.95, diag), oracle_click_prob(2, 1, 0.95, diag)

    def gap(nbar, eta=0.95):
        pr44, pr21 = closed_form(nbar, eta)
        return pr44 - pr21

    def oracle_gap(nbar):
        pr44, pr21 = oracle(nbar)
        return pr44 - pr21

    signs = np.sign([gap(x) for x in np.linspace(lo, hi, 80)])
    single_crossing = signs[0] < 0 < signs[-1] and np.count_nonzero(np.diff(signs)) == 1
    root = brentq(gap, lo, hi, xtol=1e-12)
    oracle_root = brentq(oracle_gap, lo, hi, xtol=1e-12)
    pr44_error = abs(closed_form(root)[0] - oracle(root)[0])
    eta_at_5_4 = brentq(lambda eta: gap(5.4, eta), 0.8, 0.95, xtol=1e-10)
    report(
        "1 heralding crossover",
        single_crossing
        and lo < root < hi
        and abs(root - oracle_root) <= 1e-8
        and pr44_error <= 1e-10,
        f"Pr_44 = Pr_21 at nbar = {root:.10f} (closed form), {oracle_root:.10f} "
        f"(Fock oracle), |diff| = {abs(root - oracle_root):.1e}; "
        f"gap({lo}) = {gap(lo):.4f}, gap({hi}) = {gap(hi):.4f}; "
        f"|Pr_44 - oracle| at the root = {pr44_error:.1e}; "
        f"a crossover at nbar = 5.4 would need eta = {eta_at_5_4:.4f}",
    )


def test_criterion_2_unit_efficiency_mean_boost():
    """Heralding one click at unit efficiency raises the mean by exactly one."""
    worst = 0.0
    for nbar in (0.01, 0.1, 1.0, 10.0):
        boost = mean_photon(herald_state(nbar, 1.0, 1, 1).state) - nbar
        worst = max(worst, abs(boost - 1.0))
    report(
        "2 mean boost identity",
        worst < 1e-12,
        f"max |boost - 1| = {worst:.2e} over nbar in {{0.01, 0.1, 1, 10}}",
    )


def test_criterion_3_matching_value():
    """Matched mean at (1, 0.9) is 1.62 +/- 0.005; identity residual < 1e-12."""
    value = matched_mean(MatchSpec(1.0, 0.9))
    residual = 0.0
    for nbar_alpha in np.linspace(0.0, 5.0, 26):
        for eta_e in (0.3, 0.9, 1.0):
            m = matched_mean(MatchSpec(float(nbar_alpha), eta_e))
            residual = max(
                residual,
                abs(thermal_click_prob(m, eta_e) - coherent_click_prob(float(nbar_alpha), eta_e)),
            )
    report(
        "3 matching value",
        abs(value - 1.62) <= 0.005 and residual < 1e-12,
        f"matched_mean(1, 0.9) = {value:.4f}, max identity residual = {residual:.2e}",
    )


def test_criterion_4_trajectory_shot_counts(ensembles):
    """Ensemble-mean crossings match the reference shot counts within 5%."""
    details = []
    ok = True
    for name, threshold, expected in CROSSING_TARGETS:
        got = first_crossing(ensembles[name], threshold)
        within = got is not None and abs(got - expected) <= 0.05 * expected
        ok &= within
        details.append(f"{name}@{threshold}: {got} (target {expected} +/- 5%)")
    report("4 trajectory shot counts", ok, "; ".join(details))


def test_criterion_5_matched_detection_speedup(ensembles):
    """Click-probability matching roughly halves the shots to threshold."""
    unmatched = first_crossing(ensembles["q1_present"], 0.8)
    matched = first_crossing(ensembles["matched_q1_present"], 0.8)
    ok = unmatched is not None and matched is not None
    factor = matched / unmatched if ok else float("nan")
    report(
        "5 matched speedup",
        ok and abs(factor - 0.5) <= 0.10,
        f"matched/unmatched crossing = {matched}/{unmatched} = {factor:.3f} (target 0.5 +/- 0.1)",
    )


def test_criterion_6_target_absent_consistency(ensembles):
    """Without a target, each mean posterior mirrors its target-present curve.

    Reference: Bayes' rule.  With equal priors and exact likelihood ratios,
    the posterior Pr(H1|D_m) averaged over the equal-prior mixture of H0 and
    H1 is exactly 1/2 at every shot m.  Hence
    E_H0[Pr(H1|D_m)] = 1 - E_H1[Pr(H1|D_m)].  The identity needs exact ratios,
    so the test first asserts that no likelihood cell is clipped.  Then, for
    each of q1, q2, q4 and coherent, absent(m) + present(m) - 1 must stay
    within five standard errors at every shot.  Each trial posterior lies in
    [0, 1], so its variance is at most mu (1 - mu) (Bhatia-Davis).  The
    present and absent ensembles draw trial i from the same stream, so their
    errors are correlated and the bound adds the two standard deviations
    instead of their squares.  Finally each absent curve must first fall to
    1 - thr within 5% of criterion 4's reference shots.

    The former bar, every absent curve below 0.05 at shot 30000, was dropped.
    By the identity it demands that every present curve reach 0.95 by then,
    while criterion 4's reference has the coherent curve reach 0.8 only at
    shot 21386.  The exact coherent means at shot 30000 are 0.851993
    (present) and 0.148007 (absent).
    """
    pairs = {
        "q1": (SignalKind.QUANTUM_HERALDED, 1),
        "q2": (SignalKind.QUANTUM_HERALDED, 2),
        "q4": (SignalKind.QUANTUM_HERALDED, 4),
        "coherent": (SignalKind.COHERENT, 1),
    }
    for name, (kind, detectors) in pairs.items():
        tables = build_tables(base_config(kind, detectors, False))
        largest = float(np.abs(tables.log_ratio).max())
        smallest = min(float(tables.l0.min()), float(tables.l1.min()))
        # build_tables clips log ratios at +/- _LOG_RATIO_CLIP and floors
        # likelihoods at 1e-300 before taking logs.
        assert largest < _LOG_RATIO_CLIP and smallest > 1e-300, (
            f"{name}: clipped likelihood cell (max |log ratio| = {largest:.3e}, "
            f"min likelihood = {smallest:.3e})"
        )

    details = []
    ok = True
    for name in pairs:
        present = ensembles[f"{name}_present"]
        absent = ensembles[f"{name}_absent"]
        spread = np.sqrt(present * (1.0 - present)) + np.sqrt(absent * (1.0 - absent))
        z = float(np.max(np.abs(absent + present - 1.0) * math.sqrt(TRIALS) / spread))
        ok &= z <= 5.0
        details.append(f"{name}: absent {absent[-1]:.4f} + present {present[-1]:.4f}, max z {z:.2f}")
    for name, threshold, expected in CROSSING_TARGETS:
        absent_name = name.replace("_present", "_absent")
        got = first_crossing(1.0 - ensembles[absent_name], threshold)
        within = got is not None and abs(got - expected) <= 0.05 * expected
        ok &= within
        details.append(f"{absent_name}<={1.0 - threshold:.1f}: {got} (target {expected} +/- 5%)")
    report("6 target-absent consistency", ok, "; ".join(details) + " (z bound 5)")


def test_criterion_7a_povm_completeness():
    worst = 0.0
    states = [
        SignedThermalMixture.thermal(0.0),
        SignedThermalMixture.thermal(1.0),
        SignedThermalMixture.thermal(5.0),
        herald_state(1.0, 0.9, 2, 1).state,
        DisplacedThermal(1.5, 0.7),
    ]
    for detectors in (1, 2, 4, 8):
        for eta in (0.0, 0.3, 0.9, 1.0):
            for state in states:
                total = math.fsum(click_distribution(ClickMultiplex(detectors, eta), state).tolist())
                worst = max(worst, abs(total - 1.0))
    report("7a povm completeness", worst < 1e-12, f"max |sum - 1| = {worst:.2e}")


def test_criterion_7b_fock_support():
    worst = 0.0
    for nbar in (0.5, 1.0, 2.0):
        for detectors, clicks in ((1, 1), (2, 2), (3, 2), (4, 4)):
            state = herald_state(nbar, 0.9, detectors, clicks).state
            p = photon_number_distribution(state, clicks - 1)
            worst = max(worst, float(np.abs(p).max()))
    report("7b fock support", worst < 1e-12, f"max |p_(n<k)| = {worst:.2e}")


def test_criterion_7c_poisson_limit():
    worst = 0.0
    mux = ClickMultiplex(10_000, 0.9)
    for nbar in (0.5, 1.0, 5.0):
        state = SignedThermalMixture.thermal(nbar)
        for k in range(5):
            gap = abs(click_probability(mux, k, state) - poisson_limit_reference(k, 0.9, state))
            worst = max(worst, gap)
    report("7c poisson limit", worst < 1e-3, f"max gap at N = 10^4: {worst:.2e}")


def test_criterion_7d_channel_mean_conservation():
    worst = 0.0
    signals = [tmsv_marginal(1.0), herald_state(1.0, 0.9, 2, 2).state, DisplacedThermal(1.0, 0.0)]
    for kappa in (0.1, 0.3, 0.8):
        for nb in (0.0, 3.0, 10.0):
            channel = TargetChannel(kappa, nb)
            for signal in signals:
                expected = kappa * mean_photon(signal) + nb
                worst = max(worst, abs(mean_photon(apply_channel(channel, signal)) - expected))
    report("7d channel mean conservation", worst < 1e-12, f"max drift = {worst:.2e}")


def test_criterion_7e_oracle_equivalence():
    result = run_verification()
    detail = "; ".join(
        f"{c.name} {c.max_error:.1e}/{c.tolerance:.0e}" for c in result.checks
    )
    report("7e oracle equivalence", result.passed, detail)


def test_criterion_7f_wigner_negativity_at_origin():
    """Heralded W(0, 0) equals the oracle's photon-number parity; odd heralds are negative there.

    Reference: the parity identity W(0, 0) = pi^-1 sum_n (-1)^n p_n, which
    holds in any Wigner convention, with p_n from the truncated-Fock oracle's
    heralded distribution.  For the (1, 1), (2, 1), (2, 2) and (3, 3) heralds
    at nbar = 1, eta = 0.9, wigner_slice must match it within 1e-9, and every
    odd-click herald must be negative at the origin.  Even-click heralds are
    negative on a ring instead: the (2, 2) slice on q in [0, 3] must dip below
    -1e-3 away from the origin.

    The former claim, that the (2, 2) herald is negative at the origin, was
    dropped because it is false.  Its distribution starts p_0 = p_1 = 0
    (criterion 7b), p_2 = 0.344, p_3 = 0.284, p_4 = 0.174, so its parity is
    +0.1715 and W(0, 0) = +0.0546.  The ring minimum is -0.0274 at q = 1.02.
    """
    origin = {}
    worst = 0.0
    for detectors, clicks in ((1, 1), (2, 1), (2, 2), (3, 3)):
        value = float(wigner_slice(herald_state(1.0, 0.9, detectors, clicks).state, [0.0])[0])
        probs = oracle_herald_state(1.0, 0.9, detectors, clicks, 200).probs
        parity = math.fsum((probs * (-1.0) ** np.arange(probs.size)).tolist())
        worst = max(worst, abs(value - parity / math.pi))
        origin[(detectors, clicks)] = value
    odd_negative = all(value < 0.0 for (_, clicks), value in origin.items() if clicks % 2)
    q = np.linspace(0.0, 3.0, 301)
    ring = wigner_slice(herald_state(1.0, 0.9, 2, 2).state, q)
    q_min = float(q[np.argmin(ring)])
    report(
        "7f wigner negativity at origin",
        worst <= 1e-9 and odd_negative and ring.min() < -1e-3 and q_min >= 0.5,
        "W(0, 0) = "
        + ", ".join(f"{value:+.4f} for {herald}" for herald, value in origin.items())
        + f" at nbar = 1, eta = 0.9; max |W(0, 0) - parity / pi| = {worst:.1e}; "
        f"(2, 2) minimum {ring.min():.4f} at q = {q_min:.2f}",
    )


def test_criterion_7g_fano_factors():
    sub = fano_factor(herald_state(0.1, 0.9, 2, 2).state)
    coherent = fano_factor(DisplacedThermal(1.3, 0.0))
    report(
        "7g fano factors",
        sub < 1.0 and abs(coherent - 1.0) < 1e-12,
        f"heralded F = {sub:.4f} (< 1), displaced-thermal F - 1 = {coherent - 1.0:.2e}",
    )
