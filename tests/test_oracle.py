import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qillum import (
    ClickMultiplex,
    DisplacedThermal,
    SignedThermalMixture,
    TargetChannel,
    apply_channel,
    click_probability,
    herald_state,
    normal_ordered_moment,
    photon_number_distribution,
    receiver_click_prob,
    wigner_slice,
)
from qillum import oracle
from qillum.errors import TruncationError
from qillum.povm import povm_fock_diagonal
from qillum.verify import run_verification


class TestFockVector:
    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            oracle.thermal_diag(5.0, 10)

    def test_thermal_trace(self):
        diag = oracle.thermal_diag(1.0, 160)
        assert diag.trace_deficit < 1e-12

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            oracle.FockVector(np.array([1.1, -0.1]))

    @pytest.mark.parametrize(
        "probs", [[math.nan], [0.5, math.nan, 0.5], [math.inf, 0.0], [1.0, -math.inf]]
    )
    def test_non_finite_probability_rejected(self, probs):
        # NaN compares false against both the negativity and the deficit bound
        with pytest.raises(ValueError, match="non-finite"):
            oracle.FockVector(np.array(probs))


class TestNonFiniteMeans:
    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_thermal_diag(self, mean):
        with pytest.raises(ValueError, match="finite"):
            oracle.thermal_diag(mean)

    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_poisson_diag(self, mean):
        with pytest.raises(ValueError, match="finite"):
            oracle.poisson_diag(mean)

    @pytest.mark.parametrize(
        "coherent, thermal", [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 0.0)]
    )
    def test_displaced_thermal_diag(self, coherent, thermal):
        with pytest.raises(ValueError, match="finite"):
            oracle.displaced_thermal_diag(coherent, thermal)

    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_choose_truncation(self, mean):
        with pytest.raises(ValueError, match="finite"):
            oracle.choose_truncation(mean)

    @pytest.mark.parametrize("background", [math.inf, math.nan])
    def test_beamsplitter_background(self, background):
        with pytest.raises(ValueError, match="finite"):
            oracle.oracle_beamsplitter(oracle.thermal_diag(1.0), 0.3, background)


class TestEfficiencyRange:
    # an efficiency outside [0, 1] is an input error, not a numerical failure
    @pytest.mark.parametrize("eta", [1.5, -0.1, math.nan])
    @pytest.mark.parametrize(
        "build",
        [
            lambda eta: povm_fock_diagonal(2, 1, eta, 10),
            lambda eta: oracle.oracle_click_prob(2, 1, eta, oracle.thermal_diag(1.0)),
            lambda eta: oracle.oracle_herald_state(1.0, eta, 2, 1),
        ],
        ids=["povm_fock_diagonal", "oracle_click_prob", "oracle_herald_state"],
    )
    def test_rejected_as_input_error(self, build, eta):
        with pytest.raises(ValueError, match=r"efficiency must lie in \[0, 1\]"):
            build(eta)


def _cold(build, *args):
    """``build(*args)`` against empty oracle caches, leaving the real ones untouched."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_coeff_cache", {})
        mp.setattr(oracle, "_kernel_cache", {})
        return build(*args)


_SIZES = st.integers(min_value=0, max_value=240)
_REQUESTS = st.tuples(
    st.lists(st.tuples(st.integers(0, 1), _SIZES, _SIZES), min_size=1, max_size=8),
    st.sampled_from(["ascending", "descending", "interleaved"]),
)


def _ordered(requests, order):
    if order == "interleaved":
        return requests
    return sorted(requests, key=lambda r: r[1:], reverse=order == "descending")


class TestCachePrefixInvariant:
    """Cached coefficients and kernels equal cold builds at every requested size.

    Each request picks one of two parameter values, so a cache key that drops
    the parameter returns the other value's array; a cache that returns its
    whole grown array instead of the leading block fails on shape.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        detectors=st.integers(1, 6),
        data=st.data(),
        efficiencies=st.tuples(
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        ),
        requests=_REQUESTS,
    )
    def test_povm_coefficients(self, detectors, data, efficiencies, requests):
        clicks = data.draw(st.integers(0, detectors))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_coeff_cache", {})
            for which, n_max, _ in _ordered(*requests):
                eta = efficiencies[which]
                got = oracle._povm_coeffs(detectors, clicks, eta, n_max)
                cold = povm_fock_diagonal(detectors, clicks, eta, n_max)
                assert np.array_equal(got, cold)
                assert not got.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(
        transmissions=st.tuples(
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        ),
        requests=_REQUESTS,
    )
    def test_loss_kernel(self, transmissions, requests):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_kernel_cache", {})
            for which, n_in, _ in _ordered(*requests):
                block = oracle._loss_kernel(transmissions[which], n_in)
                cold = _cold(oracle._loss_kernel, transmissions[which], n_in)
                assert np.array_equal(block, cold)
                x = np.random.default_rng(n_in).random(n_in + 1)
                assert (block @ x).tobytes() == (cold @ x).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        gains=st.tuples(
            st.just(1.0) | st.floats(1.0, 20.0),
            st.just(1.0) | st.floats(1.0, 20.0),
        ),
        requests=_REQUESTS,
    )
    def test_amplifier_kernel(self, gains, requests):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_kernel_cache", {})
            for which, n_in, n_out in _ordered(*requests):
                block = oracle._amplifier_kernel(gains[which], n_in, n_out)
                cold = _cold(oracle._amplifier_kernel, gains[which], n_in, n_out)
                assert np.array_equal(block, cold)
                x = np.random.default_rng(n_in).random(n_in + 1)
                assert (block @ x).tobytes() == (cold @ x).tobytes()

    def test_quick_report_same_cold_and_after_full_sweep(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_coeff_cache", {})
            mp.setattr(oracle, "_kernel_cache", {})
            cold = run_verification(quick=True)
            run_verification()
            warm = run_verification(quick=True)
        assert warm.lines() == cold.lines()
        assert [c.max_error for c in warm.checks] == [c.max_error for c in cold.checks]


class TestLogFactorial:
    """The log-factorial table that stands in for lgamma(n + 1) at integers."""

    def test_equals_lgamma_and_inf_below_zero(self, monkeypatch):
        monkeypatch.setattr(oracle, "_log_factorials", np.zeros(1))
        n = np.arange(-5, 2001)
        got = oracle._log_factorial(n)
        assert np.all(got[n < 0] == np.inf)
        assert got[n >= 0].tolist() == [math.lgamma(k + 1.0) for k in range(2001)]

    def test_grows_and_never_shrinks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_log_factorials", np.zeros(1))
        oracle._log_factorial(np.arange(301))
        table = oracle._log_factorials
        before = table.copy()
        small = oracle._log_factorial(np.arange(-2, 51))
        assert oracle._log_factorials is table
        assert np.array_equal(table, before)
        assert np.array_equal(small[2:], table[:51])
        oracle._log_factorial(np.array([400]))
        assert oracle._log_factorials.size == 401
        assert np.array_equal(oracle._log_factorials[:301], before)
        assert not oracle._log_factorials.flags.writeable

    def test_loss_kernel_is_binomial(self):
        t, size = 0.3, 200
        kernel = _cold(oracle._loss_kernel, t, size)
        for n in range(size + 1):
            for j in range(size + 1):
                expected = math.comb(n, j) * t**j * (1 - t) ** (n - j) if j <= n else 0.0
                assert kernel[j, n] == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestOracleHeraldState:
    def test_single_click_suppresses_vacuum(self):
        diag = oracle.oracle_herald_state(1.0, 0.95, 1, 1, 160)
        assert diag.probs[0] == 0.0

    def test_no_measurement_limit_recovers_thermal(self):
        diag = oracle.oracle_herald_state(1.0, 0.0, 2, 0, 160)
        thermal = oracle.thermal_diag(1.0, 160)
        assert np.allclose(diag.probs, thermal.probs / (1 - thermal.trace_deficit), atol=1e-12)

    def test_distribution_matches_closed_form(self):
        diag = oracle.oracle_herald_state(1.0, 0.9, 2, 2, 160)
        closed = photon_number_distribution(herald_state(1.0, 0.9, 2, 2).state, 80)
        assert np.abs(diag.probs[:81] - closed).max() < 1e-9

    def test_herald_probability_matches(self):
        # the heralding probability is the idler click probability itself
        brute = oracle.oracle_click_prob(2, 1, 0.9, oracle.thermal_diag(1.0, 200))
        closed = herald_state(1.0, 0.9, 2, 1).herald_probability
        assert abs(brute - closed) < 1e-9


class TestOracleClickProb:
    def test_vacuum_cannot_click(self):
        vac = oracle.thermal_diag(0.0, 40)
        assert oracle.oracle_click_prob(3, 2, 0.9, vac) == 0.0

    def test_single_detector_thermal(self):
        diag = oracle.thermal_diag(1.0, 200)
        got = oracle.oracle_click_prob(1, 1, 0.95, diag)
        assert got == pytest.approx(1 - 1 / 1.95, abs=1e-9)

    def test_grid_against_closed_form(self):
        for nbar in (0.1, 1.0, 5.0):
            diag = oracle.thermal_diag(nbar, oracle.choose_truncation(nbar))
            state = SignedThermalMixture.thermal(nbar)
            for eta in (0.5, 0.9):
                for detectors in (1, 2, 4):
                    mux = ClickMultiplex(detectors, eta)
                    for clicks in range(detectors + 1):
                        closed = click_probability(mux, clicks, state)
                        brute = oracle.oracle_click_prob(detectors, clicks, eta, diag)
                        assert abs(closed - brute) < 1e-9


class TestOracleBeamsplitter:
    def test_vacuum_signal_returns_background(self):
        out = oracle.oracle_beamsplitter(oracle.thermal_diag(0.0, 160), 0.3, 3.0)
        expected = photon_number_distribution(SignedThermalMixture.thermal(3.0), out.n_max)
        assert np.abs(out.probs - expected).max() < 1e-9

    def test_thermal_maps_to_thermal(self):
        out = oracle.oracle_beamsplitter(oracle.thermal_diag(1.0, 160), 0.1, 3.0)
        expected = photon_number_distribution(SignedThermalMixture.thermal(3.1), out.n_max)
        assert np.abs(out.probs - expected).max() < 1e-9

    def test_coherent_return_matches_displaced_moments(self):
        out = oracle.oracle_beamsplitter(oracle.poisson_diag(1.0, 160), 0.3, 10.0)
        returned = DisplacedThermal(0.3, 10.0)
        for eta in (0.5, 0.9, 1.0):
            closed = normal_ordered_moment(returned, eta)
            brute = oracle.oracle_click_prob(1, 0, eta, out)
            assert abs(closed - brute) < 1e-9

    def test_full_matrix_agrees_with_kernels(self):
        # the literal two-mode unitary validates the loss/amplifier route
        signal = oracle.oracle_herald_state(0.8, 0.9, 2, 2, 36)
        kernel = oracle.oracle_beamsplitter(signal, 0.4, 1.0, n_max=36, trace_tol=1e-4)
        full = oracle.oracle_beamsplitter(
            signal, 0.4, 1.0, n_max=36, trace_tol=1e-4, full_matrix=True
        )
        assert np.abs(kernel.probs - full.probs).max() < 1e-6

    def test_full_matrix_thermal_check(self):
        signal = oracle.thermal_diag(0.5, 30, trace_tol=1e-4)
        full = oracle.oracle_beamsplitter(
            signal, 0.5, 0.5, n_max=30, trace_tol=1e-3, full_matrix=True
        )
        expected = photon_number_distribution(SignedThermalMixture.thermal(0.75), 30)
        assert np.abs(full.probs - expected).max() < 1e-4

    def test_truncation_reported(self):
        with pytest.raises(TruncationError):
            oracle.oracle_beamsplitter(oracle.thermal_diag(1.0, 160), 0.3, 10.0, n_max=20)


class TestDisplacedThermalDiag:
    def test_moments_match(self):
        diag = oracle.displaced_thermal_diag(1.2, 0.7, 200)
        n = np.arange(diag.probs.size)
        mean = float(n @ diag.probs)
        assert mean == pytest.approx(1.9, abs=1e-9)
        second = float((n * n) @ diag.probs)
        mu, m = 1.2, 0.7
        expected_var = mu * (1 + 2 * m) + m * (1 + m)
        assert second - mean**2 == pytest.approx(expected_var, abs=1e-8)

    def test_pure_coherent_is_poisson(self):
        diag = oracle.displaced_thermal_diag(1.0, 0.0, 60)
        expected = oracle.poisson_diag(1.0, 60)
        assert np.allclose(diag.probs, expected.probs, atol=1e-15)


class TestOracleWigner:
    def test_vacuum(self):
        assert oracle.oracle_wigner(oracle.thermal_diag(0.0, 60), 0.0) == pytest.approx(
            1 / math.pi, abs=1e-12
        )

    def test_single_photon_extremum(self):
        assert oracle.oracle_wigner(oracle.fock_diag(1, 60), 0.0) == pytest.approx(
            -1 / math.pi, abs=1e-12
        )

    def test_thermal(self):
        got = oracle.oracle_wigner(oracle.thermal_diag(1.0, 200), 0.0)
        assert got == pytest.approx(1 / (3 * math.pi), abs=1e-9)

    def test_herald_slice_matches_closed_form(self):
        diag = oracle.oracle_herald_state(1.0, 0.9, 2, 2, 200)
        state = herald_state(1.0, 0.9, 2, 2).state
        for q in (0.0, 0.5, 1.0, 2.0):
            closed = float(wigner_slice(state, [q])[0])
            brute = oracle.oracle_wigner(diag, q)
            assert abs(closed - brute) < 1e-9

    def test_ring_negativity_magnitude(self):
        # the two-click heralded state has a genuinely negative Wigner
        # function; the oracle pins the magnitude near q = 1
        diag = oracle.oracle_herald_state(1.0, 0.9, 2, 2, 200)
        assert oracle.oracle_wigner(diag, 1.0) == pytest.approx(-0.0273475, abs=1e-6)


class TestEndToEnd:
    def test_receiver_clicks_through_full_pipeline(self):
        # herald -> channel -> receiver, closed form vs Fock pipeline
        for nbar in (0.5, 2.0):
            for detectors, clicks in ((1, 1), (2, 2), (3, 1)):
                diag = oracle.oracle_herald_state(
                    nbar, 0.9, detectors, clicks, oracle.choose_truncation(nbar)
                )
                conditioned = herald_state(nbar, 0.9, detectors, clicks).state
                for kappa, nb in ((0.1, 3.0), (0.3, 10.0), (0.8, 0.0)):
                    channel = TargetChannel(kappa, nb)
                    closed_state = apply_channel(channel, conditioned)
                    brute_out = oracle.oracle_beamsplitter(diag, kappa, nb)
                    for n_s in (1, 2):
                        receiver = ClickMultiplex(n_s, 0.9)
                        for k_s in range(n_s + 1):
                            closed = receiver_click_prob(receiver, k_s, closed_state)
                            brute = oracle.oracle_click_prob(n_s, k_s, 0.9, brute_out)
                            assert abs(closed - brute) < 1e-8

    def test_verification_sweep_quick(self):
        report = run_verification(quick=True)
        assert report.passed, "\n".join(report.lines())

    def test_verification_detects_perturbation(self):
        report = run_verification(quick=True, perturbation=1e-6)
        assert not report.passed
