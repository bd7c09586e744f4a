import math
import sys
import tracemalloc

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
from qillum import oracle, verify
from qillum.errors import NumericalInstabilityError, TruncationError
from qillum.povm import povm_fock_diagonal
from qillum.verify import run_verification

import kernel_reference


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
        mp.setattr(oracle, "_tables", {})
        return build(*args)


_SIZES = st.integers(min_value=0, max_value=500)
_REQUESTS = st.tuples(
    st.lists(st.tuples(st.integers(0, 1), _SIZES, _SIZES), min_size=1, max_size=8),
    st.sampled_from(["ascending", "descending", "interleaved"]),
)


def _ordered(requests, order):
    if order == "interleaved":
        return requests
    return sorted(requests, key=lambda r: r[1:], reverse=order == "descending")


def _growth(first_rows=200, row_step=150):
    """A first (rows, cols) shape, then growth steps in a drawn order: by rows
    only, by columns only or by both."""
    return st.tuples(
        st.tuples(st.integers(1, first_rows), st.integers(1, 200)),
        st.lists(st.tuples(st.sampled_from(["rows", "cols", "both"]),
                           st.integers(1, row_step), st.integers(1, 150)),
                 min_size=1, max_size=6),
    )


def _grown_shapes(start, steps, max_rows=math.inf):
    """The shapes a table takes when it grows from ``start`` by ``steps``, rows capped."""
    rows, cols = start
    shapes = [(min(rows, max_rows), cols)]
    for axis, row_step, col_step in steps:
        rows += row_step if axis != "cols" else 0
        cols += col_step if axis != "rows" else 0
        shapes.append((min(rows, max_rows), cols))
    return shapes


def _counted(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is counted; returns the list of call arguments."""
    calls, real = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestCachePrefixInvariant:
    """Cached coefficients and kernels equal their references at every requested size.

    Each request picks one of two parameter values, so a cache key that drops
    the parameter returns the other value's array; a cache that returns its
    whole grown array instead of the leading block fails on shape.  The
    kernels' reference is the whole-grid build of ``kernel_reference``, which
    the block fill must match bit for bit.
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
        # each request draws its outcome, so the table grows by rows as well as columns
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_tables", {})
            for which, n_max, _ in _ordered(*requests):
                eta = efficiencies[which]
                clicks = data.draw(st.integers(0, detectors))
                got = oracle._povm_table(detectors, clicks, eta, n_max)[clicks]
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
            mp.setattr(oracle, "_tables", {})
            for which, n_in, _ in _ordered(*requests):
                block = oracle._loss_kernel(transmissions[which], n_in)
                cold = kernel_reference.loss_kernel(transmissions[which], n_in + 1, n_in + 1)
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
            mp.setattr(oracle, "_tables", {})
            for which, n_in, n_out in _ordered(*requests):
                block = oracle._amplifier_kernel(gains[which], n_in, n_out)
                cold = kernel_reference.amplifier_kernel(gains[which], n_out + 1, n_in + 1)
                assert np.array_equal(block, cold)
                x = np.random.default_rng(n_in).random(n_in + 1)
                assert (block @ x).tobytes() == (cold @ x).tobytes()

    def test_amplifier_fill_peak_memory(self):
        # The (498, 377) kernel is the verify sweep's largest; a whole-grid
        # build peaks at about four times the table it returns.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_tables", {})
            tracemalloc.start()
            try:
                kernel = oracle._amplifier_kernel(4.0, 376, 497)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert kernel.shape == (498, 377)
        assert peak <= 2 * kernel.nbytes

    @settings(max_examples=25, deadline=None)
    @given(
        gain=st.just(1.0) | st.floats(1.0, 20.0),
        transmission=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        growth=_growth(),
    )
    def test_kernels_grown_by_rows_columns_or_both(self, gain, transmission, growth):
        # the loss kernel is square, so each step grows it on both axes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_tables", {})
            for rows, cols in _grown_shapes(*growth):
                amp = oracle._amplifier_kernel(gain, cols - 1, rows - 1)
                assert np.array_equal(amp, kernel_reference.amplifier_kernel(gain, rows, cols))
                assert oracle._tables[("amp", gain)].shape == (rows, cols)
                size = max(rows, cols)
                loss = oracle._loss_kernel(transmission, size - 1)
                assert np.array_equal(loss, kernel_reference.loss_kernel(transmission, size, size))

    @settings(max_examples=25, deadline=None)
    @given(
        detectors=st.integers(1, 6),
        efficiency=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        growth=_growth(first_rows=3, row_step=2),
    )
    def test_povm_table_grown_by_rows_columns_or_both(self, detectors, efficiency, growth):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_tables", {})
            for rows, cols in _grown_shapes(*growth, max_rows=detectors + 1):
                got = oracle._povm_table(detectors, rows - 1, efficiency, cols - 1)
                expected = kernel_reference.povm_table(detectors, efficiency, rows, cols)
                assert np.array_equal(got, expected)

    @settings(max_examples=25, deadline=None)
    @given(growth=_growth())
    def test_log_factorial_grown(self, growth):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_tables", {})
            for rows, _ in _grown_shapes(*growth):
                got = oracle._log_factorial(np.arange(rows))
                assert got.tolist() == [math.lgamma(k + 1.0) for k in range(rows)]

    def test_povm_rows_are_built_once_while_n_max_holds(self, monkeypatch):
        # the herald family asks for k = 0, 1, ..., N of each (N, eta) in turn
        monkeypatch.setattr(oracle, "_tables", {})
        builds = _counted(monkeypatch, oracle, "povm_fock_diagonal")
        for clicks in range(7):
            oracle._povm_table(6, clicks, 0.7, 160)
        assert [args[1] for args in builds] == list(range(7))
        # a wider table takes every row's powers from the whole new grid
        oracle._povm_table(6, 3, 0.7, 200)
        assert [args[1:] for args in builds[7:]] == [(k, 0.7, 200) for k in range(7)]

    def test_sweep_amplifier_entries_are_computed_once(self, monkeypatch):
        # record the full sweep's requests of the gain-11 amplifier (background 10)
        monkeypatch.setattr(oracle, "_tables", {})
        requests = _counted(monkeypatch, oracle, "_amplifier_kernel")
        run_verification()
        requests = [args[1:] for args in requests if args[0] == 11.0]
        assert requests[0] == (160, 317)
        assert tuple(map(max, *requests)) == (376, 497)
        # replay them on cold tables, counting the entries each fill computes
        monkeypatch.setattr(oracle, "_tables", {})
        computed, fill = [], oracle._filled

        def counting_fill(table, have, entry):
            def counted(i, j):
                computed.append(np.broadcast(i, j).size)
                return entry(i, j)
            return fill(table, have, counted)

        monkeypatch.setattr(oracle, "_filled", counting_fill)
        for n_in, n_out in requests:
            oracle._amplifier_kernel(11.0, n_in, n_out)
        assert oracle._tables[("amp", 11.0)].shape == (498, 377)
        assert sum(computed) == 498 * 377

    def test_growth_step_peak_memory(self):
        # One step of the sweep's gain-11 amplifier, (318, 161) to (498, 377):
        # the old and the new table coexist for the copy, and the fill adds one
        # block's scratch (a few arrays of _FILL_ROWS rows); building the new
        # table apart and then copying it would add a whole table more.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_tables", {})
            oracle._log_factorial(np.arange(498))
            tracemalloc.start()
            try:
                old = oracle._amplifier_kernel(11.0, 160, 317).base
                tracemalloc.reset_peak()
                new = oracle._amplifier_kernel(11.0, 376, 497)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        block = oracle._FILL_ROWS * new.shape[1] * new.itemsize
        assert old.shape == (318, 161) and new.shape == (498, 377)
        assert peak <= old.nbytes + new.nbytes + 6 * block

    def test_quick_report_same_cold_and_after_full_sweep(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_tables", {})
            cold = run_verification(quick=True)
            run_verification()
            warm = run_verification(quick=True)
        assert warm.lines() == cold.lines()
        assert [c.max_error for c in warm.checks] == [c.max_error for c in cold.checks]


_LOG_FACTORIAL = ("log_factorial",)


class TestLogFactorial:
    """The log-factorial table that stands in for lgamma(n + 1) at integers."""

    def test_equals_lgamma_and_inf_below_zero(self, monkeypatch):
        monkeypatch.setattr(oracle, "_tables", {})
        n = np.arange(-5, 2001)
        got = oracle._log_factorial(n)
        assert np.all(got[n < 0] == np.inf)
        assert got[n >= 0].tolist() == [math.lgamma(k + 1.0) for k in range(2001)]

    def test_grows_and_never_shrinks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_tables", {})
        oracle._log_factorial(np.arange(301))
        table = oracle._tables[_LOG_FACTORIAL]
        before = table.copy()
        small = oracle._log_factorial(np.arange(-2, 51))
        assert oracle._tables[_LOG_FACTORIAL] is table
        assert np.array_equal(table, before)
        assert np.array_equal(small[2:], table[:51])
        oracle._log_factorial(np.array([400]))
        assert oracle._tables[_LOG_FACTORIAL].size == 401
        assert np.array_equal(oracle._tables[_LOG_FACTORIAL][:301], before)
        assert not oracle._tables[_LOG_FACTORIAL].flags.writeable

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
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: oracle.oracle_click_prob(n, 1, 0.9, oracle.thermal_diag(1.0)),
            lambda n: oracle.oracle_herald_state(1.0, 0.9, n, 1, 160),
        ],
        ids=["oracle_click_prob", "oracle_herald_state"],
    )
    def test_float_count_rejected_on_a_warm_cache(self, build):
        # the key ("povm", 2.0, 0.9) equals ("povm", 2, 0.9), so checks run
        # only on a miss once let the float call through after the integer one
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_tables", {})
            build(2)
            with pytest.raises(ValueError, match=r"^detector count must be an integer, got 2\.0"):
                build(2.0)

    def test_distribution_equals_each_click_probability(self):
        for detectors in (1, 2, 4):
            for diag in (oracle.thermal_diag(1.0), oracle.oracle_herald_state(0.1, 0.5, 3, 3)):
                expected = [oracle.oracle_click_prob(detectors, k, 0.9, diag)
                            for k in range(detectors + 1)]
                assert oracle.oracle_click_distribution(detectors, 0.9, diag) == expected

    def test_unstable_row_fails_only_itself_and_the_rows_above(self):
        # at N = 32, eta 0.9 the alternating sums of rows 29 and 31 leave [0, 1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_tables", {})
            diag = oracle.thermal_diag(1.0)
            low = oracle.oracle_click_prob(32, 28, 0.9, diag)
            for clicks in (29, 30):
                with pytest.raises(NumericalInstabilityError, match="outside"):
                    oracle.oracle_click_prob(32, clicks, 0.9, diag)
            assert oracle.oracle_click_prob(32, 28, 0.9, diag) == low
            assert oracle.oracle_click_prob(32, 0, 0.9, diag) == math.fsum(
                (povm_fock_diagonal(32, 0, 0.9, 160) * diag.probs).tolist())

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

    def test_signal_with_a_negative_mean_is_truncated_at_the_default(self):
        # entries down to -1e-12 are allowed, and choose_truncation rejects a negative mean
        signal = oracle.FockVector(np.array([1.0 + 1e-13, -1e-13]))
        out = oracle.oracle_beamsplitter(signal, 0.5, 0.0)
        assert out.n_max == oracle.DEFAULT_TRUNCATION

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

    def test_unitary_agrees_with_kernels(self):
        # the literal two-mode unitary validates the loss/amplifier route on
        # the unitary's entries 0 .. 36, a leading block of the kernel output
        signal = oracle.oracle_herald_state(0.8, 0.9, 2, 2, 36)
        kernel = oracle.oracle_beamsplitter(signal, 0.4, 1.0)
        unitary = kernel_reference.oracle_beamsplitter_unitary(signal, 0.4, 1.0)
        assert unitary.shape == (37,)
        assert np.abs(kernel.probs[:37] - unitary).max() < 1e-6

    def test_unitary_thermal_check(self):
        signal = oracle.thermal_diag(0.5, 30)
        unitary = kernel_reference.oracle_beamsplitter_unitary(signal, 0.5, 0.5)
        expected = photon_number_distribution(SignedThermalMixture.thermal(0.75), 30)
        assert np.abs(unitary - expected).max() < 1e-4


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
        # at mean 0 the Poisson distribution is the vacuum
        vacuum = oracle.fock_diag(0, 60).probs
        assert np.array_equal(oracle.poisson_diag(0.0, 60).probs, vacuum)
        assert np.array_equal(oracle.displaced_thermal_diag(0.0, 0.0, 60).probs, vacuum)


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

    def test_finite_value_below_the_overflow_keeps_its_bits(self):
        # the 616-level recurrence overflows from about q = 26.6, where a
        # ValueError is raised; below it the series is untouched
        diag = oracle.thermal_diag(20.0, oracle.choose_truncation(20.0))
        assert oracle.oracle_wigner(diag, 26.0) == 5.364183052352141e-10


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

    def test_case_stream_equals_the_per_outcome_reference(self):
        sweep = verify._Sweep(verify.QUICK_GRID, 0.0)
        got = list(verify._end_to_end_clicks(sweep))
        expected = list(kernel_reference.end_to_end_clicks(sweep))
        assert len(got) == len(expected)
        for (error, case), (ref_error, ref_case) in zip(got, expected):
            assert error == ref_error and case == ref_case

    def test_verification_sweep_quick(self):
        report = run_verification(quick=True)
        assert report.passed, "\n".join(report.lines())

    def test_each_family_runs_alone(self):
        # in reverse report order, each on a fresh sweep: no family reads
        # anything another family leaves behind
        report = run_verification(quick=True)
        for (name, scale, family), expected in reversed(list(zip(verify.FAMILIES, report.checks))):
            sweep = verify._Sweep(verify.QUICK_GRID, 0.0)
            alone = verify._worst(name, scale * verify.CLOSED_FORM_TOL, family(sweep))
            assert alone == expected

    # Each family's closed form, as ``verify`` calls it, and the entry of its
    # result that takes the offset (None: a number).  The herald family's
    # entry lies above level 60, which that family once left uncompared.
    PERTURBED = {
        "herald photon distributions": ("photon_number_distribution", 61),
        "thermal click probabilities": ("click_probability", None),
        "channel thermal transform": ("photon_number_distribution", 0),
        "displaced thermal moments": ("normal_ordered_moment", None),
        "end-to-end receiver clicks": ("click_distribution", 0),
        "wigner slices": ("wigner_slice", 0),
        "background receiver clicks": ("receiver_click_prob", None),
    }

    def perturb_one_case(self, monkeypatch, family, delta):
        """Add ``delta`` to one result of ``family``'s closed form, and to no
        other family's: the caller's code object says which family is calling.
        Returns the list that records the perturbed call's arguments."""
        callable_name, entry = self.PERTURBED[family]
        caller = next(fn for name, _, fn in verify.FAMILIES if name == family).__code__
        original = getattr(verify, callable_name)
        perturbed = []

        def closed_form(*args, **kwargs):
            value = original(*args, **kwargs)
            if perturbed or sys._getframe(1).f_code is not caller or np.size(value) <= (entry or 0):
                return value
            perturbed.append(args)
            if entry is None:
                return value + delta
            value = np.array(value, dtype=float)
            value[entry] += delta
            return value

        monkeypatch.setattr(verify, callable_name, closed_form)
        return perturbed

    @pytest.mark.parametrize("family", [name for name, _, _ in verify.FAMILIES])
    def test_each_family_fails_on_one_perturbed_case(self, family, monkeypatch):
        perturbed = self.perturb_one_case(monkeypatch, family, 1e-6)
        report = run_verification(quick=True)
        assert [check.name for check in report.checks if not check.passed] == [family]
        assert perturbed

    # The bound ROADMAP item 10 proposes for a family: this times its scale.
    PROPOSED_BOUND = 1e-12

    @pytest.mark.parametrize("family", [name for name, _, _ in verify.FAMILIES])
    def test_twice_the_proposed_bound_at_one_case_is_seen(self, family, monkeypatch):
        scale = next(scale for name, scale, _ in verify.FAMILIES if name == family)
        bound = self.PROPOSED_BOUND * scale
        perturbed = self.perturb_one_case(monkeypatch, family, 2.0 * bound)
        report = run_verification(quick=True)
        (check,) = (check for check in report.checks if check.name == family)
        assert check.max_error > bound
        assert perturbed

    def test_families_below_the_proposed_bound_unperturbed(self):
        # Which families could tighten to the proposed bound today, on the
        # full grid.  The herald family's closed form and the end-to-end
        # chain sit above it (ROADMAP item 10's table).
        report = run_verification()
        below = [check.name for check, (_, scale, _) in zip(report.checks, verify.FAMILIES)
                 if check.max_error <= self.PROPOSED_BOUND * scale]
        assert below == [
            "thermal click probabilities",
            "channel thermal transform",
            "displaced thermal moments",
            "wigner slices",
            "background receiver clicks",
        ]

    def test_verification_detects_perturbation(self):
        report = run_verification(quick=True, perturbation=1e-6)
        assert not report.passed
