import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qillum.channel import TargetChannel, apply_channel
from qillum.errors import NumericalInstabilityError
from qillum.povm import (
    ClickMultiplex,
    _thermal_outcome_values,
    click_distribution,
    click_probabilities,
    click_probability,
    normal_ordered_moment,
    povm_fock_diagonal,
)
from qillum.states import (DisplacedThermal, SignedThermalMixture, clamp_probability, herald_state,
                           tmsv_marginal)

from fraction_reference import poisson_limit_reference, thermal_outcome_value
from kernel_reference import povm_fock_diagonal as povm_fock_diagonal_reference


def _outcome(build):
    """``build()``'s value, or the type and message of what it raises."""
    try:
        return build()
    except Exception as error:  # the two routes' errors are compared, not judged
        return type(error), str(error)


class TestNormalOrderedMoment:
    def test_displaced_vs_fock_sum(self):
        # brute force: coherent |alpha|^2 = 1, sum (1-s)^n e^-1 / n!
        s = 1.0
        brute = math.fsum((1 - s) ** n * math.exp(-1.0) / math.factorial(n) for n in range(80))
        assert normal_ordered_moment(DisplacedThermal(1.0, 0.0), s) == pytest.approx(brute, abs=1e-14)
        assert normal_ordered_moment(DisplacedThermal(1.0, 0.0), s) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_ordered_moment(DisplacedThermal(1.0, 0.0), 1.5)

    def test_displaced_thermal_only(self):
        # a thermal mixture's no-click probability is click_probability(ClickMultiplex(1, s), 0, .)
        with pytest.raises(TypeError, match="^no moment rule for SignedThermalMixture$"):
            normal_ordered_moment(SignedThermalMixture.thermal(1.0), 0.5)


class TestClickProbability:
    def test_vacuum_no_click_is_certain(self):
        assert click_probability(ClickMultiplex(1, 0.9), 0, SignedThermalMixture.thermal(0.0)) == 1.0

    def test_thermal_no_click_closed_form(self):
        # geometric sum of (1-s)^n over the Bose-Einstein distribution: 1 / (1 + s m)
        state = SignedThermalMixture.thermal(1.0)
        assert click_probability(ClickMultiplex(1, 1.0), 0, state) == 0.5
        for mean, s in [(0.5, 0.9), (2.0, 0.5), (1e6, 0.3)]:
            got = click_probability(ClickMultiplex(1, s), 0, SignedThermalMixture.thermal(mean))
            assert got == pytest.approx(1.0 / (1.0 + s * mean), rel=1e-15)

    def test_vacuum_never_clicks(self):
        mux = ClickMultiplex(1, 0.7)
        assert click_probability(mux, 1, SignedThermalMixture.thermal(0.0)) == 0.0

    def test_single_detector_thermal_closed_form(self):
        mux = ClickMultiplex(1, 0.95)
        got = click_probability(mux, 1, SignedThermalMixture.thermal(1.0))
        assert got == pytest.approx(1.0 - 1.0 / 1.95, abs=1e-15)

    def test_multiplex_value_frozen(self):
        # exact rational value: 6 * (10/19 - 80/67 + 20/29) = 4860/36917
        mux = ClickMultiplex(4, 0.9)
        got = click_probability(mux, 2, SignedThermalMixture.thermal(1.0))
        assert got == pytest.approx(4860 / 36917, abs=1e-14)

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            click_probability(ClickMultiplex(2, 0.9), 3, SignedThermalMixture.thermal(1.0))


class TestClickProbabilities:
    """A column of states through one evaluator: each value is the state's own."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        detectors=st.integers(1, 4),
        eta=st.floats(0.0, 1.0, exclude_min=True),
        nbars=st.lists(st.floats(0.01, 20.0), max_size=12),
    )
    def test_column_equals_points(self, data, detectors, eta, nbars):
        multiplex = ClickMultiplex(detectors, eta)
        clicks = data.draw(st.integers(0, detectors))
        channel = TargetChannel(0.1, 3.0)
        states = [apply_channel(channel, herald_state(nbar, 0.9, 2, 1).state) for nbar in nbars]
        states += [DisplacedThermal(nbar, 3.0) for nbar in nbars]
        column = click_probabilities(multiplex, clicks, states)
        thermal = [clamp_probability(math.fsum(
            w * thermal_outcome_value(m, detectors, clicks, eta)
            for w, m in zip(state.weights, state.means))) for state in states[:len(nbars)]]
        displaced = [click_distribution(multiplex, state)[clicks] for state in states[len(nbars):]]
        assert [p.hex() for p in column] == [float(p).hex() for p in thermal + displaced]

    def test_column_raises_what_its_first_failing_state_raises(self):
        multiplex = ClickMultiplex(2, 0.9)
        with pytest.raises(ValueError, match="clicks must lie in"):
            click_probabilities(multiplex, 3, [])
        with pytest.raises(TypeError, match="^no click rule for str$"):
            click_probabilities(multiplex, 1, [SignedThermalMixture.thermal(1.0), "thermal"])


class TestThermalOutcomeValue:
    """The integer evaluators must return the Fraction reference's double."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        detectors=st.integers(min_value=1, max_value=10_000),
        mean=st.sampled_from([0.0, 5e-324]) | st.floats(min_value=1e-4, max_value=1e6),
        eta=st.sampled_from([0.0, 1.0])
        | st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_equals_fraction_reference(self, data, detectors, mean, eta):
        clicks = data.draw(st.integers(min_value=0, max_value=min(detectors, 64)))
        ratio = eta.as_integer_ratio()
        got = _thermal_outcome_values([mean], detectors, clicks, ratio)[0][clicks]
        assert got == thermal_outcome_value(mean, detectors, clicks, eta)
        # the value alone, as a column of click probabilities reads it
        assert _thermal_outcome_values([mean], detectors, clicks, ratio, clicks) == [[got]]

    @settings(max_examples=60, deadline=None)
    @given(
        detectors=st.integers(min_value=1, max_value=10_000),
        mean=st.sampled_from([0.0, 5e-324]) | st.floats(min_value=1e-4, max_value=1e6),
        eta=st.sampled_from([0.0, 1.0])
        | st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_every_outcome_equals_fraction_reference(self, detectors, mean, eta):
        top = min(detectors, 64)
        got = _thermal_outcome_values([mean], detectors, top, eta.as_integer_ratio())[0]
        assert got == [thermal_outcome_value(mean, detectors, k, eta) for k in range(top + 1)]

    def test_sub_resolution_difference(self):
        # N = 1e4, k = 4: an fsum of the rounded terms returns 0.0 here
        got = _thermal_outcome_values([1.0], 10_000, 4, (0.9).as_integer_ratio())[0][4]
        assert got == thermal_outcome_value(1.0, 10_000, 4, 0.9)
        assert got > 0.0


class TestClickDistribution:
    def test_vacuum_completeness(self):
        dist = click_distribution(ClickMultiplex(2, 0.8), SignedThermalMixture.thermal(0.0))
        assert np.allclose(dist, [1.0, 0.0, 0.0])

    def test_single_detector_complement(self):
        dist = click_distribution(ClickMultiplex(1, 0.95), SignedThermalMixture.thermal(1.0))
        assert dist == pytest.approx([0.512821, 0.487179], abs=1e-6)

    def test_high_mean_sums_to_one(self):
        dist = click_distribution(ClickMultiplex(4, 0.9), SignedThermalMixture.thermal(5.0))
        assert abs(math.fsum(dist.tolist()) - 1.0) < 1e-12

    @pytest.mark.parametrize("detectors", [1, 2, 4, 8])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
    def test_completeness_on_fixed_state_set(self, detectors, eta):
        states = [
            SignedThermalMixture.thermal(0.0),
            SignedThermalMixture.thermal(1.0),
            SignedThermalMixture.thermal(5.0),
            herald_state(1.0, 0.9, 2, 1).state,
            herald_state(2.0, 0.9, 3, 3).state,
            DisplacedThermal(1.5, 0.7),
            DisplacedThermal(0.3, 0.0),
        ]
        mux = ClickMultiplex(detectors, eta)
        for state in states:
            dist = click_distribution(mux, state)
            assert abs(math.fsum(dist.tolist()) - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        detectors=st.integers(min_value=1, max_value=8),
        eta=st.floats(min_value=0.0, max_value=1.0),
        nbar=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_completeness_property(self, detectors, eta, nbar):
        dist = click_distribution(ClickMultiplex(detectors, eta), SignedThermalMixture.thermal(nbar))
        assert abs(math.fsum(dist.tolist()) - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        detectors=st.integers(min_value=1, max_value=64),
        nbar=st.floats(min_value=1e-3, max_value=1e3),
        eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    def test_herald_cumsum_ends_at_one(self, detectors, nbar, eta):
        # mc.build_tables pins the herald cdf under the 1e-9 likelihood-row
        # rule; the unpinned cumsum of every herald row must still end at 1
        # to the 1e-12 that click_distribution checks with exact sums
        dist = click_distribution(ClickMultiplex(detectors, eta), tmsv_marginal(nbar))
        assert abs(np.cumsum(dist)[-1] - 1.0) <= 1e-12

    @pytest.mark.parametrize("detectors", range(1, 9))
    def test_signed_mixture_equals_each_click_probability(self, detectors):
        states = [SignedThermalMixture.thermal(m) for m in (0.0, 5e-324, 0.1, 1.0, 5.0, 1e6)]
        states += [herald_state(nbar, eta, n, k).state
                   for nbar in (0.1, 1.0, 2.0) for eta in (0.5, 0.9)
                   for n in range(1, detectors + 1) for k in range(n + 1)]
        for eta in (0.0, 0.5, 0.9, 1.0):
            mux = ClickMultiplex(detectors, eta)
            for state in states:
                # a probability outside [0, 1] raises the same error on both routes
                expected = _outcome(lambda: [click_probability(mux, k, state)
                                             for k in range(detectors + 1)])
                got = _outcome(lambda: click_distribution(mux, state))
                if isinstance(expected, tuple):
                    assert got == expected
                else:
                    assert np.array_equal(got, expected)

    @pytest.mark.parametrize("state", [tmsv_marginal(1.0), DisplacedThermal(1.0, 0.0)])
    def test_65_detectors_rejected(self, state):
        with pytest.raises(ValueError, match="click counts beyond 64 .*got 65$"):
            click_distribution(ClickMultiplex(65, 0.9), state)

    @pytest.mark.parametrize("through_channel", [False, True])
    @pytest.mark.parametrize("mu, limit", [(1.0, 12), (0.09, 13), (3.0, 13)])
    def test_coherent_completeness_limit(self, mu, limit, through_channel):
        # the receiver sizes N <= 24 at which a coherent click distribution at
        # eta 0.9 fails in compensated double sums, as the README states them:
        # from ``limit`` on, but not at every larger N, first on completeness
        # and, for bare coherent states at larger N, on a probability outside
        # [0, 1]; a cancellation-free evaluator moves them
        lost, outside = {
            (1.0, False): ({12, 13, 15, 17}, {16, *range(18, 25)}),
            (1.0, True): (set(range(12, 25)), set()),
            (0.09, False): ({13, 14, 15}, set(range(16, 25))),
            (0.09, True): ({13, *range(15, 25)}, set()),
            (3.0, False): (set(range(13, 18)), set(range(18, 25))),
            (3.0, True): (set(range(13, 25)), set()),
        }[mu, through_channel]
        assert min(lost | outside) == limit
        state = DisplacedThermal(mu, 0.0)
        if through_channel:
            state = apply_channel(TargetChannel(0.1, 3.0), state)
        for detectors in range(1, 25):
            receiver = ClickMultiplex(detectors, 0.9)
            if detectors in lost | outside:
                message = "completeness lost" if detectors in lost else r"is outside \[0, 1\]"
                with pytest.raises(NumericalInstabilityError, match=message):
                    click_distribution(receiver, state)
            else:
                click_distribution(receiver, state)


class TestPoissonLimit:
    def test_no_click_closed_form(self):
        for m, eta in [(0.5, 0.9), (2.0, 0.5)]:
            got = poisson_limit_reference(0, eta, SignedThermalMixture.thermal(m))
            assert got == pytest.approx(1.0 / (1.0 + eta * m), abs=1e-15)

    def test_vacuum(self):
        assert poisson_limit_reference(0, 0.9, SignedThermalMixture.thermal(0.0)) == 1.0

    def test_one_click_thermal_one(self):
        # only the n = 1 Fock term survives at s = 1: p_1 = 1/4
        got = poisson_limit_reference(1, 1.0, SignedThermalMixture.thermal(1.0))
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_unsupported_state(self):
        with pytest.raises(TypeError):
            poisson_limit_reference(0, 0.9, DisplacedThermal(1.0, 0.0))

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("eta", [0.5, 1.0])
    def test_large_multiplex_converges(self, nbar, eta):
        mux = ClickMultiplex(10_000, eta)
        state = SignedThermalMixture.thermal(nbar)
        for k in range(5):
            finite = click_probability(mux, k, state)
            limit = poisson_limit_reference(k, eta, state)
            assert abs(finite - limit) < 1e-3


def _assert_same_coefficients(*args):
    """The coefficients equal the per-n reference's, or both raise one error; returns them."""
    got = _outcome(lambda: povm_fock_diagonal(*args))
    expected = _outcome(lambda: povm_fock_diagonal_reference(*args))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert np.array_equal(got, expected)
    return got


class TestFockDiagonal:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        detectors=st.integers(min_value=1, max_value=16),
        eta=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        n_max=st.integers(min_value=0, max_value=400),
    )
    def test_equals_the_per_n_reference(self, data, detectors, eta, n_max):
        # n_max < clicks included: every coefficient is then zero
        clicks = data.draw(st.integers(min_value=0, max_value=detectors))
        _assert_same_coefficients(detectors, clicks, eta, n_max)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        detectors=st.integers(min_value=1, max_value=8),
        eta=st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        widths=st.lists(st.integers(min_value=0, max_value=700), min_size=2, max_size=2),
    )
    def test_leading_entries_do_not_depend_on_the_width(self, data, detectors, eta, widths):
        # oracle._povm_table rebuilds its rows when a table widens; growing them
        # by columns instead (ROADMAP item 11) keeps the bits only while this holds
        clicks = data.draw(st.integers(min_value=0, max_value=detectors))
        narrow, wide = sorted(widths)
        leading = povm_fock_diagonal(detectors, clicks, eta, wide)[:narrow + 1]
        assert leading.tobytes() == povm_fock_diagonal(detectors, clicks, eta, narrow).tobytes()

    @pytest.mark.parametrize("detectors, failing", [(32, 2), (64, 31)])
    def test_equals_the_per_n_reference_where_it_fails(self, detectors, failing):
        # at eta 0.9 and n_max 160 the reference raises NumericalInstabilityError on some rows
        outcomes = [_assert_same_coefficients(detectors, k, 0.9, 160) for k in range(detectors + 1)]
        assert sum(isinstance(outcome, tuple) for outcome in outcomes) == failing

    def test_single_detector_no_click(self):
        eta = 0.8
        coeffs = povm_fock_diagonal(1, 0, eta, 12)
        assert np.allclose(coeffs, (1 - eta) ** np.arange(13), atol=1e-15)

    def test_fewer_photons_than_clicks_is_exactly_zero(self):
        coeffs = povm_fock_diagonal(2, 2, 0.9, 10)
        assert coeffs[0] == 0.0 and coeffs[1] == 0.0

    def test_one_photon_on_two_perfect_detectors(self):
        # evaluate the alternating sum by hand: 2 * [0.5^1 - 0^1] = 1
        coeffs = povm_fock_diagonal(2, 1, 1.0, 4)
        assert coeffs[1] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("detectors,clicks", [(2, 1), (3, 2), (4, 4), (4, 2)])
    def test_fock_support(self, detectors, clicks):
        coeffs = povm_fock_diagonal(detectors, clicks, 0.9, 30)
        assert np.all(coeffs[:clicks] == 0.0)
        assert np.all(coeffs >= 0.0) and np.all(coeffs <= 1.0)

    def test_single_detector_reduction_termwise(self):
        # Pr on a truncated state must reproduce the two N = 1 Fock series;
        # at n_max = 300 the thermal tail is ~1e-75 and cannot matter.
        eta, nbar, n_max = 0.7, 1.3, 300
        n = np.arange(n_max + 1)
        p = (nbar / (1 + nbar)) ** n / (1 + nbar)
        no_click = math.fsum(((1 - eta) ** n * p).tolist())
        click = math.fsum(((1 - (1 - eta) ** n) * p).tolist())
        mux = ClickMultiplex(1, eta)
        state = SignedThermalMixture.thermal(nbar)
        assert click_probability(mux, 0, state) == pytest.approx(no_click, abs=1e-12)
        assert click_probability(mux, 1, state) == pytest.approx(click, abs=1e-12)
