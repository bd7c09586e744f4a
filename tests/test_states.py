import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qillum.channel import TargetChannel, apply_channel
from qillum.errors import DegenerateHeraldingError, NumericalInstabilityError, UnsupportedStateError
from qillum.povm import ClickMultiplex, click_distribution, click_probability, normal_ordered_moment
from qillum.states import (
    PHYSICALITY_CHECK_LEVELS,
    DisplacedThermal,
    SignedThermalMixture,
    _mixture_distribution,
    checked_mixtures,
    fano_factor,
    herald_state,
    herald_states,
    mean_photon,
    photon_number_distribution,
    second_moment,
    tmsv_marginal,
    wigner_slice,
)

from fraction_reference import mixture_distribution, poisson_limit_reference

# Grids where signed-mixture weights stay moderate (|w| well below 1e4), so
# absolute 1e-12 assertions are meaningful for doubles.
TRACE_NBARS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
BOOST_NBARS = (0.01, 0.1, 1.0, 5.0, 20.0)
ETAS = (0.5, 0.9, 1.0)


# Every function that takes a state, applied to ``state`` with in-range other arguments.
STATE_FUNCTIONS = {
    "mean_photon": mean_photon,
    "second_moment": second_moment,
    "fano_factor": fano_factor,
    "photon_number_distribution": lambda state: photon_number_distribution(state, 5),
    "wigner_slice": lambda state: wigner_slice(state, [0.0]),
    "normal_ordered_moment": lambda state: normal_ordered_moment(state, 0.5),
    "click_probability": lambda state: click_probability(ClickMultiplex(2, 0.9), 1, state),
    "click_distribution": lambda state: click_distribution(ClickMultiplex(2, 0.9), state),
    "poisson_limit_reference": lambda state: poisson_limit_reference(1, 0.9, state),
    "apply_channel": lambda state: apply_channel(TargetChannel(0.1, 1.0), state),
}


def herald_grid(nbars, max_detectors=4, min_clicks=0):
    for nbar in nbars:
        for eta in ETAS:
            for detectors in range(1, max_detectors + 1):
                for clicks in range(min_clicks, detectors + 1):
                    yield nbar, eta, detectors, clicks


class TestTmsvMarginal:
    def test_vacuum(self):
        state = tmsv_marginal(0.0)
        assert (state.weights, state.means) == ((1.0,), (0.0,))

    def test_bose_einstein_ground_probability(self):
        p = photon_number_distribution(tmsv_marginal(1.0), 0)
        assert p[0] == pytest.approx(0.5, abs=1e-15)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            tmsv_marginal(-0.1)


class TestHeraldState:
    def test_single_click_probability(self):
        h = herald_state(1.0, 0.95, 1, 1)
        assert h.herald_probability == pytest.approx(1 - 1 / 1.95, abs=1e-14)

    def test_no_click_state_is_single_thermal(self):
        h = herald_state(2.0, 0.7, 1, 0)
        assert len(h.state.weights) == len(h.state.means) == 1
        assert h.state.weights[0] == pytest.approx(1.0, abs=1e-15)
        assert h.state.means[0] == pytest.approx((2.0 - 1.4) / (1 + 1.4), abs=1e-15)

    def test_full_click_fock_support(self):
        p = photon_number_distribution(herald_state(1.0, 1.0, 2, 2).state, 5)
        assert abs(p[0]) < 1e-14 and abs(p[1]) < 1e-14

    def test_degenerate_at_zero_efficiency(self):
        with pytest.raises(DegenerateHeraldingError):
            herald_state(1.0, 0.0, 2, 1)
        # k = 0 at zero efficiency is a plain unconditioned thermal
        h = herald_state(1.0, 0.0, 2, 0)
        assert h.herald_probability == pytest.approx(1.0, abs=1e-15)
        assert mean_photon(h.state) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.0, 1.5, 2, 1), "efficiency"),
            ((1.0, 0.9, 0, 0), "at least one detector"),
            ((1.0, 0.9, 2, 3), "clicks must lie in"),
            # the closed form would return a "probability" of 1 from weights near 3e16
            ((1.0, 0.9, 70, 66), "beyond 64"),
        ],
    )
    def test_out_of_range_inputs_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            herald_state(*args)

    @pytest.mark.parametrize("name", STATE_FUNCTIONS)
    def test_state_functions_take_the_state_not_the_herald_pair(self, name):
        # a heralded result is (state, herald_probability); only its state is a state
        heralded = herald_state(1.0, 0.9, 2, 1)
        STATE_FUNCTIONS[name](heralded.state)
        with pytest.raises(UnsupportedStateError):
            STATE_FUNCTIONS[name](heralded)

    def test_trace_one(self):
        for nbar, eta, detectors, clicks in herald_grid(TRACE_NBARS):
            h = herald_state(nbar, eta, detectors, clicks)
            total = math.fsum(h.state.weights)
            assert abs(total - 1.0) < 1e-12

    def test_herald_probability_law(self):
        # a complete POVM on the thermal idler: outcome probabilities sum to one
        for nbar in TRACE_NBARS:
            for eta in ETAS:
                for detectors in range(1, 5):
                    total = math.fsum(
                        herald_state(nbar, eta, detectors, k).herald_probability
                        for k in range(detectors + 1)
                    )
                    assert abs(total - 1.0) < 1e-12


class TestMeanPhoton:
    def test_unit_efficiency_boost_is_one(self):
        for nbar in (0.01, 0.1, 1.0, 10.0):
            boost = mean_photon(herald_state(nbar, 1.0, 1, 1).state) - nbar
            assert boost == pytest.approx(1.0, abs=1e-12)

    def test_thermal_identity(self):
        assert mean_photon(tmsv_marginal(3.7)) == 3.7

    def test_lossy_single_click_value(self):
        got = mean_photon(herald_state(1.0, 0.95, 1, 1).state)
        assert got == pytest.approx(1.0 + 2.0 / 1.95, abs=1e-12)

    def test_boost_when_all_detectors_fire(self):
        # k = N conditions the mean upward for every nbar on the grid
        for nbar, eta, detectors, clicks in herald_grid(BOOST_NBARS, min_clicks=1):
            if clicks == detectors:
                assert mean_photon(herald_state(nbar, eta, detectors, clicks).state) > nbar

    def test_boost_for_any_click_at_low_mean(self):
        # partial outcomes (k < N) also boost while the source is dim
        for nbar, eta, detectors, clicks in herald_grid((0.01, 0.1, 0.5, 1.0), min_clicks=1):
            assert mean_photon(herald_state(nbar, eta, detectors, clicks).state) > nbar

    def test_partial_click_outcomes_can_reduce_the_mean(self):
        # exactly-one-click-of-two on a bright source post-selects dim pulses;
        # the (2, 1) boost changes sign at nbar = sqrt(2)/eta
        assert mean_photon(herald_state(5.0, 0.5, 2, 1).state) < 5.0
        pivot = math.sqrt(2.0) / 0.9
        assert mean_photon(herald_state(pivot - 0.05, 0.9, 2, 1).state) > pivot - 0.05
        assert mean_photon(herald_state(pivot + 0.05, 0.9, 2, 1).state) < pivot + 0.05

    def test_single_click_multiplex_ordering(self):
        # one click heralds a larger boost when the detector is alone
        for nbar in BOOST_NBARS:
            for eta in ETAS:
                m11 = mean_photon(herald_state(nbar, eta, 1, 1).state)
                m21 = mean_photon(herald_state(nbar, eta, 2, 1).state)
                assert m11 > m21

    def test_monotone_in_clicks(self):
        for nbar in BOOST_NBARS:
            for eta in ETAS:
                for detectors in range(1, 5):
                    means = [
                        mean_photon(herald_state(nbar, eta, detectors, k).state)
                        for k in range(detectors + 1)
                    ]
                    assert all(a < b for a, b in zip(means, means[1:]))

    @settings(max_examples=60, deadline=None)
    @given(
        nbar=st.floats(min_value=0.01, max_value=20.0),
        eta=st.floats(min_value=0.05, max_value=1.0),
        detectors=st.integers(min_value=1, max_value=4),
    )
    def test_boost_property(self, nbar, eta, detectors):
        h = herald_state(nbar, eta, detectors, detectors)
        assert mean_photon(h.state) > nbar


class TestPhotonNumberDistribution:
    def test_thermal_bose_einstein(self):
        p = photon_number_distribution(tmsv_marginal(1.0), 10)
        assert np.allclose(p, 0.5 ** (np.arange(11) + 1), atol=1e-15)

    def test_fock_support_two_clicks(self):
        p = photon_number_distribution(herald_state(1.0, 0.9, 2, 2).state, 8)
        assert abs(p[0]) < 1e-14 and abs(p[1]) < 1e-14

    def test_fock_support_on_grid(self):
        # stored double weights bound the achievable cancellation at
        # sum(|w|) * eps, so the tolerance carries the weight scale
        for nbar, eta, detectors, clicks in herald_grid(TRACE_NBARS, min_clicks=1):
            state = herald_state(nbar, eta, detectors, clicks).state
            scale = float(np.abs(state.weights).sum())
            p = photon_number_distribution(state, clicks - 1)
            assert np.all(np.abs(p) < 1e-12 * max(1.0, scale))

    def test_fock_support_strict_at_moderate_weights(self):
        for nbar in (1.0, 2.0, 5.0):
            for detectors, clicks in ((2, 2), (3, 2), (4, 3)):
                p = photon_number_distribution(
                    herald_state(nbar, 0.9, detectors, clicks).state, clicks - 1
                )
                assert np.all(np.abs(p) < 1e-12)

    def test_more_detectors_concentrate_distribution(self):
        # with many detectors and fixed clicks the state approaches a Fock state
        def variance(state):
            return second_moment(state) - mean_photon(state) ** 2

        wide = herald_state(1.0, 0.9, 2, 2).state
        narrow = herald_state(1.0, 0.9, 10, 2).state
        assert variance(narrow) < variance(wide)

    def test_partial_sums_bounded(self):
        p = photon_number_distribution(herald_state(2.0, 0.9, 3, 2).state, 300)
        assert np.all(p >= -1e-12)
        assert math.fsum(p.tolist()) <= 1 + 1e-12

    def test_displaced_unsupported(self):
        with pytest.raises(UnsupportedStateError):
            photon_number_distribution(DisplacedThermal(1.0, 0.5), 10)

    @pytest.mark.parametrize(
        "nbar, eta, detectors, clicks",
        [
            (0.01, 0.9, 4, 4),
            (0.05, 0.9, 4, 4),
            (0.01, 1.0, 8, 8),
            (1.0, 0.9, 2, 2),
            (5.0, 0.5, 4, 3),
            (20.0, 1.0, 3, 1),
            (2.0, 0.9, 1, 0),
        ],
    )
    def test_matches_exact_rational_sum(self, nbar, eta, detectors, clicks):
        # the extended-precision sum stays within 1e-18 * sum|w| of the exact
        # value on all checked levels, near-degenerate weights (~1e16) included
        state = herald_state(nbar, eta, detectors, clicks).state
        scale = float(np.abs(state.weights).sum())
        n_max = PHYSICALITY_CHECK_LEVELS
        got = _mixture_distribution(state.weights, state.means, n_max)
        exact = mixture_distribution(state.weights, state.means, n_max)
        bound = Fraction(1e-18) * Fraction(scale)
        for n, (p, q) in enumerate(zip(got, exact)):
            assert abs(Fraction(*p.as_integer_ratio()) - q) <= bound, n


class TestFanoFactor:
    def test_thermal(self):
        for nbar in (0.2, 1.0, 4.0):
            assert fano_factor(tmsv_marginal(nbar)) == pytest.approx(1.0 + nbar, abs=1e-12)

    def test_coherent_is_poissonian(self):
        assert fano_factor(DisplacedThermal(2.3, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_two_click_herald_is_sub_poissonian(self):
        assert fano_factor(herald_state(0.1, 0.9, 2, 2).state) < 1.0

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            fano_factor(tmsv_marginal(0.0))

    def test_coherent_at_the_largest_mean(self):
        # variance over mean, with no mean**2 to overflow (an OverflowError once)
        assert fano_factor(DisplacedThermal(1e308, 0.0)) == 1.0

    @pytest.mark.parametrize("thermal", [1e200, 1e308])
    def test_thermal_part_at_a_large_mean(self, thermal):
        # 1 + m fits a double; the variance m(1 + m) does not
        assert fano_factor(DisplacedThermal(0.0, thermal)) == thermal

    def test_displaced_both_parts_at_a_large_mean(self):
        # mu + m overflows a double, the Fano factor 1 + m + m/2 does not
        assert fano_factor(DisplacedThermal(1e308, 1e308)) == 1.5e308

    @pytest.mark.parametrize("mu, m", [(0.3, 0.0), (1.3, 0.7), (0.09, 3.0), (5.0, 1e-3)])
    def test_displaced_equals_variance_over_mean(self, mu, m):
        variance = mu * (1.0 + 2.0 * m) + m * (1.0 + m)
        assert fano_factor(DisplacedThermal(mu, m)) == pytest.approx(variance / (mu + m), rel=1e-15)


class TestWignerSlice:
    def test_vacuum_peak(self):
        w = wigner_slice(tmsv_marginal(0.0), [0.0])
        assert w[0] == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_thermal_peak(self):
        w = wigner_slice(tmsv_marginal(1.0), [0.0])
        assert w[0] == pytest.approx(1.0 / (3.0 * math.pi), abs=1e-15)

    def test_huge_coordinate_gives_the_limit(self):
        # q^2 overflows; the overflow warning once failed the suite
        w = wigner_slice(herald_state(1.0, 0.9, 2, 2).state, [1e308, -1e200])
        assert w.tolist() == [0.0, 0.0]

    def test_two_click_herald_goes_negative(self):
        # negativity sits on a ring near |q| ~ 1, not at the origin
        q = np.linspace(0.0, 3.0, 301)
        w = wigner_slice(herald_state(1.0, 0.9, 2, 2).state, q)
        assert w.min() < -1e-3

    def test_radial_mass(self):
        # integrating the rotationally symmetric W over radius [0, 12]
        # recovers unit total mass
        for nbar, eta, detectors, clicks in herald_grid((0.5, 1.0, 2.0, 4.0), max_detectors=3):
            state = herald_state(nbar, eta, detectors, clicks).state
            weights, means = np.array(state.weights), np.array(state.means)

            def radial(r):
                widths = 2.0 * means + 1.0
                return 2.0 * r * float(
                    (weights / widths) @ np.exp(-r * r / widths)
                )

            mass, _ = quad(radial, 0.0, 12.0, limit=200)
            assert abs(mass - 1.0) < 1e-6


class TestMixtureValidation:
    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            SignedThermalMixture((0.7,), (1.0,))

    def test_unphysical_mixture_rejected(self):
        # weights sum to one but p_0 = 1.5 - 0.5/2 < 0 is impossible; this
        # one makes p_1 negative: 1.5*thermal(0) - 0.5*thermal(1) has
        # p_1 = -0.5 * 0.25 < 0
        with pytest.raises(ValueError):
            SignedThermalMixture((1.5, -0.5), (0.0, 1.0))

    def test_deep_tail_negativity_rejected(self):
        # 2*thermal(10) - thermal(10.5) is nonnegative up to n = 170 and
        # negative from n = 171 on (minimum about -2.9e-10), so only a check
        # that reaches every level up to PHYSICALITY_CHECK_LEVELS catches it
        weights, means = (2.0, -1.0), (10.0, 10.5)
        exact = mixture_distribution(weights, means, PHYSICALITY_CHECK_LEVELS)
        assert min(exact[:171]) >= 0 and exact[171] < 0
        with pytest.raises(ValueError, match="unphysical"):
            SignedThermalMixture(weights, means)

    def test_non_finite_means_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SignedThermalMixture((1.0,), (bad,))
            with pytest.raises(ValueError, match="finite"):
                DisplacedThermal(bad, 0.0)
            with pytest.raises(ValueError, match="finite"):
                DisplacedThermal(0.0, bad)
            with pytest.raises(ValueError, match="finite"):
                tmsv_marginal(bad)
            with pytest.raises(ValueError, match="finite"):
                herald_state(bad, 0.9, 2, 2)

    def test_non_finite_distribution_fails_check(self, monkeypatch):
        # finite inputs cannot give a NaN p_n, so one is injected at level 3
        # of each row the check reads; the check must reject it, not pass it
        def with_nan(weights, means, n_max):
            probs = _mixture_distribution(weights, means, n_max)
            probs[..., 3] = np.nan
            return probs

        monkeypatch.setattr("qillum.states._mixture_distribution", with_nan)
        with pytest.raises(ValueError, match="unphysical"):
            SignedThermalMixture.thermal(1.0)

    def test_rows_report_the_first_failing_row(self):
        # the unphysical row fails only the scan, the next one a cheap check:
        # the rows raise what the unphysical row raises alone
        with pytest.raises(ValueError) as alone:
            SignedThermalMixture((1.5, -0.5), (0.0, 1.0))
        with pytest.raises(ValueError) as together:
            checked_mixtures([((1.0,), (1.0,)), ((1.5, -0.5), (0.0, 1.0)), ((math.nan,), (1.0,))])
        assert "unphysical" in str(alone.value)
        assert str(together.value) == str(alone.value)

    def test_rows_scanned_before_a_raising_generator(self):
        # the generator's own error comes after the unphysical row it yielded
        def rows():
            yield (1.0,), (1.0,)
            yield (1.5, -0.5), (0.0, 1.0)
            raise DegenerateHeraldingError("herald normalization vanished")

        with pytest.raises(ValueError) as alone:
            SignedThermalMixture((1.5, -0.5), (0.0, 1.0))
        with pytest.raises(ValueError) as together:
            checked_mixtures(rows())
        assert str(together.value) == str(alone.value)

    def test_rows_after_a_non_finite_mean_are_not_scanned(self):
        # a non-finite mean never reaches the longdouble scan, where it would
        # raise a RuntimeWarning (an error under this suite's settings)
        with pytest.raises(ValueError, match="thermal mean must be finite"):
            checked_mixtures([((1.0,), (1.0,)), ((1.0,), (math.inf,)), ((1.5, -0.5), (0.0, 1.0))])


# The herald grids of scripts/make_figure_data.py: herald-stats, and the two
# click-prob tables, which share one grid and efficiency.
FIGURE_GRIDS = {
    "herald_stats": (np.linspace(0.02, 10, 500).tolist(), 0.95),
    "click_prob": (np.linspace(0.02, 20, 500).tolist(), 0.9),
}
FIGURE_OUTCOMES = [(1, 0), (1, 1), (2, 1), (2, 2), (4, 4)]


def exact(heralded):
    state = heralded.state
    return [x.hex() for x in (*state.weights, *state.means, heralded.herald_probability)]


class TestHeraldStates:
    @pytest.mark.parametrize("figure", FIGURE_GRIDS)
    def test_grid_equals_points(self, figure):
        grid, eta = FIGURE_GRIDS[figure]
        for detectors, clicks in FIGURE_OUTCOMES:
            column = herald_states(grid, eta, detectors, clicks)
            points = [herald_state(nbar, eta, detectors, clicks) for nbar in grid]
            assert [exact(h) for h in column] == [exact(h) for h in points]

    def test_batched_scan_equals_one_row(self, monkeypatch):
        # blocks mix component counts 1 .. 9, padded to the widest row with
        # (weight 0, mean 0) components; a padded row's p_n must equal the row
        # computed alone.  The deep-tail mixture comes last and still fails.
        rows = []
        for nbar, eta, detectors, clicks in herald_grid((0.01, 0.1, 1.0, 5.0, 20.0), 8):
            try:
                state = herald_state(nbar, eta, detectors, clicks).state
            except DegenerateHeraldingError:
                continue
            rows.append((state.weights, state.means))
        near_degenerate = herald_state(0.01, 0.9, 8, 8).state
        assert (near_degenerate.weights, near_degenerate.means) in rows
        rows.append(((2.0, -1.0), (10.0, 10.5)))  # deep-tail negativity
        blocks = []

        def recorded(weights, means, n_max):
            probs = _mixture_distribution(weights, means, n_max)
            blocks.append(probs.astype(float))
            return probs

        monkeypatch.setattr("qillum.states._mixture_distribution", recorded)
        with pytest.raises(ValueError, match="unphysical"):
            checked_mixtures(rows)
        monkeypatch.undo()
        assert len(blocks) > 1 and len({len(w) for w, _ in rows[:len(blocks[0])]}) > 1
        batched = np.concatenate(blocks)
        alone = [_mixture_distribution(w, m, PHYSICALITY_CHECK_LEVELS).astype(float)
                 for w, m in rows]
        assert np.array_equal(batched, np.array(alone))

    def test_grid_reports_the_first_failing_point(self):
        with pytest.raises(DegenerateHeraldingError) as alone:
            herald_state(0.0, 0.9, 2, 2)
        with pytest.raises(DegenerateHeraldingError) as together:
            herald_states([1.0, 0.0, math.nan], 0.9, 2, 2)
        assert str(together.value) == str(alone.value)
        with pytest.raises(ValueError, match="mean photon number must be finite"):
            herald_states([1.0, math.nan, 0.0], 0.9, 2, 2)

    def test_probability_out_of_range_raises(self):
        # the (15, 8) herald's probability cancels to -1.0e-10 at nbar 0.0156;
        # it was once clamped to 0 with a mean of 0.012 for an 8-click herald
        with pytest.raises(NumericalInstabilityError,
                           match=r"probability -1\.0185911520184703e-10 is outside \[0, 1\]"):
            herald_states([0.01, 0.0156], 0.9, 15, 8)
        with pytest.raises(NumericalInstabilityError, match="outside"):
            herald_state(0.1, 0.9, 20, 10)

    def test_scan_memory_is_bounded(self):
        # the scan holds one block of running products at a time; a whole
        # 500-point column at once would take about 10 MB
        grid, eta = FIGURE_GRIDS["herald_stats"]
        tracemalloc.start()
        try:
            herald_states(grid, eta, 4, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000
