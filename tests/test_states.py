import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qillum.channel import TargetChannel, apply_channel, channel_images
from qillum.errors import DegenerateHeraldingError, NumericalInstabilityError
from qillum.povm import ClickMultiplex, click_distribution, click_probability
from qillum.states import (
    PHYSICALITY_CHECK_LEVELS,
    DisplacedThermal,
    SignedThermalMixture,
    _absorb_residual,
    _checked_row,
    _mean_is_negative,
    _mixture_distribution,
    _rounding_error,
    checked_mixtures,
    herald_state,
    herald_states,
    mean_photon,
    photon_number_distribution,
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
    "photon_number_distribution": lambda state: photon_number_distribution(state, 5),
    "wigner_slice": lambda state: wigner_slice(state, [0.0]),
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
        with pytest.raises(TypeError):
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
            p = photon_number_distribution(state, PHYSICALITY_CHECK_LEVELS)
            n = np.arange(p.size)
            return p @ (n * n) - (p @ n) ** 2

        wide = herald_state(1.0, 0.9, 2, 2).state
        narrow = herald_state(1.0, 0.9, 10, 2).state
        assert variance(narrow) < variance(wide)

    def test_partial_sums_bounded(self):
        p = photon_number_distribution(herald_state(2.0, 0.9, 3, 2).state, 300)
        assert np.all(p >= -1e-12)
        assert math.fsum(p.tolist()) <= 1 + 1e-12

    def test_displaced_unsupported(self):
        with pytest.raises(TypeError):
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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), width=st.integers(0, 8), rows=st.integers(1, 4))
    def test_scan_widens_doubles_as_a_direct_conversion(self, data, width, rows):
        # the scan widens doubles through a float array; the longdouble values
        # must be those a direct np.longdouble conversion of the floats gives
        def block(values):
            row = st.lists(values, min_size=width, max_size=width).map(tuple)
            return tuple(data.draw(st.lists(row, min_size=rows, max_size=rows)))

        weights, means = block(st.floats(-1e8, 1e8)), block(st.floats(0.0, 1e3))
        m = np.array(means, dtype=np.longdouble)[..., None]
        comp = np.repeat(m / (1.0 + m), PHYSICALITY_CHECK_LEVELS + 1, axis=-1)
        comp[..., :1] = 1.0 / (1.0 + m)
        np.multiply.accumulate(comp, axis=-1, out=comp)
        expected = (np.array(weights, dtype=np.longdouble)[..., None, :] @ comp)[..., 0, :]
        got = _mixture_distribution(weights, means, PHYSICALITY_CHECK_LEVELS)
        assert got.dtype == np.longdouble
        assert np.array_equal(got, expected)


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
        # finite inputs cannot give a NaN p_n, so one is injected at the last
        # level each pass reads, in doubles and in longdouble; the check must
        # reject the row, not pass it
        def with_nan(weights, means, n_max, dtype=np.longdouble):
            probs = _mixture_distribution(weights, means, n_max, dtype)
            probs[..., -1] = np.nan
            return probs

        monkeypatch.setattr("qillum.states._mixture_distribution", with_nan)
        with pytest.raises(ValueError, match="unphysical"):
            SignedThermalMixture.thermal(1.0)

    def test_a_built_mixture_keeps_what_it_was_given(self):
        # the mixture once stored the caller's lists: a later edit changed a
        # validated mixture, and the frozen mixture could not be hashed
        weights, means = [0.5, 0.5], [1.0, 2.0]
        mixture = SignedThermalMixture(weights, means)
        weights[0], means[0] = 5.0, 7.0
        assert (mixture.weights, mixture.means) == ((0.5, 0.5), (1.0, 2.0))
        assert hash(mixture) == hash(SignedThermalMixture((0.5, 0.5), (1.0, 2.0)))

    def test_float32_components_are_stored_as_doubles(self):
        # float32 weights once made the mean 1.5499999523162842
        mixture = SignedThermalMixture((np.float32(0.5),) * 2, (1.0, np.float32(2.0)))
        assert all(type(x) is float for x in mixture.weights + mixture.means)
        wide = SignedThermalMixture((np.float32(0.5),) * 2, (1.0, 2.1))
        assert mean_photon(wide) == math.fsum([0.5 * 1.0, 0.5 * 2.1]) == 1.55
        assert checked_mixtures([((np.float32(1.0),), (np.float32(1.5),))]) == [
            SignedThermalMixture((1.0,), (1.5,))]

    def test_float32_displaced_means_are_stored_as_doubles(self):
        # a float32 coherent mean once gave a click probability 4e-9 off
        state = DisplacedThermal(np.float32(1.1), np.float32(0.5))
        assert (type(state.coherent_mean), type(state.thermal_mean)) == (float, float)
        wide = DisplacedThermal(float(np.float32(1.1)), 0.5)
        receiver = ClickMultiplex(1, 0.9)
        assert click_probability(receiver, 1, state) == click_probability(receiver, 1, wide)

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


def herald_row(nbar, eta, detectors, clicks):
    """The (weights, means) row of ``herald_state`` before any check, or None if degenerate."""
    means = [(nbar - nbar * s) / (1.0 + nbar * s)
             for s in (eta * (detectors - l) / detectors for l in range(clicks + 1))]
    terms = [math.comb(clicks, l) * (-1) ** (clicks - l) * (1.0 + m) for l, m in enumerate(means)]
    denom = math.fsum(terms)
    if abs(denom) < 1e-300:
        return None
    weights = [t / denom for t in terms]
    _absorb_residual(weights)
    return tuple(weights), tuple(means)


@st.composite
def herald_rows(draw):
    detectors = draw(st.integers(1, 16))
    nbar = draw(st.sampled_from([0.02, 1.0, 20.0]) | st.floats(1e-4, 1e3))
    eta = draw(st.sampled_from([1.0, 0.9]) | st.floats(0.05, 1.0))
    row = herald_row(nbar, eta, detectors, draw(st.integers(0, detectors)))
    assume(row is not None)
    return row


@st.composite
def image_rows(draw):
    # a herald row through a target channel; n_B = 0 keeps the herald's shape
    weights, means = draw(herald_rows())
    kappa = draw(st.sampled_from([0.1, 0.8]) | st.floats(0.01, 0.99))
    background = draw(st.sampled_from([0.0, 10.0]) | st.floats(0.0, 20.0))
    return weights, tuple(kappa * m + background for m in means)


@st.composite
def signed_rows(draw):
    # negative or tied top components, zero means and weights, weights near
    # 1e7; the last weight makes the trace one
    size = draw(st.integers(1, 6))
    mean = st.sampled_from([0.0, 1.0, 10.0, 10.5]) | st.floats(0.0, 50.0)
    means = draw(st.lists(mean, min_size=size, max_size=size))
    if size > 1 and draw(st.booleans()):
        means[0] = max(means)
    weight = st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e7, -1e7]) | st.floats(-1e7, 1e7)
    weights = draw(st.lists(weight, min_size=size - 1, max_size=size - 1))
    weights.append(1.0 - math.fsum(weights))
    order = draw(st.permutations(range(size)))
    return tuple(weights[i] for i in order), tuple(means[i] for i in order)


def full_scan(rows):
    """``checked_mixtures`` with each row scanned alone on every level to PHYSICALITY_CHECK_LEVELS."""
    mixtures = []
    for weights, means in rows:
        _, _, tol = _checked_row(weights, means)
        value = float(_mixture_distribution(weights, means, PHYSICALITY_CHECK_LEVELS).min())
        if not (value >= -tol):
            raise ValueError(
                f"mixture is unphysical: p_n reaches {value:.3e} (tolerance {tol:.1e})"
            )
        mixtures.append((tuple(weights), tuple(means)))
    return mixtures


def longdouble_reads(monkeypatch, build):
    """The (rows, levels) that each longdouble pass of ``build()`` reads."""
    reads = []

    def recorded(weights, means, n_max, dtype=np.longdouble):
        if dtype == np.longdouble:
            reads.append((len(means), n_max + 1))
        return _mixture_distribution(weights, means, n_max, dtype)

    monkeypatch.setattr("qillum.states._mixture_distribution", recorded)
    build()
    monkeypatch.undo()
    return reads


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

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        detectors=st.integers(1, 8),
        eta=st.sampled_from([1.0]) | st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_drawn_grid_equals_points(self, data, detectors, eta):
        # a grid of 60-70 means ends on either side of the 64-row scan block,
        # so a failing point may fall after a full block; any grid must equal
        # its points hex for hex, and a grid with a failing point must raise
        # what its first failing point raises alone
        clicks = data.draw(st.integers(0, detectors))
        nbars = st.sampled_from([0.0156, 1.0, 5.0]) | st.floats(0.01, 20.0)  # repeats, too
        grid = data.draw(st.lists(nbars, max_size=8) | st.lists(nbars, min_size=60, max_size=70))
        if data.draw(st.booleans()):  # nbar 0, which fails every herald with clicks
            grid.insert(data.draw(st.integers(0, len(grid))), 0.0)
        points, failure = [], None
        for nbar in grid:
            try:
                points.append(exact(herald_state(nbar, eta, detectors, clicks)))
            except Exception as exc:
                failure = exc
                break
        if failure is None:
            assert [exact(h) for h in herald_states(grid, eta, detectors, clicks)] == points
        else:
            with pytest.raises(type(failure)) as raised:
                herald_states(grid, eta, detectors, clicks)
            assert str(raised.value) == str(failure)

    def test_batched_scan_equals_one_row(self, monkeypatch):
        # blocks mix component counts 1 .. 9, padded to the widest row with
        # (weight 0, mean 0) components; the doubles pass reads every row,
        # and a padded row read again in longdouble must equal the row
        # computed alone to that level.  The rows are the heralds' before
        # their checks, so those herald_state refuses for a negative mean are
        # scanned too.  The deep-tail mixture comes last and still fails.
        rows = [row for args in herald_grid((0.01, 0.1, 1.0, 5.0, 20.0), 8)
                if (row := herald_row(*args)) is not None]
        near_degenerate = herald_state(0.01, 0.9, 8, 8).state
        assert (near_degenerate.weights, near_degenerate.means) in rows
        rows.append(((2.0, -1.0), (10.0, 10.5)))  # deep-tail negativity
        blocks, rereads = [], []

        def recorded(weights, means, n_max, dtype=np.longdouble):
            probs = _mixture_distribution(weights, means, n_max, dtype)
            if dtype == np.longdouble:
                rereads.append((weights.tolist(), means.tolist(), probs))
            else:
                blocks.append(means)
            return probs

        monkeypatch.setattr("qillum.states._mixture_distribution", recorded)
        with pytest.raises(ValueError, match="unphysical"):
            checked_mixtures(rows)
        monkeypatch.undo()
        assert len(blocks) > 1 and len({len(w) for w, _ in rows[:len(blocks[0])]}) > 1
        assert sum(map(len, blocks)) == len(rows)
        assert len(rereads) > 1
        for weights, means, probs in rereads:
            for w, m, padded in zip(weights, means, probs):
                while w[-1] == m[-1] == 0.0:  # no row ends in a (0, 0) component
                    w.pop(), m.pop()
                assert (tuple(w), tuple(m)) in rows
                assert np.array_equal(padded, _mixture_distribution(w, m, len(padded) - 1))

    def test_a_float32_mean_is_read_as_a_double(self):
        # float32 arithmetic once made this physical herald's p_n reach -1.2e-8
        assert herald_state(np.float32(1.0), 0.9, 1, 1) == herald_state(1.0, 0.9, 1, 1)
        with pytest.raises(DegenerateHeraldingError, match=r"nbar=0, eta"):  # the mean as given
            herald_state(Fraction(0), 0.9, 2, 2)

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

    def test_negative_mean_raises(self):
        # cancellation in the weights once gave these heralds negative means
        with pytest.raises(NumericalInstabilityError) as alone:
            herald_state(0.001, 0.95, 16, 8)  # at herald probability 0
        assert str(alone.value) == (
            "herald mean -0.000324249267578125 is negative for nbar=0.001, eta=0.95, N=16, k=8")
        with pytest.raises(NumericalInstabilityError) as together:
            herald_states([1.0, 0.001, math.nan], 0.95, 16, 8)
        assert str(together.value) == str(alone.value)
        with pytest.raises(NumericalInstabilityError,
                           match=r"herald mean -0\.1045117974281311 is negative for "
                                 r"nbar=0\.007715338519134527, eta=0\.19194523493065202, "
                                 r"N=38, k=23"):
            herald_state(0.007715338519134527, 0.19194523493065202, 38, 23)
        # a k = 0 herald at eta 1 is vacuum, of mean exactly 0
        assert mean_photon(herald_state(0.5, 1.0, 3, 0).state) == 0.0
        assert mean_photon(herald_states([0.0, 2.0], 1.0, 1, 0)[1].state) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(row=herald_rows() | signed_rows())
    @example(row=((1.0, -1.0), (1.0, 1.0 + 2.0 ** -52)))  # exactly -2^-52
    @example(row=((1.0, -1.0), (1.0 + 2.0 ** -52, 1.0)))
    @example(row=((0.1, -0.1), (3.0, 3.0)))  # exactly 0
    @example(row=((1.0, -1.0), (5e-324, 1e-323)))  # subnormal products
    @example(row=((0.1, 0.7, 0.2), (1e-310, 0.0, 3e-310)))
    def test_negative_mean_is_decided_exactly(self, row):
        weights, means = row
        exact = sum(Fraction(w) * Fraction(m) for w, m in zip(weights, means))
        assert _mean_is_negative(list(weights), list(means)) == (exact < 0)

    def test_scan_memory_is_bounded(self):
        # the scan holds one block of running products at a time; a whole
        # 500-point column at once would take about 10 MB.  So does the scan
        # of the column's channel images, which peaked at 1.38 MB when every
        # level was read in longdouble and at 0.97 MB read in doubles.
        grid, eta = FIGURE_GRIDS["herald_stats"]
        channel = TargetChannel(0.1, 10.0)
        pairs = [(channel, h.state) for h in herald_states(grid, eta, 4, 4)]
        peaks = []
        tracemalloc.start()
        try:
            for column in (lambda: herald_states(grid, eta, 4, 4), lambda: channel_images(pairs)):
                tracemalloc.reset_peak()
                start, _ = tracemalloc.get_traced_memory()
                column()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert max(peaks) < 1_200_000


class TestScanLevels:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.lists(herald_rows() | image_rows() | signed_rows(), min_size=1, max_size=8)
           | st.lists(herald_rows() | image_rows(), min_size=60, max_size=70))
    @example(rows=[((2.0, -1.0), (10.0, 10.5))])  # p_n turns negative at n = 171
    @example(rows=[((1.5, -0.5), (0.0, 1.0)), ((1.0,), (1.0,))])
    # a positive top whose middle component drives p_3 and p_4 negative
    @example(rows=[((1.0, -0.2, 0.2), (0.25, 3.0, 9.0))])
    # tied top means of net weight -0.01 turn p_n negative only from n = 12
    @example(rows=[((10.0, -10.01, 1.01), (5.0, 5.0, 1.0))])
    @example(rows=[herald_row(0.01, 0.9, 8, 8)])  # near-degenerate: weights near 1e7
    # +-1e7 weights: an exact thermal state, and a row negative from p_0 to p_200
    @example(rows=[((1e7, -1e7, 1.0), (1.0, 1.0, 1.0)), ((-1e7, 10000001.0), (10.5, 0.0))])
    # minima 5e-14 above and below -tolerance, at p_1
    @example(rows=[((1.000000000003804, -3.804068171575636e-12), (0.0, 1.0)),
                   ((1.000000000004204, -4.203970505045618e-12), (0.0, 1.0))])
    def test_verdicts_equal_the_full_scan(self, rows):
        # a block decided in doubles wherever the rounding bound allows returns
        # the same mixtures, or raises the same message, as every row read to
        # the end in longdouble
        try:
            expected = full_scan(rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                checked_mixtures(rows)
            assert str(raised.value) == str(exc)
        else:
            assert [(m.weights, m.means) for m in checked_mixtures(rows)] == expected

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(row=herald_rows() | image_rows() | signed_rows())
    def test_doubles_lie_within_their_rounding_error(self, row):
        # the scan decides a level in doubles only through this bound on p_n
        # and S_n, so it must hold at every level, near-degenerate rows too.
        # The reference sums carry 60 digits: they are off by less than
        # 1e-50 S_n, which the assertion leaves as slack.
        weights, means = row
        sizes = np.abs(weights)
        got = _mixture_distribution([weights, sizes], means, PHYSICALITY_CHECK_LEVELS, np.float64)
        relative, absolute = _rounding_error(len(weights), np.float64)
        with localcontext() as context:
            context.prec = 60
            floor = 1 + sum(map(Decimal, sizes))
            scale = mixture_distribution(sizes, means, PHYSICALITY_CHECK_LEVELS, Decimal)
            for signed, doubles in zip((weights, sizes), got.tolist()):
                exact = mixture_distribution(signed, means, PHYSICALITY_CHECK_LEVELS, Decimal)
                for n, (value, e, s) in enumerate(zip(doubles, exact, scale)):
                    bound = Decimal(relative[n]) * s + Decimal(absolute) * floor
                    assert abs(Decimal(value) - e) + s.scaleb(-50) <= bound, n

    # Measured: 31 herald-stats rows and 17 click-prob rows, all of the
    # (2, 2) and (4, 4) columns at small nbar, are read again at p_0 alone.
    @pytest.mark.parametrize("figure, most", [("herald_stats", 35), ("click_prob", 18)])
    def test_figure_herald_columns_read_few_rows_again(self, monkeypatch, figure, most):
        grid, eta = FIGURE_GRIDS[figure]
        reads = longdouble_reads(
            monkeypatch, lambda: [herald_states(grid, eta, *o) for o in FIGURE_OUTCOMES])
        assert 0 < sum(rows for rows, _ in reads) <= most
        assert {levels for _, levels in reads} == {1}

    @pytest.mark.parametrize("kappa", [0.1, 0.8])
    def test_bright_background_images_are_decided_in_doubles(self, monkeypatch, kappa):
        grid, eta = FIGURE_GRIDS["click_prob"]
        columns = [herald_states(grid, eta, *outcome) for outcome in FIGURE_OUTCOMES]
        channel = TargetChannel(kappa, 10.0)
        build = lambda: [channel_images((channel, h.state) for h in column) for column in columns]
        assert longdouble_reads(monkeypatch, build) == []

    def test_deep_tail_mixture_reads_every_level(self, monkeypatch):
        # it is negative only from p_171 on, which the longdouble pass must reach
        def build():
            with pytest.raises(ValueError, match="unphysical"):
                SignedThermalMixture((2.0, -1.0), (10.0, 10.5))

        assert longdouble_reads(monkeypatch, build) == [(1, PHYSICALITY_CHECK_LEVELS + 1)]
