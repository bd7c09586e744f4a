import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qillum.channel import TargetChannel, apply_channel, background_state, channel_images
from qillum.povm import ClickMultiplex, click_probability
from qillum.states import DisplacedThermal, herald_state, mean_photon, tmsv_marginal

from scalar_reference import posterior


class TestTargetChannel:
    def test_reflectivity_range(self):
        with pytest.raises(ValueError):
            TargetChannel(0.0, 3.0)
        with pytest.raises(ValueError):
            TargetChannel(1.0, 3.0)
        with pytest.raises(ValueError):
            TargetChannel(0.5, -1.0)

    def test_non_finite_background_rejected(self):
        for nb in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                TargetChannel(0.5, nb)

    def test_background_state(self):
        for nb in (0.0, 3.0, 10.0):
            state = background_state(TargetChannel(0.5, nb))
            assert len(state.weights) == len(state.means) == 1
            assert state.means[0] == nb


class TestApplyChannel:
    def test_thermal_affine_map(self):
        out = apply_channel(TargetChannel(0.1, 3.0), tmsv_marginal(1.0))
        assert out.means[0] == pytest.approx(3.1, abs=1e-15)

    def test_vacuum_signal_gives_background(self):
        out = apply_channel(TargetChannel(0.4, 2.0), tmsv_marginal(0.0))
        assert out.means[0] == pytest.approx(2.0, abs=1e-15)

    def test_displaced_map(self):
        out = apply_channel(TargetChannel(0.3, 10.0), DisplacedThermal(1.0, 0.0))
        assert out == DisplacedThermal(0.3, 10.0)

    def test_weights_preserved(self):
        signal = herald_state(1.0, 0.9, 2, 2).state
        out = apply_channel(TargetChannel(0.3, 10.0), signal)
        assert np.allclose(out.weights, signal.weights)
        assert np.allclose(out.means, 0.3 * np.array(signal.means) + 10.0)

    def test_mean_conservation(self):
        channels = [TargetChannel(k, nb) for k in (0.1, 0.3, 0.8) for nb in (0.0, 3.0, 10.0)]
        signals = [
            tmsv_marginal(0.5),
            tmsv_marginal(5.0),
            herald_state(1.0, 0.9, 2, 2).state,
            herald_state(2.0, 0.5, 4, 3).state,
            DisplacedThermal(1.5, 0.2),
        ]
        for ch in channels:
            for signal in signals:
                expected = ch.reflectivity * mean_photon(signal) + ch.background_mean
                assert mean_photon(apply_channel(ch, signal)) == pytest.approx(expected, abs=1e-12)

    def test_images_of_a_list_equal_single_images(self):
        # mixtures of unequal component counts share one block, padded to the widest
        channel = TargetChannel(0.1, 10.0)
        signals = [tmsv_marginal(1.0), herald_state(1.0, 0.9, 4, 4).state,
                   herald_state(2.0, 0.9, 4, 4).state, tmsv_marginal(3.0)]
        images = channel_images((channel, s) for s in signals)
        assert images == [apply_channel(channel, s) for s in signals]

    def test_images_through_several_channels_equal_single_images(self):
        signal = herald_state(1.0, 0.9, 3, 3).state
        channels = [TargetChannel(kappa, nb) for kappa in (0.1, 0.8) for nb in (0.0, 3.0)]
        images = channel_images((channel, signal) for channel in channels)
        assert images == [apply_channel(channel, signal) for channel in channels]


class TestReceiverClickProb:
    def test_h0_independent_of_reflectivity(self):
        receiver = ClickMultiplex(1, 0.9)
        values = {
            click_probability(receiver, 1, background_state(TargetChannel(k, 10.0)))
            for k in (0.1, 0.3, 0.8)
        }
        assert len(values) == 1

    def test_false_alarm_closed_form(self):
        receiver = ClickMultiplex(1, 0.9)
        got = click_probability(receiver, 1, background_state(TargetChannel(0.1, 10.0)))
        assert got == pytest.approx(9.0 / 10.0, abs=1e-13)

    def test_no_click_closed_form(self):
        receiver = ClickMultiplex(1, 0.9)
        got = click_probability(receiver, 0, background_state(TargetChannel(0.1, 10.0)))
        assert got == pytest.approx(1.0 / 10.0, abs=1e-13)

    def test_coherent_lossless_background_free(self):
        # kappa-attenuated coherent state on a perfect single detector
        kappa, nbar_alpha = 0.25, 1.6
        h1 = apply_channel(TargetChannel(kappa, 0.0), DisplacedThermal(nbar_alpha, 0.0))
        got = click_probability(ClickMultiplex(1, 1.0), 1, h1)
        assert got == pytest.approx(1.0 - math.exp(-kappa * nbar_alpha), abs=1e-13)

    def test_click_completeness_forces_h1_complement(self):
        # Pr_1(1 | H1) must equal 1 - Pr_1(0 | H1)
        ch = TargetChannel(0.3, 10.0)
        h1 = apply_channel(ch, herald_state(1.0, 0.9, 2, 2).state)
        receiver = ClickMultiplex(1, 0.9)
        one = click_probability(receiver, 1, h1)
        zero = click_probability(receiver, 0, h1)
        assert one + zero == pytest.approx(1.0, abs=1e-12)

    def test_separation_present_beats_absent(self):
        # reflected heralded signal always raises the click probability
        receiver = ClickMultiplex(1, 0.9)
        for nbar in (0.1, 0.5, 1.0, 5.0, 20.0):
            for kappa in (0.1, 0.8):
                ch = TargetChannel(kappa, 10.0)
                h1 = apply_channel(ch, herald_state(nbar, 0.9, 2, 2).state)
                p1 = click_probability(receiver, 1, h1)
                p0 = click_probability(receiver, 1, background_state(ch))
                assert p1 > p0

    def test_coherent_crossover_exists_at_high_reflectivity(self):
        # at kappa = 0.8 the coherent return overtakes the (1,1)-heralded one
        ch = TargetChannel(0.8, 10.0)
        receiver = ClickMultiplex(1, 0.9)

        def gap(nbar):
            quantum = apply_channel(ch, herald_state(nbar, 0.9, 1, 1).state)
            coherent = apply_channel(ch, DisplacedThermal(nbar, 0.0))
            return click_probability(receiver, 1, coherent) - click_probability(
                receiver, 1, quantum
            )

        assert gap(0.1) < 0.0 < gap(20.0)
        crossover = brentq(gap, 0.1, 20.0)
        assert 0.1 < crossover < 20.0


class TestPosterior:
    def test_uninformative_outcome(self):
        assert posterior(0.5, 0.4, 0.4) == 0.5

    def test_direct_bayes(self):
        assert posterior(0.5, 0.3, 0.9) == pytest.approx(0.75, abs=1e-15)

    def test_absorbing_prior(self):
        assert posterior(1.0, 0.2, 0.7) == 1.0

    def test_undefined(self):
        with pytest.raises(ValueError, match="both hypothesis likelihoods are zero"):
            posterior(0.5, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        prior=st.floats(min_value=0.0, max_value=1.0),
        l0=st.floats(min_value=1e-6, max_value=1.0),
        l1=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_pair_sums_to_one(self, prior, l0, l1):
        # Pr(H0 | outcome) is defined as the complement, so the pair is exact;
        # evaluating Bayes' rule from the swapped side agrees to rounding.
        # The swapped prior must be the exact complement: 1.0 - prior rounds,
        # and at tiny priors that input error alone moves the posterior by
        # ~1e-10.  Re-deriving prior from the rounded complement makes the
        # pair sum to one exactly (Sterbenz), so only Bayes' rule is compared.
        complement = 1.0 - prior
        prior = 1.0 - complement
        p1 = posterior(prior, l0, l1)
        assert 0.0 <= p1 <= 1.0
        assert p1 + (1.0 - p1) == 1.0
        swapped = posterior(complement, l1, l0)
        assert swapped == pytest.approx(1.0 - p1, abs=1e-11)
