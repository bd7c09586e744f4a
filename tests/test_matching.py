import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qillum.channel import TargetChannel, apply_channel
from qillum.matching import MatchSpec, coherent_click_prob, matched_mean, thermal_click_prob
from qillum.povm import ClickMultiplex, click_probability
from qillum.states import herald_state


class TestCoherentClickProb:
    def test_zero_mean(self):
        assert coherent_click_prob(0.0, 0.9) == 0.0

    def test_unit_efficiency(self):
        assert coherent_click_prob(1.0, 1.0) == pytest.approx(1 - math.exp(-1.0), abs=1e-15)

    def test_lossy(self):
        assert coherent_click_prob(1.0, 0.9) == pytest.approx(1 - math.exp(-0.9), abs=1e-15)

    def test_monotone(self):
        values = [coherent_click_prob(n, 0.8) for n in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values)


class TestThermalClickProb:
    def test_zero_mean(self):
        assert thermal_click_prob(0.0, 0.9) == 0.0

    def test_closed_form(self):
        assert thermal_click_prob(1.0, 0.9) == pytest.approx(0.9 / 1.9, abs=1e-15)

    def test_below_coherent_at_equal_mean(self):
        for nbar in (0.3, 1.0, 3.0):
            assert thermal_click_prob(nbar, 0.9) < coherent_click_prob(nbar, 0.9)


class TestMatchedMean:
    def test_zero(self):
        assert matched_mean(MatchSpec(0.0, 0.9)) == 0.0

    def test_reference_value(self):
        got = matched_mean(MatchSpec(1.0, 0.9))
        assert got == pytest.approx((math.exp(0.9) - 1.0) / 0.9, abs=1e-14)
        assert got == pytest.approx(1.62, abs=0.005)

    def test_larger_input(self):
        got = matched_mean(MatchSpec(2.0, 0.9))
        assert got == pytest.approx((math.exp(1.8) - 1.0) / 0.9, abs=1e-12)

    def test_identity_on_grid(self):
        for nbar_alpha in (0.1, 0.5, 1.0, 2.0, 5.0):
            for eta_e in (0.3, 0.9, 1.0):
                matched = matched_mean(MatchSpec(nbar_alpha, eta_e))
                lhs = thermal_click_prob(matched, eta_e)
                rhs = coherent_click_prob(nbar_alpha, eta_e)
                assert abs(lhs - rhs) < 1e-12
                assert matched >= nbar_alpha

    def test_convex_increasing(self):
        grid = [0.1 * i for i in range(1, 51)]
        values = [matched_mean(MatchSpec(n, 0.9)) for n in grid]
        first = [b - a for a, b in zip(values, values[1:])]
        assert all(d > 0 for d in first)
        assert all(d2 >= d1 for d1, d2 in zip(first, first[1:]))

    @settings(max_examples=60, deadline=None)
    @given(
        nbar_alpha=st.floats(min_value=0.0, max_value=5.0),
        eta_e=st.floats(min_value=0.3, max_value=1.0),
    )
    def test_identity_property(self, nbar_alpha, eta_e):
        matched = matched_mean(MatchSpec(nbar_alpha, eta_e))
        assert abs(
            thermal_click_prob(matched, eta_e) - coherent_click_prob(nbar_alpha, eta_e)
        ) < 1e-12

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_means_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MatchSpec(bad, 0.9)
        with pytest.raises(ValueError, match="finite"):
            coherent_click_prob(bad, 0.9)
        with pytest.raises(ValueError, match="finite"):
            thermal_click_prob(bad, 0.9)

    def test_overflow_rejected(self):
        # expm1 itself overflows past eta * nbar_alpha ~ 709.78; at 709.5 and
        # eta = 0.5 it does not, but the division by eta overflows to infinity
        assert math.isfinite(matched_mean(MatchSpec(700.0, 0.9)))
        with pytest.raises(ValueError, match="overflows"):
            matched_mean(MatchSpec(1000.0, 0.9))
        with pytest.raises(ValueError, match="overflows"):
            matched_mean(MatchSpec(1419.0, 0.5))

    def test_downstream_receiver_enhancement(self):
        # the matched probe yields a larger receiver click probability than
        # running the heralded probe at the bare coherent mean
        channel = TargetChannel(0.1, 10.0)
        receiver = ClickMultiplex(1, 0.9)
        for nbar_alpha in (0.2, 0.5, 1.0, 2.0, 5.0):
            matched = matched_mean(MatchSpec(nbar_alpha, 0.9))
            plain = click_probability(
                receiver, 1, apply_channel(channel, herald_state(nbar_alpha, 0.9, 1, 1).state)
            )
            boosted = click_probability(
                receiver, 1, apply_channel(channel, herald_state(matched, 0.9, 1, 1).state)
            )
            assert boosted > plain
