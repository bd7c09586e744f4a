import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qillum import mc
from qillum.channel import TargetChannel, apply_channel, background_state
from qillum.matching import MatchSpec, matched_mean
from qillum.mc import (
    LikelihoodTables,
    SignalKind,
    TrajectoryConfig,
    average_trajectories,
    build_tables,
    first_crossing,
    run_trajectory,
    trial_stream,
)
from qillum.povm import ClickMultiplex, click_distribution, click_probability
from qillum.states import SignedThermalMixture, herald_state, tmsv_marginal
from scalar_reference import ShotContext, posterior, run_shot, sample_clicks


def base_config(**overrides):
    base = dict(
        nbar=1.0,
        herald_efficiency=0.9,
        herald_detectors=1,
        receiver_efficiency=0.9,
        receiver_detectors=1,
        reflectivity=0.1,
        background_mean=3.0,
        shots=64,
        trials=8,
        seed=20260808,
        signal_kind=SignalKind.QUANTUM_HERALDED,
        target_present=True,
    )
    base.update(overrides)
    return TrajectoryConfig(**base)


def scalar_curve(config, trial):
    """Pr(H1) after each shot of one trial, from the scalar reference run_shot."""
    ctx = ShotContext(
        tables=build_tables(config),
        target_present=config.target_present,
        rng=trial_stream(config.seed, trial),
    )
    return np.array([run_shot(ctx)[0] for _ in range(config.shots)])


class TestTrajectoryConfig:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"nbar": float("nan")}, "mean photon number"),
            ({"herald_efficiency": 1.5}, "efficiency"),
            ({"receiver_efficiency": -0.1}, "efficiency"),
            ({"herald_detectors": 0}, "detector"),
            ({"receiver_detectors": 0}, "detector"),
            ({"herald_detectors": 65}, "beyond 64"),
            ({"receiver_detectors": 65}, "beyond 64"),
            ({"reflectivity": 0.0}, "reflectivity"),
            ({"reflectivity": 1.0}, "reflectivity"),
            ({"background_mean": float("inf")}, "background mean"),
            # a truthy string once ran as a present target
            ({"target_present": "false"}, "target_present must be a bool, got 'false'"),
            # a fractional multiplex size once failed mid-build with a bare TypeError
            ({"herald_detectors": 2.5}, "detector count must be an integer, got 2.5"),
            # l1 rows that miss a sum of 1 by more than _ROW_SUM_TOL
            ({"nbar": 0.01, "herald_detectors": 3}, "l1 row 3 sums to 0.99999999"),
            ({"nbar": 0.01, "herald_detectors": 6}, "l1 row 3 sums to 1.00000000"),
            # non-integer counts once constructed and failed only at run time
            ({"shots": 2.5}, "shots must be an integer, got 2.5"),
            ({"trials": 1.5}, "trials must be an integer, got 1.5"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ],
    )
    def test_rejects_out_of_range_physics(self, overrides, message):
        # the objects build_tables makes reject these at construction, not mid-run
        with pytest.raises(ValueError, match=message):
            base_config(**overrides)


def pinned_cdf(multiplex, state):
    """The click distribution's cdf as build_tables pins a likelihood row."""
    return mc._pinned_cumsum(click_distribution(multiplex, state), "cdf")


class TestClickCdf:
    def test_vacuum(self):
        cdf = pinned_cdf(ClickMultiplex(1, 0.9), SignedThermalMixture.thermal(0.0))
        assert np.allclose(cdf, [1.0, 1.0])
        assert cdf[-1] == 1.0

    def test_staircase_matches_distribution(self):
        mux = ClickMultiplex(4, 0.9)
        state = SignedThermalMixture.thermal(1.0)
        cdf = pinned_cdf(mux, state)
        dist = click_distribution(mux, state)
        assert np.allclose(cdf, np.cumsum(dist), atol=1e-12)
        assert np.all(np.diff(cdf) >= 0.0)

    def test_four_detector_example_selects_two(self):
        cdf = pinned_cdf(ClickMultiplex(4, 0.9), SignedThermalMixture.thermal(1.0))
        assert np.allclose(
            cdf, [0.526316, 0.809112, 0.940759, 0.989119, 1.0], atol=1e-6
        )
        assert sample_clicks(cdf, 0.82) == 2


class TestSampleClicks:
    def test_degenerate_cdf(self):
        assert sample_clicks(np.array([1.0, 1.0]), 0.37) == 0

    def test_top_interval(self):
        cdf = pinned_cdf(ClickMultiplex(3, 0.9), SignedThermalMixture.thermal(1.0))
        assert sample_clicks(cdf, 1.0 - 1e-12) == 3

    def test_interval_membership(self):
        cdf = np.array([0.2, 0.5, 1.0])
        assert sample_clicks(cdf, 0.2) == 0  # boundary belongs to the lower outcome
        assert sample_clicks(cdf, 0.200001) == 1
        assert sample_clicks(cdf, 0.9) == 2

    def test_malformed_cdf(self):
        with pytest.raises(ValueError):
            sample_clicks(np.array([0.5, 0.4, 1.0]), 0.3)
        with pytest.raises(ValueError):
            sample_clicks(np.array([0.2, 0.8]), 0.3)
        with pytest.raises(ValueError):
            sample_clicks(np.array([0.2, 1.0]), 1.5)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=8),
        r=st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
    )
    def test_smallest_index_rule(self, weights, r):
        probs = np.array(weights) / np.sum(weights)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        k = sample_clicks(cdf, r)
        assert cdf[k] >= r
        assert k == 0 or cdf[k - 1] < r


class TestLikelihoodTables:
    def test_tables_match_click_probabilities(self):
        config = base_config(herald_detectors=2)
        tables = build_tables(config)
        channel = TargetChannel(config.reflectivity, config.background_mean)
        receiver = ClickMultiplex(config.receiver_detectors, config.receiver_efficiency)
        for k_s in range(config.receiver_detectors + 1):
            expected = click_probability(receiver, k_s, background_state(channel))
            assert abs(tables.l0[k_s] - expected) < 1e-12
        for k in range(config.herald_detectors + 1):
            conditioned = herald_state(
                config.nbar, config.herald_efficiency, config.herald_detectors, k
            ).state
            h1 = apply_channel(channel, conditioned)
            for k_s in range(config.receiver_detectors + 1):
                expected = click_probability(receiver, k_s, h1)
                assert abs(tables.l1[k, k_s] - expected) < 1e-12

    def test_fairness_contract_uses_heralded_zero_click_state(self):
        # the k = 0 row must be the conditioned rho_{N,0}, not the raw thermal
        config = base_config()
        tables = build_tables(config)
        channel = TargetChannel(config.reflectivity, config.background_mean)
        receiver = ClickMultiplex(1, config.receiver_efficiency)
        unconditioned = click_probability(
            receiver, 1, apply_channel(channel, tmsv_marginal(config.nbar))
        )
        assert tables.l1[0, 1] != pytest.approx(unconditioned, abs=1e-6)

    def test_herald_cdf_matches_herald_probabilities(self):
        config = base_config(herald_detectors=4)
        tables = build_tables(config)
        herald_mux = ClickMultiplex(4, 0.9)
        for k in range(5):
            assert tables.herald[k] == click_probability(herald_mux, k, tmsv_marginal(config.nbar))
        assert np.array_equal(tables.herald_cdf, mc._pinned_cumsum(tables.herald, "herald"))

    def test_rejects_decreasing_cdf_row(self):
        # a negative entry is what would make a derived cdf row decrease
        tables = build_tables(base_config(herald_detectors=2, receiver_detectors=2))
        l1 = tables.l1.copy()
        l1[1] = [0.6, -0.1, 0.5]
        with pytest.raises(ValueError, match="^l1 row 1 has a negative or non-finite entry"):
            LikelihoodTables(tables.herald, tables.l0, l1)

    def test_rejects_cdf_not_ending_at_one(self):
        # a distribution whose sum misses one is rejected, not pinned
        tables = build_tables(base_config(herald_detectors=2))
        with pytest.raises(ValueError, match="^herald sums to"):
            LikelihoodTables(tables.herald * (1.0 - 1e-6), tables.l0, tables.l1)
        with pytest.raises(ValueError, match="^l0 sums to"):
            LikelihoodTables(tables.herald, tables.l0 * (1.0 - 1e-6), tables.l1)

    def test_rejects_non_finite_cdf(self):
        tables = build_tables(base_config())
        for name, where in (("herald", "herald"), ("l0", "l0"), ("l1", "l1 row 0")):
            fields = {key: getattr(tables, key).copy() for key in ("herald", "l0", "l1")}
            fields[name].flat[0] = np.nan
            with pytest.raises(ValueError, match=f"^{where} has a negative or non-finite entry"):
                LikelihoodTables(**fields)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(list(SignalKind)),
        target_present=st.booleans(),
        nbar=st.floats(min_value=0.1, max_value=5.0),
        efficiency=st.floats(min_value=0.5, max_value=1.0),
        herald_detectors=st.integers(min_value=1, max_value=4),
        receiver_detectors=st.integers(min_value=1, max_value=4),
    )
    def test_derived_cdfs_nondecreasing_and_end_at_one(
        self, kind, target_present, nbar, efficiency, herald_detectors, receiver_detectors
    ):
        # run_trajectory's counts are the sampled outcomes only on such rows
        tables = base_config(
            signal_kind=kind, target_present=target_present, nbar=nbar,
            herald_efficiency=efficiency, receiver_efficiency=efficiency,
            herald_detectors=herald_detectors, receiver_detectors=receiver_detectors,
        ).tables
        assert (tables.herald_cdf is None) == (kind is SignalKind.COHERENT)
        rows = [tables.cdf_h0, *tables.cdf_h1]
        if tables.herald_cdf is not None:
            rows.append(tables.herald_cdf)
        for row in rows:
            assert np.all(np.diff(row) >= 0.0)
            assert row[-1] == 1.0


class TestRunShot:
    def test_uninformative_receiver_leaves_posterior_unchanged(self):
        config = base_config(receiver_efficiency=0.0)
        ctx = ShotContext(
            tables=build_tables(config),
            target_present=True,
            rng=trial_stream(config.seed, 0),
        )
        for _ in range(20):
            p1, p0 = run_shot(ctx)
            assert p1 == 0.5 and p0 == 0.5

    def test_single_shot_matches_direct_bayes(self):
        config = base_config()
        tables = build_tables(config)
        ctx = ShotContext(tables=tables, target_present=True, rng=trial_stream(config.seed, 3))
        p1, p0 = run_shot(ctx)
        # replay the same draws to find which outcomes were sampled
        rng = trial_stream(config.seed, 3)
        draws = rng.random(2)
        k = int(np.searchsorted(tables.herald_cdf, draws[0], side="left"))
        k_s = int(np.searchsorted(tables.cdf_h1[k], draws[1], side="left"))
        expected = posterior(0.5, float(tables.l0[k_s]), float(tables.l1[k, k_s]))
        assert p1 == pytest.approx(expected, abs=1e-12)
        assert p0 == pytest.approx(1.0 - expected, abs=1e-12)

    def test_posterior_stays_interior(self):
        config = base_config()
        ctx = ShotContext(
            tables=build_tables(config), target_present=True, rng=trial_stream(1, 1)
        )
        for _ in range(500):
            p1, _ = run_shot(ctx)
            assert 0.0 < p1 < 1.0


class TestRunTrajectory:
    def test_deterministic(self):
        config = base_config(shots=256)
        a = run_trajectory(config, 5)
        b = run_trajectory(config, 5)
        assert np.array_equal(a, b)

    def test_distinct_trials_differ(self):
        config = base_config(shots=256)
        assert not np.array_equal(run_trajectory(config, 0), run_trajectory(config, 1))

    def test_matches_scalar_shot_loop(self):
        config = base_config(shots=40)
        vector = run_trajectory(config, 2)
        ctx = ShotContext(
            tables=build_tables(config), target_present=True, rng=trial_stream(config.seed, 2)
        )
        scalar = np.array([run_shot(ctx)[0] for _ in range(config.shots)])
        assert np.array_equal(vector, scalar)

    @settings(max_examples=60, deadline=None)
    @given(
        signal_kind=st.sampled_from(list(SignalKind)),
        target_present=st.booleans(),
        herald_detectors=st.integers(min_value=1, max_value=8),
        receiver_detectors=st.integers(min_value=1, max_value=6),
        shots=st.integers(min_value=1, max_value=300),
        trial=st.integers(min_value=0, max_value=2**20),
    )
    def test_matches_scalar_shot_loop_any_config(
        self, signal_kind, target_present, herald_detectors, receiver_detectors, shots, trial
    ):
        config = base_config(
            signal_kind=signal_kind,
            target_present=target_present,
            herald_detectors=herald_detectors,
            receiver_detectors=receiver_detectors,
            shots=shots,
        )
        tables = build_tables(config)
        vector = run_trajectory(config, trial)
        ctx = ShotContext(
            tables=tables, target_present=target_present, rng=trial_stream(config.seed, trial)
        )
        scalar = np.array([run_shot(ctx)[0] for _ in range(shots)])
        assert np.array_equal(vector, scalar)

    def test_single_shot_reduces_to_run_shot(self):
        config = base_config(shots=1)
        vector = run_trajectory(config, 0)
        ctx = ShotContext(
            tables=build_tables(config), target_present=True, rng=trial_stream(config.seed, 0)
        )
        assert vector[0] == run_shot(ctx)[0]

    def test_coherent_consumes_one_draw_per_shot(self):
        config = base_config(signal_kind=SignalKind.COHERENT, shots=16)
        vector = run_trajectory(config, 0)
        tables = build_tables(config)
        rng = trial_stream(config.seed, 0)
        draws = rng.random(config.shots)
        clicks = np.searchsorted(tables.cdf_h1[0], draws, side="left")
        from scipy.special import expit

        expected = expit(np.cumsum(tables.log_ratio[0, clicks]))
        assert np.array_equal(vector, expected)

    def test_bounded(self):
        curve = run_trajectory(base_config(shots=512), 7)
        assert np.all(curve > 0.0) and np.all(curve < 1.0)

    @pytest.mark.parametrize("target_present", [True, False])
    def test_flat_index_wider_than_uint8(self, target_present):
        # the flat index h * 32 + k of herald outcome 8 is at least 256, past
        # what the uint8 outcome counts can hold
        config = base_config(nbar=4.0, herald_detectors=8, receiver_detectors=31,
                             shots=2000, target_present=target_present)
        herald_draws = trial_stream(config.seed, 0).random((config.shots, 2))[:, 0]
        heralds = np.searchsorted(config.tables.herald_cdf, herald_draws, side="left")
        assert heralds.max() == 8
        assert np.array_equal(run_trajectory(config, 0), scalar_curve(config, 0))

    @pytest.mark.parametrize("target_present", [True, False])
    @pytest.mark.parametrize("cells", [256, 257])
    def test_index_type_boundary(self, cells, target_present):
        # 256 cells index in uint8, 257 in uint16; both top cells are drawn.
        # 16 x 16 is a physical heralded table; 257 is prime, so only a
        # coherent table with 257 receiver outcomes has it, past the 64
        # detectors a config may ask for, and it is built by hand.
        if cells == 256:
            config = base_config(nbar=20.0, herald_detectors=15, receiver_detectors=15,
                                 background_mean=30.0, shots=2000,
                                 target_present=target_present)
        else:
            config = base_config(signal_kind=SignalKind.COHERENT, shots=2000,
                                 target_present=target_present)
            l0, l1 = np.ones(cells), np.ones(cells)
            l0[-1], l1[-1] = 30.0, 90.0
            tables = LikelihoodTables(None, l0 / l0.sum(), (l1 / l1.sum())[None, :])
            object.__setattr__(config, "tables", tables)
        tables = config.tables
        assert tables.log_ratio.size == cells
        ctx = ShotContext(tables=tables, target_present=target_present,
                          rng=trial_stream(config.seed, 0))
        scalar = np.array([run_shot(ctx)[0] for _ in range(config.shots)])
        assert np.array_equal(run_trajectory(config, 0), scalar)
        draws = trial_stream(config.seed, 0).random(2 * config.shots)
        if cells == 256:
            heralds = np.searchsorted(tables.herald_cdf, draws[0::2], side="left")
            cdfs = tables.cdf_h1[heralds] if target_present else [tables.cdf_h0] * config.shots
            clicks = [np.searchsorted(cdf, r, side="left") for cdf, r in zip(cdfs, draws[1::2])]
            top = heralds * 16 + np.array(clicks)
        else:
            cdf = tables.cdf_h1[0] if target_present else tables.cdf_h0
            top = np.searchsorted(cdf, draws[:config.shots], side="left")
        assert top.max() == cells - 1


def _scalar_expit(v):
    """1 / (1 + exp(-v)) with the scalar libm exp; its overflow is exp(-v) = inf."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


class TestExpit:
    """``_expit_of_negated(-v)`` equals the scalar libm formula at v bit for bit.

    It relies on numpy running its scalar libm ``exp`` loop, not the SIMD
    one, on a negative-stride input; these tests pin that numpy detail.
    """

    @staticmethod
    def assert_bitwise(values):
        x = np.array(values, dtype=float)
        expected = np.array([_scalar_expit(v) for v in x.tolist()])
        negated = -x
        got = mc._expit_of_negated(negated)
        assert got is negated
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(-800.0, 800.0)
            | st.sampled_from([0.0, -0.0, 709.8, -709.8, 745.2, -745.2, 800.0, -800.0]),
            min_size=1,
            max_size=300,
        )
    )
    def test_equals_scalar_libm(self, values):
        self.assert_bitwise(values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_equals_scalar_libm_dense(self):
        # about 2% of these doubles take a different last bit on numpy's SIMD exp
        self.assert_bitwise(np.random.default_rng(12).uniform(-750.0, 750.0, 100000))

    @settings(max_examples=200, deadline=None)
    @given(
        increments=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([700.0, -700.0, 0.0, -0.0, 1.5e308, -1.5e308]),
            min_size=1,
            max_size=300,
        )
    )
    def test_negated_prefix_sums(self, increments):
        # Negation is exact and round-to-nearest is symmetric, so summing the
        # negated increments gives the negated sums, overflow to +-inf
        # included.  An exact cancellation is +0.0 in both sums, so only a
        # zero's sign may differ, and exp reads both zeros as 1.
        inc = np.array(increments)
        with np.errstate(over="ignore"):
            negated, sums = np.cumsum(-inc), np.cumsum(inc)
        reference = -sums
        zero = reference == 0.0
        assert np.array_equal(negated[~zero].view(np.uint64), reference[~zero].view(np.uint64))
        assert np.all(negated[zero] == 0.0)
        expected = np.array([_scalar_expit(v) for v in sums.tolist()])
        got = mc._expit_of_negated(negated)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def run_alone(config, **kwargs):
    (curve,) = average_trajectories([config], **kwargs)
    return curve


class TestAverageTrajectories:
    def test_single_trial_equals_run_trajectory(self):
        config = base_config(trials=1, shots=128)
        assert np.array_equal(run_alone(config), run_trajectory(config, 0))

    def test_thread_count_invariance(self):
        config = base_config(trials=150, shots=96)
        serial = run_alone(config, threads=1)
        parallel = run_alone(config, threads=4)
        assert np.array_equal(serial, parallel)

    def test_crossings_recorded(self):
        # the shot a mean curve first reaches a threshold, as the CLI sidecar reports it
        curve = run_alone(base_config(trials=32, shots=2000))
        crossing = first_crossing(curve, 0.55)
        assert crossing is not None
        assert curve[crossing - 1] >= 0.55
        assert np.all(curve[: crossing - 1] < 0.55)
        assert first_crossing(curve, float(curve.max()) + 1e-9) is None

    def test_present_target_drifts_up_absent_drifts_down(self):
        up, down = average_trajectories([
            base_config(trials=160, shots=4000),
            base_config(trials=160, shots=4000, target_present=False),
        ])
        assert up[-1] > 0.55
        assert down[-1] < 0.45
        # trend, smoothed over quarters to tolerate Monte-Carlo noise
        quarters = np.array_split(up, 4)
        means = [q.mean() for q in quarters]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_coherent_absent_supermartingale_trend(self):
        curve = run_alone(
            base_config(signal_kind=SignalKind.COHERENT, target_present=False, trials=160, shots=4000)
        )
        assert curve[-1] < 0.5
        assert curve[3999] < curve[99]


class TestSharedDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        shots=st.integers(min_value=1, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        trial=st.integers(min_value=0, max_value=2**20),
    )
    def test_philox_prefix_identity(self, shots, seed, trial):
        # a coherent signal reads the first shots uniforms of a heralded block
        block = trial_stream(seed, trial).random((shots, 2))
        assert np.array_equal(block.ravel()[:shots], trial_stream(seed, trial).random(shots))

    @settings(max_examples=12, deadline=None)
    @given(
        signals=st.lists(
            st.tuples(
                st.sampled_from(list(SignalKind)),
                st.booleans(),
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        shots=st.integers(min_value=1, max_value=48),
    )
    def test_together_equals_alone(self, signals, seed, shots):
        # 130 trials make three chunks, the last one short
        configs = [
            base_config(signal_kind=kind, target_present=present, herald_detectors=herald,
                        receiver_detectors=receiver, seed=seed, shots=shots, trials=130)
            for kind, present, herald, receiver in signals
        ]
        alone = [run_alone(config) for config in configs]
        for threads in (1, 3):
            together = average_trajectories(configs, threads=threads)
            assert len(together) == len(configs)
            for joint, single in zip(together, alone):
                assert np.array_equal(joint, single)

    @settings(max_examples=12, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(
                st.just(SignalKind.QUANTUM_HERALDED),
                st.sampled_from([1.0, matched_mean(MatchSpec(1.0, 0.9))]),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=3,
        ),
        receiver_detectors=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        shots=st.integers(min_value=1, max_value=48),
    )
    def test_shared_draws_equal_scalar_reference(
        self, probes, receiver_detectors, seed, shots
    ):
        # Every probe runs present and absent, so two signals compare one
        # herald column against one herald cdf; the absent coherent and
        # heralded signals compare different columns against one background
        # cdf.  Three trials make one chunk, whose sum is the ensemble mean
        # times the trial count.
        configs = [
            base_config(signal_kind=kind, nbar=nbar, herald_detectors=herald,
                        receiver_detectors=receiver_detectors, target_present=present,
                        seed=seed, shots=shots, trials=3)
            for kind, nbar, herald in [(SignalKind.COHERENT, 1.0, 1), *probes]
            for present in (True, False)
        ]
        together = average_trajectories(configs)
        for config, joint in zip(configs, together):
            total = np.zeros(shots)
            for trial in range(config.trials):
                total += scalar_curve(config, trial)
            assert np.array_equal(joint, total / config.trials)
            assert np.array_equal(joint, run_alone(config))

    @pytest.mark.parametrize(
        "overrides", [{"seed": 1}, {"trials": 9}, {"shots": 65}],
    )
    def test_mismatched_run_parameters_raise(self, overrides):
        with pytest.raises(ValueError, match=f"share {next(iter(overrides))}"):
            average_trajectories([base_config(), base_config(**overrides)])

    def test_no_configs_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            average_trajectories([])

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_raises(self, threads):
        # the CLI's --threads rule; such a count once ran serially
        with pytest.raises(ValueError, match=f"threads must be an integer >= 1, got {threads}"):
            average_trajectories([base_config()], threads=threads)
