import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qillum import (
    ClickMultiplex,
    SignedThermalMixture,
    TargetChannel,
    apply_channel,
    background_state,
    click_cdf,
    click_distribution,
    herald_state,
    posterior,
    receiver_click_prob,
    tmsv_marginal,
)
from qillum import mc
from qillum.mc import (
    SignalKind,
    TrajectoryConfig,
    average_trajectories,
    build_tables,
    first_crossing,
    run_trajectory,
    trial_stream,
)
from scalar_reference import ShotContext, run_shot, sample_clicks


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
            ({"signal_kind": SignalKind.QUANTUM_HERALDED_MATCHED,
              "eavesdropper_efficiency": 0.0}, "eavesdropper efficiency"),
            ({"signal_kind": SignalKind.QUANTUM_HERALDED_MATCHED, "nbar": 1000.0},
             "matched mean overflows"),
            # l1 rows that miss a sum of 1 by more than _ROW_SUM_TOL
            ({"nbar": 0.01, "herald_detectors": 3}, "l1 row 3 sums to 0.99999999"),
            ({"nbar": 0.01, "herald_detectors": 6}, "l1 row 3 sums to 1.00000000"),
        ],
    )
    def test_rejects_out_of_range_physics(self, overrides, message):
        # the objects build_tables makes reject these at construction, not mid-run
        with pytest.raises(ValueError, match=message):
            base_config(**overrides)


class TestClickCdf:
    def test_vacuum(self):
        cdf = click_cdf(ClickMultiplex(1, 0.9), SignedThermalMixture.thermal(0.0))
        assert np.allclose(cdf, [1.0, 1.0])
        assert cdf[-1] == 1.0

    def test_staircase_matches_distribution(self):
        mux = ClickMultiplex(4, 0.9)
        state = SignedThermalMixture.thermal(1.0)
        cdf = click_cdf(mux, state)
        dist = click_distribution(mux, state)
        assert np.allclose(cdf, np.cumsum(dist), atol=1e-12)
        assert np.all(np.diff(cdf) >= 0.0)

    def test_four_detector_example_selects_two(self):
        cdf = click_cdf(ClickMultiplex(4, 0.9), SignedThermalMixture.thermal(1.0))
        assert np.allclose(
            cdf, [0.526316, 0.809112, 0.940759, 0.989119, 1.0], atol=1e-6
        )
        assert sample_clicks(cdf, 0.82) == 2


class TestSampleClicks:
    def test_degenerate_cdf(self):
        assert sample_clicks(np.array([1.0, 1.0]), 0.37) == 0

    def test_top_interval(self):
        cdf = click_cdf(ClickMultiplex(3, 0.9), SignedThermalMixture.thermal(1.0))
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
    def test_tables_match_receiver_click_probs(self):
        config = base_config(herald_detectors=2)
        tables = build_tables(config)
        channel = TargetChannel(config.reflectivity, config.background_mean)
        receiver = ClickMultiplex(config.receiver_detectors, config.receiver_efficiency)
        for k_s in range(config.receiver_detectors + 1):
            expected = receiver_click_prob(receiver, k_s, background_state(channel))
            assert abs(tables.l0[k_s] - expected) < 1e-12
        for k in range(config.herald_detectors + 1):
            conditioned = herald_state(
                config.nbar, config.herald_efficiency, config.herald_detectors, k
            ).state
            h1 = apply_channel(channel, conditioned)
            for k_s in range(config.receiver_detectors + 1):
                expected = receiver_click_prob(receiver, k_s, h1)
                assert abs(tables.l1[k, k_s] - expected) < 1e-12

    def test_fairness_contract_uses_heralded_zero_click_state(self):
        # the k = 0 row must be the conditioned rho_{N,0}, not the raw thermal
        config = base_config()
        tables = build_tables(config)
        channel = TargetChannel(config.reflectivity, config.background_mean)
        receiver = ClickMultiplex(1, config.receiver_efficiency)
        unconditioned = receiver_click_prob(
            receiver, 1, apply_channel(channel, tmsv_marginal(config.nbar))
        )
        assert tables.l1[0, 1] != pytest.approx(unconditioned, abs=1e-6)

    def test_herald_cdf_matches_herald_probabilities(self):
        config = base_config(herald_detectors=4)
        tables = build_tables(config)
        probs = np.diff(np.concatenate([[0.0], tables.herald_cdf]))
        for k in range(5):
            expected = herald_state(config.nbar, 0.9, 4, k).herald_probability
            assert abs(probs[k] - expected) < 1e-12

    def test_matched_tables_use_matched_mean(self):
        from qillum import MatchSpec, matched_mean

        config = base_config(signal_kind=SignalKind.QUANTUM_HERALDED_MATCHED)
        tables = build_tables(config)
        assert tables.probe_nbar == pytest.approx(
            matched_mean(MatchSpec(1.0, 0.9)), abs=1e-14
        )

    def test_rejects_decreasing_cdf_row(self):
        tables = build_tables(base_config(herald_detectors=2, receiver_detectors=2))
        cdf_h1 = tables.cdf_h1.copy()
        cdf_h1[1] = [0.6, 0.5, 1.0]
        with pytest.raises(ValueError, match="cdf_h1 row 1 decreases"):
            dataclasses.replace(tables, cdf_h1=cdf_h1)

    def test_rejects_cdf_not_ending_at_one(self):
        tables = build_tables(base_config(herald_detectors=2))
        herald_cdf = tables.herald_cdf.copy()
        herald_cdf[-1] = 1.0 - 1e-9
        with pytest.raises(ValueError, match="herald_cdf ends at"):
            dataclasses.replace(tables, herald_cdf=herald_cdf)
        cdf_h0 = tables.cdf_h0.copy()
        cdf_h0[-1] = 1.0 - 1e-9
        with pytest.raises(ValueError, match="cdf_h0 ends at"):
            dataclasses.replace(tables, cdf_h0=cdf_h0)

    def test_rejects_non_finite_cdf(self):
        tables = build_tables(base_config())
        cdf_h1 = tables.cdf_h1.copy()
        cdf_h1[0, 0] = np.nan
        with pytest.raises(ValueError, match="cdf_h1 row 0 has a non-finite entry"):
            dataclasses.replace(tables, cdf_h1=cdf_h1)


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


def _scalar_expit(v):
    """1 / (1 + exp(-v)) with the scalar libm exp; its overflow is exp(-v) = inf."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


class TestExpit:
    """``_expit`` equals the scalar libm formula bit for bit.

    It relies on numpy running its scalar libm ``exp`` loop, not the SIMD
    one, on a negative-stride input; these tests pin that numpy detail.
    """

    @staticmethod
    def assert_bitwise(values):
        x = np.array(values, dtype=float)
        expected = np.array([_scalar_expit(v) for v in x.tolist()])
        got = mc._expit(x)
        assert got is x
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


def run_alone(config, **kwargs):
    (result,) = average_trajectories([config], **kwargs)
    return result


class TestAverageTrajectories:
    def test_single_trial_equals_run_trajectory(self):
        config = base_config(trials=1, shots=128)
        result = run_alone(config)
        assert np.array_equal(result.mean_posterior, run_trajectory(config, 0))

    def test_thread_count_invariance(self):
        config = base_config(trials=150, shots=96)
        serial = run_alone(config, threads=1)
        parallel = run_alone(config, threads=4)
        assert np.array_equal(serial.mean_posterior, parallel.mean_posterior)
        assert serial.mean_crossings == parallel.mean_crossings
        assert serial.per_trial_crossings == parallel.per_trial_crossings

    def test_crossings_recorded(self):
        config = base_config(trials=32, shots=2000)
        result = run_alone(config, thresholds=(0.6,))
        assert set(result.per_trial_crossings) == {0.6}
        assert len(result.per_trial_crossings[0.6]) == config.trials
        for crossing in result.per_trial_crossings[0.6]:
            assert crossing is None or 1 <= crossing <= config.shots
        mean_cross = result.mean_crossings[0.6]
        if mean_cross is not None:
            assert result.mean_posterior[mean_cross - 1] >= 0.6
            assert np.all(result.mean_posterior[: mean_cross - 1] < 0.6)

    def test_repeated_threshold_rejected(self):
        # crossings are keyed by threshold, so a repeat would collect its
        # per-trial crossings once per occurrence
        with pytest.raises(ValueError, match=r"thresholds must be distinct, got \[0.9, 0.8, 0.9\]"):
            run_alone(base_config(trials=3), thresholds=(0.9, 0.8, 0.9))

    def test_metadata_records_provenance(self):
        result = run_alone(base_config(trials=2, shots=8))
        meta = result.rng_metadata
        assert meta["seed"] == 20260808
        assert "Philox" in meta["generator"]
        assert "splitmix64" in meta["stream_derivation"]

    def test_present_target_drifts_up_absent_drifts_down(self):
        up, down = average_trajectories([
            base_config(trials=160, shots=4000),
            base_config(trials=160, shots=4000, target_present=False),
        ])
        assert up.mean_posterior[-1] > 0.55
        assert down.mean_posterior[-1] < 0.45
        # trend, smoothed over quarters to tolerate Monte-Carlo noise
        quarters = np.array_split(up.mean_posterior, 4)
        means = [q.mean() for q in quarters]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_coherent_absent_supermartingale_trend(self):
        result = run_alone(
            base_config(signal_kind=SignalKind.COHERENT, target_present=False, trials=160, shots=4000)
        )
        assert result.mean_posterior[-1] < 0.5
        assert result.mean_posterior[3999] < result.mean_posterior[99]


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
        thresholds = (0.5001, 0.52)
        alone = [run_alone(config, thresholds=thresholds) for config in configs]
        for threads in (1, 3):
            together = average_trajectories(configs, threads=threads, thresholds=thresholds)
            assert len(together) == len(configs)
            for joint, single in zip(together, alone):
                assert np.array_equal(joint.mean_posterior, single.mean_posterior)
                assert joint.mean_crossings == single.mean_crossings
                assert joint.per_trial_crossings == single.per_trial_crossings
                assert joint.rng_metadata == single.rng_metadata

    @settings(max_examples=12, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(
                st.sampled_from([SignalKind.QUANTUM_HERALDED,
                                 SignalKind.QUANTUM_HERALDED_MATCHED]),
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
            base_config(signal_kind=kind, herald_detectors=herald,
                        receiver_detectors=receiver_detectors, target_present=present,
                        seed=seed, shots=shots, trials=3)
            for kind, herald in [(SignalKind.COHERENT, 1), *probes]
            for present in (True, False)
        ]
        thresholds = (0.5001, 0.52)
        together = average_trajectories(configs, thresholds=thresholds)
        for config, joint in zip(configs, together):
            curves = [scalar_curve(config, trial) for trial in range(config.trials)]
            total = np.zeros(shots)
            for curve in curves:
                total += curve
            assert np.array_equal(joint.mean_posterior, total / config.trials)
            assert joint.per_trial_crossings == {
                thr: [first_crossing(curve, thr) for curve in curves] for thr in thresholds
            }
            alone = run_alone(config, thresholds=thresholds)
            assert np.array_equal(joint.mean_posterior, alone.mean_posterior)
            assert joint.per_trial_crossings == alone.per_trial_crossings

    @pytest.mark.parametrize(
        "overrides", [{"seed": 1}, {"trials": 9}, {"shots": 65}],
    )
    def test_mismatched_run_parameters_raise(self, overrides):
        with pytest.raises(ValueError, match=f"share {next(iter(overrides))}"):
            average_trajectories([base_config(), base_config(**overrides)])

    def test_no_configs_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            average_trajectories([])
