"""Input guards across the library: each raises its own error type and message."""

import json
import math
import re

import numpy as np
import pytest

from qillum import cli, oracle
from qillum.channel import TargetChannel, apply_channel, channel_images
from qillum.errors import DegenerateHeraldingError, NumericalInstabilityError, TruncationError
from qillum.matching import matched_mean
from qillum.mc import TrajectoryConfig, average_trajectories
from qillum.povm import ClickMultiplex, click_probability, normal_ordered_moment, povm_fock_diagonal
from qillum.states import (DisplacedThermal, SignedThermalMixture, check_mean, checked_mixtures,
                           clamp_probability, herald_state, herald_states,
                           photon_number_distribution, tmsv_marginal, wigner_slice)

from fraction_reference import poisson_limit_reference
from kernel_reference import oracle_beamsplitter_unitary
from scalar_reference import posterior

THERMAL = SignedThermalMixture.thermal(1.0)
CHANNEL = TargetChannel(0.1, 1.0)


def _wide_thermal():
    """The 616-level thermal vector of mean 20, the largest truncation the tests request."""
    return oracle.thermal_diag(20.0, oracle.choose_truncation(20.0))


def _trajectory_config(**overrides):
    base = dict(
        nbar=1.0, herald_efficiency=0.9, herald_detectors=1, receiver_efficiency=0.9,
        receiver_detectors=1, reflectivity=0.1, background_mean=3.0, shots=10, trials=2,
        seed=0, signal_kind="coherent", target_present=True,
    )
    return TrajectoryConfig(**{**base, **overrides})


def _resolve_trajectories(tmp_path, signals):
    """Read a ``trajectories`` config document the way ``qillum trajectories`` does."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"nbar": 1.0, "shots": 10, "trials": 2, "signals": signals}))
    args = cli._build_parser().parse_args(["trajectories", "--config", str(config)])
    return cli._resolve("trajectories", cli.COMMANDS["trajectories"], args)


GUARDS = {
    "posterior_prior_above_one": (
        lambda tmp_path: posterior(1.5, 0.5, 0.5),
        ValueError, "prior_h1 must lie in [0, 1], got 1.5",
    ),
    # main prints this as "config error: signals: unknown signal keys: bogus"
    "trajectories_unknown_signal_key": (
        lambda tmp_path: _resolve_trajectories(tmp_path, [{"kind": "coherent", "bogus": 1}]),
        cli.ConfigError, "signals: unknown signal keys: bogus",
    ),
    "trajectory_config_zero_shots": (
        lambda tmp_path: _trajectory_config(shots=0),
        ValueError, "need at least one shot, got 0",
    ),
    "trajectory_config_zero_trials": (
        lambda tmp_path: _trajectory_config(trials=0),
        ValueError, "need at least one trial, got 0",
    ),
    "trajectory_config_seed_beyond_64_bits": (
        lambda tmp_path: _trajectory_config(seed=2**64),
        ValueError, "seed must fit in 64 bits",
    ),
    "fock_vector_empty": (
        lambda tmp_path: oracle.FockVector(np.array([])),
        ValueError, "FockVector needs a nonempty 1-D probability array",
    ),
    "fock_diag_level_above_truncation": (
        lambda tmp_path: oracle.fock_diag(5, 3),
        ValueError, "level must lie in [0, 3], got 5",
    ),
    "oracle_herald_vacuum_click": (
        lambda tmp_path: oracle.oracle_herald_state(0.0, 0.9, 2, 1),
        TruncationError, "herald weight 0.0 is not positive",
    ),
    "oracle_unitary_past_n_max_40": (
        lambda tmp_path: oracle_beamsplitter_unitary(oracle.fock_diag(0, 41), 0.5, 0.0),
        ValueError, "the two-mode unitary is meant for spot checks at n_max <= 40",
    ),
    "poisson_limit_negative_clicks": (
        lambda tmp_path: poisson_limit_reference(-1, 0.9, THERMAL),
        ValueError, "click count must be nonnegative, got -1",
    ),
    "povm_fock_diagonal_negative_n_max": (
        lambda tmp_path: povm_fock_diagonal(2, 1, 0.9, n_max=-1),
        ValueError, "n_max must be nonnegative, got -1",
    ),
    "photon_number_distribution_negative_n_max": (
        lambda tmp_path: photon_number_distribution(THERMAL, -1),
        ValueError, "n_max must be nonnegative, got -1",
    ),
    "mixture_without_components": (
        lambda tmp_path: SignedThermalMixture((), ()),
        ValueError, "a mixture needs at least one component",
    ),
    "mixture_weights_and_means_differ_in_length": (
        lambda tmp_path: SignedThermalMixture((1.0,), (0.0, 1.0)),
        ValueError, "1 weights but 2 means",
    ),
    "matched_mean_blind_eavesdropper": (
        lambda tmp_path: matched_mean(1.0, 0.0),
        ValueError, "eavesdropper efficiency must lie in (0, 1], got 0.0",
    ),
    # non-integer counts once constructed, then failed with a bare TypeError
    "click_multiplex_fractional_detectors": (
        lambda tmp_path: ClickMultiplex(2.5, 0.9),
        ValueError, "detector count must be an integer, got 2.5",
    ),
    "herald_state_fractional_detectors": (
        lambda tmp_path: herald_state(1.0, 0.9, 2.5, 1),
        ValueError, "detector count must be an integer, got 2.5",
    ),
    "herald_state_float_clicks": (
        lambda tmp_path: herald_state(1.0, 0.9, 2, 1.0),
        ValueError, "click count must be an integer, got 1.0",
    ),
    "click_probability_fractional_clicks": (
        lambda tmp_path: click_probability(ClickMultiplex(2, 0.9), 1.5, THERMAL),
        ValueError, "click count must be an integer, got 1.5",
    ),
    "povm_fock_diagonal_float_detectors": (
        lambda tmp_path: povm_fock_diagonal(2.0, 1, 0.9, 5),
        ValueError, "detector count must be an integer, got 2.0",
    ),
    # truncation levels and counts follow one rule, states.check_count; these
    # once truncated silently, raised a bare TypeError or IndexError, or passed
    "thermal_diag_fractional_n_max": (
        lambda tmp_path: oracle.thermal_diag(1.0, 160.5),
        ValueError, "n_max must be an integer, got 160.5",
    ),
    "thermal_diag_negative_n_max": (
        lambda tmp_path: oracle.thermal_diag(1.0, -1),
        ValueError, "n_max must be nonnegative, got -1",
    ),
    "photon_number_distribution_fractional_n_max": (
        lambda tmp_path: photon_number_distribution(THERMAL, 10.5),
        ValueError, "n_max must be an integer, got 10.5",
    ),
    "poisson_diag_fractional_n_max": (
        lambda tmp_path: oracle.poisson_diag(1.0, 10.5),
        ValueError, "n_max must be an integer, got 10.5",
    ),
    "oracle_herald_state_fractional_n_max": (
        lambda tmp_path: oracle.oracle_herald_state(1.0, 0.9, 2, 1, 160.5),
        ValueError, "n_max must be an integer, got 160.5",
    ),
    "displaced_thermal_diag_fractional_n_max": (
        lambda tmp_path: oracle.displaced_thermal_diag(1.0, 1.0, 10.5),
        ValueError, "n_max must be an integer, got 10.5",
    ),
    "povm_fock_diagonal_fractional_n_max": (
        lambda tmp_path: povm_fock_diagonal(2, 1, 0.9, 10.5),
        ValueError, "n_max must be an integer, got 10.5",
    ),
    "fock_diag_fractional_level": (
        lambda tmp_path: oracle.fock_diag(1.5, 10),
        ValueError, "level must be an integer, got 1.5",
    ),
    "fock_diag_fractional_n_max": (
        lambda tmp_path: oracle.fock_diag(0, 10.5),
        ValueError, "n_max must be an integer, got 10.5",
    ),
    "poisson_limit_fractional_clicks": (
        lambda tmp_path: poisson_limit_reference(1.5, 0.9, THERMAL),
        ValueError, "click count must be an integer, got 1.5",
    ),
    "choose_truncation_negative_mean": (
        lambda tmp_path: oracle.choose_truncation(-1.0),
        ValueError, "mean must be finite and nonnegative, got -1.0",
    ),
    # the ratio m/(1+m) rounds to 1 from 1e16 (a bare ZeroDivisionError once);
    # below that the level count was returned however large
    "choose_truncation_mean_1e9": (
        lambda tmp_path: oracle.choose_truncation(1e9),
        TruncationError, "mean 1000000000.0 needs about 2.99e+10 levels",
    ),
    "choose_truncation_mean_1e16": (
        lambda tmp_path: oracle.choose_truncation(1e16),
        TruncationError, "mean 1e+16 needs about 2.99e+17 levels",
    ),
    "choose_truncation_mean_1e300": (
        lambda tmp_path: oracle.choose_truncation(1e300),
        TruncationError, "mean 1e+300 needs about 2.99e+301 levels",
    ),
    # a bool is an int to operator.index and to isinstance, so these passed
    "click_multiplex_bool_detectors": (
        lambda tmp_path: ClickMultiplex(True, 0.9),
        ValueError, "detector count must be an integer, got True",
    ),
    "trajectory_config_bool_shots": (
        lambda tmp_path: _trajectory_config(shots=True),
        ValueError, "shots must be an integer, got True",
    ),
    "thermal_diag_bool_n_max": (
        lambda tmp_path: oracle.thermal_diag(1.0, True),
        ValueError, "n_max must be an integer, got True",
    ),
    "average_trajectories_bool_threads": (
        lambda tmp_path: average_trajectories([_trajectory_config()], threads=True),
        ValueError, "threads must be an integer, got True",
    ),
    # these returned NaN
    "wigner_slice_nan_q": (
        lambda tmp_path: wigner_slice(THERMAL, [0.0, math.nan]),
        ValueError, "q must be finite, got [0.0, nan]",
    ),
    "wigner_slice_none_q": (
        lambda tmp_path: wigner_slice(THERMAL, None),
        ValueError, "q must be finite, got None",
    ),
    "oracle_wigner_nan_q": (
        lambda tmp_path: oracle.oracle_wigner(oracle.thermal_diag(1.0), math.nan),
        ValueError, "q must be finite, got nan",
    ),
    # the Laguerre recurrence overflowed, subtracted infinities and returned NaN
    "oracle_wigner_q_1e10": (
        lambda tmp_path: oracle.oracle_wigner(oracle.thermal_diag(1.0), 1e10),
        ValueError, "the Laguerre series at q = 10000000000.0 is not finite for n_max 160",
    ),
    "oracle_wigner_q_1e308": (
        lambda tmp_path: oracle.oracle_wigner(oracle.thermal_diag(1.0), 1e308),
        ValueError, "the Laguerre series at q = 1e+308 is not finite for n_max 160",
    ),
    "oracle_wigner_616_levels_q_27": (
        lambda tmp_path: oracle.oracle_wigner(_wide_thermal(), 27.0),
        ValueError, "the Laguerre series at q = 27.0 is not finite for n_max 616",
    ),
    "oracle_wigner_616_levels_q_28": (
        lambda tmp_path: oracle.oracle_wigner(_wide_thermal(), 28.0),
        ValueError, "the Laguerre series at q = 28.0 is not finite for n_max 616",
    ),
    "oracle_wigner_616_levels_q_30": (
        lambda tmp_path: oracle.oracle_wigner(_wide_thermal(), 30.0),
        ValueError, "the Laguerre series at q = 30.0 is not finite for n_max 616",
    ),
    "oracle_wigner_616_levels_q_50": (
        lambda tmp_path: oracle.oracle_wigner(_wide_thermal(), 50.0),
        ValueError, "the Laguerre series at q = 50.0 is not finite for n_max 616",
    ),
    # a bool passed math.isfinite and the range comparisons as 1.0
    "tmsv_marginal_bool_mean": (
        lambda tmp_path: tmsv_marginal(True),
        ValueError, "mean photon number must be a real number, got True",
    ),
    "click_multiplex_bool_efficiency": (
        lambda tmp_path: ClickMultiplex(1, True),
        ValueError, "efficiency must be a real number, got True",
    ),
    "target_channel_bool_background": (
        lambda tmp_path: TargetChannel(0.1, True),
        ValueError, "background mean must be a real number, got True",
    ),
    "displaced_thermal_diag_bool_coherent_mean": (
        lambda tmp_path: oracle.displaced_thermal_diag(True, 1.0),
        ValueError, "coherent mean must be a real number, got True",
    ),
    "normal_ordered_moment_bool_s": (
        lambda tmp_path: normal_ordered_moment(DisplacedThermal(1.0, 0.0), True),
        ValueError, "moment parameter must be a real number, got True",
    ),
    "matched_mean_numpy_bool_eavesdropper_efficiency": (
        lambda tmp_path: matched_mean(1.0, np.True_),
        ValueError, "eavesdropper efficiency must be a real number, got np.True_",
    ),
    "mixture_bool_weight": (
        lambda tmp_path: SignedThermalMixture((True,), (1.0,)),
        ValueError, "component weight must be a real number, got True",
    ),
    # an integer weight past the largest double was a bare OverflowError
    "mixture_int_weight_past_the_largest_double": (
        lambda tmp_path: SignedThermalMixture((10**400, 1 - 10**400), (1.0, 2.0)),
        ValueError, "component weight must be finite, got an integer of 1329 bits",
    ),
    # checked_mixtures once stored a bool weight as given
    "checked_mixtures_bool_weight": (
        lambda tmp_path: checked_mixtures([((True,), (1.0,))]),
        ValueError, "component weight must be a real number, got True",
    ),
    # math.isfinite raised a bare OverflowError for an int past the largest double
    "check_mean_int_past_the_largest_double": (
        lambda tmp_path: check_mean(10**400, "m"),
        ValueError, f"m must be finite and nonnegative, got {10**400}",
    ),
    # the herald scales and C(N, k) read N as a double: a bare OverflowError once
    "herald_state_detectors_past_the_largest_double": (
        lambda tmp_path: herald_state(1.0, 0.9, 10**400, 1),
        ValueError, "detector count must not exceed the largest double, got an integer of 1329 bits",
    ),
    "herald_state_detectors_2_to_the_1024": (
        lambda tmp_path: herald_state(1.0, 0.9, 2**1024, 0),
        ValueError, "detector count must not exceed the largest double, got an integer of 1025 bits",
    ),
    "click_probability_detectors_past_the_largest_double": (
        lambda tmp_path: click_probability(ClickMultiplex(10**400, 0.9), 1, DisplacedThermal(1.0, 0.0)),
        ValueError, "detector count must not exceed the largest double",
    ),
    "povm_fock_diagonal_detectors_past_the_largest_double": (
        lambda tmp_path: povm_fock_diagonal(10**400, 1, 0.9, 5),
        ValueError, "detector count must not exceed the largest double",
    ),
    # N is below the largest double and C(N, k) above it: a bare OverflowError once
    "herald_state_outcome_count_past_the_largest_double": (
        lambda tmp_path: herald_state(1.0, 0.9, 10**100, 4),
        ValueError, "C(N, k) must not exceed the largest double, got an integer of 1325 bits at k = 4",
    ),
    "click_probability_displaced_outcome_count_past_the_largest_double": (
        lambda tmp_path: click_probability(ClickMultiplex(10**100, 0.9), 4, DisplacedThermal(1.0, 0.0)),
        ValueError, "C(N, k) must not exceed the largest double",
    ),
    "povm_fock_diagonal_outcome_count_past_the_largest_double": (
        lambda tmp_path: povm_fock_diagonal(10**100, 4, 0.9, 5),
        ValueError, "C(N, k) must not exceed the largest double",
    ),
    "wigner_slice_bool_q": (
        lambda tmp_path: wigner_slice(THERMAL, True),
        ValueError, "q must be a real number, got True",
    ),
    # 2m + 1 overflowed to inf, or pi * (2m + 1) did, and W(q) lost that component
    "wigner_slice_width_past_the_largest_double": (
        lambda tmp_path: wigner_slice(SignedThermalMixture.thermal(1e308), [0.0]),
        ValueError, "Wigner norm pi * (2m + 1) is not finite at thermal mean m = 1e+308",
    ),
    "wigner_slice_norm_past_the_largest_double": (
        lambda tmp_path: wigner_slice(herald_state(8e307, 0.9, 2, 2).state, [0.0]),
        ValueError, "Wigner norm pi * (2m + 1) is not finite at thermal mean m = 8e+307",
    ),
    "oracle_wigner_numpy_bool_q": (
        lambda tmp_path: oracle.oracle_wigner(oracle.thermal_diag(1.0), np.True_),
        ValueError, "q must be a real number, got np.True_",
    ),
    # the coherent mean was checked only after its division by the gain 1 + m
    "displaced_thermal_diag_negative_coherent_mean": (
        lambda tmp_path: oracle.displaced_thermal_diag(-1.0, 1.0),
        ValueError, "coherent mean must be finite and nonnegative, got -1.0",
    ),
    # a wrong type raises TypeError, with the message of math or of the comparison
    "tmsv_marginal_str_mean": (
        lambda tmp_path: tmsv_marginal("1"),
        TypeError, "must be real number, not str",
    ),
    "tmsv_marginal_none_mean": (
        lambda tmp_path: tmsv_marginal(None),
        TypeError, "must be real number, not NoneType",
    ),
    # SignedThermalMixture.thermal converted the mean with float() before any check
    "thermal_bool_mean": (
        lambda tmp_path: SignedThermalMixture.thermal(True),
        ValueError, "thermal mean must be a real number, got True",
    ),
    "thermal_str_mean": (
        lambda tmp_path: SignedThermalMixture.thermal("1"),
        TypeError, "must be real number, not str",
    ),
    "thermal_bytes_mean": (
        lambda tmp_path: SignedThermalMixture.thermal(b"2"),
        TypeError, "must be real number, not bytes",
    ),
    "thermal_none_mean": (
        lambda tmp_path: SignedThermalMixture.thermal(None),
        TypeError, "must be real number, not NoneType",
    ),
    "click_multiplex_str_efficiency": (
        lambda tmp_path: ClickMultiplex(1, "0.9"),
        TypeError, "'<=' not supported between instances of 'float' and 'str'",
    ),
    "target_channel_none_background": (
        lambda tmp_path: TargetChannel(0.1, None),
        TypeError, "must be real number, not NoneType",
    ),
    "clamp_probability_nan": (
        lambda tmp_path: clamp_probability(math.nan),
        NumericalInstabilityError, "probability evaluated to nan",
    ),
    # a wrong class of state or channel raises TypeError, not AttributeError
    "channel_images_displaced_signal": (
        lambda tmp_path: channel_images([(CHANNEL, DisplacedThermal(1.0, 0.0))]),
        TypeError, "channel undefined for DisplacedThermal",
    ),
    "channel_images_str_signal": (
        lambda tmp_path: channel_images([(CHANNEL, "thermal")]),
        TypeError, "channel undefined for str",
    ),
    "channel_images_none_channel": (
        lambda tmp_path: channel_images([(None, THERMAL)]),
        TypeError, "channel must be a TargetChannel, got NoneType",
    ),
    "channel_images_none_channel_in_a_column": (
        lambda tmp_path: channel_images([(CHANNEL, THERMAL)] * 70 + [(None, THERMAL)]),
        TypeError, "channel must be a TargetChannel, got NoneType",
    ),
    "apply_channel_none_channel": (
        lambda tmp_path: apply_channel(None, THERMAL),
        TypeError, "channel must be a TargetChannel, got NoneType",
    ),
    "apply_channel_none_channel_displaced_signal": (
        lambda tmp_path: apply_channel(None, DisplacedThermal(1.0, 0.0)),
        TypeError, "channel must be a TargetChannel, got NoneType",
    ),
}

# herald_states and checked_mixtures, a bad value alone and after 70 good ones:
# the good rows fill one 64-row scan block (states._CHECK_BLOCK_ROWS), which is
# scanned before the bad row raises its own error
for _prefix, _grid in (("", []), ("column_", [1.0] * 70)):
    for _name, _bad, _error, _message in (
        ("str", "1", TypeError, "must be real number, not str"),
        ("none", None, TypeError, "must be real number, not NoneType"),
        ("bool", True, ValueError, "mean photon number must be a real number, got True"),
        ("numpy_bool", np.True_, ValueError, "mean photon number must be a real number, got np.True_"),
        ("negative", -1.0, ValueError, "mean photon number must be finite and nonnegative, got -1.0"),
        ("inf", math.inf, ValueError, "mean photon number must be finite and nonnegative, got inf"),
        ("negative_zero", -0.0, DegenerateHeraldingError,
         "herald normalization vanished for nbar=-0.0, eta=0.9, N=2, k=2"),
        ("subnormal", 1e-320, DegenerateHeraldingError,
         "herald normalization vanished for nbar=1e-320, eta=0.9, N=2, k=2"),
    ):
        GUARDS[f"herald_states_{_prefix}{_name}_mean"] = (
            lambda tmp_path, grid=_grid + [_bad, 1.0]: herald_states(grid, 0.9, 2, 2),
            _error, _message,
        )
    for _name, _row, _error, _message in (
        ("str_weight", (("1",), (1.0,)), TypeError, "must be real number, not str"),
        ("none_weight", ((None,), (1.0,)), TypeError, "must be real number, not NoneType"),
        ("bool_mean", ((1.0,), (True,)), ValueError, "thermal mean must be a real number, got True"),
        ("str_mean", ((1.0,), ("1",)), TypeError, "must be real number, not str"),
        ("none_mean", ((1.0,), (None,)), TypeError, "must be real number, not NoneType"),
        ("int_weight_past_the_largest_double", ((10**400, 1 - 10**400), (1.0, 2.0)),
         ValueError, "component weight must be finite, got an integer of 1329 bits"),
    ):
        GUARDS[f"checked_mixtures_{_prefix}{_name}"] = (
            lambda tmp_path, rows=[((1.0,), (1.0,))] * len(_grid) + [_row]: checked_mixtures(rows),
            _error, _message,
        )


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guard_raises_its_error(guard, tmp_path):
    call, error, message = GUARDS[guard]
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call(tmp_path)


@pytest.mark.parametrize("size", [3, 20])
def test_herald_states_take_an_array_or_an_iterator(size):
    grid = np.linspace(0.1, 5.0, size)
    expected = herald_states(grid.tolist(), 0.9, 2, 2)
    assert herald_states(grid, 0.9, 2, 2) == expected
    assert herald_states(iter(grid.tolist()), 0.9, 2, 2) == expected
