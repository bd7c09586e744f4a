"""Sequential shot-by-shot Bayesian detection trajectories.

Each shot of the experiment heralds a probe state (for quantum signals), lets
the physically realized return state pick the receiver outcome by inverse
transform sampling, and updates the target-present probability through Bayes'
rule.  Posteriors accumulate in log-odds form, so thirty thousand
multiplicative updates cannot underflow; the per-shot arithmetic is otherwise
identical to the direct Bayes update.

Reproducibility contract: every trial draws from its own counter-based Philox
stream keyed by an integer mix of (seed, trial_index), so a trajectory is a
pure function of (config, trial_index) and ensembles reduce identically for
any degree of parallelism.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.special import expit

from .channel import TargetChannel, apply_channel, background_state
from .errors import QillumError
from .matching import MatchSpec, matched_mean
from .numerics import CompensatedVectorSum
from .povm import ClickMultiplex, _validate_outcome, click_distribution
from .states import DisplacedThermal, herald_state, tmsv_marginal

# Trials are reduced in fixed chunks: pairwise summation inside a chunk, then
# compensated accumulation across chunks in index order.  Workers may compute
# chunks in any order without changing the result.
CHUNK_SIZE = 64

_LOG_RATIO_CLIP = 700.0


class SignalKind(str, Enum):
    QUANTUM_HERALDED = "quantum_heralded"
    COHERENT = "coherent"
    QUANTUM_HERALDED_MATCHED = "quantum_heralded_matched"


@dataclass(frozen=True)
class TrajectoryConfig:
    """Full parameterization of a sequential detection ensemble."""

    nbar: float
    herald_efficiency: float
    herald_detectors: int
    receiver_efficiency: float
    receiver_detectors: int
    reflectivity: float
    background_mean: float
    shots: int
    trials: int
    seed: int
    signal_kind: SignalKind
    target_present: bool
    eavesdropper_efficiency: float = 0.9
    # Built at construction, so a config that constructs can run; every run reuses them.
    tables: LikelihoodTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"need at least one shot, got {self.shots}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "signal_kind", SignalKind(self.signal_kind))
        # The objects build_tables makes apply their own range rules; every
        # field is checked whether or not this signal kind uses it.
        tmsv_marginal(self.nbar)
        TargetChannel(self.reflectivity, self.background_mean)
        herald = ClickMultiplex(self.herald_detectors, self.herald_efficiency)
        receiver = ClickMultiplex(self.receiver_detectors, self.receiver_efficiency)
        for multiplex in (herald, receiver):
            _validate_outcome(multiplex, multiplex.detector_count)
        if self.signal_kind is SignalKind.QUANTUM_HERALDED_MATCHED:
            MatchSpec(self.nbar, self.eavesdropper_efficiency)
        # In-range values can still give tables that lose completeness (a
        # coherent receiver from about 12 detectors on).
        try:
            object.__setattr__(self, "tables", build_tables(self))
        except QillumError as exc:
            raise ValueError(f"likelihood tables cannot be built: {exc}") from exc


@dataclass(frozen=True)
class TrajectoryResult:
    """Ensemble summary: mean posterior curve plus threshold crossings."""

    mean_posterior: np.ndarray
    mean_crossings: dict
    per_trial_crossings: dict
    rng_metadata: dict


@dataclass(frozen=True)
class LikelihoodTables:
    """Per-herald-outcome receiver likelihoods, precomputed before the shot loop.

    Row k of ``l1`` is the receiver click distribution under H1 given herald
    outcome k (a single row for coherent signals); ``l0`` is the herald-
    independent background distribution.  ``log_ratio[k, k_S]`` is the log-odds
    increment for observing k_S receiver clicks after heralding k.
    """

    herald_cdf: Optional[np.ndarray]
    l0: np.ndarray
    l1: np.ndarray
    log_ratio: np.ndarray
    cdf_h0: np.ndarray
    cdf_h1: np.ndarray
    probe_nbar: float

    def __post_init__(self):
        # run_trajectory counts the cdf entries below each draw; that count is
        # the sampled outcome only for a nondecreasing row ending at 1.0.
        for name in ("herald_cdf", "cdf_h0", "cdf_h1"):
            cdf = getattr(self, name)
            if cdf is None:
                continue
            for index, row in enumerate(np.atleast_2d(cdf)):
                where = f"{name} row {index}" if np.ndim(cdf) == 2 else name
                if not np.all(np.isfinite(row)):
                    raise ValueError(f"{where} has a non-finite entry: {row}")
                if np.any(np.diff(row) < 0.0):
                    raise ValueError(f"{where} decreases: {row}")
                if row[-1] != 1.0:
                    raise ValueError(f"{where} ends at {row[-1]!r}, not exactly 1.0")


def splitmix64(value: int) -> int:
    """One step of the SplitMix64 integer mixer (public-domain constants)."""
    z = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def trial_stream(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible generator for one trial.

    The Philox key is a SplitMix64 mix of the seed and the trial index;
    counter-based generation guarantees distinct keys give independent streams.
    """
    key = splitmix64(splitmix64(seed) ^ (trial_index + 0x9E3779B97F4A7C15))
    return np.random.Generator(np.random.Philox(key=key))


def click_cdf(multiplex: ClickMultiplex, state) -> np.ndarray:
    """Cumulative click distribution, checked complete, final entry pinned to exactly one."""
    return _pinned_cumsum(click_distribution(multiplex, state), check=True)


def _pinned_cumsum(rows: np.ndarray, check: bool = False) -> np.ndarray:
    """Cumulative sums along the last axis, final entry pinned to one, all clipped at one.

    With ``check``, a distribution whose unpinned sum misses one by more than
    1e-12 of its total magnitude is rejected instead.
    """
    cdf = np.cumsum(rows, axis=-1)
    if check and abs(cdf[-1] - 1.0) > 1e-12 * max(1.0, float(np.abs(rows).sum())):
        raise ValueError(f"cumulative distribution ends at {cdf[-1]!r}, not 1")
    cdf[..., -1] = 1.0
    return np.minimum(cdf, 1.0)


def build_tables(config: TrajectoryConfig) -> LikelihoodTables:
    """Precompute herald and receiver statistics for a configuration.

    For matched runs the quantum probe runs at the click-matched mean while
    ``config.nbar`` keeps its role as the coherent reference mean.
    """
    channel = TargetChannel(config.reflectivity, config.background_mean)
    receiver = ClickMultiplex(config.receiver_detectors, config.receiver_efficiency)
    l0 = click_distribution(receiver, background_state(channel))

    if config.signal_kind is SignalKind.COHERENT:
        probe_nbar = config.nbar
        herald_cdf = None
        return_state = apply_channel(channel, DisplacedThermal(probe_nbar, 0.0))
        l1 = click_distribution(receiver, return_state)[None, :]
    else:
        if config.signal_kind is SignalKind.QUANTUM_HERALDED_MATCHED:
            probe_nbar = matched_mean(
                MatchSpec(config.nbar, config.eavesdropper_efficiency)
            )
        else:
            probe_nbar = config.nbar
        herald_mux = ClickMultiplex(config.herald_detectors, config.herald_efficiency)
        herald_cdf = click_cdf(herald_mux, tmsv_marginal(probe_nbar))
        rows = []
        # The heralded state is used for every outcome, including k = 0.
        for k in range(config.herald_detectors + 1):
            conditioned = herald_state(
                probe_nbar, config.herald_efficiency, config.herald_detectors, k
            )
            rows.append(click_distribution(receiver, apply_channel(channel, conditioned)))
        l1 = np.vstack(rows)

    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.clip(l1, 1e-300, None)) - np.log(
            np.clip(l0, 1e-300, None)
        )[None, :]
    log_ratio = np.where(l1 == l0[None, :], 0.0, log_ratio)
    log_ratio = np.clip(log_ratio, -_LOG_RATIO_CLIP, _LOG_RATIO_CLIP)

    return LikelihoodTables(
        herald_cdf=herald_cdf,
        l0=l0,
        l1=l1,
        log_ratio=log_ratio,
        cdf_h0=_pinned_cumsum(l0),
        cdf_h1=_pinned_cumsum(l1),
        probe_nbar=probe_nbar,
    )


def run_trajectory(config: TrajectoryConfig, trial_index: int) -> np.ndarray:
    """Posterior Pr(H1) after each of ``config.shots`` shots, for one trial.

    Deterministic given (config.seed, trial_index).  Starts from equal priors,
    Pr(H1) = 1/2.  Heralded signals draw ``(shots, 2)`` uniforms (herald
    outcome, then receiver outcome, per shot); coherent signals draw one per
    shot.  The receiver outcome is sampled from the cdf of the physically
    realized state: the H1 row of the sampled herald outcome when the target
    is present, the background otherwise.

    Each outcome is counted as the number of cdf entries below the draw, one
    1-D compare per entry except the last.  On a nondecreasing cdf whose last
    entry is 1.0 (``LikelihoodTables`` enforces both) that count equals
    ``searchsorted(cdf, draw, side="left")``, so the curve is bit for bit the
    one the scalar shot-by-shot reference ``run_shot`` in
    ``tests/scalar_reference.py`` produces: same draws, same increments, and
    log-odds prefix sums accumulated left to right.
    """
    tables = config.tables
    rng = trial_stream(config.seed, trial_index)
    shots = config.shots

    if tables.herald_cdf is not None:
        draws = rng.random((shots, 2))
        herald_outcomes = sum(draws[:, 0] > edge for edge in tables.herald_cdf[:-1])
        receiver_draws = draws[:, 1]
    else:
        herald_outcomes = 0
        receiver_draws = rng.random(shots)

    # One cdf row per herald outcome, or a single row (coherent probe, absent
    # target) whose edges are scalars.
    cdf = tables.cdf_h1 if config.target_present else tables.cdf_h0[None, :]
    receiver_clicks = sum(
        receiver_draws > (column[0] if column.size == 1 else column[herald_outcomes])
        for column in cdf[:, :-1].T
    )

    columns = tables.log_ratio.shape[1]
    increments = tables.log_ratio.ravel()[herald_outcomes * columns + receiver_clicks]
    log_odds = np.cumsum(increments, out=increments)
    return expit(log_odds, out=log_odds)


def first_crossing(curve: np.ndarray, threshold: float) -> Optional[int]:
    """1-based index of the first shot where the curve reaches the threshold."""
    hits = np.nonzero(curve >= threshold)[0]
    if hits.size == 0:
        return None
    return int(hits[0]) + 1


def _chunk_worker(config, thresholds, start, stop):
    rows = np.empty((stop - start, config.shots))
    crossings = {thr: [] for thr in thresholds}
    for offset, trial in enumerate(range(start, stop)):
        curve = run_trajectory(config, trial)
        rows[offset] = curve
        for thr in thresholds:
            crossings[thr].append(first_crossing(curve, thr))
    return np.sum(rows, axis=0), crossings


def average_trajectories(
    config: TrajectoryConfig,
    threads: int = 1,
    thresholds: tuple[float, ...] = (0.8, 0.9),
) -> TrajectoryResult:
    """Ensemble mean of the posterior trajectory plus crossing statistics.

    Crossing shots are reported both for the ensemble-mean curve (the
    headline estimator) and per trial (for dispersion).  The reduction order
    is fixed by chunk index, so any thread count yields identical output.
    """
    thresholds = tuple(float(t) for t in thresholds)
    bounds = [
        (start, min(start + CHUNK_SIZE, config.trials))
        for start in range(0, config.trials, CHUNK_SIZE)
    ]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(
                pool.map(
                    lambda b: _chunk_worker(config, thresholds, b[0], b[1]),
                    bounds,
                )
            )
    else:
        partials = [_chunk_worker(config, thresholds, a, b) for a, b in bounds]

    accumulator = CompensatedVectorSum(config.shots)
    per_trial = {thr: [] for thr in thresholds}
    for partial_sum, crossings in partials:
        accumulator.add(partial_sum)
        for thr in thresholds:
            per_trial[thr].extend(crossings[thr])
    mean_posterior = accumulator.result() / config.trials
    mean_crossings = {thr: first_crossing(mean_posterior, thr) for thr in thresholds}

    metadata = {
        "seed": config.seed,
        "trials": config.trials,
        "shots": config.shots,
        "generator": "numpy.random.Philox (counter-based, 4x64)",
        "stream_derivation": "key = splitmix64(splitmix64(seed) ^ (trial_index + 0x9E3779B97F4A7C15))",
        "chunk_size": CHUNK_SIZE,
        "probe_nbar": config.tables.probe_nbar,
    }
    return TrajectoryResult(
        mean_posterior=mean_posterior,
        mean_crossings=mean_crossings,
        per_trial_crossings=per_trial,
        rng_metadata=metadata,
    )
