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
any degree of parallelism.  The signals of one run share seed, trials and
shots, so they read the same per-trial uniforms: ``average_trajectories``
draws each trial's block once and hands it to every signal as a
``TrialDraws``: the coherent prefix and contiguous herald and receiver
columns.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .channel import TargetChannel, apply_channel, background_state
from .errors import QillumError
from .matching import MatchSpec, matched_mean
from .povm import ClickMultiplex, click_distribution
from .states import DisplacedThermal, check_outcome, herald_state, tmsv_marginal

# Trials are reduced in fixed chunks: trial curves are added in index order
# inside a chunk, then chunk sums are accumulated with compensation in chunk
# index order.  Workers may compute chunks in any order without changing the
# result.
CHUNK_SIZE = 64

# A likelihood row is a probability vector up to rounding.  A larger miss is
# cancellation noise in the closed form, which pinning the cdf's last entry to
# one would hide.  A probability error of 1e-9 moves fewer than one of the
# 3.6e8 shots of a 12000-trial, 30000-shot ensemble.
_ROW_SUM_TOL = 1e-9

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
    # Built at construction, so a config that constructs can run; every run
    # reuses them.  Building them also applies every physical range rule.
    tables: LikelihoodTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"need at least one shot, got {self.shots}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "signal_kind", SignalKind(self.signal_kind))
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


class CompensatedVectorSum:
    """Neumaier-compensated elementwise accumulator for ndarray partial sums.

    Used to reduce Monte-Carlo trial chunks in a fixed order so the ensemble
    mean is independent of how many workers produced the chunks.
    """

    def __init__(self, size: int):
        self._total = np.zeros(size)
        self._comp = np.zeros(size)

    def add(self, values: np.ndarray) -> None:
        t = self._total + values
        swap = np.abs(self._total) >= np.abs(values)
        self._comp += np.where(swap, (self._total - t) + values, (values - t) + self._total)
        self._total = t

    def result(self) -> np.ndarray:
        return self._total + self._comp


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
    """Cumulative click distribution, checked complete, final entry pinned to exactly one.

    A distribution whose sum misses one by more than 1e-12 of its total
    magnitude is rejected.
    """
    dist = click_distribution(multiplex, state)
    return _pinned_cumsum(dist, "click distribution", 1e-12 * max(1.0, float(np.abs(dist).sum())))


def _pinned_cumsum(rows: np.ndarray, name: str, tolerance: float = _ROW_SUM_TOL) -> np.ndarray:
    """Cumulative sums along the last axis, final entry pinned to one, all clipped at one.

    A row whose unpinned sum misses one by more than ``tolerance`` is rejected.
    """
    cdf = np.cumsum(rows, axis=-1)
    for index, total in enumerate(np.atleast_1d(cdf[..., -1])):
        if not abs(total - 1.0) <= tolerance:
            where = f"{name} row {index}" if cdf.ndim == 2 else name
            raise ValueError(f"{where} sums to {float(total)!r}, not 1 within {tolerance:.3g}")
    cdf[..., -1] = 1.0
    return np.minimum(cdf, 1.0)


def build_tables(config: TrajectoryConfig) -> LikelihoodTables:
    """Precompute herald and receiver statistics for a configuration.

    For matched runs the quantum probe runs at the click-matched mean while
    ``config.nbar`` keeps its role as the coherent reference mean.

    Each object that owns a physical range is built once, for every signal
    kind, so every field is checked whether or not the kind uses it.  The one
    exception is ``MatchSpec``: its eavesdropper efficiency and overflow rules
    concern the matched probe alone.
    """
    if config.signal_kind is SignalKind.QUANTUM_HERALDED_MATCHED:
        probe_nbar = matched_mean(MatchSpec(config.nbar, config.eavesdropper_efficiency))
    else:
        probe_nbar = config.nbar
    idler = tmsv_marginal(probe_nbar)
    channel = TargetChannel(config.reflectivity, config.background_mean)
    herald_mux = ClickMultiplex(config.herald_detectors, config.herald_efficiency)
    receiver = ClickMultiplex(config.receiver_detectors, config.receiver_efficiency)
    for multiplex in (herald_mux, receiver):
        check_outcome(multiplex.detector_count, multiplex.detector_count)
    l0 = click_distribution(receiver, background_state(channel))

    if config.signal_kind is SignalKind.COHERENT:
        herald_cdf = None
        return_state = apply_channel(channel, DisplacedThermal(probe_nbar, 0.0))
        l1 = click_distribution(receiver, return_state)[None, :]
    else:
        herald_cdf = click_cdf(herald_mux, idler)
        rows = []
        # The heralded state is used for every outcome, including k = 0.
        for k in range(config.herald_detectors + 1):
            conditioned = herald_state(
                probe_nbar, config.herald_efficiency, config.herald_detectors, k
            ).state
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
        cdf_h0=_pinned_cumsum(l0, "l0"),
        cdf_h1=_pinned_cumsum(l1, "l1"),
        probe_nbar=probe_nbar,
    )


class TrialDraws(NamedTuple):
    """One trial's uniforms, as the signals of a run read them.

    ``coherent`` is the first ``shots`` uniforms of the trial's stream;
    ``herald`` and ``receiver`` are contiguous copies of the two columns of a
    ``(shots, 2)`` block, or None when no signal of the run is heralded.
    """

    coherent: np.ndarray
    herald: Optional[np.ndarray]
    receiver: Optional[np.ndarray]


def _trial_draws(seed: int, trial_index: int, shots: int, heralded: bool) -> TrialDraws:
    """One trial's Philox block: ``random((shots, 2))`` when heralded, else ``random(shots)``.

    Philox fills an array in stream order, so the first ``shots`` entries of
    the raveled ``(shots, 2)`` block are bit for bit ``random(shots)``.
    """
    rng = trial_stream(seed, trial_index)
    if not heralded:
        return TrialDraws(rng.random(shots), None, None)
    block = rng.random((shots, 2))
    return TrialDraws(
        block.ravel()[:shots],
        np.ascontiguousarray(block[:, 0]),
        np.ascontiguousarray(block[:, 1]),
    )


def _counts(draws: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Per-draw count of the entries of ``cdf`` below it, as ``uint8``.

    The last entry, exactly 1.0, is never below a draw and is skipped.  At
    most 64 entries are counted, so the counts fit ``uint8``.
    """
    counts = np.zeros(draws.size, dtype=np.uint8)
    for edge in cdf[:-1]:
        counts += draws > edge
    return counts


def run_trajectory(
    config: TrajectoryConfig, trial_index: int, draws: Optional[TrialDraws] = None
) -> np.ndarray:
    """Posterior Pr(H1) after each of ``config.shots`` shots, for one trial.

    Deterministic given (config.seed, trial_index).  Starts from equal priors,
    Pr(H1) = 1/2.  ``draws`` is the trial's ``_trial_draws``, drawn here when
    not given.  Heralded signals read ``(shots, 2)`` uniforms (herald outcome,
    then receiver outcome, per shot); coherent signals read the first
    ``shots`` uniforms of the stream.  The receiver outcome is sampled from
    the cdf of the physically realized state: the H1 row of the sampled
    herald outcome when the target is present, the background otherwise.

    Each outcome is counted as the number of cdf entries below the draw, one
    1-D compare per entry except the last, on a contiguous column; a present
    target's receiver compares each draw with the edge of its own herald
    outcome.  On a nondecreasing cdf whose last entry is 1.0
    (``LikelihoodTables`` enforces both) a count equals
    ``searchsorted(cdf, draw, side="left")``, so the curve is bit for bit the
    one the scalar shot-by-shot reference ``run_shot`` in
    ``tests/scalar_reference.py`` produces: same draws, same increments, and
    log-odds prefix sums accumulated left to right.
    """
    tables = config.tables
    if draws is None:
        draws = _trial_draws(config.seed, trial_index, config.shots, tables.herald_cdf is not None)

    if tables.herald_cdf is None:
        cdf = tables.cdf_h1[0] if config.target_present else tables.cdf_h0
        index = _counts(draws.coherent, cdf).astype(np.intp)
    else:
        herald = _counts(draws.herald, tables.herald_cdf).astype(np.intp)
        # intp before the multiply: uint8 times the row length wraps past 255.
        index = herald * tables.log_ratio.shape[1]
        if config.target_present:
            for column in tables.cdf_h1[:, :-1].T:
                index += draws.receiver > column.take(herald)
        else:
            index += _counts(draws.receiver, tables.cdf_h0)

    increments = tables.log_ratio.ravel().take(index)
    log_odds = np.cumsum(increments, out=increments)
    return _expit(log_odds)


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), in place on a 1-D float array.

    Bit for bit ``1 / (1 + math.exp(-v))`` per element, as scipy's ``expit``
    computes it.  numpy's contiguous ``exp`` takes a SIMD path that differs
    from libm in the last bit of about 2% of doubles; on a negative-stride
    input it runs its scalar libm loop, so ``exp`` reads the reversed view
    into a fresh buffer.  Running it in place on that view does not work:
    numpy then flips both strides and takes the SIMD path again.
    """
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        e = np.exp(x[::-1])
    e += 1.0
    return np.divide(1.0, e[::-1], out=x)


def first_crossing(curve: np.ndarray, threshold: float) -> Optional[int]:
    """1-based index of the first shot where the curve reaches the threshold."""
    hits = curve >= threshold
    index = int(np.argmax(hits))
    return index + 1 if hits[index] else None


def check_thresholds(thresholds: Sequence[float]) -> tuple[float, ...]:
    """Crossing thresholds as floats, each at most once: crossings are keyed by value."""
    values = tuple(float(t) for t in thresholds)
    if len(set(values)) != len(values):
        raise ValueError(f"thresholds must be distinct, got {list(values)}")
    return values


def _chunk_worker(configs, thresholds, start, stop):
    """Per-config curve sums and per-trial crossings of trials [start, stop).

    Each trial's uniforms are drawn once and read by every config.  A sum
    starts at zero and adds the curves in trial order.
    """
    seed, shots = configs[0].seed, configs[0].shots
    heralded = any(config.tables.herald_cdf is not None for config in configs)
    sums = [np.zeros(shots) for _ in configs]
    crossings = [{thr: [] for thr in thresholds} for _ in configs]
    for trial in range(start, stop):
        draws = _trial_draws(seed, trial, shots, heralded)
        for config, total, crossed in zip(configs, sums, crossings):
            curve = run_trajectory(config, trial, draws)
            total += curve
            for thr in thresholds:
                crossed[thr].append(first_crossing(curve, thr))
    return sums, crossings


def average_trajectories(
    configs: Sequence[TrajectoryConfig],
    threads: int = 1,
    thresholds: tuple[float, ...] = (0.8, 0.9),
) -> list[TrajectoryResult]:
    """Ensemble mean of the posterior trajectory plus crossing statistics, per config.

    The configs must share ``seed``, ``trials`` and ``shots``; each trial's
    uniforms are drawn once and every config reads them, so a config's
    result is the one it gets when run alone.  Crossing shots are reported
    both for the ensemble-mean curve (the headline estimator) and per trial
    (for dispersion), keyed by threshold, so a repeated threshold is a
    ``ValueError``.  The reduction order is fixed by chunk index, so any
    thread count yields identical output.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one trajectory config")
    for name in ("seed", "trials", "shots"):
        values = sorted({getattr(config, name) for config in configs})
        if len(values) > 1:
            raise ValueError(f"configs must share {name}, got {values}")
    first = configs[0]
    thresholds = check_thresholds(thresholds)
    bounds = [
        (start, min(start + CHUNK_SIZE, first.trials))
        for start in range(0, first.trials, CHUNK_SIZE)
    ]

    accumulators = [CompensatedVectorSum(first.shots) for _ in configs]
    per_trial = [{thr: [] for thr in thresholds} for _ in configs]

    def reduce(partials):
        # Chunk results arrive in index order and are dropped once added.
        for sums, crossings in partials:
            for accumulator, total in zip(accumulators, sums):
                accumulator.add(total)
            for collected, crossed in zip(per_trial, crossings):
                for thr in thresholds:
                    collected[thr].extend(crossed[thr])

    def worker(bound):
        return _chunk_worker(configs, thresholds, *bound)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reduce(pool.map(worker, bounds))
    else:
        reduce(map(worker, bounds))

    results = []
    for config, accumulator, crossings in zip(configs, accumulators, per_trial):
        mean_posterior = accumulator.result() / config.trials
        metadata = {
            "seed": config.seed,
            "trials": config.trials,
            "shots": config.shots,
            "generator": "numpy.random.Philox (counter-based, 4x64)",
            "stream_derivation": "key = splitmix64(splitmix64(seed) ^ (trial_index + 0x9E3779B97F4A7C15))",
            "chunk_size": CHUNK_SIZE,
            "probe_nbar": config.tables.probe_nbar,
        }
        results.append(TrajectoryResult(
            mean_posterior=mean_posterior,
            mean_crossings={thr: first_crossing(mean_posterior, thr) for thr in thresholds},
            per_trial_crossings=crossings,
            rng_metadata=metadata,
        ))
    return results
