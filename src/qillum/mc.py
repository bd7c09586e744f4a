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
draws each trial's block once into a chunk's ``WorkingSet`` and hands it to
every signal: the coherent prefix and contiguous herald and receiver columns.
A chunk allocates its eight-byte-per-shot arrays once and every trial
refills them; a trial allocates only one-byte-per-shot rows, which stay below
glibc's 128 KB mmap threshold up to 131072 shots, so they come from the heap,
not from fresh mappings.

An ensemble's output is its mean posterior curve alone; the shot at which a
curve first reaches a threshold is ``first_crossing(curve, threshold)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .channel import TargetChannel, apply_channel, background_state
from .povm import ClickMultiplex, click_distribution
from .states import DisplacedThermal, check_integer, check_outcome, herald_state, tmsv_marginal

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
    # Built at construction, so a config that constructs can run; every run
    # reuses them.  Building them also applies every physical range rule.
    tables: LikelihoodTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("shots", "trials", "seed"):
            check_integer(getattr(self, name), name)
        if self.shots < 1:
            raise ValueError(f"need at least one shot, got {self.shots}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if not isinstance(self.target_present, bool):
            raise ValueError(f"target_present must be a bool, got {self.target_present!r}")
        object.__setattr__(self, "signal_kind", SignalKind(self.signal_kind))
        object.__setattr__(self, "tables", build_tables(self))


@dataclass(frozen=True)
class LikelihoodTables:
    """Per-herald-outcome receiver likelihoods, precomputed before the shot loop.

    A table is three distributions: ``herald``, the herald outcome
    distribution (None for a coherent probe); row k of ``l1``, the receiver
    click distribution under H1 given herald outcome k (a single row for a
    coherent probe); and ``l0``, the herald-independent background
    distribution.  The rest is derived from them: the pinned cdfs
    ``herald_cdf``, ``cdf_h0`` and ``cdf_h1``, ``log_ratio[k, k_S]``, the
    log-odds increment for observing k_S receiver clicks after heralding k,
    and its negation ``neg_log_ratio``, which the shot loop sums.
    """

    herald: Optional[np.ndarray]
    l0: np.ndarray
    l1: np.ndarray
    herald_cdf: Optional[np.ndarray] = field(init=False)
    cdf_h0: np.ndarray = field(init=False)
    cdf_h1: np.ndarray = field(init=False)
    log_ratio: np.ndarray = field(init=False)
    neg_log_ratio: np.ndarray = field(init=False)

    def __post_init__(self):
        # Both logs read values clipped at 1e-300, so equal likelihoods give exactly 0.0.
        # Each log is libm's, so the tables do not depend on numpy's SIMD level.
        clipped = (np.clip(rows, 1e-300, None) for rows in (self.l0, self.l1))
        log_l0, log_l1 = (np.reshape([math.log(x) for x in c.ravel().tolist()], c.shape)
                          for c in clipped)
        log_ratio = np.clip(log_l1 - log_l0, -_LOG_RATIO_CLIP, _LOG_RATIO_CLIP)
        derived = dict(
            herald_cdf=None if self.herald is None else _pinned_cumsum(self.herald, "herald"),
            cdf_h0=_pinned_cumsum(self.l0, "l0"),
            cdf_h1=_pinned_cumsum(self.l1, "l1"),
            log_ratio=log_ratio,
            neg_log_ratio=-log_ratio,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)


class CompensatedVectorSum:
    """Neumaier-compensated elementwise accumulator for ndarray partial sums.

    Used to reduce Monte-Carlo trial chunks in a fixed order so the ensemble
    mean is independent of how many workers produced the chunks.  The first
    row added becomes the total, not a copy: a Neumaier add onto zeros leaves
    a total equal to it and a zero compensation for every finite value but
    -0.0, which a sum of posteriors never is.  The compensation row is
    allocated when a second row arrives.
    """

    def __init__(self):
        self._total = None
        self._comp = None

    def add(self, values: np.ndarray) -> None:
        if self._total is None:
            self._total = values
            return
        if self._comp is None:
            self._comp = np.zeros_like(self._total)
        t = self._total + values
        swap = np.abs(self._total) >= np.abs(values)
        self._comp += np.where(swap, (self._total - t) + values, (values - t) + self._total)
        self._total = t

    def result(self) -> np.ndarray:
        """The compensated sum, written into the total's row."""
        if self._comp is not None:
            self._total += self._comp
        return self._total


def splitmix64(value: int) -> int:
    """One step of the SplitMix64 integer mixer (public-domain constants)."""
    z = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


# What a run's trial streams are, as its provenance records them.
GENERATOR = "numpy.random.Philox (counter-based, 4x64)"
STREAM_DERIVATION = "key = splitmix64(splitmix64(seed) ^ (trial_index + 0x9E3779B97F4A7C15))"


def trial_stream(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible generator for one trial.

    The Philox key is a SplitMix64 mix of the seed and the trial index;
    counter-based generation guarantees distinct keys give independent streams.
    """
    key = splitmix64(splitmix64(seed) ^ (trial_index + 0x9E3779B97F4A7C15))
    return np.random.Generator(np.random.Philox(key=key))


def _pinned_cumsum(rows: np.ndarray, name: str) -> np.ndarray:
    """Cumulative sums along the last axis, final entry pinned to one, all clipped at one.

    A row with a negative or non-finite entry, or an unpinned sum off one by more
    than ``_ROW_SUM_TOL``, is rejected: a kept cdf is nondecreasing and ends at 1.0.
    """
    cdf = np.cumsum(rows, axis=-1)
    for index, (row, total) in enumerate(zip(np.atleast_2d(rows), np.atleast_1d(cdf[..., -1]))):
        where = f"{name} row {index}" if cdf.ndim == 2 else name
        if not (np.isfinite(row).all() and (row >= 0.0).all()):
            raise ValueError(f"{where} has a negative or non-finite entry: {row}")
        if not abs(total - 1.0) <= _ROW_SUM_TOL:
            raise ValueError(f"{where} sums to {float(total)!r}, not 1 within {_ROW_SUM_TOL:.3g}")
    cdf[..., -1] = 1.0
    return np.minimum(cdf, 1.0)


def build_tables(config: TrajectoryConfig) -> LikelihoodTables:
    """Precompute herald and receiver statistics for a configuration.

    Both signal kinds run their probe at ``config.nbar``.  Each object that
    owns a physical range is built once, for every signal kind, so every
    field is checked whether or not the kind uses it.
    """
    idler = tmsv_marginal(config.nbar)
    channel = TargetChannel(config.reflectivity, config.background_mean)
    herald_mux = ClickMultiplex(config.herald_detectors, config.herald_efficiency)
    receiver = ClickMultiplex(config.receiver_detectors, config.receiver_efficiency)
    for multiplex in (herald_mux, receiver):
        check_outcome(multiplex.detector_count, multiplex.detector_count)
    l0 = click_distribution(receiver, background_state(channel))

    if config.signal_kind is SignalKind.COHERENT:
        herald = None
        return_state = apply_channel(channel, DisplacedThermal(config.nbar, 0.0))
        l1 = click_distribution(receiver, return_state)[None, :]
    else:
        # click_distribution checks the herald row complete to 1e-12.
        herald = click_distribution(herald_mux, idler)
        # The heralded state is used for every outcome, including k = 0.
        conditioned = (
            herald_state(config.nbar, config.herald_efficiency, config.herald_detectors, k).state
            for k in range(config.herald_detectors + 1)
        )
        l1 = np.vstack([click_distribution(receiver, apply_channel(channel, state))
                        for state in conditioned])
    return LikelihoodTables(herald, l0, l1)


class WorkingSet:
    """The arrays a chunk's trials refill, allocated once per chunk.

    ``draw`` refills ``block`` with a trial's uniforms: ``(shots, 2)`` when
    any signal of the run is heralded, else ``(shots,)``.  ``coherent`` is the
    block's first ``shots`` uniforms; ``herald`` and ``receiver`` are
    contiguous copies of a ``(shots, 2)`` block's columns, or None.  The rest
    is ``run_trajectory``'s scratch: ``index``, its ``intp`` row (herald rows,
    then the flat cell index), ``curve``, the gathered edges and then the
    increments, prefix sums and posterior, and ``exp``.
    """

    def __init__(self, shots: int, heralded: bool):
        self.block = np.empty((shots, 2) if heralded else shots)
        self.coherent = self.block.ravel()[:shots]
        self.herald = np.empty(shots) if heralded else None
        self.receiver = np.empty(shots) if heralded else None
        self.index = np.empty(shots, dtype=np.intp)
        self.curve = np.empty(shots)
        self.exp = np.empty(shots)

    def draw(self, seed: int, trial_index: int) -> None:
        """Refill the block from the trial's stream, then the columns from the block.

        Philox fills an array in stream order, so the block is bit for bit
        ``random((shots, 2))`` or ``random(shots)``, and the first ``shots``
        entries of a raveled ``(shots, 2)`` block are ``random(shots)``.
        """
        trial_stream(seed, trial_index).random(out=self.block)
        if self.herald is not None:
            np.copyto(self.herald, self.block[:, 0])
            np.copyto(self.receiver, self.block[:, 1])


def _counts(draws: np.ndarray, cdf: np.ndarray, dtype=np.uint8) -> np.ndarray:
    """Per-draw count of the entries of ``cdf`` below it, as ``dtype``.

    The last entry, exactly 1.0, is never below a draw and is skipped.  At
    most 64 entries are counted, so the counts fit ``uint8``, the default;
    ``run_trajectory`` passes its flat cell index's type when the counts
    start that index.  Each compare is added through its ``uint8`` view, so
    the bool row is not cast.
    """
    counts = np.zeros(draws.size, dtype=dtype)
    for edge in cdf[:-1]:
        counts += (draws > edge).view(np.uint8)
    return counts


def run_trajectory(
    config: TrajectoryConfig, trial_index: int, work: Optional[WorkingSet] = None
) -> np.ndarray:
    """Posterior Pr(H1) after each of ``config.shots`` shots, for one trial.

    Deterministic given (config.seed, trial_index).  Starts from equal priors,
    Pr(H1) = 1/2.  ``work`` is a ``WorkingSet`` holding the trial's draws;
    the curve returned is its ``curve`` row, which the next run on it
    overwrites.  Without ``work`` the trial is drawn into a fresh one.
    Heralded signals read ``(shots, 2)`` uniforms (herald outcome,
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

    The flat cell index ``h * (M + 1) + k`` is built in the narrowest
    unsigned type that holds the table's last cell,
    ``np.min_scalar_type(log_ratio.size - 1)`` (``uint8`` up to 256 cells),
    so each pass over it moves one or two bytes per shot instead of eight;
    the herald count is multiplied by the row length in that type, which
    cannot wrap.  It becomes ``intp`` only for ``take``: once for the herald
    rows a present target's edges are gathered by, and once for the final
    take of increments, each into the working set's ``index`` row; ``take``
    writes into its ``out`` row in ``clip`` mode, as ``raise`` mode would
    copy it (every index is in range).  A narrow index costs ``take`` a cast
    per element: 30000 entries take about 90 us with ``uint8`` against 15 us
    with ``intp`` (2-core Xeon, numpy 2.4).  The increments come from
    ``neg_log_ratio``, so the prefix sums are the negated log-odds, equal to
    them bit for bit up to the sign of an exact zero: negation is exact and
    round-to-nearest is symmetric.  ``exp`` reads either zero as 1.
    """
    tables = config.tables
    if work is None:
        work = WorkingSet(config.shots, tables.herald_cdf is not None)
        work.draw(config.seed, trial_index)

    dtype = np.min_scalar_type(tables.log_ratio.size - 1)
    if tables.herald_cdf is None:
        cdf = tables.cdf_h1[0] if config.target_present else tables.cdf_h0
        index = _counts(work.coherent, cdf, dtype)
    else:
        herald = _counts(work.herald, tables.herald_cdf, dtype)
        index = herald * dtype.type(tables.log_ratio.shape[1])
        if config.target_present:
            rows = work.index
            np.copyto(rows, herald)
            for column in tables.cdf_h1[:, :-1].T:
                edges = column.take(rows, out=work.curve, mode="clip")
                index += (work.receiver > edges).view(np.uint8)
        else:
            index += _counts(work.receiver, tables.cdf_h0)

    np.copyto(work.index, index)
    increments = tables.neg_log_ratio.take(work.index, out=work.curve, mode="clip")
    neg_log_odds = np.cumsum(increments, out=increments)
    return _expit_of_negated(neg_log_odds, work.exp)


def _expit_of_negated(x: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """The logistic function of -x, 1 / (1 + exp(x)), in place on a 1-D float array.

    Bit for bit ``1 / (1 + math.exp(-v))`` per element of ``v = -x``, as
    scipy's ``expit`` computes it.  numpy's contiguous ``exp`` takes a SIMD
    path that differs from libm in the last bit of about 2% of doubles; on a
    negative-stride input it runs its scalar libm loop, so ``exp`` reads the
    reversed view into a separate contiguous row: ``scratch``, or a fresh one.
    Running it in place on that view does not work: numpy then flips both
    strides and takes the SIMD path again.
    """
    with np.errstate(over="ignore"):
        e = np.exp(x[::-1], out=scratch)
    e += 1.0
    return np.divide(1.0, e[::-1], out=x)


def first_crossing(curve: np.ndarray, threshold: float) -> Optional[int]:
    """1-based index of the first shot where the curve reaches the threshold."""
    hits = curve >= threshold
    index = int(np.argmax(hits))
    return index + 1 if hits[index] else None


def _chunk_worker(configs, start, stop):
    """Per-config curve sums of trials [start, stop).

    Each trial's uniforms are drawn once into the chunk's working set and
    read by every config.  A sum starts at zero and adds the curves in trial
    order.
    """
    seed, shots = configs[0].seed, configs[0].shots
    work = WorkingSet(shots, any(config.tables.herald_cdf is not None for config in configs))
    sums = [np.zeros(shots) for _ in configs]
    for trial in range(start, stop):
        work.draw(seed, trial)
        for config, total in zip(configs, sums):
            # Bound to a name before the add: ``total += run_trajectory(...)``
            # as one expression made the trajectories benchmark about 7% slower
            # (cause not established).
            curve = run_trajectory(config, trial, work)
            total += curve
    return sums


def _chunk_sums(worker, starts, stops, threads: int):
    """``worker``'s chunk sums in chunk index order: on the calling thread at one
    thread, else on a pool of ``threads`` worker threads."""
    if threads == 1:
        yield from map(worker, starts, stops)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(worker, starts, stops)


def average_trajectories(
    configs: Sequence[TrajectoryConfig], threads: int = 1
) -> list[np.ndarray]:
    """Ensemble-mean posterior curve, one per config.

    The configs must share ``seed``, ``trials`` and ``shots``; each trial's
    uniforms are drawn once and every config reads them, so a config's
    curve is the one it gets when run alone.  Chunks run on the calling
    thread at one thread, else on a pool of ``threads`` worker threads, and
    are reduced in chunk index order, so any thread count yields identical
    output.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one trajectory config")
    check_integer(threads, "threads")
    if threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    for name in ("seed", "trials", "shots"):
        values = sorted({getattr(config, name) for config in configs})
        if len(values) > 1:
            raise ValueError(f"configs must share {name}, got {values}")
    first = configs[0]
    starts = range(0, first.trials, CHUNK_SIZE)
    stops = [min(start + CHUNK_SIZE, first.trials) for start in starts]

    accumulators = [CompensatedVectorSum() for _ in configs]
    # Chunk sums arrive in index order and are dropped once added.
    for sums in _chunk_sums(partial(_chunk_worker, configs), starts, stops, threads):
        for accumulator, total in zip(accumulators, sums):
            accumulator.add(total)
    means = [accumulator.result() for accumulator in accumulators]
    for mean in means:
        mean /= first.trials
    return means
