"""Scalar shot-by-shot reference for the vectorized Monte-Carlo kernel.

``run_shot`` advances one trial by one shot with ``searchsorted`` inverse
transform sampling and a scalar log-odds update.  ``qillum.mc.run_trajectory``
must reproduce a loop of these calls bit for bit; the tests in ``test_mc.py``
check that it does.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from qillum.mc import LikelihoodTables


def sample_clicks(cdf: np.ndarray, r: float) -> int:
    """Inverse transform sampling: smallest k with cdf[k] >= r."""
    cdf = np.asarray(cdf, dtype=float)
    if cdf.ndim != 1 or cdf.size == 0:
        raise ValueError("cdf must be a nonempty 1-D array")
    if np.any(np.diff(cdf) < 0.0) or abs(cdf[-1] - 1.0) > 1e-12:
        raise ValueError("cdf must be nondecreasing and end at 1")
    if not (0.0 < r < 1.0):
        raise ValueError(f"uniform draw must lie in (0, 1), got {r}")
    return int(np.searchsorted(cdf, r, side="left"))


@dataclass
class ShotContext:
    """Mutable per-trial state threaded through run_shot."""

    tables: LikelihoodTables
    target_present: bool
    rng: np.random.Generator
    log_odds: float = 0.0


def run_shot(ctx: ShotContext) -> tuple[float, float]:
    """Advance one shot; returns the updated (Pr(H1), Pr(H0)) pair.

    Quantum signals consume two uniform draws per shot (herald outcome, then
    receiver outcome); coherent signals consume one.  The receiver outcome is
    sampled from the cdf of the physically realized state: the H1-conditioned
    state of the sampled herald outcome when the target is present, the bare
    background otherwise.
    """
    tables = ctx.tables
    if tables.herald_cdf is not None:
        draws = ctx.rng.random(2)
        herald_outcome = int(np.searchsorted(tables.herald_cdf, draws[0], side="left"))
        receiver_draw = draws[1]
    else:
        herald_outcome = 0
        receiver_draw = ctx.rng.random()
    if ctx.target_present:
        cdf = tables.cdf_h1[herald_outcome]
    else:
        cdf = tables.cdf_h0
    receiver_clicks = int(np.searchsorted(cdf, receiver_draw, side="left"))
    ctx.log_odds += float(tables.log_ratio[herald_outcome, receiver_clicks])
    p1 = float(expit(ctx.log_odds))
    return p1, 1.0 - p1
