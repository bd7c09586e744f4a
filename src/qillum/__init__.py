"""Quantum illumination with multiplexed click photodetection.

Closed-form click statistics for heralded two-mode squeezed vacuum and
coherent probes, a sequential Bayesian Monte-Carlo detection simulator, and a
truncated-Fock brute-force oracle that cross-validates every closed form.
"""

from .channel import (
    TargetChannel,
    apply_channel,
    background_state,
    receiver_click_prob,
)
from .errors import (
    DegenerateHeraldingError,
    NumericalInstabilityError,
    QillumError,
    TruncationError,
    UnsupportedStateError,
)
from .matching import MatchSpec, coherent_click_prob, matched_mean, thermal_click_prob
from .mc import (
    SignalKind,
    TrajectoryConfig,
    average_trajectories,
    run_trajectory,
)
from .povm import (
    ClickMultiplex,
    click_distribution,
    click_probability,
    normal_ordered_moment,
    povm_fock_diagonal,
)
from .states import (
    DisplacedThermal,
    SignedThermalMixture,
    fano_factor,
    herald_state,
    mean_photon,
    photon_number_distribution,
    tmsv_marginal,
    wigner_slice,
)

__version__ = "0.1.0"
