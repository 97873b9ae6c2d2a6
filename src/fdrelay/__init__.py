"""Power control and relay selection for full-duplex underlay relaying.

The package splits into:

* :mod:`fdrelay.model` -- network configuration, channel sampling, the exact
  end-to-end rate and its interference-limited surrogates.
* :mod:`fdrelay.phase` -- coherent interference decomposition, the aligned
  phase rotation, and the convexified constraint used by the solvers.
* :mod:`fdrelay.analysis` -- closed-form curvature reports, sign conditions
  and threshold powers, plus finite-difference checkers.
* :mod:`fdrelay.solver` -- the per-relay envelope solve, the brute-force
  lattice oracle, and relay selection.
* :mod:`fdrelay.harness` -- reproducible Monte-Carlo experiments and CSV
  emission.
* :mod:`fdrelay.cli` -- the ``fdrelay`` command-line entry point.
"""

from .model import (
    ChannelRealization,
    ConfigError,
    DerivedQuantities,
    NetworkConfig,
    PowerAllocation,
    ZetaHatZero,
    db_to_linear,
    derived_quantities,
    interference_noncoh,
    linear_to_db,
    rate_coh_obj,
    rate_exact,
    rate_hd,
    rate_noncoh_obj,
    rate_noncoh_obj_zeta_zero,
    relay_gain,
    sample_channels,
    zeta_hat,
)
from .phase import (
    CoherentDecomposition,
    ConvexifiedConstraint,
    PhaseSolution,
    convexified_interference,
    decompose,
    freeze_constraint,
    interference_coh,
    interference_coh_at_phase,
    optimal_phase,
)
from .analysis import (
    Definiteness,
    DomainError,
    HessianReport,
    Thresholds,
    convexified_curvatures,
    f_partials,
    ftilde_partials,
    g_partials,
    hessian_coh,
    hessian_noncoh,
    hessian_noncoh_zeta_zero,
    numeric_gradient,
    numeric_hessian,
    sc1,
    sc2_witness,
    threshold_ps,
)
from .solver import (
    COHERENT,
    EmptyInterval,
    HD_BASELINE,
    Infeasible,
    NONCOHERENT,
    RelayResult,
    SolveResult,
    alternate_optimize,
    brute_force,
    feasible_interval_pr,
    hd_baseline,
    select_relay,
    solve_1d_convex,
    solve_network,
    solve_zeta_zero,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization", "ConfigError", "DerivedQuantities", "NetworkConfig",
    "PowerAllocation", "ZetaHatZero", "db_to_linear", "derived_quantities",
    "interference_noncoh", "linear_to_db", "rate_coh_obj", "rate_exact",
    "rate_hd", "rate_noncoh_obj", "rate_noncoh_obj_zeta_zero", "relay_gain",
    "sample_channels", "zeta_hat",
    "CoherentDecomposition", "ConvexifiedConstraint", "PhaseSolution",
    "convexified_interference", "decompose", "freeze_constraint",
    "interference_coh", "interference_coh_at_phase", "optimal_phase",
    "Definiteness", "DomainError", "HessianReport", "Thresholds",
    "convexified_curvatures", "f_partials", "ftilde_partials", "g_partials",
    "hessian_coh", "hessian_noncoh", "hessian_noncoh_zeta_zero",
    "numeric_gradient", "numeric_hessian", "sc1", "sc2_witness", "threshold_ps",
    "COHERENT", "EmptyInterval", "HD_BASELINE", "Infeasible", "NONCOHERENT",
    "RelayResult", "SolveResult", "alternate_optimize",
    "brute_force", "feasible_interval_pr", "hd_baseline", "select_relay",
    "solve_1d_convex", "solve_network", "solve_zeta_zero",
    "__version__",
]
