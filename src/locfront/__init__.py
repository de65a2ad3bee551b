"""Local polynomial frontier estimation for multivariate boundary regression.

A boundary regression sample has responses below an unknown frontier,
Y_i = g(X_i) + eps_i with eps_i <= 0. The estimator fits, per evaluation
point, the polynomial of bounded total degree that lies above every response
in a max-norm window and has minimal integral over that window; the fit is a
small dense linear program. The package bundles the estimator with basis and
window primitives, the LP solver, synthetic data generators, bandwidth rules
(including a ladder-type data-driven selection), and a reproducible Monte
Carlo harness with a CLI.
"""

from .basis import (
    BasisSpec,
    PolyCoeffs,
    enumerate_basis,
    eval_poly,
    poly_gradient,
    vandermonde,
)
from .bandwidth import (
    AdaptiveConfig,
    AdaptiveResult,
    adaptive_bandwidth,
    balanced_bandwidth,
    hill_tail_index,
    select_bandwidth_index,
    simulation_bandwidth,
)
from .estimator import (
    Dataset,
    DatasetFormatError,
    EmptyWindowError,
    EstimatorConfig,
    FitResult,
    UnboundedFitError,
    fit_at,
    fit_grid,
    fit_local_constant,
    load_dataset,
    save_dataset,
)
from .harness import (
    BandwidthRule,
    CellResult,
    ConfigError,
    ExperimentSpec,
    RateStudyResult,
    ResultTable,
    run_adaptive,
    run_mse,
    run_rate_study,
)
from .lp import (
    Infeasible,
    LpOutcome,
    LpProblem,
    Optimal,
    SimplexIterationError,
    Unbounded,
    solve,
)
from .synthetic import (
    DesignSpec,
    ErrorSpec,
    ModelSpec,
    eval_boundary,
    gen_design,
    make_sample,
    sample_errors,
)
from .windows import Window, clip_window, objective_vector

__version__ = "0.1.0"
