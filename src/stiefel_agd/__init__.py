"""Accelerated gradient descent with adaptive restart on the Stiefel
manifold, under the canonical metric, with Cayley-retraction-based
extrapolation for the momentum step."""

from .errors import (
    DegenerateFitError,
    DegenerateSpectrumError,
    InverseRetractionFailedError,
    LineSearchFailedError,
    NotSymmetricError,
    RankDeficientError,
    RetractionFailedError,
    SingularMatrixError,
    StiefelAgdError,
)
from .geometry import (
    DualTangentVector,
    StiefelPoint,
    cayley_retract,
    dual_metric,
    dual_norm,
    lerp,
    project_dual,
    random_point,
    retract_inverse,
)
from .linalg import qr_thin, solve_square
from .objectives import (
    DenseOperator,
    DiagonalOperator,
    EvalResult,
    ObjectiveSpec,
    SpectrumInfo,
    ValueRecord,
    brockett_condition_number,
    known_minimum,
    make_objective,
    optimal_condition_number,
    optimal_weights,
    parse_spectrum,
    sphere_condition_number,
)
from .solvers import (
    CONVERGED,
    LINE_SEARCH_FAILED,
    MAX_ITERATIONS,
    IterationRecord,
    RunTrace,
    SolverConfig,
    agd_function_restart,
    agd_gradient_restart,
    gradient_descent,
    line_search,
)
from .bench import (
    ExperimentSpec,
    ExperimentResult,
    FitResult,
    TrialRow,
    loglog_fit,
    run_experiment,
    rows_to_csv,
    rows_from_csv,
)

__version__ = "0.1.0"
