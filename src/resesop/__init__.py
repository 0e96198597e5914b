"""Sequential subspace optimization for nonlinear inverse problems in Lp spaces."""

import logging

from .bregman_geometry import (
    ConvergenceError,
    GeometryError,
    Halfspace,
    KktReport,
    MinimizerSettings,
    Stripe,
    StripeSide,
    classify,
    project_hyperplane,
    project_intersection,
    project_stripe,
    project_two_halfspaces,
)
from .elliptic_operator import (
    BvpData,
    EllipticOperator,
    LinearSolveError,
    OperatorState,
    apply_adjoint,
    apply_derivative,
    apply_stencil,
    operator_norm_estimate,
    solve_forward,
)
from .experiment_cli import (
    ExperimentConfig,
    ExperimentReport,
    TruthData,
    add_noise,
    read_config_file,
    read_grid,
    restrict,
    run_experiment,
    synth_truth,
    write_grid,
)
from .lp_spaces import (
    GridFunction,
    SpaceSpec,
    bregman_distance,
    conjugate_exponent,
    dual_pairing,
    duality_map,
    inverse_duality_map,
    weighted_norm,
)
from .sesop_solver import (
    DegenerateDirectionError,
    IterationRecord,
    SolveResult,
    SolverConfig,
    SolverFailure,
    StepClass,
    StepOutcome,
    StopReason,
    build_stripe,
    descent_monitor,
    landweber_step,
    resesop_two_dir_step,
    run,
)

__version__ = '0.1.0'

# Quiet by default: records reach a handler only where the application
# configured logging (they still propagate to the root logger).
logging.getLogger(__name__).addHandler(logging.NullHandler())
