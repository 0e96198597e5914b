"""Sequential subspace optimization for nonlinear operator equations.

Each outer iteration linearizes the forward operator at the iterate x_n,
warm-started from the last state, forms the residual R_n = F(x_n) - y, and
`build_stripe(op, state, x, residual, cfg)` forms the codomain direction
w_n = J_2(R_n) and the stripe

    { x : |<u_n*, x> - alpha_n| <= xi_n },
    u_n* = F'(x_n)* w_n,
    alpha_n = <u_n*, x_n> - <w_n, R_n>,
    xi_n = (delta + c_tc (||R_n|| + delta)) ||w_n||,

whose width accounts for the noise level delta and the tangential-cone
constant c_tc of the operator; with exact data the width reduces to
c_tc ||w_n|| ||R_n||. The norms are those of `cfg.parameter_space` and
`cfg.data_space`. Solutions of F(x) = y lie inside every stripe when the
cone condition holds, and the unconverged iterate always lies strictly
above its own stripe, so a step is the Bregman projection onto the upper
bounding hyperplane, optionally corrected by the previous stripe: `run`
calls `bregman_geometry.project_two_stage`, which returns the next iterate
and one coefficient per plane it met.

* one direction: project x_n onto its stripe (a Landweber step with an
  exact width regulation); the step sees no previous stripe;
* two directions: project onto the upper hyperplane; if the result left the
  previous stripe, project x_n onto the intersection of the current upper
  hyperplane and the violated bounding hyperplane of the previous stripe.

Iterations stop by the discrepancy principle ||R|| <= tau * delta for noisy
data, or a small residual tolerance for exact data.

Each step records its Bregman step distance D(x_n, x_{n+1}): by the
three-point inequality of Bregman projections (Schoepfer, Louis & Schuster
2006), D(x_{n+1}, z) <= D(x_n, z) - D(x_n, x_{n+1}) for every z in the
target set of the step, which holds every solution the stripes contain.
"""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .bregman_geometry import (
    ConvergenceError,
    GeometryError,
    Stripe,
    StripeSide,
    classify,
    project_two_stage,
)
from .elliptic_operator import LinearSolveError
from .lp_spaces import (
    SpaceSpec,
    bregman_distance,
    dual_pairing,
    duality_map,
    inverse_duality_map,
    weighted_norm,
)

__all__ = [
    'SolverConfig',
    'IterationRecord',
    'SolveResult',
    'StepClass',
    'StopReason',
    'SolverFailure',
    'DegenerateDirectionError',
    'build_stripe',
    'run',
    'descent_monitor',
]

logger = logging.getLogger(__name__)

# Relative displacement below which an iteration counts as stagnant, and the
# number of consecutive stagnant iterations that aborts the run.
STAGNATION_TOL = 1e-14
STAGNATION_LIMIT = 3
# Projection coefficients above this magnitude are logged as suspicious.
COEFFICIENT_WARN = 1e6


class StepClass:
    """Kind of update an iteration performed."""
    SINGLE_PROJECTION = 'single_projection'
    TWO_PLANE_CORRECTION = 'two_plane_correction'


class StopReason:
    """Why a run ended."""
    DISCREPANCY = 'discrepancy'
    RESIDUAL_TOLERANCE = 'residual_tolerance'
    NOT_CONVERGED = 'not_converged'
    STAGNATED = 'stagnated'
    FAILED = 'failed'


class DegenerateDirectionError(RuntimeError):
    """The adjoint mapped the residual direction to zero; no stripe exists."""


class SolverFailure(RuntimeError):
    """A run aborted; carries the records collected so far and the iterate."""

    def __init__(self, message, records=(), iterate=None):
        super().__init__(message)
        self.records = tuple(records)
        self.iterate = iterate


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the outer iteration; the defaults are the benchmark's.

    Parameters
    ----------
    method : str
        'A' for one search direction (the Landweber-type method), 'B' for
        two directions.
    delta : float
        Noise level delta >= 0; 0 selects the exact-data stopping rule.
    r, s : float
        Norm exponents of the parameter space and the data space.
    cone_constant : float
        Tangential-cone constant c_tc in [0, 1).
    tau_factor : float
        Factor above 1 on the bound (1 + c_tc)/(1 - c_tc) of the
        discrepancy multiplier tau.
    residual_tol : float
        Exact-data stopping tolerance on the residual norm.
    max_outer : int
        Iteration budget; exceeding it flags the result, no exception.
    p_gauge : float, optional
        Gauge of the duality map on the parameter space. Omitted, it is r,
        which keeps the recorded approximation errors monotone; the
        data-space gauge is fixed at 2.
    """

    method: str = 'A'
    delta: float = 0.0
    r: float = 1.5
    s: float = 5.0
    cone_constant: float = 0.01
    tau_factor: float = 1.1
    residual_tol: float = 5e-4
    max_outer: int = 500
    p_gauge: float = None

    def __post_init__(self):
        if self.method not in ('A', 'B'):
            raise ValueError("method must be 'A' or 'B'")
        for name in ('r', 's', 'p_gauge', 'delta', 'tau_factor', 'residual_tol'):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError('{} must be finite, got {}'.format(name, value))
        if not self.r > 1 or not self.s > 1:
            raise ValueError('space exponents must exceed 1')
        if self.p_gauge is not None and not self.p_gauge > 1:
            raise ValueError('gauge exponent must exceed 1')
        if not 0.0 <= self.cone_constant < 1.0:
            raise ValueError('cone constant must lie in [0, 1), got {}'.format(
                self.cone_constant))
        if not self.tau_factor > 1.0:
            raise ValueError('tau factor must exceed 1')
        if not self.delta >= 0:
            raise ValueError('noise level must be >= 0')
        if not self.residual_tol > 0:
            raise ValueError('residual tolerance must be positive')
        if self.max_outer < 1:
            raise ValueError('max_outer must be >= 1')

    @property
    def gauge(self):
        """Effective gauge on the parameter space."""
        return self.p_gauge if self.p_gauge is not None else self.r

    @property
    def parameter_space(self):
        """SpaceSpec(r, gauge) of the iterates."""
        return SpaceSpec(self.r, self.gauge)

    @property
    def data_space(self):
        """SpaceSpec(s, 2) of the data and the residuals."""
        return SpaceSpec(self.s, 2.0)

    @property
    def tau(self):
        """Discrepancy multiplier tau_factor * (1 + c_tc)/(1 - c_tc)."""
        return self.tau_factor * (1.0 + self.cone_constant) / (1.0 - self.cone_constant)

    @property
    def stop_threshold(self):
        """Residual norm at or below which the iteration stops."""
        return self.tau * self.delta if self.delta > 0 else self.residual_tol


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration log entry.

    The record written at the stopping index has no step fields (empty
    coefficient tuple, step_class None). step_distance is the Bregman
    distance D(x_n, x_{n+1}) of the step. The diagnostic fields rel_error,
    bregman_to_truth, truth_inside, cone_ratio and direction_cosine are
    filled only when `run` was given a ground truth, and are None
    otherwise. cone_ratio is measured only when the truth fell outside the
    stripe of the iteration; direction_cosine only after a two-plane step.
    """

    n: int
    residual_norm: float
    rel_error: float = None
    t_params: tuple = ()
    stripe_widths: tuple = ()
    step_class: str = None
    wall_time: float = 0.0
    bregman_to_truth: float = None
    above_margin: float = None
    step_distance: float = None
    truth_inside: bool = None
    cone_ratio: float = None
    direction_cosine: float = None

    def __post_init__(self):
        if self.residual_norm < 0:
            raise ValueError('residual norm must be >= 0')


@dataclass(frozen=True)
class SolveResult:
    """Final iterate with the full iteration log."""

    iterate: object
    records: tuple
    stop_reason: str
    n_star: int
    detail: str = ''


def build_stripe(op, state, x, residual, cfg):
    """Stripe of the current linearization around the iterate x.

    Parameters
    ----------
    op : operator with an `adjoint(state, w)` method
    state : linearization state at x (caches u = F(x))
    x : GridFunction
    residual : GridFunction
        F(x) - y; the codomain direction is w = J_2(residual) in
        `cfg.data_space`.
    cfg : SolverConfig

    Raises
    ------
    DegenerateDirectionError
        When the adjoint image of w vanishes.
    """
    space_y = cfg.data_space
    w = duality_map(residual, space_y)
    u_star = op.adjoint(state, w)
    if not np.any(u_star.values):
        raise DegenerateDirectionError('adjoint image of the residual direction is zero')
    alpha = (dual_pairing(u_star, x, cfg.parameter_space)
             - dual_pairing(w, residual, space_y))
    res_norm = weighted_norm(residual, space_y)
    w_norm = weighted_norm(w, space_y.dual())
    xi = (cfg.delta + cfg.cone_constant * (res_norm + cfg.delta)) * w_norm
    return Stripe(u_star, alpha, xi)


class _TruthMonitor:
    """The record columns that compare the iterates with a known truth.

    `at_iterate` gives the relative error and the Bregman distance to the
    truth. `at_step` adds whether the truth lies inside the stripe, else
    the measured tangential-cone ratio with one WARNING per violation, and,
    after a two-plane step, the cosine between the two search directions:
    `previous` is the stripe that step met, None after a one-plane step.
    """

    def __init__(self, op, truth, cfg):
        self.op, self.truth, self.cfg = op, truth, cfg
        self.space_x, self.space_y = cfg.parameter_space, cfg.data_space
        self.truth_norm = weighted_norm(truth, self.space_x)
        self.truth_image = None

    def at_iterate(self, x):
        return dict(rel_error=weighted_norm(x - self.truth, self.space_x) / self.truth_norm,
                    bregman_to_truth=bregman_distance(x, self.truth, self.space_x))

    def at_step(self, n, state, x, stripe, previous):
        space_x = self.space_x
        fields = self.at_iterate(x)
        if previous is not None:
            lifted_prev = inverse_duality_map(previous.u_star, space_x)
            denom = (weighted_norm(stripe.u_star, space_x.dual())
                     * weighted_norm(lifted_prev, space_x))
            fields['direction_cosine'] = (
                None if denom == 0.0
                else abs(dual_pairing(stripe.u_star, lifted_prev, space_x)) / denom)
        fields['truth_inside'] = classify(self.truth, stripe, space_x) is StripeSide.INSIDE
        if not fields['truth_inside']:
            if self.truth_image is None:
                self.truth_image = self.op(self.truth)
            misfit = state.u - self.truth_image
            # Tangential cone: F'(x)(x - x_true) is the misfit to second order.
            linearized = self.op.derivative(state, x - self.truth, start=misfit)
            denominator = weighted_norm(misfit, self.space_y)
            fields['cone_ratio'] = (None if denominator == 0.0 else
                                    weighted_norm(misfit - linearized, self.space_y)
                                    / denominator)
            ratio = fields['cone_ratio']
            logger.warning(
                'ground truth outside the stripe at n=%d: measured '
                'tangential-cone ratio %s against configured %.4g', n,
                'undefined' if ratio is None else '{:.4g}'.format(ratio),
                self.cfg.cone_constant)
        return fields


def run(op, y, x0, cfg, ground_truth=None):
    """Iterate until the stopping rule fires, the budget runs out, or the
    iterates stagnate.

    Parameters
    ----------
    op : forward operator
        The method needs `linearize(x, start)`, whose state has `u` = F(x)
        (`start`: the previous state or None), and `adjoint(state, w)`. The
        diagnostics of a ground truth also call `__call__` and
        `derivative(state, d, start)`, `start` a guess of F'(x) d or None.
    y : GridFunction
        Data (possibly noisy).
    x0 : GridFunction
        Starting parameter.
    cfg : SolverConfig
    ground_truth : GridFunction, optional
        Fills the diagnostic columns of the records: relative error,
        Bregman distance, stripe containment, cone ratio and direction
        cosine. Without it they stay None.

    Returns
    -------
    SolveResult
        n_star is the stopping index; records hold one entry per evaluated
        iterate, the last one without step fields.

    Raises
    ------
    SolverFailure
        On linear-solve, projection or geometry failures; carries the
        records collected so far.
    """
    space_x, space_y = cfg.parameter_space, cfg.data_space
    monitor = None if ground_truth is None else _TruthMonitor(op, ground_truth, cfg)
    threshold = cfg.stop_threshold
    records = []
    x = x0
    prev_stripe = state = None
    stagnant = 0
    try:
        for n in range(cfg.max_outer + 1):
            tic = time.perf_counter()
            state = op.linearize(x, start=state)
            residual = state.u - y
            res_norm = weighted_norm(residual, space_y)

            if res_norm <= threshold or n == cfg.max_outer:
                fields = {} if monitor is None else monitor.at_iterate(x)
                records.append(IterationRecord(
                    n=n, residual_norm=res_norm, wall_time=time.perf_counter() - tic,
                    **fields))
                if res_norm <= threshold:
                    reason = (StopReason.DISCREPANCY if cfg.delta > 0
                              else StopReason.RESIDUAL_TOLERANCE)
                    detail = ''
                else:
                    reason = StopReason.NOT_CONVERGED
                    detail = ('iteration budget of {} exhausted with residual {:.6g} '
                              'above threshold {:.6g}'.format(cfg.max_outer, res_norm,
                                                              threshold))
                return SolveResult(iterate=x, records=tuple(records),
                                   stop_reason=reason, n_star=n, detail=detail)

            stripe = build_stripe(op, state, x, residual, cfg)
            margin = dual_pairing(stripe.u_star, x, space_x) - (stripe.alpha + stripe.xi)
            if margin <= 0.0:
                raise GeometryError(
                    'iterate is not strictly above its stripe (margin {:.3g}); '
                    'the stopping rule should have fired'.format(margin))
            x_next, t = project_two_stage(x, stripe, prev_stripe, space_x)
            if max(abs(v) for v in t) > COEFFICIENT_WARN:
                logger.warning('projection coefficients %s unusually large at n=%d', t, n)
            # One coefficient per plane: two mean the previous stripe corrected the step.
            corrected_by = None if len(t) == 1 else prev_stripe
            fields = {} if monitor is None else monitor.at_step(
                n, state, x, stripe, corrected_by)
            records.append(IterationRecord(
                n=n, residual_norm=res_norm, t_params=t,
                stripe_widths=((stripe.xi,) if corrected_by is None
                               else (stripe.xi, corrected_by.xi)),
                step_class=(StepClass.SINGLE_PROJECTION if corrected_by is None
                            else StepClass.TWO_PLANE_CORRECTION),
                above_margin=margin, step_distance=bregman_distance(x, x_next, space_x),
                wall_time=time.perf_counter() - tic, **fields))

            if weighted_norm(x_next - x, space_x) < STAGNATION_TOL * weighted_norm(x, space_x):
                stagnant += 1
                if stagnant >= STAGNATION_LIMIT:
                    return SolveResult(
                        iterate=x_next, records=tuple(records),
                        stop_reason=StopReason.STAGNATED, n_star=n + 1,
                        detail='iterates stalled for {} consecutive steps at '
                               'residual {:.6g}'.format(STAGNATION_LIMIT, res_norm))
            else:
                stagnant = 0
            if cfg.method == 'B':
                prev_stripe = stripe
            x = x_next
    except (LinearSolveError, ConvergenceError, GeometryError,
            DegenerateDirectionError) as exc:
        raise SolverFailure(str(exc), records=records, iterate=x) from exc
    raise AssertionError('unreachable: loop must return')


def descent_monitor(records):
    """Check the recorded Bregman distances to the truth for monotone decay.

    Returns a list of (n, previous, current) triples where the distance
    increased beyond the rounding allowance.
    """
    violations = []
    for before, after in zip(records, records[1:]):
        if before.bregman_to_truth is None or after.bregman_to_truth is None:
            continue
        allowance = 1e-9 * (1.0 + abs(before.bregman_to_truth))
        if after.bregman_to_truth > before.bregman_to_truth + allowance:
            violations.append((after.n, before.bregman_to_truth, after.bregman_to_truth))
    return violations
