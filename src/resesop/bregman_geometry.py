"""Bregman projections onto intersections of hyperplanes and onto stripes.

The Bregman projection of x onto an intersection of hyperplanes
H(u_k*, alpha_k) has the closed form

    x_new = J_inv( J(x) - sum_k t_k u_k* ),

where the coefficients t minimize the convex dual objective

    h(t) = (1/q*) || J(x) - sum_k t_k u_k* ||_*^{q*} + sum_k t_k alpha_k

and q is the gauge of the space. The gradient of h is

    dh/dt_j = alpha_j - <u_j*, x_new(t)>,

so the first-order condition is exactly feasibility of x_new. Any number of
planes is solved by one safeguarded Newton iteration with the analytic
Hessian of h and Armijo backtracking, and `project_intersection` is the one
routine that computes a projection: with one plane it is the hyperplane
projection. The iteration runs on flat float arrays through the array
kernels of `lp_spaces`, with the dual vectors stacked once per projection;
the projected point is the one grid function it builds. The norm and the
duality image of x and the dual norms of the u_k* come from the grid
functions, which keep them, so the two stages of a step and the solver
around them compute each once. `project_two_stage(x, stripe, previous,
space)` projects onto a stripe, a one-plane problem for a point outside
it, and with a previous stripe adds at most one two-plane problem: the
step of both solver methods. It returns the point and its coefficients,
one per plane: two only after a two-plane correction.
"""

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lp_spaces import (
    GridFunction,
    _array_duality_map,
    _euclidean_norm,
    dual_pairing,
    duality_map,
    weighted_norm,
)

__all__ = [
    'Stripe',
    'StripeSide',
    'ConvergenceError',
    'GeometryError',
    'classify',
    'project_intersection',
    'project_two_stage',
]

logger = logging.getLogger(__name__)

# Feasibility slack factor: target sets are met to FEAS_TOL * problem scale.
FEAS_TOL = 1e-8
# Euclidean cosine beyond which two dual directions count as parallel.
PARALLEL_COS = 1.0 - 1e-12
# Newton iteration: gradient tolerance times the problem scale, budget.
GRAD_TOL = 1e-12
MAX_NEWTON_ITERS = 200
BACKTRACK_STEPS = 0.5 ** np.arange(60)  # Armijo trial steps 1, 1/2, ..., 2^-59
EPS = np.finfo(float).eps  # a Hessian with condition number >= 1/EPS is singular


class StripeSide(Enum):
    """Position of a point relative to a stripe."""
    ABOVE = 'above'
    INSIDE = 'inside'
    BELOW = 'below'


@dataclass(frozen=True)
class Stripe:
    """The set {x : |<u_star, x> - alpha| <= xi} between two hyperplanes:
    u_star is a nonzero dual vector, alpha the offset of the central
    hyperplane and xi >= 0 the half width (a stripe of width 0 is a
    hyperplane)."""

    u_star: GridFunction
    alpha: float
    xi: float

    def __post_init__(self):
        if not np.any(self.u_star.values):
            raise ValueError('stripe requires a nonzero dual vector')
        if self.xi < 0:
            raise ValueError('stripe half width must be >= 0, got {}'.format(self.xi))


class ConvergenceError(RuntimeError):
    """Inner minimization failed; carries the last iterate for diagnosis."""

    def __init__(self, message, last_t=None, grad_norm=None):
        super().__init__(message)
        self.last_t = last_t
        self.grad_norm = grad_norm


class GeometryError(RuntimeError):
    """The requested target set is empty or inconsistent."""


def classify(x, stripe, space):
    """Locate x relative to a stripe: ABOVE, INSIDE (boundary closed) or BELOW."""
    value = dual_pairing(stripe.u_star, x, space)
    if value > stripe.alpha + stripe.xi:
        return StripeSide.ABOVE
    if value < stripe.alpha - stripe.xi:
        return StripeSide.BELOW
    return StripeSide.INSIDE


def _well_conditioned(hessian):
    """Whether the symmetric `hessian` has 2-norm condition number
    max|lambda| / min|lambda| below 1/eps, judged by its eigenvalues: in
    closed form for one and two planes, by eigvalsh beyond."""
    if len(hessian) == 1:
        big = small = abs(float(hessian[0, 0]))
    elif len(hessian) == 2:
        (a, b), (_, d) = hessian.tolist()
        big = abs(0.5 * (a + d)) + math.hypot(0.5 * (a - d), b)
        small = abs(a * d - b * b) / big if big > 0.0 else 0.0
    else:
        moduli = np.abs(np.linalg.eigvalsh(hessian))
        big, small = float(moduli.max()), float(moduli.min())
    return small > EPS * big


def _dual_objective(x, jx, u, alphas, space, h):
    """The map t -> (h(t), grad h(t), Hessian, x_t) with
    x_t = J_inv(J(x) - sum_k t_k u_k*), or None where h(t) or its gradient
    is not finite (an overflow, also one of x_t). x and jx = J(x) are flat
    arrays on a grid of spacing h, the u_k* are the rows of u with offsets
    alphas. One inverse duality evaluation gives all four values (none at
    t = 0, where x_t = x). With
    g = J(x) - sum_k t_k u_k*, r* and q* the dual norm and gauge exponents
    and J_inv(g) = ||g||_*^(q*-r*) |g|^(r*-1) sign(g),

        H_jk = <u_j*, DJ_inv(g) u_k*>,
        DJ_inv(g) = diag((r* - 1) x_t / g) + (q* - r*) x_t x_t^T / ||g||_*^q*,

    the rank-one term vanishing when the gauge equals the norm exponent.
    The Hessian is None where it is unbounded: r* < 2 with g = 0 at an entry
    some u_k* touches, g = 0 altogether, or an overflow.
    """
    dual = space.dual()
    r_conj, q_conj = dual.norm_exponent, dual.gauge_exponent
    weight = h ** 2

    def objective(t):
        g = jx - t @ u
        x_t = x if not t.any() else _array_duality_map(g, r_conj, q_conj, h)
        pairs = weight * (u @ x_t)
        power = weight * float(g @ x_t)  # ||g||_*^q*
        value = power / q_conj + float(t @ alphas)
        if not (math.isfinite(value) and np.isfinite(pairs).all()):
            return None
        zero = g == 0.0
        if power == 0.0 or (r_conj < 2.0 and u[:, zero].any()):
            return value, alphas - pairs, None, x_t
        fill = power ** (1.0 - 2.0 / q_conj) if r_conj == 2.0 else 0.0
        weights = (r_conj - 1.0) * np.divide(x_t, g, out=np.full_like(g, fill),
                                             where=~zero)
        hessian = weight * (u * weights) @ u.T
        if q_conj != r_conj:
            hessian += (q_conj - r_conj) * np.outer(pairs, pairs) / power
        return (value, alphas - pairs,
                hessian if np.isfinite(hessian).all() else None, x_t)

    return objective


def _minimize(x, u, dual_norms, alphas, space, t_init=None):
    """Safeguarded Newton iteration for the coefficients t minimizing h.

    A gradient step replaces the Newton step where the Hessian is unbounded
    or numerically singular. Backtracking accepts a step by the Armijo rule
    on h, and only if the slope along the step has not overshot to more
    than half its initial size: where an entry of g crosses zero and r* < 2,
    the Hessian blows up and full Newton steps would oscillate. A trial
    point where h is not finite fails like an Armijo trial. The iteration
    starts from `t_init` unless h is lower at t = 0 or not finite at
    `t_init`; it then starts from 0, and a start where h is not finite
    raises ConvergenceError. Once the gradient meets the tolerance, one
    more full step takes t to rounding accuracy. When no step improves h or
    the gradient any more, a point feasible to FEAS_TOL is accepted. The
    dual vectors are the rows of u, with offsets alphas and dual norms
    dual_norms. A point already on every plane is returned itself with
    t = 0.
    """
    x_flat = x.values.ravel()
    norm_x = weighted_norm(x, space)
    scale = max([1.0] + [1.0 + abs(alpha) + norm * norm_x
                         for norm, alpha in zip(dual_norms, alphas.tolist())])
    gaps = np.array([x.h ** 2 * float((row * x_flat).sum()) for row in u]) - alphas
    if _euclidean_norm(gaps) <= GRAD_TOL * scale:
        return x, np.zeros(len(u))
    objective = _dual_objective(x_flat, duality_map(x, space).values.ravel(), u, alphas,
                                space, x.h)
    t = np.zeros(len(u))
    # An extreme t may overflow; such a trial is not finite and is rejected.
    with np.errstate(over='ignore', invalid='ignore'):
        start = objective(t)
        if t_init is not None:
            # From far uphill each Newton step may only halve t; one value at
            # t = 0 (which needs no inverse duality map) rules that start out.
            t_warm = np.array(t_init, dtype=float)
            warm = objective(t_warm)
            if warm is not None and (start is None or warm[0] <= start[0]):
                t, start = t_warm, warm
        if start is None:
            raise ConvergenceError('dual objective is not finite at the start', last_t=t)
        value, grad, hessian, x_t = start
        converged = False
        for _ in range(MAX_NEWTON_ITERS):
            direction = -grad
            if hessian is not None and _well_conditioned(hessian):
                # One plane: the quotient, bit-identical to np.linalg.solve.
                newton = (-grad / hessian[0, 0] if len(grad) == 1
                          else np.linalg.solve(hessian, -grad))
                if float(newton @ grad) < 0.0:
                    direction = newton
            grad_norm = _euclidean_norm(grad)
            if grad_norm <= GRAD_TOL * scale:
                polished = objective(t + direction)
                if polished is not None and _euclidean_norm(polished[1]) <= grad_norm:
                    t, x_t = t + direction, polished[3]
                converged = True
                break
            slope = float(grad @ direction)
            # Near the minimum the predicted decrease drops below the rounding
            # noise of h; the allowance keeps the backtracking from stalling.
            noise = 1e-14 * (1.0 + abs(value))
            for step in BACKTRACK_STEPS:
                trial = objective(t + step * direction)
                if (trial is not None and trial[0] <= value + 1e-4 * step * slope + noise
                        and float(trial[1] @ direction) <= -0.5 * slope):
                    break
            if trial is None or (trial[0] > value - noise
                                 and _euclidean_norm(trial[1]) >= grad_norm):
                # Neither h nor the gradient improves: t is at the rounding limit.
                converged = grad_norm <= FEAS_TOL * scale
                break
            t = t + step * direction
            value, grad, hessian, x_t = trial
        if not converged:
            raise ConvergenceError('Bregman projection did not converge',
                                   last_t=t, grad_norm=_euclidean_norm(grad))
    return GridFunction._adopt(x_t.reshape(x.values.shape)), t


def project_intersection(x, planes, space, t_init=None):
    """Bregman projection of x onto an intersection of hyperplanes.

    `planes` lists one or more pairs (u_star, alpha) of a GridFunction and
    an offset; one pair is the hyperplane H(u_star, alpha). The dual
    vectors should be linearly independent: a numerically parallel pair
    logs a warning and falls back to the projection onto the first plane
    alone. `t_init` gives starting coefficients, e.g. the result of a
    previous one-plane projection; the default is zero, which also
    replaces a start where the dual objective is higher or not finite.
    Returns the projected point and the coefficient vector t.
    """
    planes = list(planes)
    if not planes:
        raise ValueError('at least one plane is required')
    u = np.array([u_star.values.ravel() for u_star, _ in planes])
    alphas = np.array([alpha for _, alpha in planes], dtype=float)
    if not u.any(axis=1).all():
        raise ValueError('hyperplane requires a nonzero dual vector')
    dual = space.dual()
    dual_norms = [weighted_norm(u_star, dual) for u_star, _ in planes]
    if any(abs(float(a @ b)) / (_euclidean_norm(a) * _euclidean_norm(b)) > PARALLEL_COS
           for j, a in enumerate(u) for b in u[j + 1:]):
        logger.warning('numerically parallel dual directions in intersection '
                       'projection; falling back to the first plane')
        x_new, t = _minimize(x, u[:1], dual_norms[:1], alphas[:1], space)
        return x_new, np.append(t, np.zeros(len(planes) - 1))
    return _minimize(x, u, dual_norms, alphas, space, t_init)


def project_two_stage(x, stripe, previous, space):
    """Bregman projection of x onto a stripe, corrected by a previous stripe.

    Stage one projects x onto `stripe`: a point inside is returned itself
    with t = 0, a point above (below) goes onto the upper (lower) bounding
    hyperplane; with `previous` None this is the stripe projection. When
    the stage-one point has left `previous`, stage two projects x onto the
    intersection of the upper bounding hyperplane of `stripe` and the
    violated bounding hyperplane of `previous`, warm-started at the
    stage-one coefficient. For x above `stripe` and inside `previous` (the
    solver's iterates are, up to rounding), the result is the Bregman
    projection of x onto the upper halfspace of `stripe` intersected with
    `previous` (Schoepfer & Schuster 2009).

    Returns
    -------
    (GridFunction, tuple)
        The projected point and its coefficients, one per plane: one when
        stage one sufficed, two after stage two.
    """
    x_first, t_first = x, 0.0
    side = classify(x, stripe, space)
    if side is not StripeSide.INSIDE:
        bound = stripe.alpha + (stripe.xi if side is StripeSide.ABOVE else -stripe.xi)
        x_first, (t_first,) = project_intersection(x, [(stripe.u_star, bound)], space)
    side = StripeSide.INSIDE if previous is None else classify(x_first, previous, space)
    if side is StripeSide.INSIDE:
        return x_first, (float(t_first),)
    bound = previous.alpha + (previous.xi if side is StripeSide.ABOVE else -previous.xi)
    planes = [(stripe.u_star, stripe.alpha + stripe.xi), (previous.u_star, bound)]
    x_new, t = project_intersection(x, planes, space, t_init=[t_first, 0.0])
    return x_new, tuple(float(v) for v in t)
