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
projection. The iteration runs on flat float arrays, with J(x) and the
dual vectors stacked once per projection; one evaluation of h, its
gradient and its Hessian raises |J(x) - sum_k t_k u_k*| to one power and
takes three matrix-vector products, and the coefficients, the gradient and
the Hessian are Python floats. The projected point is the one grid
function it builds. The norm and the duality image of x and the dual norms
of the u_k* come from the grid functions, which keep them, so the two
stages of a step and the solver around them compute each once.
`project_two_stage(x, stripe, previous, space)` projects onto a stripe, a
one-plane problem for a point outside it, and with a previous stripe adds
at most one two-plane problem: the step of both solver methods. It returns
the point and its coefficients, one per plane: two only after a two-plane
correction.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .lp_spaces import (
    GridFunction,
    _euclidean_norm,
    dual_pairing,
    duality_map,
    weighted_norm,
)

__all__ = [
    'Stripe',
    'ConvergenceError',
    'GeometryError',
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
BACKTRACK_STEPS = [0.5 ** i for i in range(60)]  # Armijo trial steps 1, ..., 2^-59
EPS = np.finfo(float).eps  # a Hessian with condition number >= 1/EPS is singular


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

    def violated_bound(self, x):
        """The offset of the bounding hyperplane that x violates: alpha + xi
        for x above the stripe, alpha - xi for x below it, None for x inside
        (the boundary is closed)."""
        value = dual_pairing(self.u_star, x)
        if value > self.alpha + self.xi:
            return self.alpha + self.xi
        if value < self.alpha - self.xi:
            return self.alpha - self.xi
        return None


class ConvergenceError(RuntimeError):
    """Inner minimization failed; carries the last iterate for diagnosis."""

    def __init__(self, message, last_t=None, grad_norm=None):
        super().__init__(message)
        self.last_t = last_t
        self.grad_norm = grad_norm


class GeometryError(RuntimeError):
    """The requested target set is empty or inconsistent, or no stripe exists."""


def _newton_step(hessian, grad):
    """The solution d of H d = -grad for the symmetric Hessian, a k x k
    nested sequence, or None where its 2-norm condition number is 1/eps or
    more. One plane takes the quotient; two judge by the eigenvalues in
    closed form and solve by Gaussian elimination with partial pivoting;
    more judge by the singular values and solve by np.linalg.solve. On
    near-singular 3 x 3 matrices the ratio min/max of the singular values
    is within about 0.7 eps of the exact one, that of eigvalsh's
    eigenvalues only within 1.5 eps, more than the threshold eps itself."""
    if len(grad) == 1:
        a = hessian[0][0]
        return None if a == 0.0 else [-grad[0] / a]
    if len(grad) == 2:
        (a, b), (c, d) = hessian
        big = abs(0.5 * (a + d)) + math.hypot(0.5 * (a - d), b)
        if not (big > 0.0 and abs(a * d - b * b) / big > EPS * big):
            return None
        first, second = -grad[0], -grad[1]
        if abs(c) > abs(a):
            a, b, c, d, first, second = c, d, a, b, second, first
        ratio = c / a
        y = (second - ratio * first) / (d - ratio * b)
        return [(first - b * y) / a, y]
    hessian = np.asarray(hessian, dtype=float)
    values = np.linalg.svd(hessian, compute_uv=False)
    if not values[-1] > EPS * values[0]:
        return None
    return np.linalg.solve(hessian, -np.array(grad)).tolist()


def _dot(a, b):
    return sum(p * q for p, q in zip(a, b))


def _norm(values):
    return math.sqrt(_dot(values, values))


def _dual_objective(rows, alphas, space, h):
    """The map (t, out) -> (h(t), grad h(t), Hessian, x_t) with
    x_t = J_inv(J(x) - sum_k t_k u_k*) written into `out`, or None where
    h(t) or its gradient is not finite (an overflow, also one of x_t).
    `rows` stacks flat arrays on a grid of spacing h: J(x), the u_k*, whose
    offsets are `alphas`, and last a row each evaluation overwrites with g.
    t, h(t), the gradient and the Hessian are Python floats and lists. The
    caller ignores floating-point overflow, invalid and divide warnings
    (`np.errstate`). With g = J(x) - sum_k t_k u_k*, r* and q* the dual
    norm and gauge exponents, w = |g|^(r*-2), c = ||g||_*^(q*-r*) and
    <., .> the h^2-weighted pairing,

        x_t = c g w,
        H_jk = (r* - 1) c <u_j* u_k*, w>
               + (q* - r*) <u_j*, x_t> <u_k*, x_t> / ||g||_*^q*,

    the rank-one term vanishing when the gauge equals the norm exponent.
    So one evaluation writes g by one product of [1, -t] with the rows
    [J(x); u], takes |g| once and raises it to one power; one product of
    the rows [u; g] with g w gives the pairings of x_t and
    ||g||_*^q* = c <g, g w>, and one of the rows u_j* u_k* (j <= k, formed
    once here) with w gives the Hessian. The arrays it computes in are
    allocated once, here. Where w is infinite, at zeros of g with r* < 2
    (or entries so small that their power overflows), x_t takes the value
    |g|^(r*-1) sign(g) of J_inv; the Hessian is None where it is
    unbounded: at such an entry that some u_k* touches or where g is not
    zero, for g = 0 altogether, or on an overflow.
    """
    dual = space.dual()
    r_conj, q_conj = dual.norm_exponent, dual.gauge_exponent
    weight = h ** 2
    k = len(rows) - 2
    u, g, paired = rows[1:k + 1], rows[k + 1], rows[1:]
    entries = [(j, l) for j in range(k) for l in range(j, k)]
    products = np.empty((len(entries), rows.shape[1]))
    for row, (j, l) in zip(products, entries):
        np.multiply(u[j], u[l], out=row)
    powers = np.empty_like(g)
    coefficients = np.empty(k + 1)
    coefficients[0] = 1.0
    norm_scale = weight ** (1.0 / r_conj)

    def objective(t, out):
        np.negative(t, out=coefficients[1:])
        np.matmul(coefficients, rows[:k + 1], out=g)
        np.power(np.abs(g, out=powers), r_conj - 2.0, out=powers)
        y = np.multiply(g, powers, out=out)
        sums = (paired @ y).tolist()
        curvatures = (products @ powers).tolist()
        unbounded = False
        if r_conj < 2.0 and not math.isfinite(sum(sums) + sum(curvatures)):
            infinite = np.isinf(powers)
            if infinite.any():
                small = g[infinite]
                y[infinite] = np.copysign(np.abs(small) ** (r_conj - 1.0), small)
                sums = (paired @ y).tolist()
                unbounded = bool(small.any() or u[:, infinite].any())
                if not unbounded:
                    powers[infinite] = 0.0
                    curvatures = (products @ powers).tolist()
        total = sums[-1]  # sum |g|^r*
        factor = 1.0  # ||g||_*^(q*-r*)
        if total == 0.0:
            y.fill(0.0)  # g vanishes, as far as its power can tell
        elif q_conj != r_conj:
            factor = float(np.float64(norm_scale * total ** (1.0 / r_conj))
                           ** (q_conj - r_conj))
            np.multiply(y, factor, out=y)
        scale = weight * factor
        power = scale * total  # ||g||_*^q*
        value = power / q_conj + _dot(t, alphas)
        pairs = [scale * s for s in sums[:-1]]
        if not (math.isfinite(value) and math.isfinite(sum(pairs))):
            return None
        grad = [alpha - pair for alpha, pair in zip(alphas, pairs)]
        if unbounded or power == 0.0:
            return value, grad, None, y
        hessian = [[0.0] * k for _ in range(k)]
        curve = scale * (r_conj - 1.0)
        rank_one = (q_conj - r_conj) / power
        for (j, l), curvature in zip(entries, curvatures):
            entry = curve * curvature
            if q_conj != r_conj:
                entry += rank_one * pairs[j] * pairs[l]
            hessian[j][l] = hessian[l][j] = entry
        if not math.isfinite(sum(map(sum, hessian))):
            return value, grad, None, y
        return value, grad, hessian, y

    return objective


def _gradient_floor(x_t, t, rows, r_conj, h):
    """The rounding floor of the computed gradient at t, one entry per plane,
    for `rows` as `_dual_objective` takes them.

    g = J(x) - sum_k t_k u_k* is a sum of terms of size
    m = |J(x)| + sum_k |t_k u_k*|, so its entries carry errors of EPS m,
    and where they cancel to far below m no representable t gives a better
    g. Through the diagonal of DJ_inv such an error moves x_t by
    (r* - 1) |x_t / g| EPS m to first order, by at most the Hoelder bound
    ||g||_*^(q* - r*) (2 EPS m)^(r* - 1) for r* < 2, where DJ_inv is
    unbounded at zeros of g, and the gradient h^2 <u_j*, x_t> by the sum
    of those moves weighted by |u_j*|.
    """
    jx, u = rows[0], rows[1:-1]
    errors = EPS * (np.abs(jx) + np.abs(t) @ np.abs(u))
    moduli = np.abs(jx - np.asarray(t) @ u)
    big = moduli.argmax()
    factor = np.abs(x_t[big]) / moduli[big] ** (r_conj - 1.0)  # NaN for g = 0
    moves = (r_conj - 1.0) * moduli ** (r_conj - 2.0) * errors
    if r_conj < 2.0:
        # fmin, not minimum: 0 * inf at an exact zero of g and of m is NaN.
        np.fmin(moves, (2.0 * errors) ** (r_conj - 1.0), out=moves)
    return (h ** 2 * float(factor)) * (np.abs(u) @ moves)


def _minimize(x, rows, dual_norms, alphas, space, t_init=None):
    """Safeguarded Newton iteration for the coefficients t minimizing h.

    A gradient step replaces the Newton step where the Hessian is unbounded
    or numerically singular. Backtracking accepts a step by the Armijo rule
    on h, and only if the slope along the step has not overshot to more
    than half its initial size: where an entry of g crosses zero and r* < 2,
    the Hessian blows up and full Newton steps would oscillate. A trial
    point where h is not finite fails like an Armijo trial. The iteration
    starts from `t_init` unless h is lower at t = 0 or not finite at
    `t_init`; it then starts from 0, and a start where h is not finite
    raises ConvergenceError. Without `t_init`, one plane at x = 0, where
    the Hessian vanishes at t = 0, takes the exact minimizer of its
    pure-power h as `t_init`. Once the gradient meets the tolerance, one
    more full step takes t to rounding accuracy. When no step improves h or
    the gradient any more, t is accepted if the gradient is within FEAS_TOL
    of the scale or at the rounding floor of its computation (see
    `_gradient_floor`). `rows` holds the dual vectors in its rows 1 to k,
    with offsets alphas and dual norms dual_norms; this call writes J(x)
    into row 0, and the evaluations g into the last row. A point already
    on every plane is returned itself with t = 0. t, the gradient, the
    Hessian and the steps are Python floats; the points x_t alternate
    between two arrays of this call, the accepted one and the one trials
    are written to, and the last accepted one becomes the projected point
    without a copy.
    """
    x_flat = x.values.ravel()
    norm_x = weighted_norm(x, space)
    alpha_list = alphas.tolist()
    scale = max([1.0] + [1.0 + abs(alpha) + norm * norm_x
                         for norm, alpha in zip(dual_norms, alpha_list)])
    gaps = np.array([x.h ** 2 * float((row * x_flat).sum()) for row in rows[1:-1]]) - alphas
    if _euclidean_norm(gaps) <= GRAD_TOL * scale:
        return x, np.zeros(len(alphas))
    rows[0] = duality_map(x, space).values.ravel()
    objective = _dual_objective(rows, alpha_list, space, x.h)
    t = [0.0] * len(alphas)
    buffers = np.empty_like(x_flat), np.empty_like(x_flat)
    # An extreme t may overflow; such a trial is not finite and is rejected.
    with np.errstate(over='ignore', invalid='ignore', divide='ignore'):
        start = objective(t, buffers[0])
        if (t_init is None and len(t) == 1 and start is not None and start[2] is None
                and not rows[0].any()):
            # J(x) = 0: h is the pure power ||u*||_*^q* |t|^q* / q* - t gap,
            # with Hessian 0 at t = 0; start at its exact minimizer.
            q_conj = space.dual().gauge_exponent
            ratio = abs(gaps[0]) / np.float64(dual_norms[0]) ** q_conj
            t_init = [math.copysign(float(ratio ** (1.0 / (q_conj - 1.0))), gaps[0])]
        if t_init is not None:
            # From far uphill each Newton step may only halve t; the value at
            # t = 0 rules that start out.
            t_warm = [float(v) for v in t_init]
            warm = objective(t_warm, buffers[1])
            if warm is not None and (start is None or warm[0] <= start[0]):
                t, start = t_warm, warm
        if start is None:
            raise ConvergenceError('dual objective is not finite at the start',
                                   last_t=np.array(t))
        value, grad, hessian, x_t = start
        converged = False
        for _ in range(MAX_NEWTON_ITERS):
            spare = buffers[1] if x_t is buffers[0] else buffers[0]
            newton = None if hessian is None else _newton_step(hessian, grad)
            if newton is not None and _dot(newton, grad) < 0.0:
                direction = newton
            else:
                direction = [-v for v in grad]
            grad_norm = _norm(grad)
            if grad_norm <= GRAD_TOL * scale:
                t_full = [a + b for a, b in zip(t, direction)]
                polished = objective(t_full, spare)
                if polished is not None and _norm(polished[1]) <= grad_norm:
                    t, x_t = t_full, polished[3]
                converged = True
                break
            slope = _dot(grad, direction)
            # Near the minimum the predicted decrease drops below the rounding
            # noise of h; the allowance keeps the backtracking from stalling.
            noise = 1e-14 * (1.0 + abs(value))
            for step in BACKTRACK_STEPS:
                t_trial = [a + step * b for a, b in zip(t, direction)]
                trial = objective(t_trial, spare)
                if (trial is not None and trial[0] <= value + 1e-4 * step * slope + noise
                        and _dot(trial[1], direction) <= -0.5 * slope):
                    break
            if trial is None or (trial[0] > value - noise and _norm(trial[1]) >= grad_norm):
                # Neither h nor the gradient improves: t is at the rounding
                # limit, feasible if the gradient is within FEAS_TOL of the
                # scale or at the rounding floor of its computation.
                converged = (grad_norm <= FEAS_TOL * scale
                             or grad_norm <= _euclidean_norm(_gradient_floor(
                                 x_t, t, rows, space.dual().norm_exponent, x.h)))
                break
            t = t_trial
            value, grad, hessian, x_t = trial
        if not converged:
            raise ConvergenceError('Bregman projection did not converge',
                                   last_t=np.array(t), grad_norm=_norm(grad))
    return GridFunction._adopt(x_t.reshape(x.values.shape)), np.array(t)


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
    # The rows [J(x); u_1*, ..., u_k*; g] of `_dual_objective`, stacked once.
    rows = np.empty((len(planes) + 2, x.values.size))
    for row, (u_star, _) in zip(rows[1:], planes):
        row[:] = u_star.values.ravel()
    u = rows[1:-1]
    alphas = np.array([alpha for _, alpha in planes], dtype=float)
    if not u.any(axis=1).all():
        raise ValueError('hyperplane requires a nonzero dual vector')
    dual = space.dual()
    dual_norms = [weighted_norm(u_star, dual) for u_star, _ in planes]
    if any(abs(float(a @ b)) / (_euclidean_norm(a) * _euclidean_norm(b)) > PARALLEL_COS
           for j, a in enumerate(u) for b in u[j + 1:]):
        logger.warning('numerically parallel dual directions in intersection '
                       'projection; falling back to the first plane')
        x_new, t = project_intersection(x, planes[:1], space)
        return x_new, np.append(t, np.zeros(len(planes) - 1))
    return _minimize(x, rows, dual_norms, alphas, space, t_init)


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
    bound = stripe.violated_bound(x)
    if bound is not None:
        x_first, (t_first,) = project_intersection(x, [(stripe.u_star, bound)], space)
    bound = None if previous is None else previous.violated_bound(x_first)
    if bound is None:
        return x_first, (float(t_first),)
    planes = [(stripe.u_star, stripe.alpha + stripe.xi), (previous.u_star, bound)]
    x_new, t = project_intersection(x, planes, space, t_init=[t_first, 0.0])
    return x_new, tuple(float(v) for v in t)
