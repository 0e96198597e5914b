"""Forward operator F(c) = u for -laplace(u) + c*u = f on the unit square.

The boundary value problem is discretized with the 5-point stencil on the
(N+2) x (N+2) grid; Dirichlet values are eliminated into the right-hand
side, leaving a sparse symmetric system over the N^2 interior nodes that is
factorized once per parameter and reused by the derivative and adjoint:

    F'(c) d = -L(c)^{-1} (d * u),      F'(c)* w = -u * L(c)^{-1} w,

with u = F(c), pointwise products, and homogeneous Dirichlet data in the
auxiliary solves (increments vanish where u is pinned to g). Because L(c)
is symmetric, the adjoint identity holds exactly in the h^2-weighted
pairing on both sides.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .lp_spaces import GridFunction

__all__ = [
    'BvpData',
    'OperatorState',
    'EllipticOperator',
    'LinearSolveError',
    'assemble',
    'solve_forward',
    'apply_derivative',
    'apply_adjoint',
    'operator_norm_estimate',
]

# An interior solve is accepted when its normwise backward error
# ||A x - b|| / (||A|| ||x|| + ||b||) is at most BACKWARD_TOL and the lower
# bound ||A|| ||x|| / ||b|| on the condition number of A stays below
# COND_LIMIT; beyond that the system counts as numerically singular.
BACKWARD_TOL = 100.0 * np.finfo(float).eps
COND_LIMIT = 1.0 / (1e3 * np.finfo(float).eps)


class LinearSolveError(RuntimeError):
    """The system L(c) could not be solved reliably; carries the parameter."""

    def __init__(self, message, parameter=None):
        super().__init__(message)
        self.parameter = parameter


@dataclass(frozen=True)
class BvpData:
    """Source term and Dirichlet data of the boundary value problem.

    Parameters
    ----------
    f : GridFunction
        Source, used on the interior nodes.
    g : GridFunction
        Dirichlet values; only the boundary ring is used.
    """

    f: GridFunction
    g: GridFunction

    def __post_init__(self):
        if self.f.values.shape != self.g.values.shape:
            raise ValueError('source and boundary grids differ: {} vs {}'.format(
                self.f.values.shape, self.g.values.shape))

    @property
    def n_interior(self):
        return self.f.n_interior


@dataclass(frozen=True, eq=False)
class OperatorState:
    """Parameter c with the cached solution u = F(c), the factorization of
    L(c) and the infinity norm of L(c), a bound on its 2-norm because L(c)
    is symmetric."""

    c: GridFunction
    u: GridFunction
    data: BvpData
    matrix: object = field(repr=False)
    lu: object = field(repr=False)
    matrix_norm: float = field(repr=False)


def assemble(c, n_interior=None):
    """Sparse interior system (1/h^2)(4u_ij - neighbors) + c_ij u_ij.

    Interior nodes are ordered row-major, k = (i-1)*N + (j-1).

    Parameters
    ----------
    c : GridFunction
        Zero-order coefficient; interior values enter the diagonal.
    n_interior : int, optional
        Sanity check against the grid of c.

    Returns
    -------
    scipy.sparse.csc_matrix of shape (N^2, N^2)
    """
    n = c.n_interior
    if n_interior is not None and n_interior != n:
        raise ValueError('parameter grid has N={}, expected {}'.format(n, n_interior))
    h = c.h
    ones = np.ones(n)
    second_diff = sparse.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], [-1, 0, 1])
    eye = sparse.identity(n)
    laplace = (sparse.kron(eye, second_diff) + sparse.kron(second_diff, eye)) / h ** 2
    return (laplace + sparse.diags(c.interior.ravel())).tocsc()


def _interior_solve(lu, matrix, matrix_norm, rhs_flat, parameter):
    try:
        solution = lu.solve(rhs_flat)
    except RuntimeError as exc:
        raise LinearSolveError(
            'linear solve failed for parameter with range [{:.6g}, {:.6g}]: {}'.format(
                parameter.values.min(), parameter.values.max(), exc),
            parameter=parameter)
    residual = np.linalg.norm(matrix @ solution - rhs_flat)
    scale = matrix_norm * np.linalg.norm(solution)
    rhs_norm = np.linalg.norm(rhs_flat)
    if (not np.all(np.isfinite(solution)) or residual > BACKWARD_TOL * (scale + rhs_norm)
            or scale > COND_LIMIT * rhs_norm):
        raise LinearSolveError(
            'linear system is singular or severely ill-conditioned for parameter '
            'with range [{:.6g}, {:.6g}] (residual {:.3g}, ||A|| ||x|| / ||b|| '
            '{:.3g})'.format(parameter.values.min(), parameter.values.max(),
                             residual, scale / rhs_norm),
            parameter=parameter)
    return solution


def _factorize(matrix, parameter):
    try:
        return splu(matrix)
    except RuntimeError as exc:
        raise LinearSolveError(
            'factorization failed for parameter with range [{:.6g}, {:.6g}]: {}'.format(
                parameter.values.min(), parameter.values.max(), exc),
            parameter=parameter)


def _boundary_rhs(data):
    # Dirichlet elimination: neighbors on the boundary ring move to the RHS.
    f = data.f
    g = data.g.values
    h2 = f.h ** 2
    rhs = f.interior.copy()
    rhs[0, :] += g[0, 1:-1] / h2
    rhs[-1, :] += g[-1, 1:-1] / h2
    rhs[:, 0] += g[1:-1, 0] / h2
    rhs[:, -1] += g[1:-1, -1] / h2
    return rhs


def solve_forward(c, data):
    """Evaluate F(c): solve the boundary value problem for the parameter c.

    Returns the full grid function with the Dirichlet ring taken from the
    data. Raises :class:`LinearSolveError` when L(c) is numerically
    singular or the solve is not backward stable.
    """
    state = _make_state(c, data)
    return state.u


def _make_state(c, data):
    if c.values.shape != data.f.values.shape:
        raise ValueError('parameter grid {} does not match data grid {}'.format(
            c.values.shape, data.f.values.shape))
    matrix = assemble(c)
    lu = _factorize(matrix, c)
    matrix_norm = float(abs(matrix).sum(axis=1).max())
    interior = _interior_solve(lu, matrix, matrix_norm, _boundary_rhs(data).ravel(), c)
    values = data.g.values.copy()
    values[1:-1, 1:-1] = interior.reshape(c.n_interior, c.n_interior)
    return OperatorState(c=c, u=GridFunction(values), data=data, matrix=matrix, lu=lu,
                         matrix_norm=matrix_norm)


def apply_derivative(state, direction):
    """Directional derivative F'(c) applied to `direction`.

    Solves -L(c)^{-1}(direction * u) on the interior with zero boundary,
    reusing the cached factorization.
    """
    rhs = -(direction.values * state.u.values)[1:-1, 1:-1]
    interior = _interior_solve(state.lu, state.matrix, state.matrix_norm, rhs.ravel(),
                               state.c)
    n = state.c.n_interior
    return GridFunction.from_interior(interior.reshape(n, n))


def apply_adjoint(state, w):
    """Adjoint F'(c)* applied to a codomain vector w.

    Evaluates -u * L(c)^{-1} w with a zero-boundary interior solve; the
    result is a dual vector over the parameter space.
    """
    interior = _interior_solve(state.lu, state.matrix, state.matrix_norm,
                               w.interior.ravel(), state.c)
    n = state.c.n_interior
    lifted = GridFunction.from_interior(interior.reshape(n, n))
    return GridFunction(-state.u.values * lifted.values)


def operator_norm_estimate(state, seed=0, max_iters=100, tol=1e-12):
    """Power-iteration estimate of the norm of F'(c) (diagnostic bound c_F).

    The h^2-weighted 2-norms on domain and codomain share the grid, so
    their weights cancel and the plain Euclidean spectral norm of F'(c) is
    returned. Deterministic for a fixed seed.
    """
    n = state.c.n_interior
    rng = np.random.default_rng(seed)
    v = GridFunction.from_interior(rng.standard_normal((n, n)))
    norm_v = float(np.linalg.norm(v.values))
    if norm_v == 0.0:
        return 0.0
    v = v / norm_v
    rayleigh = 0.0
    for _ in range(max_iters):
        image = apply_adjoint(state, apply_derivative(state, v))
        new_rayleigh = float(np.sum(v.values * image.values))
        norm_image = float(np.linalg.norm(image.values))
        if norm_image == 0.0:
            return 0.0
        v = image / norm_image
        if abs(new_rayleigh - rayleigh) <= tol * abs(new_rayleigh):
            rayleigh = new_rayleigh
            break
        rayleigh = new_rayleigh
    return float(np.sqrt(max(rayleigh, 0.0)))


class EllipticOperator:
    """The forward map c -> u of the elliptic problem, with linearization.

    Parameters
    ----------
    data : BvpData
        Source and Dirichlet data shared by all evaluations.
    """

    def __init__(self, data):
        self.data = data

    def __call__(self, c):
        return solve_forward(c, self.data)

    def linearize(self, c):
        """Factorize L(c) once; returns the state for F, F' and F'*."""
        return _make_state(c, self.data)

    def derivative(self, state, direction):
        return apply_derivative(state, direction)

    def adjoint(self, state, w):
        return apply_adjoint(state, w)

    def norm_estimate(self, state, seed=0):
        return operator_norm_estimate(state, seed=seed)
