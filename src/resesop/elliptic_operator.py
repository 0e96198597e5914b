"""Forward operator F(c) = u for -laplace(u) + c*u = f on the unit square.

The boundary value problem is discretized with the 5-point stencil on the
(N+2) x (N+2) grid; Dirichlet values are eliminated into the right-hand
side, leaving a symmetric system L(c) = -laplace_h + diag(c) over the N^2
interior nodes. L(c) is never assembled: it is applied as a stencil and
solved by preconditioned conjugate gradients. The preconditioner is the
exact inverse of -laplace_h + c_bar I with c_bar the midrange of c, which
the orthonormal sine basis S_jk = sqrt(2/(N+1)) sin(pi j k/(N+1))
diagonalizes (the fast Poisson solver of Buzbee, Golub & Nielson 1970, used
for a nonseparable operator as in Concus & Golub 1973). The preconditioned
condition number is then at most (lambda_min + c_max)/(lambda_min + c_min)
for every grid size, so a few iterations reach machine precision. The
preconditioner is applied in single precision, which halves the cost of
its four dense matmuls. It only steers CG: the recursion, the stencil apply
and the final check of the true residual run in double precision, so an
accepted solve meets the same backward-error bound as with an exact
preconditioner, and a perturbation of about 1e-7 relative barely moves
the iteration count. The sine basis and the eigenvalues of -laplace_h
depend only on N, so each operator builds them once for the grid of its
data. Per parameter, `linearize` computes only c_bar, the shifted inverse
eigenvalues and the norm of L(c), which the derivative and adjoint reuse:

    F'(c) d = -L(c)^{-1} (d * u),      F'(c)* w = -u * L(c)^{-1} w,

with u = F(c), pointwise products, and homogeneous Dirichlet data in the
auxiliary solves (increments vanish where u is pinned to g). Because L(c)
is symmetric, the adjoint identity holds in the h^2-weighted pairing on
both sides, to the accuracy of the solves. The forward solve can start
from the u of another state, such as that of the previous iterate, which
moves u only within the backward-error bound; the auxiliary solves start
from zero. The right-hand side of the Dirichlet data, like the sine basis,
is built once per operator.
"""

from dataclasses import dataclass, field

import numpy as np

from .lp_spaces import GridFunction, _euclidean_norm

__all__ = [
    'BvpData',
    'OperatorState',
    'EllipticOperator',
    'LinearSolveError',
    'apply_stencil',
]

# An interior solve is accepted when its normwise backward error
# ||A x - b|| / (||A|| ||x|| + ||b||) is at most BACKWARD_TOL and the lower
# bound ||A|| ||x|| / ||b|| on the condition number of A stays below
# COND_LIMIT; beyond that the system counts as numerically singular.
BACKWARD_TOL = 100.0 * np.finfo(float).eps
COND_LIMIT = 1.0 / (1e3 * np.finfo(float).eps)
# Conjugate gradients stop once the recursively updated residual is below
# this fraction of the backward-error bound, which leaves room for the
# rounding drift between the recursive and the true residual; the true
# residual is then checked against the full bound.
CG_STOP_FRACTION = 0.5
# Far above the benchmark's mean iterations per solve, 4.2-4.9 (forward, warm)
# and 5.0-5.9 (adjoint); reaching it means c's spread defeats the preconditioner.
CG_MAX_ITERS = 500


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


@dataclass(frozen=True, eq=False)
class OperatorState:
    """Parameter c with the cached solution u = F(c) and what the solves
    with L(c) reuse: the inverse eigenvalues 1/(lambda_j + lambda_k + c_bar)
    of the preconditioner in the sine basis of the operator, and the
    infinity norm of L(c), a bound on its 2-norm because L(c) is symmetric.
    The inverse eigenvalues are float32: the preconditioner only steers CG,
    whose accuracy is checked on the float64 residual."""

    c: GridFunction
    u: GridFunction
    inverse_eigenvalues: np.ndarray = field(repr=False)
    matrix_norm: float = field(repr=False)


def apply_stencil(c, v):
    """L(c) v = (1/h^2)(4 v_ij - neighbors) + c_ij v_ij on the interior.

    Neighbors on the boundary ring count as zero (homogeneous Dirichlet).

    Parameters
    ----------
    c : GridFunction
        Zero-order coefficient; interior values enter the diagonal.
    v : ndarray of shape (N, N)
        Interior values, N the interior size of the grid of c.

    Returns
    -------
    ndarray of shape (N, N)
    """
    coeff = c.interior
    if v.shape != coeff.shape:
        raise ValueError('interior array has shape {}, parameter grid needs {}'.format(
            v.shape, coeff.shape))
    return _stencil(coeff, c.h ** 2, v)


def _stencil(coeff, h2, v):
    # apply_stencil on the interior values coeff of c and h2 = h^2, unchecked.
    # On the flat row-major array the neighbors are shifts by N and by 1. A
    # shift by 1 also reaches across row ends, so the one edge column it
    # must not touch is saved and put back: the result is exactly that of
    # four 2-D slice subtractions, in the same order.
    n = v.shape[1]
    laplace = 4.0 * v
    flat, v_flat = laplace.ravel(), v.ravel()
    flat[n:] -= v_flat[:-n]
    flat[:-n] -= v_flat[n:]
    edge = laplace[:, 0].copy()
    flat[1:] -= v_flat[:-1]
    laplace[:, 0] = edge
    edge = laplace[:, -1].copy()
    flat[:-1] -= v_flat[1:]
    laplace[:, -1] = edge
    laplace /= h2
    laplace += coeff * v
    return laplace


def _range_text(parameter):
    return 'parameter with range [{:.6g}, {:.6g}]'.format(
        parameter.values.min(), parameter.values.max())


def _sine_basis(n):
    """Orthonormal sine basis S and eigenvalues lambda_k of the 1-D
    -laplace_h on N interior nodes; S is float32."""
    k = np.arange(1, n + 1)
    h = 1.0 / (n + 1)
    # sin(pi m / (N+1)) with m = jk reduced mod 2(N+1) keeps the argument
    # small and the basis exactly symmetric.
    basis = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1)))
                                            / (n + 1))
    eigenvalues = (4.0 / h ** 2) * np.sin(0.5 * np.pi * k / (n + 1)) ** 2
    return basis.astype(np.float32), eigenvalues


def _preconditioner(c, eigenvalues):
    """Inverse eigenvalues 1/(lambda_j + lambda_k + c_bar) of
    -laplace_h + c_bar I in the sine basis, as float32.

    Raises LinearSolveError when that operator is not positive definite,
    judged in float64.
    """
    coeff = c.interior
    c_bar = 0.5 * (coeff.min() + coeff.max())
    shifted = eigenvalues[:, None] + eigenvalues[None, :] + c_bar
    if not shifted.min() > 0.0:
        raise LinearSolveError(
            'linear system is not positive definite for {}: lambda_min + c_bar = '
            '{:.3g}'.format(_range_text(c), shifted.min()), parameter=c)
    return (1.0 / shifted).astype(np.float32)


def _matrix_norm(c):
    # Row sums of |L(c)|: the diagonal plus 1/h^2 per interior neighbor.
    n = c.n_interior
    neighbors = np.full((n, n), 4.0)
    neighbors[0, :] -= 1.0
    neighbors[-1, :] -= 1.0
    neighbors[:, 0] -= 1.0
    neighbors[:, -1] -= 1.0
    h2 = c.h ** 2
    return float(np.max(np.abs(4.0 / h2 + c.interior) + neighbors / h2))


def _apply_preconditioner(basis, inverse_eigenvalues, r):
    """(-laplace_h + c_bar I)^{-1} r by four float32 matmuls in the sine basis."""
    r = r.astype(np.float32)
    return (basis @ ((basis @ r @ basis) * inverse_eigenvalues) @ basis).astype(float)


def _interior_solve(c, basis, inverse_eigenvalues, matrix_norm, rhs, start=None):
    """Solve L(c) x = rhs on the interior by preconditioned CG and check x.

    Each iteration first tests the recursive residual and only then
    preconditions it, so a solve of k iterations applies the preconditioner
    k times and the stencil k + 1 times (the last for the true residual).
    CG starts from `start` only when its residual, one more stencil apply,
    is below that of zero: a farther start leaves its rounding error in x.
    A start so far that its residual norm overflows fails that test quietly.
    """
    # CG runs on rhs scaled by a power of two (exactly) to entries below
    # one, so the residuals stay in float32 range whatever the size of rhs.
    rhs_scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(rhs)))[1]))
    rhs = rhs / rhs_scale
    rhs_norm = _euclidean_norm(rhs)
    coeff, h2 = np.ascontiguousarray(c.interior), c.h ** 2
    solution = np.zeros_like(rhs)
    residual = rhs.copy()
    if start is not None:
        with np.errstate(over='ignore', invalid='ignore'):
            warm = start / rhs_scale
            warm_residual = rhs - _stencil(coeff, h2, warm)
            warm_norm = _euclidean_norm(warm_residual)
        if warm_norm < rhs_norm:
            solution, residual = warm, warm_residual
    direction = rz = None
    for _ in range(CG_MAX_ITERS):
        if _euclidean_norm(residual) <= CG_STOP_FRACTION * BACKWARD_TOL * (
                matrix_norm * _euclidean_norm(solution) + rhs_norm):
            break
        z = _apply_preconditioner(basis, inverse_eigenvalues, residual)
        rz, rz_old = float(np.vdot(residual, z)), rz
        direction = z if direction is None else z + (rz / rz_old) * direction
        image = _stencil(coeff, h2, direction)
        curvature = float(np.vdot(direction, image))
        if not curvature > 0.0:
            raise LinearSolveError(
                'conjugate gradients lost positive curvature ({:.3g}) for {}'.format(
                    curvature, _range_text(c)), parameter=c)
        step = rz / curvature
        solution += step * direction
        residual -= step * image
    else:
        raise LinearSolveError(
            'conjugate gradients did not converge in {} iterations for {}'.format(
                CG_MAX_ITERS, _range_text(c)), parameter=c)
    true_residual = _euclidean_norm(_stencil(coeff, h2, solution) - rhs)
    scale = matrix_norm * _euclidean_norm(solution)
    if (not np.isfinite(solution).all()
            or true_residual > BACKWARD_TOL * (scale + rhs_norm)
            or scale > COND_LIMIT * rhs_norm):
        raise LinearSolveError(
            'linear system is singular or severely ill-conditioned for {} '
            '(residual {:.3g}, ||A|| ||x|| / ||b|| {:.3g})'.format(
                _range_text(c), rhs_scale * true_residual, scale / rhs_norm),
            parameter=c)
    return rhs_scale * solution


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


class EllipticOperator:
    """The forward map c -> u of the elliptic problem, with linearization.

    Evaluations raise :class:`LinearSolveError` when L(c) is not positive
    definite or numerically singular, or a solve is not backward stable.

    Parameters
    ----------
    data : BvpData
        Source and Dirichlet data shared by all evaluations.
    """

    def __init__(self, data):
        self.data = data
        self._basis, self._eigenvalues = _sine_basis(data.f.n_interior)
        self._rhs = _boundary_rhs(data)
        self._rhs.setflags(write=False)

    def __call__(self, c):
        """Evaluate F(c): the full grid function u with the Dirichlet ring
        taken from the data."""
        return self.linearize(c).u

    def linearize(self, c, start=None):
        """Solve for u = F(c), warm-started from the u of a `start` state, and
        set up the preconditioner of L(c) once; returns the state for F, F', F'*."""
        data = self.data
        for name, grid in (('parameter', c), ('start', None if start is None else start.u)):
            if grid is not None and grid.values.shape != data.f.values.shape:
                raise ValueError('{} grid {} does not match data grid {}'.format(
                    name, grid.values.shape, data.f.values.shape))
        inverse_eigenvalues = _preconditioner(c, self._eigenvalues)
        matrix_norm = _matrix_norm(c)
        interior = _interior_solve(c, self._basis, inverse_eigenvalues, matrix_norm,
                                   self._rhs, None if start is None else start.u.interior)
        values = data.g.values.copy()
        values[1:-1, 1:-1] = interior
        return OperatorState(c=c, u=GridFunction._adopt(values),
                             inverse_eigenvalues=inverse_eigenvalues,
                             matrix_norm=matrix_norm)

    def derivative(self, state, direction):
        """Directional derivative F'(c) applied to `direction`.

        Solves -L(c)^{-1}(direction * u) on the interior with zero boundary,
        reusing the preconditioner of the state.
        """
        rhs = -(direction.values * state.u.values)[1:-1, 1:-1]
        return GridFunction.from_interior(_interior_solve(
            state.c, self._basis, state.inverse_eigenvalues, state.matrix_norm, rhs))

    def adjoint(self, state, w):
        """Adjoint F'(c)* applied to a codomain vector w.

        Evaluates -u * L(c)^{-1} w with a zero-boundary interior solve; the
        result is a dual vector over the parameter space.
        """
        lifted = GridFunction.from_interior(_interior_solve(
            state.c, self._basis, state.inverse_eigenvalues, state.matrix_norm,
            w.interior))
        return GridFunction._adopt(-state.u.values * lifted.values)

    def norm_estimate(self, state, max_iters=100, tol=1e-12):
        """Lanczos estimate of the norm of F'(c); the solver never calls it.

        Runs Lanczos on F'(c)* F'(c) = D_u L(c)^{-2} D_u with full
        reorthogonalization, until the largest Ritz value changes by at most
        `tol` relative; it keeps one interior vector per step. The start is
        sign(u) on the interior. L(c) is positive definite with nonpositive
        off-diagonals, so L(c)^{-1} is entrywise positive, and the top
        eigenvector is sign(u) * p with p > 0 (Perron-Frobenius): the start
        is never orthogonal to it, and it is close. For u = 0 the norm is 0.
        The h^2-weighted 2-norms on domain and codomain share the grid, so
        their weights cancel and the plain Euclidean spectral norm of F'(c)
        is returned. Deterministic.
        """
        n = state.c.n_interior
        start = np.sign(state.u.interior)
        if not start.any():
            return 0.0
        vectors = [start / np.linalg.norm(start)]
        alphas, betas = [], []
        ritz = 0.0
        # Beyond n^2 steps no direction is left to orthogonalize against.
        for _ in range(min(max_iters, n * n)):
            image = self.adjoint(state, self.derivative(
                state, GridFunction.from_interior(vectors[-1]))).interior.copy()
            alphas.append(float(np.vdot(vectors[-1], image)))
            # Two Gram-Schmidt sweeps keep the vectors orthogonal to working
            # precision.
            for _ in range(2):
                for vector in vectors:
                    image -= np.vdot(vector, image) * vector
            tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            new_ritz = float(np.linalg.eigvalsh(tridiagonal)[-1])
            converged = abs(new_ritz - ritz) <= tol * abs(new_ritz)
            ritz = new_ritz
            beta = float(np.linalg.norm(image))
            if converged or beta == 0.0:
                break
            betas.append(beta)
            vectors.append(image / beta)
        return float(np.sqrt(max(ritz, 0.0)))
