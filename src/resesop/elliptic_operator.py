"""Forward operator F(c) = u for -laplace(u) + c*u = f on the unit square.

The boundary value problem is discretized with the 5-point stencil on the
(N+2) x (N+2) grid; Dirichlet values are eliminated into the right-hand
side, leaving a symmetric system L(c) = -laplace_h + diag(c) over the N^2
interior nodes. L(c) is never assembled: it is applied as a stencil and
solved by preconditioned conjugate gradients. The orthonormal sine basis
S_jk = sqrt(2/(N+1)) sin(pi j k/(N+1)) diagonalizes -laplace_h + c_bar I,
c_bar the midrange of c (the fast Poisson solver of Buzbee, Golub & Nielson
1970, used for a nonseparable operator as in Concus & Golub 1973), whose
exact inverse preconditions all but the lowest K x K modes. There the shift
errs most, so those modes are solved exactly, with the inverse Galerkin
matrix of L(c) on them (a coarse space as in Nicolaides 1987); for N <= K
the preconditioner is the exact inverse of L(c). It is applied in single
precision, which halves the cost of its four dense matmuls. It only steers
CG: the recursion, the stencil apply and the final check of the true
residual run in double precision, so an accepted solve meets the same
backward-error bound as with an exact preconditioner. The sine basis, the
eigenvalues of -laplace_h and the mode products of the Galerkin matrix
depend only on N, so each operator builds them once for the grid of its
data. Per parameter, `linearize` computes only c_bar, the shifted inverse
eigenvalues, the inverse Galerkin matrix and the norm of L(c), which the
derivative and adjoint reuse:

    F'(c) d = -L(c)^{-1} (d * u),      F'(c)* w = -u * L(c)^{-1} w,

with u = F(c), pointwise products, and homogeneous Dirichlet data in the
auxiliary solves (increments vanish where u is pinned to g). Because L(c)
is symmetric, the adjoint identity holds in the h^2-weighted pairing on
both sides, to the accuracy of the solves. The forward solve can start
from the u of another state, such as that of the previous iterate, and the
derivative solve from a guess of its result; a start moves the solution
only within the backward-error bound. The adjoint solve starts from zero.
The right-hand side of the Dirichlet data is built once per operator.
"""

from dataclasses import dataclass, field

import numpy as np

from .lp_spaces import GridFunction, _euclidean_norm

__all__ = [
    'BvpData',
    'OperatorState',
    'EllipticOperator',
    'LinearSolveError',
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
# Far above the benchmark's mean iterations per solve, 3.0-3.6 (forward, warm)
# and 4.0-4.5 (adjoint); reaching it means c's spread defeats the preconditioner.
CG_MAX_ITERS = 500
# K = COARSE_MODES: the lowest K x K sine modes, where the c_bar shift errs most,
# are solved exactly. Preconditioner applies per seed-7 pass (grid160 / suite40 /
# exponents40, cone-ratio solves cold): 433 / 2140 / 3104 with the shift alone;
# K = 4, 6, 8, 16: 347 / 1784 / 2654, 330 / 1583 / 2378, 330 / 1397 / 2077,
# 264 / 1333 / 1992. At N = 40 a set-up takes 129 us at K = 6, 311 us at K = 8.
COARSE_MODES = 6


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
    with L(c) reuse: the float32 preconditioner in the sine basis of the
    operator (the inverse eigenvalues 1/(lambda_j + lambda_k + c_bar), zero
    on the coarse modes, and the inverse Galerkin matrix of L(c) on those),
    and the infinity norm of L(c), a bound on its 2-norm as L(c) is symmetric."""

    c: GridFunction
    u: GridFunction
    inverse_eigenvalues: np.ndarray = field(repr=False)
    coarse_inverse: np.ndarray = field(repr=False)
    matrix_norm: float = field(repr=False)


def _stencil(coeff, h2, v):
    # L(c) v = (1/h^2)(4 v_ij - neighbors) + c_ij v_ij on the interior, for
    # coeff the interior values of c, h2 = h^2 and v of the same shape;
    # neighbors on the boundary ring count as zero (homogeneous Dirichlet).
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
    """Orthonormal sine basis S of the 1-D -laplace_h on N interior nodes,
    float64, and the eigenvalues lambda_j + lambda_k of the 2-D one."""
    k = np.arange(1, n + 1)
    h = 1.0 / (n + 1)
    # sin(pi m / (N+1)) with m = jk reduced mod 2(N+1) keeps the argument
    # small and the basis exactly symmetric.
    basis = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1)))
                                            / (n + 1))
    eigenvalues = (4.0 / h ** 2) * np.sin(0.5 * np.pi * k / (n + 1)) ** 2
    return basis, eigenvalues[:, None] + eigenvalues[None, :]


def _preconditioner(c, eigen_sums, mode_products):
    """The float32 inverse eigenvalues 1/(lambda_j + lambda_k + c_bar),
    zero on the K x K coarse modes, and the inverse of the Galerkin matrix
    G = diag(lambda_a + lambda_b) + Phi^T diag(c) Phi of L(c) on those,
    built from the 1-D mode products Q = S_ia S_ia'. Raises LinearSolveError
    unless, in float64, the shifted eigenvalues are positive and G has a
    Cholesky factor that keeps L(c) below COND_LIMIT."""
    coeff = c.interior
    k = min(COARSE_MODES, len(eigen_sums))
    c_bar = 0.5 * (coeff.min() + coeff.max())
    shifted = eigen_sums + c_bar
    # The coarse modes are solved exactly; an infinite shift zeroes them.
    shifted[:k, :k] = np.inf
    if not shifted.min() > 0.0:
        raise LinearSolveError(
            'linear system is not positive definite for {}: lambda_min + c_bar = '
            '{:.3g}'.format(_range_text(c), shifted.min()), parameter=c)
    # (Q^T C Q)[(a, a'), (b, b')] = sum_ij c_ij S_ia S_ia' S_jb S_jb'.
    coupling = (mode_products.T @ coeff @ mode_products).reshape(k, k, k, k)
    galerkin = (np.diag(eigen_sums[:k, :k].ravel())
                + coupling.transpose(0, 2, 1, 3).reshape(k * k, k * k))
    try:
        lower = np.linalg.cholesky(galerkin)
    except np.linalg.LinAlgError:
        lower = None
    # lambda_min(L(c)) <= lambda_min(G) <= min_a l_aa^2 for the Cholesky factor
    # l of G, and max_a G_aa <= ||G|| <= ||L(c)||, so an l_aa^2 below
    # max_a G_aa / COND_LIMIT makes L(c) numerically singular.
    if (lower is None or not lower.diagonal().min() ** 2
            > galerkin.diagonal().max() / COND_LIMIT):
        raise LinearSolveError(
            'linear system is singular or not positive definite for {}: so is its '
            'Galerkin matrix on the lowest {} x {} sine modes'.format(_range_text(c), k, k),
            parameter=c)
    coarse_inverse = np.linalg.inv(galerkin)
    coarse_inverse = 0.5 * (coarse_inverse + coarse_inverse.T)
    return (1.0 / shifted).astype(np.float32), coarse_inverse.astype(np.float32)


def _apply_preconditioner(basis, inverse_eigenvalues, coarse_inverse, r):
    """The two-level preconditioner applied to r by four float32 matmuls in
    the sine basis, with the inverse Galerkin matrix on the coarse modes."""
    spectral = basis @ r.astype(np.float32) @ basis
    k = min(COARSE_MODES, len(basis))
    scaled = spectral * inverse_eigenvalues
    scaled[:k, :k] = (coarse_inverse @ spectral[:k, :k].ravel()).reshape(k, k)
    return (basis @ scaled @ basis).astype(float)


def _interior_solve(c, basis, inverse_eigenvalues, coarse_inverse, matrix_norm, rhs,
                    start=None):
    """Solve L(c) x = rhs on the interior by preconditioned CG and check x.

    Each iteration first tests the recursive residual and only then
    preconditions it, so a solve of k iterations applies the preconditioner
    k times and the stencil k + 1 times (the last for the true residual).
    CG starts from `start` only when its residual, one more stencil apply,
    is below that of zero: a farther start leaves its rounding error in x.
    A start so far that its residual norm overflows fails that test quietly.
    """
    if start is not None and start.shape != rhs.shape:
        raise ValueError('start grid has interior {}, data grid needs {}'.format(
            start.shape, rhs.shape))
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
        z = _apply_preconditioner(basis, inverse_eigenvalues, coarse_inverse, residual)
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
        n = data.f.n_interior
        basis, self._eigen_sums = _sine_basis(n)
        self._basis = basis.astype(np.float32)
        k = min(COARSE_MODES, n)
        self._mode_products = (basis[:, :k, None] * basis[:, None, :k]).reshape(n, k * k)
        # Row sums of |L(c)| off the diagonal: 1/h^2 per interior neighbor.
        axis = np.minimum(np.arange(n), 1) + np.minimum(np.arange(n)[::-1], 1)
        self._neighbor_sums = (axis[:, None] + axis[None, :]) / data.f.h ** 2
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
        if c.values.shape != data.f.values.shape:
            raise ValueError('parameter grid {} does not match data grid {}'.format(
                c.values.shape, data.f.values.shape))
        inverse_eigenvalues, coarse_inverse = _preconditioner(c, self._eigen_sums,
                                                              self._mode_products)
        matrix_norm = float(np.max(np.abs(4.0 / c.h ** 2 + c.interior) + self._neighbor_sums))
        interior = _interior_solve(c, self._basis, inverse_eigenvalues, coarse_inverse,
                                   matrix_norm, self._rhs,
                                   None if start is None else start.u.interior)
        values = data.g.values.copy()
        values[1:-1, 1:-1] = interior
        return OperatorState(c=c, u=GridFunction._adopt(values),
                             inverse_eigenvalues=inverse_eigenvalues,
                             coarse_inverse=coarse_inverse, matrix_norm=matrix_norm)

    def derivative(self, state, direction, start=None):
        """Directional derivative F'(c) applied to `direction`.

        Solves -L(c)^{-1}(direction * u) on the interior with zero boundary,
        reusing the preconditioner of the state, from the interior of the
        grid function `start` when that is closer than zero.
        """
        rhs = -(direction.values * state.u.values)[1:-1, 1:-1]
        return GridFunction.from_interior(_interior_solve(
            state.c, self._basis, state.inverse_eigenvalues, state.coarse_inverse,
            state.matrix_norm, rhs, None if start is None else start.interior))

    def adjoint(self, state, w):
        """Adjoint F'(c)* applied to a codomain vector w.

        Evaluates -u * L(c)^{-1} w with a zero-boundary interior solve; the
        result is a dual vector over the parameter space.
        """
        lifted = GridFunction.from_interior(_interior_solve(
            state.c, self._basis, state.inverse_eigenvalues, state.coarse_inverse,
            state.matrix_norm, w.interior))
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
