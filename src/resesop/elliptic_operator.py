"""Forward operator F(c) = u for -laplace(u) + c*u = f on the unit square.

The boundary value problem is discretized with the 5-point stencil on the
(N+2) x (N+2) grid; Dirichlet values are eliminated into the right-hand
side, leaving a symmetric system L(c) = -laplace_h + diag(c) over the N^2
interior nodes. L(c) is never assembled: it is applied as a stencil and
solved by preconditioned conjugate gradients, which run on h^2 L(c), whose
stencil is (4 + h^2 c) v minus the four neighbors, with no divide; the
right-hand sides and the norm of L(c) are scaled to match, and the
Dirichlet values enter the forward right-hand side as g itself.

The orthonormal sine basis S_jk = sqrt(2/(N+1)) sin(pi j k/(N+1))
diagonalizes -laplace_h + c_bar I, c_bar the midrange of c (the fast
Poisson solver of Buzbee, Golub & Nielson 1970, used for a nonseparable
operator as in Concus & Golub 1973), whose exact inverse preconditions all
but the lowest K x K modes. There the shift errs most, so those modes are
solved exactly, with the inverse Galerkin matrix of L(c) on them (a coarse
space as in Nicolaides 1987); for N <= K the preconditioner is the exact
inverse of L(c). It is applied in single precision, which halves the cost
of its four dense matmuls. It only steers CG: the recursion, the stencil
apply and the final check of the true residual run in double precision,
so an accepted solve meets the same backward-error bound as with an exact
preconditioner.

What depends only on N, the sine basis, the eigenvalues of -laplace_h, the
mode products of the Galerkin matrix and the arrays that CG writes to, each
operator builds once for the grid of f and g. What depends on c, c_bar,
the shifted inverse eigenvalues, the inverse Galerkin matrix and the norm
of L(c), the state that `linearize` returns sets up once per parameter;
F, the derivative and the adjoint solve with that state:

    F'(c) d = -L(c)^{-1} (d * u),      F'(c)* w = -u * L(c)^{-1} w,

with u = F(c), pointwise products, and homogeneous Dirichlet data in the
auxiliary solves (increments vanish where u is pinned to g). Because L(c)
is symmetric, the adjoint identity holds in the h^2-weighted pairing on
both sides, to the accuracy of the solves. The forward solve can start
from the u of another state, such as that of the previous iterate, and the
derivative solve from a guess of its result; a start moves the solution
only within the backward-error bound. The adjoint solve starts from zero.
The right-hand side of the forward solve is built once per operator. A
solve allocates only the solution it returns, so the states of one
operator share its CG buffers, and one operator must not solve from two
threads at once.
"""

from dataclasses import FrozenInstanceError

import numpy as np

from .lp_spaces import GridFunction, _euclidean_norm

__all__ = [
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


def _stencil(diagonal, v, out, scratch):
    # h^2 L(c) v = (4 + h^2 c_ij) v_ij - neighbors on the interior, for
    # diagonal = 4 + h^2 c on the interior and v of the same shape: five
    # passes over the grid and no divide. Neighbors on the boundary ring
    # count as zero (homogeneous Dirichlet). Written into `out` and
    # returned; the first row of `scratch` is overwritten. Both are
    # C-contiguous and share no memory with v or diagonal. On the flat
    # row-major array the neighbors are shifts by N and by 1. A shift by 1
    # also reaches across row ends, so the one edge column it must not touch
    # is saved and put back: the result is exactly that of four 2-D slice
    # subtractions, in the same order.
    n = v.shape[1]
    laplace = np.multiply(diagonal, v, out=out)
    flat, v_flat = laplace.ravel(), v.ravel()
    edge = scratch[0]
    flat[n:] -= v_flat[:-n]
    flat[:-n] -= v_flat[n:]
    edge[:] = laplace[:, 0]
    flat[1:] -= v_flat[:-1]
    laplace[:, 0] = edge
    edge[:] = laplace[:, -1]
    flat[:-1] -= v_flat[1:]
    laplace[:, -1] = edge
    return laplace


def _range_text(parameter):
    return 'parameter with range [{:.6g}, {:.6g}]'.format(
        parameter.values.min(), parameter.values.max())


class OperatorState:
    """Parameter c with the solution u = F(c) and the linear system
    L(c) = -laplace_h + diag(c), which the derivative and the adjoint solve
    with. Built only by `EllipticOperator.linearize`, which sets L(c) up
    once and solves it for u, from the u of a `start` state; immutable.
    The set-up of `operator` and c: the float32 inverse eigenvalues
    1/(lambda_j + lambda_k + c_bar), zero on the K x K coarse modes, the
    float32 inverse of the Galerkin matrix
    G = diag(lambda_a + lambda_b) + Phi^T diag(c) Phi of L(c) on those,
    built from the mode products Q = S_ia S_ia' of the operator, and the
    infinity norm of L(c), a bound on its 2-norm as L(c) is symmetric.
    Raises LinearSolveError unless, in float64, the shifted eigenvalues are
    positive and G has a Cholesky factor that keeps L(c) below COND_LIMIT.
    Its solves write to the buffers of the operator."""

    def __init__(self, operator, c, start=None):
        coeff = c.interior
        k = operator._coarse_modes
        c_bar = 0.5 * (coeff.min() + coeff.max())
        shifted = operator._eigen_sums + c_bar
        # The coarse modes are solved exactly; an infinite shift zeroes them.
        shifted[:k, :k] = np.inf
        if not shifted.min() > 0.0:
            raise LinearSolveError(
                'linear system is not positive definite for {}: lambda_min + c_bar = '
                '{:.3g}'.format(_range_text(c), shifted.min()), parameter=c)
        # (Q^T C Q)[(a, a'), (b, b')] = sum_ij c_ij S_ia S_ia' S_jb S_jb'.
        products = operator._mode_products
        coupling = (products.T @ coeff @ products).reshape(k, k, k, k)
        galerkin = (np.diag(operator._eigen_sums[:k, :k].ravel())
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
                'Galerkin matrix on the lowest {} x {} sine modes'.format(
                    _range_text(c), k, k), parameter=c)
        coarse_inverse = np.linalg.inv(galerkin)
        coarse_inverse = (0.5 * (coarse_inverse + coarse_inverse.T)).astype(np.float32)
        inverse_eigenvalues = np.divide(1.0, shifted, out=shifted).astype(np.float32)
        # The row sums of |L(c)|, in the scratch array of the solves.
        row_sums = np.add(coeff, 4.0 / c.h ** 2, out=operator._scratch)
        np.abs(row_sums, out=row_sums)
        row_sums += operator._neighbor_sums
        vars(self).update(operator=operator, c=c, inverse_eigenvalues=inverse_eigenvalues,
                          coarse_inverse=coarse_inverse, norm=float(row_sums.max()))
        values = operator._dirichlet.copy()
        values[1:-1, 1:-1] = self.solve(operator._rhs,
                                        None if start is None else start.u.interior)
        vars(self)['u'] = GridFunction._adopt(values)

    def __setattr__(self, name, value):
        raise FrozenInstanceError('cannot assign to field {!r}'.format(name))

    def __delattr__(self, name):
        raise FrozenInstanceError('cannot delete field {!r}'.format(name))

    def precondition(self, r, out):
        """The two-level preconditioner applied to r by four float32 matmuls
        in the sine basis, with the inverse Galerkin matrix on the coarse
        modes. Written into the float64 array `out` and returned."""
        operator = self.operator
        basis, k = operator._basis, operator._coarse_modes
        first, second = operator._spectral
        np.copyto(first, r, casting='same_kind')
        spectral = np.matmul(np.matmul(basis, first, out=second), basis, out=first)
        scaled = np.multiply(spectral, self.inverse_eigenvalues, out=second)
        scaled[:k, :k] = (self.coarse_inverse @ spectral[:k, :k].ravel()).reshape(k, k)
        np.matmul(np.matmul(basis, scaled, out=first), basis, out=second)
        np.copyto(out, second)
        return out

    def solve(self, rhs, start=None):
        """Solve L(c) x = b on the interior by preconditioned CG and check x.

        CG runs on h^2 L(c) x = h^2 b, whose stencil needs no divide, so
        `rhs` is h^2 b and the gates scale the norm of L(c) by h^2; the
        preconditioner, which approximates L(c)^{-1}, is used as it is,
        since preconditioned CG does not depend on its scale. Each
        iteration first tests the recursive residual and only then
        preconditions it, so a solve of k iterations applies the
        preconditioner k times and the stencil k + 1 times (the last for the
        true residual), k + 2 times from a start. CG starts from `start`
        only when its residual, one more stencil apply, is below that of
        zero: a farther start leaves its rounding error in x, and the zero
        start overwrites it. A start so far that its residual norm
        overflows fails that test quietly. Every intermediate array is a
        buffer of the operator; only the returned x is new.
        """
        if start is not None and start.shape != rhs.shape:
            raise ValueError('start grid has interior {}, data grid needs {}'.format(
                start.shape, rhs.shape))
        c, operator = self.c, self.operator
        h2 = c.h ** 2
        matrix_norm = h2 * self.norm
        scratch = operator._scratch
        # CG runs on rhs scaled by a power of two (exactly) to entries below
        # one, so the residuals stay in float32 range whatever the size of rhs.
        rhs_scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(rhs, out=scratch)))[1]))
        rhs = np.divide(rhs, rhs_scale, out=operator._scaled_rhs)
        rhs_norm = _euclidean_norm(rhs)
        diagonal = np.multiply(c.interior, h2, out=operator._diagonal)
        diagonal += 4.0
        solution, residual = operator._solution, operator._residual
        if start is not None:
            with np.errstate(over='ignore', invalid='ignore'):
                np.divide(start, rhs_scale, out=solution)
                _stencil(diagonal, solution, residual, scratch)
                np.subtract(rhs, residual, out=residual)
                warm_norm = _euclidean_norm(residual)
        if start is None or not warm_norm < rhs_norm:
            solution.fill(0.0)
            np.copyto(residual, rhs)
        direction, image, z = operator._direction, operator._image, operator._z
        rz = None
        for _ in range(CG_MAX_ITERS):
            if _euclidean_norm(residual) <= CG_STOP_FRACTION * BACKWARD_TOL * (
                    matrix_norm * _euclidean_norm(solution) + rhs_norm):
                break
            self.precondition(residual, z)
            rz, rz_old = float(np.vdot(residual, z)), rz
            if rz_old is None:
                np.copyto(direction, z)
            else:
                direction *= rz / rz_old
                direction += z
            _stencil(diagonal, direction, image, scratch)
            curvature = float(np.vdot(direction, image))
            if not curvature > 0.0:
                raise LinearSolveError(
                    'conjugate gradients lost positive curvature ({:.3g}) for {}'.format(
                        curvature, _range_text(c)), parameter=c)
            step = rz / curvature
            solution += np.multiply(direction, step, out=scratch)
            residual -= np.multiply(image, step, out=scratch)
        else:
            raise LinearSolveError(
                'conjugate gradients did not converge in {} iterations for {}'.format(
                    CG_MAX_ITERS, _range_text(c)), parameter=c)
        true_residual = _euclidean_norm(
            np.subtract(_stencil(diagonal, solution, image, scratch), rhs, out=image))
        scale = matrix_norm * _euclidean_norm(solution)
        if (not np.isfinite(solution).all()
                or true_residual > BACKWARD_TOL * (scale + rhs_norm)
                or scale > COND_LIMIT * rhs_norm):
            raise LinearSolveError(
                'linear system is singular or severely ill-conditioned for {} '
                '(residual {:.3g}, ||A|| ||x|| / ||b|| {:.3g})'.format(
                    _range_text(c), rhs_scale * true_residual / h2, scale / rhs_norm),
                parameter=c)
        return rhs_scale * solution


class EllipticOperator:
    """The forward map c -> u of the elliptic problem, evaluated by `linearize`.

    Evaluations raise :class:`LinearSolveError` when L(c) is not positive
    definite or numerically singular, or a solve is not backward stable.

    Parameters
    ----------
    f : GridFunction
        Source, used on the interior nodes.
    g : GridFunction
        Dirichlet values on the grid of f; only the boundary ring is used.

    Built once from f and g: the right-hand side of the forward solve, the
    Dirichlet values that every u takes on the boundary ring, the
    float32 sine basis S, the eigenvalues lambda_j + lambda_k of the 2-D
    -laplace_h, the number K of coarse modes per axis, the 1-D mode products
    S_ia S_ia' of the K x K coarse modes, the row sums of |L(c)| off the
    diagonal, all read-only, and the arrays CG writes to: the scaled
    right-hand side, the stencil diagonal 4 + h^2 c, the solution and its
    residual, the direction, its image, the preconditioned residual z, a
    scratch array and the two float32 arrays of the preconditioner apply.
    Nothing a solve reads from them was left by an earlier solve.
    """

    def __init__(self, f, g):
        if f.values.shape != g.values.shape:
            raise ValueError('source and boundary grids differ: {} vs {}'.format(
                f.values.shape, g.values.shape))
        self._dirichlet = g = g.values
        n, h = f.n_interior, f.h
        # h^2 f with the Dirichlet elimination: neighbors on the boundary ring
        # move to the right-hand side of h^2 L(c) u, as g itself.
        self._rhs = h ** 2 * f.interior
        self._rhs[0, :] += g[0, 1:-1]
        self._rhs[-1, :] += g[-1, 1:-1]
        self._rhs[:, 0] += g[1:-1, 0]
        self._rhs[:, -1] += g[1:-1, -1]
        j = np.arange(1, n + 1)
        # sin(pi m / (N+1)) with m = jk reduced mod 2(N+1) keeps the argument
        # small and the basis exactly symmetric.
        basis = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (n + 1)))
                                                / (n + 1))
        eigenvalues = (4.0 / h ** 2) * np.sin(0.5 * np.pi * j / (n + 1)) ** 2
        self._eigen_sums = eigenvalues[:, None] + eigenvalues[None, :]
        self._basis = basis.astype(np.float32)
        self._coarse_modes = k = min(COARSE_MODES, n)
        self._mode_products = (basis[:, :k, None] * basis[:, None, :k]).reshape(n, k * k)
        # 1/h^2 per interior neighbor.
        axis = np.minimum(np.arange(n), 1) + np.minimum(np.arange(n)[::-1], 1)
        self._neighbor_sums = (axis[:, None] + axis[None, :]) / h ** 2
        for array in (self._rhs, self._eigen_sums, self._basis, self._mode_products,
                      self._neighbor_sums):
            array.setflags(write=False)

        def grid(dtype=float):
            return np.empty((n, n), dtype=dtype)

        self._scaled_rhs, self._diagonal, self._solution, self._residual = (
            grid(), grid(), grid(), grid())
        self._direction, self._image, self._z, self._scratch = grid(), grid(), grid(), grid()
        self._spectral = grid(np.float32), grid(np.float32)

    def _check_grid(self, f, name):
        if f.values.shape != self._dirichlet.shape:
            raise ValueError('{} grid {} does not match data grid {}'.format(
                name, f.values.shape, self._dirichlet.shape))

    def linearize(self, c, start=None):
        """Set up L(c) once and solve it for u = F(c), with the Dirichlet
        ring of g, warm-started from the u of a `start` state;
        returns the state for F, F', F'*."""
        self._check_grid(c, 'parameter')
        return OperatorState(self, c, start)

    def derivative(self, state, direction, start=None):
        """Directional derivative F'(c) applied to `direction`.

        Solves -L(c)^{-1}(direction * u) on the interior with zero boundary,
        with the system of the state, from the interior of the grid function
        `start` when that is closer than zero.
        """
        self._check_grid(direction, 'direction')
        rhs = (direction.values * state.u.values)[1:-1, 1:-1] * -state.c.h ** 2
        return GridFunction.from_interior(state.solve(
            rhs, None if start is None else start.interior))

    def adjoint(self, state, w):
        """Adjoint F'(c)* applied to a codomain vector w.

        Evaluates -u * L(c)^{-1} w with a zero-boundary interior solve; the
        result is a dual vector over the parameter space.
        """
        self._check_grid(w, 'codomain vector')
        values = np.zeros_like(state.u.values)
        values[1:-1, 1:-1] = state.solve(w.interior * state.c.h ** 2)
        # -(u * lifted) is (-u) * lifted bit for bit, signed zeros included.
        values *= state.u.values
        return GridFunction._adopt(np.negative(values, out=values))

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
