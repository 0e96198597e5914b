"""Tests for the elliptic forward operator, its derivative and adjoint.

Small systems are checked against hand-assembled matrices, built column by
column from the stencil apply; CG solves against dense solves; the
preconditioner, built densely from unit vectors, for symmetry, definiteness
and, on small grids, exactness; the derivative against a Taylor-remainder
order fit; the adjoint against the pairing identity; and the
discretization against two manufactured solutions, one
that the stencil reproduces exactly (quadratic per variable) and one with
genuine truncation error exhibiting second-order convergence.
"""

import dataclasses
import re
import types
import warnings

import numpy as np
import pytest

from resesop import elliptic_operator
from resesop.elliptic_operator import EllipticOperator, LinearSolveError
from resesop.experiment_cli import restrict, synth_truth
from resesop.lp_spaces import GridFunction, SpaceSpec, dual_pairing, duality_map, weighted_norm


def nodal(func, n):
    """Evaluate func(x, y) on the full (N+2) x (N+2) node set."""
    coords = np.linspace(0.0, 1.0, n + 2)
    x, y = np.meshgrid(coords, coords, indexing='ij')
    return GridFunction(func(x, y))


def random_interior(rng, n, scale=1.0):
    return GridFunction.from_interior(scale * rng.standard_normal((n, n)))


def stencil(c, v):
    """h^2 L(c) v on the interior, by the kernel that CG runs."""
    return elliptic_operator._stencil(4.0 + c.h ** 2 * c.interior, v, np.empty(v.shape),
                                      np.empty(v.shape))


def dense_matrix(c):
    """L(c) as a dense (N^2, N^2) array, column k the stencil applied to the
    k-th unit vector (interior nodes ordered row-major) over h^2."""
    n = c.n_interior
    columns = []
    for k in range(n * n):
        unit = np.zeros(n * n)
        unit[k] = 1.0
        columns.append(stencil(c, unit.reshape(n, n)).ravel() / c.h ** 2)
    return np.array(columns).T


def random_operator(rng, n, low, high):
    # An operator on random data and the state of a parameter c ~ U(low, high).
    c = GridFunction(rng.uniform(low, high, (n + 2, n + 2)))
    op = EllipticOperator(GridFunction(rng.standard_normal((n + 2, n + 2))),
                          GridFunction(rng.standard_normal((n + 2, n + 2))))
    return op, op.linearize(c)


def test_assemble_one_interior_node():
    # N=1, h=1/2: single equation with diagonal 4/h^2 = 16.
    matrix = dense_matrix(GridFunction.zeros(1))
    np.testing.assert_array_equal(matrix, [[16.0]])


def test_assemble_two_by_two_pattern():
    # N=2, h=1/3: diagonal 4/h^2 = 36, neighbor coupling -1/h^2 = -9.
    expected = np.array([
        [36.0, -9.0, -9.0, 0.0],
        [-9.0, 36.0, 0.0, -9.0],
        [-9.0, 0.0, 36.0, -9.0],
        [0.0, -9.0, -9.0, 36.0],
    ])
    matrix = dense_matrix(GridFunction.zeros(2))
    np.testing.assert_array_equal(matrix, expected)


def test_assemble_constant_shift():
    base = dense_matrix(GridFunction.zeros(3))
    shifted = dense_matrix(GridFunction.full(3, 2.5))
    np.testing.assert_array_equal(shifted, base + 2.5 * np.eye(9))


def test_cg_solve_matches_dense_solve():
    # Each solve meets the backward-error gate on its own residual and
    # agrees with a dense direct solve of the same system: to 1e-10 for a
    # moderate spread of c, to the forward-error bound of the gate for a
    # wide one, where -laplace_h + c_bar I is far from L(c) and CG takes
    # dozens of iterations. Scaling the right-hand side by a power of two
    # far outside float32 range scales the solution exactly.
    rng = np.random.default_rng(36)
    cases = ((1, 0.5, 4.0), (7, 0.5, 4.0), (40, 0.5, 4.0), (7, 0.0, 1e4), (40, 0.0, 1e4))
    for n, low, high in cases:
        _, state = random_operator(rng, n, low, high)
        c = state.c
        rhs = rng.standard_normal((n, n))

        def solve(b):
            # CG takes the right-hand side of h^2 L(c) x = h^2 b.
            return state.solve(c.h ** 2 * b)

        solution = solve(rhs).ravel()
        matrix = dense_matrix(c)
        residual = np.linalg.norm(matrix @ solution - rhs.ravel())
        bound = elliptic_operator.BACKWARD_TOL * (
            np.abs(matrix).sum(axis=1).max() * np.linalg.norm(solution)
            + np.linalg.norm(rhs))
        assert residual <= bound
        reference = np.linalg.solve(matrix, rhs.ravel())
        if high <= 4.0:
            tolerance = 1e-10
        else:
            eigenvalues = np.linalg.eigvalsh(matrix)
            tolerance = 4.0 * eigenvalues[-1] / eigenvalues[0] * elliptic_operator.BACKWARD_TOL
        assert np.linalg.norm(solution - reference) <= tolerance * np.linalg.norm(reference)
        for power in (-130, 130):
            np.testing.assert_array_equal(solve(np.ldexp(rhs, power)).ravel(),
                                          np.ldexp(solution, power))


def test_indefinite_parameter_raises():
    # c = -3 lambda_min makes L(c) nonsingular but indefinite, outside what
    # conjugate gradients can solve.
    n = 9
    h = 1.0 / (n + 1)
    lam = 2.0 * (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
    c = GridFunction.full(n, -3.0 * lam)
    op = EllipticOperator(GridFunction.full(n, 1.0), GridFunction.zeros(n))
    with pytest.raises(LinearSolveError) as info:
        op.linearize(c)
    assert 'parameter' in str(info.value)
    assert info.value.parameter is c


def test_indefinite_galerkin_block_raises():
    # c = -3 lambda_min except at one node keeps c_bar positive, so only the
    # Galerkin matrix on the coarse modes shows that L(c) is indefinite.
    n = 9
    h = 1.0 / (n + 1)
    lam = 2.0 * (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
    values = np.full((n + 2, n + 2), -3.0 * lam)
    values[1, 1] = 200.0
    c = GridFunction(values)
    op = EllipticOperator(GridFunction.full(n, 1.0), GridFunction.zeros(n))
    with pytest.raises(LinearSolveError, match='Galerkin matrix') as info:
        op.linearize(c)
    assert info.value.parameter is c


def dense_preconditioner(state):
    # The preconditioner as a dense (N^2, N^2) array, built from unit vectors.
    n = state.c.n_interior
    columns = []
    for k in range(n * n):
        unit = np.zeros(n * n)
        unit[k] = 1.0
        columns.append(state.precondition(unit.reshape(n, n),
                                                 np.empty((n, n))).ravel())
    return np.array(columns).T


@pytest.mark.parametrize('low, high', [(0.5, 4.0), (0.0, 1e4)])
@pytest.mark.parametrize('n', [1, 2, 5, 6, 7, 12, 40])
def test_preconditioner_is_symmetric_positive_definite(n, low, high):
    # CG needs a symmetric positive definite preconditioner; its float32
    # apply keeps the symmetry to about 1e-7. Up to N = COARSE_MODES every
    # mode is coarse, so it is the inverse of L(c) to float32 accuracy.
    _, state = random_operator(np.random.default_rng(39), n, low, high)
    matrix = dense_preconditioner(state)
    assert np.linalg.norm(matrix - matrix.T) <= 1e-6 * np.linalg.norm(matrix)
    np.linalg.cholesky(0.5 * (matrix + matrix.T))
    if n <= elliptic_operator.COARSE_MODES:
        product = matrix @ dense_matrix(state.c)
        assert np.linalg.norm(product - np.eye(n * n), 2) <= 1e-5


def test_solve_forward_constant_one():
    n = 6
    op = EllipticOperator(GridFunction.zeros(n), GridFunction.full(n, 1.0))
    u = op.linearize(GridFunction.zeros(n)).u
    np.testing.assert_allclose(u.values, 1.0, atol=1e-13)


def test_solve_forward_affine_exact():
    # The stencil annihilates affine functions, so u = x + y is exact.
    n = 7
    truth = nodal(lambda x, y: x + y, n)
    u = EllipticOperator(GridFunction.zeros(n), truth).linearize(GridFunction.zeros(n)).u
    np.testing.assert_allclose(u.values, truth.values, atol=1e-12)


def test_solve_forward_constant_solution_with_reaction():
    rng = np.random.default_rng(30)
    n = 5
    c = GridFunction(rng.uniform(0.5, 3.0, (n + 2, n + 2)))
    op = EllipticOperator(GridFunction(c.values.copy()), GridFunction.full(n, 1.0))
    u = op.linearize(c).u
    np.testing.assert_allclose(u.values, 1.0, atol=1e-12)


def test_solve_forward_shape_mismatch():
    op = EllipticOperator(GridFunction.zeros(3), GridFunction.zeros(3))
    with pytest.raises(ValueError):
        op.linearize(GridFunction.zeros(4))


def test_source_and_boundary_grids_must_match():
    with pytest.raises(ValueError, match=r'source and boundary grids differ: \(5, 5\) vs '
                                         r'\(6, 6\)'):
        EllipticOperator(f=GridFunction.zeros(3), g=GridFunction.zeros(4))


def test_quadratic_per_variable_solution_is_exact():
    # Second differences are exact on polynomials of degree <= 3 per
    # variable, so this manufactured pair has no discretization error.
    for n in (5, 12, 40):
        u_true = nodal(lambda x, y: 16.0 * x * (x - 1.0) * y * (1.0 - y) + 1.0, n)
        lap = nodal(lambda x, y: 32.0 * (x * (1.0 - x) + y * (1.0 - y)), n)
        c = nodal(lambda x, y: 2.0 + x + 0.5 * y * y, n)
        f = GridFunction(-lap.values + c.values * u_true.values)
        u = EllipticOperator(f, u_true).linearize(c).u
        space = SpaceSpec(2.0, 2.0)
        assert weighted_norm(u - u_true, space) <= 1e-12


def test_second_order_grid_convergence_on_trig_solution():
    errors = []
    sizes = (8, 16, 32)
    for n in sizes:
        u_true = nodal(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y), n)
        c = nodal(lambda x, y: 2.0 + x * y, n)
        f = GridFunction((2.0 * np.pi ** 2 + c.values) * u_true.values)
        u = EllipticOperator(f, u_true).linearize(c).u
        space = SpaceSpec(2.0, 2.0)
        errors.append(weighted_norm(u - u_true, space))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.array(errors[1:]) < np.array(errors[:-1]))
    assert np.all(orders > 1.8) and np.all(orders < 2.2)


def make_linearization(n, seed=31):
    rng = np.random.default_rng(seed)
    c = GridFunction(rng.uniform(1.0, 3.0, (n + 2, n + 2)))
    f = nodal(lambda x, y: 1.0 + x + y, n)
    g = GridFunction.full(n, 1.0)
    op = EllipticOperator(f, g)
    return op, op.linearize(c)


def test_derivative_zero_and_linearity():
    op, state = make_linearization(6)
    zero = op.derivative(state, GridFunction.zeros(6))
    assert np.all(zero.values == 0.0)
    rng = np.random.default_rng(32)
    d1, d2 = random_interior(rng, 6), random_interior(rng, 6)
    combined = op.derivative(state, GridFunction(2.0 * d1.values - 3.0 * d2.values))
    separate = 2.0 * op.derivative(state, d1) - 3.0 * op.derivative(state, d2)
    np.testing.assert_allclose(combined.values, separate.values, rtol=1e-12, atol=1e-14)


def test_derivative_taylor_remainder_order():
    n = 8
    op, state = make_linearization(n)
    rng = np.random.default_rng(33)
    direction = random_interior(rng, n)
    space = SpaceSpec(2.0, 2.0)
    deriv = op.derivative(state, direction)
    epsilons = np.array([1e-1, 5e-2, 2.5e-2, 1.25e-2, 6.25e-3])
    remainders = []
    for eps in epsilons:
        perturbed = op.linearize(GridFunction(state.c.values + eps * direction.values)).u
        remainder = GridFunction(
            perturbed.values - state.u.values - eps * deriv.values)
        remainders.append(weighted_norm(remainder, space))
    slope = np.polyfit(np.log(epsilons), np.log(remainders), 1)[0]
    assert slope >= 1.9


def test_adjoint_zero():
    op, state = make_linearization(5)
    result = op.adjoint(state, GridFunction.zeros(5))
    assert np.all(result.values == 0.0)


def test_adjoint_pairing_identity():
    rng = np.random.default_rng(34)
    for n in (5, 10, 20):
        op, state = make_linearization(n)
        for _ in range(10):
            direction = random_interior(rng, n)
            w = random_interior(rng, n)
            lhs = dual_pairing(w, op.derivative(state, direction))
            rhs = dual_pairing(op.adjoint(state, w), direction)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def test_adjoint_one_node_hand_value():
    # N=1, c=0: L = [16], so F'(c)* w has the single interior value
    # -u0 * w0 / 16.
    op = EllipticOperator(GridFunction.full(1, 3.0), GridFunction.full(1, 1.0))
    state = op.linearize(GridFunction.zeros(1))
    u0 = state.u.values[1, 1]
    w = GridFunction.from_interior(np.array([[2.0]]))
    result = op.adjoint(state, w)
    assert result.values[1, 1] == pytest.approx(-u0 * 2.0 / 16.0, rel=1e-14)
    assert np.all(result.values[0, :] == 0.0)


def with_solution(state, u):
    # The state with `u` in place of its solution, as far as the derivative,
    # the adjoint and norm_estimate see it: they read only c, u and the
    # solves, and the forward solve reads only the u of its start.
    return types.SimpleNamespace(c=state.c, u=u, solve=state.solve)


def test_a_state_is_immutable():
    _, state = make_linearization(5)
    for name in ('c', 'u', 'norm', 'solve', 'other'):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(state, name)


def test_operator_norm_estimate_properties():
    op, state = make_linearization(10)
    first = op.norm_estimate(state)
    second = op.norm_estimate(state)
    assert first == second
    assert first > 0.0
    doubled_state = with_solution(state, 2.0 * state.u)
    assert op.norm_estimate(doubled_state) == pytest.approx(2.0 * first, rel=1e-12)
    zero_state = with_solution(state, GridFunction.zeros(10))
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        assert op.norm_estimate(zero_state) == 0.0


def dense_jacobian_norm(op, state):
    # F'(c) built column by column from the derivative on unit vectors.
    n = state.c.n_interior
    columns = []
    for k in range(n * n):
        unit = np.zeros(n * n)
        unit[k] = 1.0
        image = op.derivative(state, GridFunction.from_interior(unit.reshape(n, n)))
        columns.append(image.interior.ravel())
    return np.linalg.norm(np.array(columns).T, 2)


def test_norm_estimate_matches_dense_jacobian_norm():
    for n in (3, 6):
        op, state = make_linearization(n)
        assert op.norm_estimate(state) == pytest.approx(dense_jacobian_norm(op, state),
                                                        rel=1e-12)


def test_norm_estimate_from_sign_start_handles_a_sign_changing_state():
    # Lanczos starts from sign(u); with u of both signs (and zero entries)
    # the start still has a component along the top eigenvector.
    n = 7
    rng = np.random.default_rng(36)
    c = GridFunction(rng.uniform(0.5, 2.0, (n + 2, n + 2)))
    f = nodal(lambda x, y: np.sin(3.0 * np.pi * x) * np.cos(2.0 * np.pi * y), n)
    op = EllipticOperator(f, GridFunction.zeros(n))
    state = op.linearize(c)
    interior = state.u.interior.copy()
    assert (interior > 0.0).any() and (interior < 0.0).any()
    interior[2, :] = 0.0
    state = with_solution(state, GridFunction.from_interior(interior))
    assert op.norm_estimate(state) == pytest.approx(dense_jacobian_norm(op, state),
                                                    rel=1e-12)


def slice_stencil(diagonal, v):
    # Reference: the h^2-scaled five-point stencil, the diagonal 4 + h^2 c
    # times v minus four 2-D slices.
    laplace = diagonal * v
    laplace[1:, :] -= v[:-1, :]
    laplace[:-1, :] -= v[1:, :]
    laplace[:, 1:] -= v[:, :-1]
    laplace[:, :-1] -= v[:, 1:]
    return laplace


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize('n', [1, 2, 3, 40])
def test_stencil_equals_the_slice_reference_bitwise(n):
    # Whatever `out` and `scratch` held before, NaN here, is overwritten.
    rng = np.random.default_rng(37)
    c = GridFunction(rng.uniform(-1.0, 3.0, (n + 2, n + 2)))
    v = rng.standard_normal((n, n))
    v[rng.random((n, n)) < 0.3] = -0.0
    v[0, 0] = -0.0
    diagonal = 4.0 + c.h ** 2 * c.interior
    out, scratch = np.full((n, n), np.nan), np.full((n, n), np.nan)
    assert elliptic_operator._stencil(diagonal, v, out, scratch) is out
    assert same_bits(out, slice_stencil(diagonal, v))


@pytest.mark.parametrize('n', [1, 2, 7, 12, 40])
def test_preconditioner_apply_equals_the_allocating_formula_bitwise(n):
    # The apply writes into `out` and the two float32 work arrays of the
    # grid, which hold NaN beforehand; the bits are those of the formula
    # with a new array per operation.
    op, state = random_operator(np.random.default_rng(45), n, 0.5, 4.0)
    r = np.random.default_rng(46).standard_normal((n, n))
    basis, k = op._basis, min(elliptic_operator.COARSE_MODES, n)
    spectral = basis @ r.astype(np.float32) @ basis
    scaled = spectral * state.inverse_eigenvalues
    scaled[:k, :k] = (state.coarse_inverse @ spectral[:k, :k].ravel()).reshape(k, k)
    expected = (basis @ scaled @ basis).astype(float)
    out = np.full((n, n), np.nan)
    for work in op._spectral:
        work.fill(np.nan)
    assert state.precondition(r, out) is out
    assert same_bits(out, expected)


def test_cg_preconditions_once_per_iteration(monkeypatch):
    # The converged residual is not preconditioned: a solve of k iterations
    # applies the preconditioner k times and the stencil k + 1 times.
    counts = {'preconditioner': 0, 'stencil': 0}
    solves = []

    def counting(name, function):
        def wrapped(*args):
            counts[name] += 1
            return function(*args)
        return wrapped

    def recorded(*args):
        before = dict(counts)
        result = solve(*args)
        solves.append({name: counts[name] - before[name] for name in counts})
        return result

    state_type = elliptic_operator.OperatorState
    solve = state_type.solve
    monkeypatch.setattr(state_type, 'precondition',
                        counting('preconditioner', state_type.precondition))
    monkeypatch.setattr(elliptic_operator, '_stencil',
                        counting('stencil', elliptic_operator._stencil))
    monkeypatch.setattr(state_type, 'solve', recorded)
    op, state = make_linearization(12)
    rng = np.random.default_rng(38)
    op.derivative(state, random_interior(rng, 12))
    op.adjoint(state, random_interior(rng, 12))
    op.adjoint(state, GridFunction.zeros(12))
    # linearize, derivative, adjoint, and the zero right-hand side.
    assert len(solves) == 4
    for counted in solves[:3]:
        assert counted['preconditioner'] >= 1
    for counted in solves:
        assert counted['preconditioner'] == counted['stencil'] - 1
    assert solves[3] == {'preconditioner': 0, 'stencil': 1}


def test_small_grids_solve_in_at_most_three_applies(monkeypatch):
    # With every mode coarse the float32 preconditioner is the inverse of
    # L(c) to about 1e-7, so each CG iteration gains about seven digits.
    applies = []
    inner_apply = elliptic_operator.OperatorState.precondition
    inner_solve = elliptic_operator.OperatorState.solve

    def counting(*args):
        applies[-1] += 1
        return inner_apply(*args)

    def recorded(*args):
        applies.append(0)
        return inner_solve(*args)

    monkeypatch.setattr(elliptic_operator.OperatorState, 'precondition', counting)
    monkeypatch.setattr(elliptic_operator.OperatorState, 'solve', recorded)
    rng = np.random.default_rng(40)
    for n in range(1, elliptic_operator.COARSE_MODES + 1):
        for low, high in ((0.5, 4.0), (0.0, 1e4)):
            op, state = random_operator(rng, n, low, high)
            op.derivative(state, random_interior(rng, n))
            op.adjoint(state, random_interior(rng, n))
    assert len(applies) == 3 * 2 * elliptic_operator.COARSE_MODES
    assert 1 <= min(applies) and max(applies) <= 3


def benchmark_parameters(n, steps):
    # The operator of the benchmark at n_recon = n and parameters on the
    # segment from the starting guess towards the truth, like iterates.
    truth = synth_truth(n)
    op = EllipticOperator(truth.f, truth.g)
    return op, [truth.c0 + (k / steps) * (truth.c - truth.c0) for k in range(steps + 1)]


def backward_error(op, state, x=None, rhs=None):
    # ||A x - b|| / (||A|| ||x|| + ||b||) for A = h^2 L(c) and b the h^2-scaled
    # right-hand side, by default of the forward solve.
    x = state.u.interior if x is None else x
    rhs = op._rhs if rhs is None else rhs
    residual = stencil(state.c, x) - rhs
    scale = state.c.h ** 2 * state.norm
    return np.linalg.norm(residual) / (scale * np.linalg.norm(x) + np.linalg.norm(rhs))


def test_warm_forward_solve_meets_the_cold_bound_and_agrees_with_it():
    op, (c0, c1) = benchmark_parameters(40, 1)
    cold = op.linearize(c1)
    warm = op.linearize(c1, start=op.linearize(c0))
    bound = elliptic_operator.BACKWARD_TOL
    assert backward_error(op, cold) <= bound
    assert backward_error(op, warm) <= bound
    # The two solutions differ by no more than the two bounds allow.
    gap = stencil(c1, warm.u.interior - cold.u.interior)
    scale = (c1.h ** 2 * cold.norm * np.linalg.norm(cold.u.interior)
             + np.linalg.norm(op._rhs))
    assert np.linalg.norm(gap) <= 2.0 * bound * scale
    np.testing.assert_array_equal(warm.u.values[0], cold.u.values[0])


def test_warm_derivative_solve_meets_the_cold_bound_and_agrees_with_it(monkeypatch):
    # F(c1) - F(c0) is F'(c1)(c1 - c0) up to second order: a start that
    # saves applies and moves the result only within the backward-error bound.
    op, (c0, c1) = benchmark_parameters(40, 1)
    state = op.linearize(c1)
    direction = c1 - c0
    misfit = state.u - op.linearize(c0).u
    applies = []
    inner = elliptic_operator.OperatorState.precondition

    def counting(*args):
        applies[-1] += 1
        return inner(*args)

    monkeypatch.setattr(elliptic_operator.OperatorState, 'precondition', counting)
    results = []
    for start in (None, misfit):
        applies.append(0)
        results.append(op.derivative(state, direction, start=start).interior)
    cold, warm = results
    rhs = (direction.values * state.u.values)[1:-1, 1:-1] * -c1.h ** 2
    bound = elliptic_operator.BACKWARD_TOL
    assert backward_error(op, state, cold, rhs) <= bound
    assert backward_error(op, state, warm, rhs) <= bound
    gap = stencil(c1, warm - cold)
    scale = c1.h ** 2 * state.norm * np.linalg.norm(cold) + np.linalg.norm(rhs)
    assert np.linalg.norm(gap) <= 2.0 * bound * scale
    assert applies[1] < applies[0]


def test_start_from_another_grid_is_rejected():
    op, (c0, _) = benchmark_parameters(6, 1)
    other, (c_other, _) = benchmark_parameters(5, 1)
    with pytest.raises(ValueError, match='start grid'):
        op.linearize(c0, start=other.linearize(c_other))
    with pytest.raises(ValueError, match='start grid'):
        op.derivative(op.linearize(c0), c0, start=other.linearize(c_other).u)


def test_argument_from_another_grid_is_rejected():
    # Both messages name both grids. A one-node codomain vector would
    # otherwise be broadcast over the interior of the 8 x 8 operator.
    op = EllipticOperator(GridFunction.full(8, 1.0), GridFunction.zeros(8))
    state = op.linearize(GridFunction.full(8, 1.0))
    other = GridFunction.full(1, 2.0)
    with pytest.raises(ValueError, match=r'direction grid \(3, 3\) does not match data '
                                         r'grid \(10, 10\)'):
        op.derivative(state, other)
    with pytest.raises(ValueError, match=r'codomain vector grid \(3, 3\) does not match '
                                         r'data grid \(10, 10\)'):
        op.adjoint(state, other)


def test_a_later_set_up_leaves_an_earlier_state_alone():
    # A state keeps its own system: after a second parameter's set-up and
    # solve on the same operator, the derivative and the adjoint of the
    # first state give a fresh operator's bits.
    op, (c0, c1) = benchmark_parameters(40, 1)
    w = random_interior(np.random.default_rng(48), 40)
    first = op.linearize(c0)
    op.linearize(c1)
    truth = synth_truth(40)
    fresh = EllipticOperator(truth.f, truth.g)
    reference = fresh.linearize(c0)
    assert same_bits(op.derivative(first, c1 - c0).values,
                     fresh.derivative(reference, c1 - c0).values)
    assert same_bits(op.adjoint(first, w).values, fresh.adjoint(reference, w).values)


@pytest.mark.parametrize('factor', [0.0, 1e6, 1e300])
def test_far_start_still_converges(factor):
    # A start no closer than zero, the zero state or u scaled by 1e6, is not
    # taken: its rounding error would stay in the true residual. At 1e300
    # the residual norm of the start overflows, which must not warn. The
    # derivative solve treats the misfit F(c1) - F(c0), so scaled, alike.
    op, (c0, c1) = benchmark_parameters(40, 1)
    start = op.linearize(c0)
    far = with_solution(start, factor * start.u)
    cold = op.linearize(c1)
    far_misfit = factor * (cold.u - start.u)
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        state = op.linearize(c1, start=far)
        derivative = op.derivative(cold, c1 - c0, start=far_misfit)
    assert backward_error(op, state) <= elliptic_operator.BACKWARD_TOL
    assert state.u == cold.u
    assert derivative == op.derivative(cold, c1 - c0)


def test_warm_starts_save_preconditioner_applies(monkeypatch):
    # Exact counts over a fixed three-step parameter sequence: the warm
    # chain saves iterations in every solve after the first.
    op, parameters = benchmark_parameters(40, 3)
    applies = []
    inner = elliptic_operator.OperatorState.precondition

    def counting(*args):
        applies[-1] += 1
        return inner(*args)

    monkeypatch.setattr(elliptic_operator.OperatorState, 'precondition', counting)

    def chain(warm):
        counts, state = [], None
        for c in parameters:
            applies.append(0)
            state = op.linearize(c, start=state if warm else None)
            counts.append(applies[-1])
        return counts

    cold, warm = chain(False), chain(True)
    assert warm[0] == cold[0]
    assert all(w < c for w, c in zip(warm[1:], cold[1:]))
    assert sum(warm) < sum(cold)


def workspace_arrays(op):
    # Every array the solves of the operator write to: its writable arrays
    # (those built from the data are read-only).
    return [array for item in vars(op).values()
            for array in (item if isinstance(item, tuple) else (item,))
            if isinstance(array, np.ndarray) and array.flags.writeable]


def returned_arrays(*results):
    # The arrays of states and grid functions that the operator returned.
    arrays = []
    for result in results:
        if isinstance(result, GridFunction):
            arrays.append(result.values)
        else:
            arrays += [result.u.values, result.inverse_eigenvalues, result.coarse_inverse]
    return arrays


def test_workspace_reuse_is_not_observable(monkeypatch):
    # An operator solves in arrays it allocated once. Nothing it returns
    # shares memory with them or with anything else it returned, and a
    # cold solve gives the bits of a fresh operator's after a warm solve,
    # a derivative, an adjoint, a solve that raised partway, and after
    # every workspace array was filled with NaN.
    op, (c0, c1) = benchmark_parameters(40, 1)
    w = random_interior(np.random.default_rng(47), 40)
    truth = synth_truth(40)
    fresh = EllipticOperator(truth.f, truth.g)
    reference = fresh.linearize(c1)
    expected = [reference.u.values, fresh.derivative(reference, c1 - c0).values,
                fresh.adjoint(reference, w).values]

    def cold_solves_match():
        state = op.linearize(c1)
        results.extend([state, op.derivative(state, c1 - c0), op.adjoint(state, w)])
        return all(same_bits(a, b) for a, b in zip(
            [state.u.values, results[-2].values, results[-1].values], expected))

    def failing_solve():
        with monkeypatch.context() as patch:
            patch.setattr(elliptic_operator, 'CG_MAX_ITERS', 1)
            with pytest.raises(LinearSolveError, match='did not converge'):
                op.linearize(c1)

    def poisoned_workspace():
        for array in workspace_arrays(op):
            array.fill(np.nan)

    start = op.linearize(c0)
    results = [start]
    events = [lambda: results.append(op.linearize(c1, start=start)),
              lambda: results.append(op.derivative(start, c1 - c0)),
              lambda: results.append(op.adjoint(start, w)),
              failing_solve, poisoned_workspace]
    for event in events:
        event()
        assert cold_solves_match()
    arrays, workspace = returned_arrays(*results), workspace_arrays(op)
    assert len(workspace) == 10
    for j, array in enumerate(arrays):
        assert not any(np.shares_memory(array, other) for other in arrays[j + 1:])
        assert not any(np.shares_memory(array, other) for other in workspace)


def test_discrete_maximum_principle():
    rng = np.random.default_rng(35)
    n = 9
    c = GridFunction(rng.uniform(0.0, 2.0, (n + 2, n + 2)))
    f = GridFunction(rng.uniform(0.0, 1.0, (n + 2, n + 2)))
    g = GridFunction(rng.uniform(0.0, 1.0, (n + 2, n + 2)))
    u = EllipticOperator(f, g).linearize(c).u
    assert np.all(u.values >= -1e-13)


def test_solve_error_reports_the_residual_of_the_unscaled_system(monkeypatch):
    # CG runs on h^2 L(c) x = h^2 b, and a rejected solve reports the
    # residual ||L(c) x - b|| of the system it was asked to solve. With no
    # condition number accepted, the solve that succeeded before fails its
    # last check on the same x.
    rng = np.random.default_rng(55)
    _, state = random_operator(rng, 7, 0.5, 4.0)
    h2 = state.c.h ** 2
    rhs = h2 * rng.standard_normal((7, 7))
    x = state.solve(rhs)
    monkeypatch.setattr(elliptic_operator, 'COND_LIMIT', 0.0)
    with pytest.raises(LinearSolveError, match='ill-conditioned') as info:
        state.solve(rhs)
    reported = float(re.search(r'residual ([^,]+),', str(info.value)).group(1))
    residual = np.linalg.norm(stencil(state.c, x) - rhs) / h2
    assert residual > 0.0
    assert reported == pytest.approx(residual, rel=5e-3, abs=0.0)


def test_singular_parameter_raises():
    # c equal to minus the smallest eigenvalue of the discrete Laplacian
    # makes L(c) exactly singular. In floating point its Galerkin matrix
    # keeps an eigenvalue of about 1e-15, which the set-up must still judge
    # singular instead of leaving CG to run out of iterations.
    n = 9
    h = 1.0 / (n + 1)
    lam = 2.0 * (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
    c = GridFunction.full(n, -lam)
    op = EllipticOperator(GridFunction.full(n, 1.0), GridFunction.zeros(n))
    with pytest.raises(LinearSolveError) as info:
        op.linearize(c)
    assert 'parameter' in str(info.value)
    assert 'Galerkin matrix' in str(info.value)


def test_fine_grid_adjoint_solve_is_accepted():
    # The first adjoint solve of method B at n_recon 320 is exact to machine
    # precision, but ||L(c)|| ~ 8/h^2 makes its raw residual ~5e-12; the
    # gate must judge the backward error instead.
    truth = synth_truth(320)
    y = restrict(synth_truth(400).u, 320)
    op = EllipticOperator(truth.f, truth.g)
    state = op.linearize(truth.c0)
    w = duality_map(state.u - y, SpaceSpec(5.0, 2.0))
    u_star = op.adjoint(state, w)
    assert np.all(np.isfinite(u_star.values)) and np.any(u_star.values)
