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
import warnings

import numpy as np
import pytest

from resesop import elliptic_operator
from resesop.elliptic_operator import (
    BvpData,
    EllipticOperator,
    LinearSolveError,
)
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
    """L(c) v on the interior, by the kernel that CG runs."""
    return elliptic_operator._stencil(c.interior, c.h ** 2, v)


def dense_matrix(c):
    """L(c) as a dense (N^2, N^2) array, column k the stencil applied to the
    k-th unit vector (interior nodes ordered row-major)."""
    n = c.n_interior
    columns = []
    for k in range(n * n):
        unit = np.zeros(n * n)
        unit[k] = 1.0
        columns.append(stencil(c, unit.reshape(n, n)).ravel())
    return np.array(columns).T


def random_operator(rng, n, low, high):
    # An operator on random data and the state of a parameter c ~ U(low, high).
    c = GridFunction(rng.uniform(low, high, (n + 2, n + 2)))
    data = BvpData(f=GridFunction(rng.standard_normal((n + 2, n + 2))),
                   g=GridFunction(rng.standard_normal((n + 2, n + 2))))
    op = EllipticOperator(data)
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
        op, state = random_operator(rng, n, low, high)
        c = state.c
        rhs = rng.standard_normal((n, n))

        def solve(b):
            return elliptic_operator._interior_solve(
                c, op._basis, state.inverse_eigenvalues, state.coarse_inverse,
                state.matrix_norm, b)

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
    data = BvpData(f=GridFunction.full(n, 1.0), g=GridFunction.zeros(n))
    with pytest.raises(LinearSolveError) as info:
        EllipticOperator(data)(c)
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
    data = BvpData(f=GridFunction.full(n, 1.0), g=GridFunction.zeros(n))
    with pytest.raises(LinearSolveError, match='Galerkin matrix') as info:
        EllipticOperator(data)(c)
    assert info.value.parameter is c


def dense_preconditioner(op, state):
    # The preconditioner as a dense (N^2, N^2) array, built from unit vectors.
    n = state.c.n_interior
    columns = []
    for k in range(n * n):
        unit = np.zeros(n * n)
        unit[k] = 1.0
        columns.append(elliptic_operator._apply_preconditioner(
            op._basis, state.inverse_eigenvalues, state.coarse_inverse,
            unit.reshape(n, n)).ravel())
    return np.array(columns).T


@pytest.mark.parametrize('low, high', [(0.5, 4.0), (0.0, 1e4)])
@pytest.mark.parametrize('n', [1, 2, 5, 6, 7, 12, 40])
def test_preconditioner_is_symmetric_positive_definite(n, low, high):
    # CG needs a symmetric positive definite preconditioner; its float32
    # apply keeps the symmetry to about 1e-7. Up to N = COARSE_MODES every
    # mode is coarse, so it is the inverse of L(c) to float32 accuracy.
    op, state = random_operator(np.random.default_rng(39), n, low, high)
    matrix = dense_preconditioner(op, state)
    assert np.linalg.norm(matrix - matrix.T) <= 1e-6 * np.linalg.norm(matrix)
    np.linalg.cholesky(0.5 * (matrix + matrix.T))
    if n <= elliptic_operator.COARSE_MODES:
        product = matrix @ dense_matrix(state.c)
        assert np.linalg.norm(product - np.eye(n * n), 2) <= 1e-5


def test_solve_forward_constant_one():
    n = 6
    data = BvpData(f=GridFunction.zeros(n), g=GridFunction.full(n, 1.0))
    u = EllipticOperator(data)(GridFunction.zeros(n))
    np.testing.assert_allclose(u.values, 1.0, atol=1e-13)


def test_solve_forward_affine_exact():
    # The stencil annihilates affine functions, so u = x + y is exact.
    n = 7
    truth = nodal(lambda x, y: x + y, n)
    data = BvpData(f=GridFunction.zeros(n), g=truth)
    u = EllipticOperator(data)(GridFunction.zeros(n))
    np.testing.assert_allclose(u.values, truth.values, atol=1e-12)


def test_solve_forward_constant_solution_with_reaction():
    rng = np.random.default_rng(30)
    n = 5
    c = GridFunction(rng.uniform(0.5, 3.0, (n + 2, n + 2)))
    data = BvpData(f=GridFunction(c.values.copy()), g=GridFunction.full(n, 1.0))
    u = EllipticOperator(data)(c)
    np.testing.assert_allclose(u.values, 1.0, atol=1e-12)


def test_solve_forward_shape_mismatch():
    data = BvpData(f=GridFunction.zeros(3), g=GridFunction.zeros(3))
    with pytest.raises(ValueError):
        EllipticOperator(data)(GridFunction.zeros(4))


def test_bvp_data_shape_validation():
    with pytest.raises(ValueError):
        BvpData(f=GridFunction.zeros(3), g=GridFunction.zeros(4))


def test_quadratic_per_variable_solution_is_exact():
    # Second differences are exact on polynomials of degree <= 3 per
    # variable, so this manufactured pair has no discretization error.
    for n in (5, 12, 40):
        u_true = nodal(lambda x, y: 16.0 * x * (x - 1.0) * y * (1.0 - y) + 1.0, n)
        lap = nodal(lambda x, y: 32.0 * (x * (1.0 - x) + y * (1.0 - y)), n)
        c = nodal(lambda x, y: 2.0 + x + 0.5 * y * y, n)
        f = GridFunction(-lap.values + c.values * u_true.values)
        u = EllipticOperator(BvpData(f=f, g=u_true))(c)
        space = SpaceSpec(2.0, 2.0)
        assert weighted_norm(u - u_true, space) <= 1e-12


def test_second_order_grid_convergence_on_trig_solution():
    errors = []
    sizes = (8, 16, 32)
    for n in sizes:
        u_true = nodal(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y), n)
        c = nodal(lambda x, y: 2.0 + x * y, n)
        f = GridFunction((2.0 * np.pi ** 2 + c.values) * u_true.values)
        u = EllipticOperator(BvpData(f=f, g=u_true))(c)
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
    op = EllipticOperator(BvpData(f=f, g=g))
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
        perturbed = op(GridFunction(state.c.values + eps * direction.values))
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
        space = SpaceSpec(2.0, 2.0)
        for _ in range(10):
            direction = random_interior(rng, n)
            w = random_interior(rng, n)
            lhs = dual_pairing(w, op.derivative(state, direction), space)
            rhs = dual_pairing(op.adjoint(state, w), direction, space)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def test_adjoint_one_node_hand_value():
    # N=1, c=0: L = [16], so F'(c)* w has the single interior value
    # -u0 * w0 / 16.
    data = BvpData(f=GridFunction.full(1, 3.0), g=GridFunction.full(1, 1.0))
    op = EllipticOperator(data)
    state = op.linearize(GridFunction.zeros(1))
    u0 = state.u.values[1, 1]
    w = GridFunction.from_interior(np.array([[2.0]]))
    result = op.adjoint(state, w)
    assert result.values[1, 1] == pytest.approx(-u0 * 2.0 / 16.0, rel=1e-14)
    assert np.all(result.values[0, :] == 0.0)


def test_operator_norm_estimate_properties():
    op, state = make_linearization(10)
    first = op.norm_estimate(state)
    second = op.norm_estimate(state)
    assert first == second
    assert first > 0.0
    doubled_state = dataclasses.replace(state, u=2.0 * state.u)
    assert op.norm_estimate(doubled_state) == pytest.approx(2.0 * first, rel=1e-12)
    zero_state = dataclasses.replace(state, u=GridFunction.zeros(10))
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
    op = EllipticOperator(BvpData(f=f, g=GridFunction.zeros(n)))
    state = op.linearize(c)
    interior = state.u.interior.copy()
    assert (interior > 0.0).any() and (interior < 0.0).any()
    interior[2, :] = 0.0
    state = dataclasses.replace(state, u=GridFunction.from_interior(interior))
    assert op.norm_estimate(state) == pytest.approx(dense_jacobian_norm(op, state),
                                                    rel=1e-12)


def slice_stencil(coeff, h2, v):
    # Reference: the five-point stencil by four 2-D slice subtractions.
    laplace = 4.0 * v
    laplace[1:, :] -= v[:-1, :]
    laplace[:-1, :] -= v[1:, :]
    laplace[:, 1:] -= v[:, :-1]
    laplace[:, :-1] -= v[:, 1:]
    laplace /= h2
    laplace += coeff * v
    return laplace


@pytest.mark.parametrize('n', [1, 2, 3, 40])
def test_stencil_equals_the_slice_reference_bitwise(n):
    rng = np.random.default_rng(37)
    c = GridFunction(rng.uniform(-1.0, 3.0, (n + 2, n + 2)))
    v = rng.standard_normal((n, n))
    v[rng.random((n, n)) < 0.3] = -0.0
    v[0, 0] = -0.0
    expected = slice_stencil(c.interior, c.h ** 2, v)
    for result in (stencil(c, v),
                   elliptic_operator._stencil(np.ascontiguousarray(c.interior),
                                              c.h ** 2, v)):
        assert np.array_equal(result, expected)
        assert np.array_equal(np.signbit(result), np.signbit(expected))


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

    solve = elliptic_operator._interior_solve
    monkeypatch.setattr(elliptic_operator, '_apply_preconditioner',
                        counting('preconditioner', elliptic_operator._apply_preconditioner))
    monkeypatch.setattr(elliptic_operator, '_stencil',
                        counting('stencil', elliptic_operator._stencil))
    monkeypatch.setattr(elliptic_operator, '_interior_solve', recorded)
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
    inner_apply = elliptic_operator._apply_preconditioner
    inner_solve = elliptic_operator._interior_solve

    def counting(*args):
        applies[-1] += 1
        return inner_apply(*args)

    def recorded(*args):
        applies.append(0)
        return inner_solve(*args)

    monkeypatch.setattr(elliptic_operator, '_apply_preconditioner', counting)
    monkeypatch.setattr(elliptic_operator, '_interior_solve', recorded)
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
    op = EllipticOperator(BvpData(f=truth.f, g=truth.g))
    return op, [truth.c0 + (k / steps) * (truth.c - truth.c0) for k in range(steps + 1)]


def backward_error(op, state, x=None, rhs=None):
    # ||L(c) x - b|| / (||L(c)|| ||x|| + ||b||), by default of the forward solve.
    x = state.u.interior if x is None else x
    rhs = op._rhs if rhs is None else rhs
    residual = stencil(state.c, x) - rhs
    return np.linalg.norm(residual) / (state.matrix_norm * np.linalg.norm(x)
                                       + np.linalg.norm(rhs))


def test_warm_forward_solve_meets_the_cold_bound_and_agrees_with_it():
    op, (c0, c1) = benchmark_parameters(40, 1)
    cold = op.linearize(c1)
    warm = op.linearize(c1, start=op.linearize(c0))
    bound = elliptic_operator.BACKWARD_TOL
    assert backward_error(op, cold) <= bound
    assert backward_error(op, warm) <= bound
    # The two solutions differ by no more than the two bounds allow.
    gap = stencil(c1, warm.u.interior - cold.u.interior)
    scale = cold.matrix_norm * np.linalg.norm(cold.u.interior) + np.linalg.norm(op._rhs)
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
    inner = elliptic_operator._apply_preconditioner

    def counting(*args):
        applies[-1] += 1
        return inner(*args)

    monkeypatch.setattr(elliptic_operator, '_apply_preconditioner', counting)
    results = []
    for start in (None, misfit):
        applies.append(0)
        results.append(op.derivative(state, direction, start=start).interior)
    cold, warm = results
    rhs = -(direction.values * state.u.values)[1:-1, 1:-1]
    bound = elliptic_operator.BACKWARD_TOL
    assert backward_error(op, state, cold, rhs) <= bound
    assert backward_error(op, state, warm, rhs) <= bound
    gap = stencil(c1, warm - cold)
    scale = state.matrix_norm * np.linalg.norm(cold) + np.linalg.norm(rhs)
    assert np.linalg.norm(gap) <= 2.0 * bound * scale
    assert applies[1] < applies[0]


def test_start_from_another_grid_is_rejected():
    op, (c0, _) = benchmark_parameters(6, 1)
    other, (c_other, _) = benchmark_parameters(5, 1)
    with pytest.raises(ValueError, match='start grid'):
        op.linearize(c0, start=other.linearize(c_other))
    with pytest.raises(ValueError, match='start grid'):
        op.derivative(op.linearize(c0), c0, start=other.linearize(c_other).u)


@pytest.mark.parametrize('factor', [0.0, 1e6, 1e300])
def test_far_start_still_converges(factor):
    # A start no closer than zero, the zero state or u scaled by 1e6, is not
    # taken: its rounding error would stay in the true residual. At 1e300
    # the residual norm of the start overflows, which must not warn. The
    # derivative solve treats the misfit F(c1) - F(c0), so scaled, alike.
    op, (c0, c1) = benchmark_parameters(40, 1)
    start = op.linearize(c0)
    far = dataclasses.replace(start, u=factor * start.u)
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
    inner = elliptic_operator._apply_preconditioner

    def counting(*args):
        applies[-1] += 1
        return inner(*args)

    monkeypatch.setattr(elliptic_operator, '_apply_preconditioner', counting)

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


def test_discrete_maximum_principle():
    rng = np.random.default_rng(35)
    n = 9
    c = GridFunction(rng.uniform(0.0, 2.0, (n + 2, n + 2)))
    f = GridFunction(rng.uniform(0.0, 1.0, (n + 2, n + 2)))
    g = GridFunction(rng.uniform(0.0, 1.0, (n + 2, n + 2)))
    u = EllipticOperator(BvpData(f=f, g=g))(c)
    assert np.all(u.values >= -1e-13)


def test_singular_parameter_raises():
    # c equal to minus the smallest eigenvalue of the discrete Laplacian
    # makes L(c) exactly singular. In floating point its Galerkin matrix
    # keeps an eigenvalue of about 1e-15, which the set-up must still judge
    # singular instead of leaving CG to run out of iterations.
    n = 9
    h = 1.0 / (n + 1)
    lam = 2.0 * (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
    c = GridFunction.full(n, -lam)
    data = BvpData(f=GridFunction.full(n, 1.0), g=GridFunction.zeros(n))
    with pytest.raises(LinearSolveError) as info:
        EllipticOperator(data)(c)
    assert 'parameter' in str(info.value)
    assert 'Galerkin matrix' in str(info.value)


def test_fine_grid_adjoint_solve_is_accepted():
    # The first adjoint solve of method B at n_recon 320 is exact to machine
    # precision, but ||L(c)|| ~ 8/h^2 makes its raw residual ~5e-12; the
    # gate must judge the backward error instead.
    truth = synth_truth(320)
    y = restrict(synth_truth(400).u, 320)
    op = EllipticOperator(BvpData(f=truth.f, g=truth.g))
    state = op.linearize(truth.c0)
    w = duality_map(state.u - y, SpaceSpec(5.0, 2.0))
    u_star = op.adjoint(state, w)
    assert np.all(np.isfinite(u_star.values)) and np.any(u_star.values)
