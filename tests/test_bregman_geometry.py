"""Tests for Bregman projections against closed-form and QP oracles.

In the Hilbert reduction (norm and gauge exponent 2) every Bregman
projection is the metric projection, for which small dense oracles are
assembled here from the weighted Gram matrix and explicit KKT enumeration.
The general-exponent paths are validated through feasibility, idempotence,
finite-difference checks of the dual objective's analytic gradient and
Hessian, and the descent property.
"""

import logging

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resesop import bregman_geometry
from resesop.bregman_geometry import (
    ConvergenceError,
    Stripe,
    StripeSide,
    _dual_objective,
    _newton_step,
    classify,
    project_intersection,
    project_two_stage,
)
from resesop.lp_spaces import (
    GridFunction,
    SpaceSpec,
    bregman_distance,
    dual_pairing,
    duality_map,
    weighted_norm,
)


def random_grid(rng, n=4, scale=1.0):
    return GridFunction(scale * rng.standard_normal((n + 2, n + 2)))


def hilbert_space(n):
    return SpaceSpec(2.0, 2.0)


def gram_projection(x, planes, space):
    """Metric projection onto an intersection of planes: Gram solve oracle."""
    gram = np.array([[dual_pairing(u, v) for v, _ in planes] for u, _ in planes])
    gaps = np.array([dual_pairing(u, x) - alpha for u, alpha in planes])
    coeffs = np.linalg.solve(gram, gaps)
    values = x.values.copy()
    for c, (u, _) in zip(coeffs, planes):
        values -= c * u.values
    return GridFunction(values), coeffs


def kkt_halfspace_oracle(x, halves, space, masks=None):
    """Metric projection onto an intersection of halfspaces <u, z> <= alpha.

    Enumerates the active sets (all of them, or the given bit masks) and
    returns the unique KKT point: primal feasible with nonnegative
    multipliers.
    """
    m = len(halves)
    slack = 1e-10 * (1.0 + max(abs(alpha) for _, alpha in halves))
    for mask in range(2 ** m) if masks is None else masks:
        active = [k for k in range(m) if mask & (1 << k)]
        if active:
            z, coeffs = gram_projection(x, [halves[k] for k in active], space)
            if any(c < -slack for c in coeffs):
                continue
        else:
            z = x
        if all(dual_pairing(u, z) - alpha <= slack for u, alpha in halves):
            return z
    raise AssertionError('KKT enumeration found no feasible point')


def affine_member(rng, planes, space, n):
    """Random point lying exactly on every plane (for descent-property z)."""
    base = random_grid(rng, n)
    directions = [random_grid(rng, n) for _ in planes]
    matrix = np.array([[dual_pairing(u, d) for d in directions]
                       for u, _ in planes])
    rhs = np.array([alpha - dual_pairing(u, base) for u, alpha in planes])
    coeffs = np.linalg.solve(matrix, rhs)
    values = base.values.copy()
    for c, d in zip(coeffs, directions):
        values += c * d.values
    return GridFunction(values)


def test_classify_boundary_cases():
    # N=1 grid, weight 1/4: constant functions give dyadic pairings, so the
    # stripe boundary comparisons below are exact in floating point.
    u = GridFunction.full(1, 1.0)
    stripe = Stripe(u, 2.0, 0.25)
    assert dual_pairing(u, GridFunction.full(1, 1.0)) == 2.25
    assert classify(GridFunction.full(1, 1.0), stripe) is StripeSide.INSIDE
    assert classify(GridFunction.full(1, 8.0 / 9.0), stripe) is StripeSide.INSIDE
    assert classify(GridFunction.full(1, 2.0), stripe) is StripeSide.ABOVE
    assert classify(GridFunction.zeros(1), stripe) is StripeSide.BELOW


def test_stripe_validation():
    u = GridFunction.full(1, 1.0)
    with pytest.raises(ValueError):
        Stripe(GridFunction.zeros(1), 0.0, 1.0)
    with pytest.raises(ValueError):
        Stripe(u, 0.0, -0.5)


def test_project_hyperplane_hilbert_oracle():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        space = hilbert_space(n)
        x = random_grid(rng, n, scale=float(rng.uniform(0.2, 5.0)))
        u = random_grid(rng, n)
        alpha = float(rng.normal())
        x_new, (t,) = project_intersection(x, [(u, alpha)], space)
        gap = dual_pairing(u, x) - alpha
        t_expected = gap / dual_pairing(u, u)
        expected = GridFunction(x.values - t_expected * u.values)
        np.testing.assert_allclose(x_new.values, expected.values, rtol=1e-8, atol=1e-10)
        assert t == pytest.approx(t_expected, rel=1e-8, abs=1e-12)


def test_project_hyperplane_already_on_plane():
    rng = np.random.default_rng(11)
    x = random_grid(rng)
    u = random_grid(rng)
    space = SpaceSpec(1.5, 2.0)
    alpha = dual_pairing(u, x)
    x_new, (t,) = project_intersection(x, [(u, alpha)], space)
    assert t == 0.0
    assert x_new is x


def test_project_hyperplane_feasibility_and_idempotence():
    rng = np.random.default_rng(12)
    for r, q in [(1.5, 2.0), (5.0, 2.0), (3.0, 3.0)]:
        for _ in range(20):
            n = int(rng.integers(1, 6))
            space = SpaceSpec(r, q)
            x = random_grid(rng, n, scale=float(rng.uniform(0.2, 4.0)))
            u = random_grid(rng, n)
            alpha = float(rng.normal())
            x_new, _ = project_intersection(x, [(u, alpha)], space)
            norm_u = weighted_norm(u, space.dual())
            feas = 1e-8 * (1.0 + abs(alpha) + norm_u * weighted_norm(x, space))
            assert abs(dual_pairing(u, x_new) - alpha) <= feas
            again, _ = project_intersection(x_new, [(u, alpha)], space)
            assert weighted_norm(again - x_new, space) < 1e-8


def test_project_hyperplane_rejects_zero_direction():
    x = GridFunction.full(2, 1.0)
    with pytest.raises(ValueError):
        project_intersection(x, [(GridFunction.zeros(2), 1.0)],
                             SpaceSpec(2.0, 2.0))


def stacked(jx, u):
    # The rows [J(x); u_1*, ..., u_k*; g] that _dual_objective takes.
    rows = np.empty((len(u) + 2, len(jx)))
    rows[0], rows[1:-1] = jx, u
    return rows


def dual_objective(x, planes, space):
    # The dual objective of projecting x onto the planes, as _minimize builds it.
    return _dual_objective(
        stacked(duality_map(x, space).values.ravel(), [u.values.ravel() for u, _ in planes]),
        [alpha for _, alpha in planes], space, x.h)


def as_arrays(evaluation):
    # An evaluation with its gradient and Hessian (lists of floats) as arrays.
    value, grad, hessian, x_t = evaluation
    return value, np.array(grad), None if hessian is None else np.array(hessian), x_t


def test_objective_gradient_matches_finite_differences():
    # Central differences of h check the gradient, central differences of
    # the gradient check the analytic Hessian, including its rank-one term
    # (gauge q != norm exponent r).
    rng = np.random.default_rng(13)
    for r, q in [(1.5, 2.0), (2.0, 2.0), (3.0, 3.0), (4.0, 2.0), (2.0, 3.0)]:
        for _ in range(10):
            n = 3
            space = SpaceSpec(r, q)
            x = random_grid(rng, n, scale=2.0)
            planes = [(random_grid(rng, n), float(rng.normal())) for _ in range(2)]
            t = rng.normal(size=2) * 0.3
            objective = dual_objective(x, planes, space)
            out = np.empty(x.values.size)
            _, grad, hessian, _ = as_arrays(objective(t.tolist(), out))
            np.testing.assert_allclose(hessian, hessian.T, rtol=1e-12, atol=1e-14)
            for j in range(2):
                step = 1e-6 * (1.0 + abs(t[j]))
                t_hi = t.copy()
                t_hi[j] += step
                t_lo = t.copy()
                t_lo[j] -= step
                value_hi, grad_hi, _, _ = as_arrays(objective(t_hi.tolist(), out))
                value_lo, grad_lo, _, _ = as_arrays(objective(t_lo.tolist(), out))
                fd = (value_hi - value_lo) / (2.0 * step)
                assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)
                np.testing.assert_allclose(hessian[:, j], (grad_hi - grad_lo) / (2.0 * step),
                                           rtol=1e-4, atol=1e-7)


def test_objective_has_no_value_where_it_overflows():
    # Far from the minimizer J_inv(J(x) - t u*) overflows; the objective
    # then returns None, so the Newton iteration can only reject the point.
    rng = np.random.default_rng(19)
    space = SpaceSpec(1.5, 1.5)
    x, u = random_grid(rng, 3), random_grid(rng, 3)
    objective = dual_objective(x, [(u, 0.3)], space)
    out = np.empty(x.values.size)
    with np.errstate(over='ignore', invalid='ignore', divide='ignore'):
        assert objective([1e200], out) is None
        assert objective([-1e200], out) is None
        value, grad, hessian, x_t = as_arrays(objective([0.1], out))
    assert np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(x_t).all()
    assert hessian is not None


def allocating_objective(jx, u, alphas, space, h, t):
    # The dual objective at t by the formula with a new array per operation:
    # x_t = ||g||_*^(q*-r*) |g|^(r*-1) sign(g), 0 where every |g|^r*
    # underflows and not finite where ||g||_* overflows, and the Hessian
    # weights x_t / g, masked at zeros of g.
    dual = space.dual()
    r_conj, q_conj = dual.norm_exponent, dual.gauge_exponent
    t, alphas = np.asarray(t, dtype=float), np.asarray(alphas, dtype=float)
    g = jx - t @ u
    total = float((np.abs(g) ** r_conj).sum())
    if total == 0.0:
        x_t = np.zeros_like(g)
    else:
        x_t = np.abs(g) ** (r_conj - 1.0) * np.sign(g)
        if q_conj != r_conj:
            norm = np.float64(h ** (2.0 / r_conj) * total ** (1.0 / r_conj))
            x_t = x_t * (norm ** (q_conj - r_conj) if np.isfinite(norm) else np.nan)
    pairs = h ** 2 * (u @ x_t)
    power = h ** 2 * float(g @ x_t)
    value = power / q_conj + float(t @ alphas)
    if not (np.isfinite(value) and np.isfinite(pairs).all()):
        return None
    zero = g == 0.0
    if power == 0.0 or (r_conj < 2.0 and u[:, zero].any()):
        return value, alphas - pairs, None, x_t
    at_zero = power ** (1.0 - 2.0 / q_conj) if r_conj == 2.0 else 0.0
    weights = np.where(zero, at_zero, x_t / np.where(zero, 1.0, g))
    hessian = (r_conj - 1.0) * h ** 2 * (u * weights) @ u.T
    if q_conj != r_conj:
        hessian += (q_conj - r_conj) * np.outer(pairs, pairs) / power
    return value, alphas - pairs, hessian if np.isfinite(hessian).all() else None, x_t


def assert_same_evaluation(new, reference, alphas):
    # Value, gradient, Hessian and x_t agree to 1e-12 relative: the gradient
    # alpha - <u*, x_t> relative to its two terms, the Hessian to its largest
    # entry.
    assert (new is None) == (reference is None)
    if new is None:
        return
    value, grad, hessian, x_t = as_arrays(new)
    ref_value, ref_grad, ref_hessian, ref_x_t = reference
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    terms = np.abs(alphas) + np.abs(ref_grad - alphas)
    assert (np.abs(grad - ref_grad) <= 1e-12 * terms).all()
    assert (hessian is None) == (ref_hessian is None)
    if hessian is not None:
        assert np.abs(hessian - ref_hessian).max() <= 1e-12 * np.abs(ref_hessian).max()
    assert (np.abs(x_t - ref_x_t) <= 1e-12 * np.abs(ref_x_t)).all()


def test_evaluation_equals_the_allocating_formula():
    # One power of |g| and three products against stacked rows give what the
    # duality map and the masked weights give: for random exponents in
    # [1.2, 6] (r* < 2, r* > 2 and q != r), 1-3 planes, t = 0 and t away
    # from it, and r = 2, where w = |g|^0 = 1.
    rng = np.random.default_rng(53)
    exponents = [tuple(rng.uniform(1.2, 6.0, 2)) for _ in range(30)]
    exponents += [(2.0, 2.0), (2.0, 3.5), (2.0, 1.3), (4.0, 4.0), (1.3, 1.3)]
    for r, q in exponents:
        space = SpaceSpec(r, q)
        for k in (1, 2, 3):
            x = random_grid(rng, 4, scale=2.0)
            jx = duality_map(x, space).values.ravel()
            u = rng.standard_normal((k, x.values.size))
            alphas = rng.normal(size=k)
            objective = _dual_objective(stacked(jx, u), alphas.tolist(), space, x.h)
            for t in (np.zeros(k), 0.3 * rng.normal(size=k)):
                out = np.full(x.values.size, np.nan)
                new = objective(t.tolist(), out)
                assert new[3] is out
                assert_same_evaluation(
                    new, allocating_objective(jx, u, alphas, space, x.h, t), alphas)


@pytest.mark.parametrize('r, q', [(3.0, 3.0), (5.0, 2.0), (4.0, 6.0), (2.0, 2.0),
                                  (1.5, 1.5), (1.2, 4.0)])
def test_evaluation_at_zeros_of_g_and_overflow_equals_the_allocating_formula(r, q):
    # Exact zeros of g: one that no u_k* touches (there J(x) = 0) and, at a
    # t where sum_k t_k u_k* meets J(x) exactly, one that they touch. With
    # r* < 2 (r > 2) |g|^(r*-2) is infinite there: x_t is 0, and the
    # Hessian is finite at the untouched zero and None at the touched one.
    # g = 0 altogether has no Hessian, and far out x_t overflows for r <= 2.
    space = SpaceSpec(r, q)
    rng = np.random.default_rng(54)
    h = 1.0 / 4.0
    for k in (1, 2, 3):
        jx = rng.standard_normal(9)
        u = rng.standard_normal((k, 9))
        alphas = rng.normal(size=k)
        jx[0], u[:, 0] = 0.0, 0.0
        u[:, 1], jx[1] = 1.0, 0.125 * k
        touching = np.full(k, 0.125)
        cases = [(jx, 0.3 * rng.normal(size=k)), (jx, touching), (np.zeros(9), np.zeros(k)),
                 (jx, np.full(k, 1e200)), (jx, np.full(k, -1e200))]
        with np.errstate(over='ignore', invalid='ignore', divide='ignore'):
            for dual_x, t in cases:
                objective = _dual_objective(stacked(dual_x, u), alphas.tolist(), space, h)
                new = objective(t.tolist(), np.empty(9))
                reference = allocating_objective(dual_x, u, alphas, space, h, t)
                assert_same_evaluation(new, reference, alphas)
                if t is touching:
                    assert new[3][:2].tolist() == [0.0, 0.0]
                    assert (new[2] is None) == (r > 2.0)
                if abs(t[0]) == 1e200 and r <= 2.0:
                    assert new is None


@pytest.mark.parametrize('q', [150.0, 2.0])
def test_evaluation_where_the_power_of_a_tiny_entry_overflows(q):
    # At r = 150 (r* = 1.0067) an entry 1e-320 of g has |g|^(r*-2) = inf
    # but |g|^(r*-1) = 0.007: x_t takes that value of J_inv there, and the
    # Hessian, unbounded at that entry, is None.
    space = SpaceSpec(150.0, q)
    rng = np.random.default_rng(56)
    jx = rng.standard_normal(9)
    jx[2] = 1e-320
    u = rng.standard_normal((2, 9))
    alphas = rng.normal(size=2)
    objective = _dual_objective(stacked(jx, u), alphas.tolist(), space, 0.25)
    with np.errstate(over='ignore', invalid='ignore', divide='ignore'):
        new = objective([0.0, 0.0], np.empty(9))
        reference = allocating_objective(jx, u, alphas, space, 0.25, np.zeros(2))
    assert_same_evaluation(new, reference, alphas)
    assert new[2] is None and new[3][2] != 0.0


def test_hessian_judgement_agrees_with_the_condition_number():
    # A Newton step is taken exactly where np.linalg.cond(H) < 1/eps, judged
    # in closed form for one and two planes and by the singular values
    # beyond: random symmetric matrices (mostly indefinite),
    # exactly singular and indefinite ones, and matrices with condition
    # number 1e15-1e17 around the threshold 4.5e15. Those are diagonal, up
    # to a permutation, so that both sides see their exact spectrum; for a
    # rotated one both would judge rounding noise in the small eigenvalue.
    rng = np.random.default_rng(51)
    limit = 1.0 / np.finfo(float).eps
    cases = [np.array(m, dtype=float) for m in (
        [[0.0]], [[-2.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]],
        [[3.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]],
        np.zeros((3, 3)), [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]],
        np.diag([1.0, 2.0, 0.0]), np.diag([1.0, -1.0, 2.0]))]
    for k in (1, 2, 3):
        for _ in range(100):
            a = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-3.0, 3.0)
            cases.append(a + a.T)
        for _ in range(20):
            rotation, _ = np.linalg.qr(rng.standard_normal((k, k)))
            m = (rotation * np.logspace(0.0, -2.0, k)) @ rotation.T
            cases.append(0.5 * (m + m.T))
    for cond in (1e15, 2e15, 4e15, 5e15, 1e16, 1e17):
        cases += [np.diag([1.0, 1.0 / cond]), np.diag([-1.0 / cond, 3.0]),
                  np.diag([1.0, -0.5, 1.0 / cond]), np.diag([2.0 / cond, 2.0, -1.0])]
    steps = [_newton_step(m, np.ones(len(m))) for m in cases]
    decisions = [step is not None for step in steps]
    assert decisions == [bool(np.linalg.cond(m) < limit) for m in cases]
    assert 0 < sum(decisions) < len(cases)
    for m, step in zip(cases, steps):
        if step is not None:  # H d = -grad, to a backward error of rounding size
            scale = np.abs(m).max() * np.abs(step).max() + 1.0
            assert np.abs(m @ step + 1.0).max() <= 1e-12 * scale


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_cond=st.floats(15.0, 17.0),
       middle=st.floats(0.0, 1.0), log_scale=st.floats(-3.0, 3.0))
def test_three_plane_hessian_judgement_agrees_with_exact_arithmetic(seed, log_cond, middle,
                                                                    log_scale):
    # Rotated positive definite 3 x 3 matrices with condition number
    # 1e15-1e17, around the threshold 1/eps = 4.5e15, judged against the
    # eigenvalues of the stored matrix in 60-digit arithmetic. The ratio of
    # the smallest to the largest singular value is off by up to about
    # 0.7 eps (3000 such matrices), so only matrices whose exact ratio lies
    # within a factor two of eps may go either way; eigvalsh, off by up to
    # about 1.5 eps, misjudges some outside that band.
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    spectrum = 10.0 ** log_scale * 10.0 ** (-log_cond * np.array([0.0, middle, 1.0]))
    hessian = (rotation * spectrum) @ rotation.T
    hessian = 0.5 * (hessian + hessian.T)
    grad = np.ones(3)
    with mpmath.workdps(60):
        moduli = sorted(abs(value) for value in mpmath.eigsy(
            mpmath.matrix(hessian.tolist()), eigvals_only=True))
        ratio = float(moduli[0] / moduli[-1])
    eps = np.finfo(float).eps
    if not 0.5 * eps <= ratio <= 2.0 * eps:
        assert (_newton_step(hessian, grad) is None) == (ratio <= eps)
    assert (_newton_step(hessian.tolist(), grad.tolist()) is None) == (
        _newton_step(hessian, grad) is None)


def test_project_intersection_hilbert_orthogonal_oracle():
    # Two dual directions with disjoint supports are orthogonal, so the
    # coefficients decouple into single-plane values.
    rng = np.random.default_rng(15)
    n = 3
    space = hilbert_space(n)
    x = random_grid(rng, n)
    left = np.zeros((n + 2, n + 2))
    left[:, :2] = rng.standard_normal((n + 2, 2))
    right = np.zeros((n + 2, n + 2))
    right[:, 3:] = rng.standard_normal((n + 2, 2))
    planes = [(GridFunction(left), 0.7), (GridFunction(right), -0.4)]
    x_new, t = project_intersection(x, planes, space)
    for coeff, (u, alpha) in zip(t, planes):
        gap = dual_pairing(u, x) - alpha
        assert coeff == pytest.approx(gap / dual_pairing(u, u), rel=1e-8, abs=1e-10)
    oracle, _ = gram_projection(x, planes, space)
    np.testing.assert_allclose(x_new.values, oracle.values, rtol=1e-8, atol=1e-10)


def test_project_intersection_hilbert_three_plane_oracle():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        space = hilbert_space(n)
        x = random_grid(rng, n, scale=float(rng.uniform(0.3, 3.0)))
        planes = [(random_grid(rng, n), float(rng.normal())) for _ in range(3)]
        x_new, t = project_intersection(x, planes, space)
        oracle, coeffs = gram_projection(x, planes, space)
        np.testing.assert_allclose(x_new.values, oracle.values, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(t, coeffs, rtol=1e-7, atol=1e-8)


def test_project_intersection_general_exponent_feasibility():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        space = SpaceSpec(1.5, 2.0)
        x = random_grid(rng, n, scale=float(rng.uniform(0.3, 3.0)))
        planes = [(random_grid(rng, n), float(0.2 * rng.normal())) for _ in range(2)]
        x_new, _ = project_intersection(x, planes, space)
        for u, alpha in planes:
            feas = 1e-8 * (1.0 + abs(alpha)
                           + weighted_norm(u, space.dual()) * weighted_norm(x, space))
            assert abs(dual_pairing(u, x_new) - alpha) <= feas


@pytest.mark.parametrize('r, q', [(1.5, 1.5), (3.0, 2.0), (2.0, 2.0)])
def test_a_second_projection_leaves_the_first_result_alone(r, q):
    # A projection computes its points in arrays of its own: a second one,
    # onto one plane or two, leaves the first result unchanged and shares
    # no memory with it, and repeating the first gives the same bits.
    rng = np.random.default_rng(48)
    space = SpaceSpec(r, q)
    x = random_grid(rng, 6, scale=2.0)
    planes = [(random_grid(rng, 6), float(rng.normal())) for _ in range(3)]
    first, t_first = project_intersection(x, planes[:1], space)
    assert t_first[0] != 0.0
    kept = first.values.copy()
    second, _ = project_intersection(x, planes[1:], space)
    assert first.values.tobytes() == kept.tobytes()
    assert not np.shares_memory(first.values, second.values)
    assert not np.shares_memory(first.values, x.values)
    again, _ = project_intersection(x, planes[:1], space)
    assert again.values.tobytes() == kept.tobytes()


def test_projected_point_is_the_image_of_its_coefficients_bitwise():
    # The iteration keeps the accepted point while it writes trials to a
    # second array: the point returned is exactly x_t of the t returned,
    # also where the last trial or the final polishing step was rejected.
    rng = np.random.default_rng(49)
    for r, q in [(1.5, 1.5), (3.0, 3.0), (1.2, 2.0), (6.0, 6.0)]:
        space = SpaceSpec(r, q)
        for k in (1, 2):
            for _ in range(15):
                x = random_grid(rng, 5, scale=float(rng.uniform(0.3, 3.0)))
                planes = [(random_grid(rng, 5), float(rng.normal())) for _ in range(k)]
                x_new, t = project_intersection(x, planes, space)
                x_t = dual_objective(x, planes, space)(t.tolist(), np.empty(x.values.size))[3]
                assert x_new.values.tobytes() == x_t.tobytes()


def test_project_intersection_warns_on_parallel_directions(caplog):
    rng = np.random.default_rng(18)
    x = random_grid(rng)
    u = random_grid(rng)
    space = SpaceSpec(2.0, 2.0)
    planes = [(u, 0.5), (2.0 * u, 1.7)]
    with caplog.at_level(logging.WARNING, logger='resesop.bregman_geometry'):
        x_new, t = project_intersection(x, planes, space)
    assert any('parallel' in record.message for record in caplog.records)
    fallback, _ = project_intersection(x, [(u, 0.5)], space)
    np.testing.assert_allclose(x_new.values, fallback.values, rtol=1e-12)
    assert t[1] == 0.0


def test_project_intersection_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(bregman_geometry, 'MAX_NEWTON_ITERS', 1)
    rng = np.random.default_rng(19)
    x = random_grid(rng, 3, scale=3.0)
    planes = [(random_grid(rng, 3), 0.9), (random_grid(rng, 3), -1.3)]
    space = SpaceSpec(1.5, 2.0)
    with pytest.raises(ConvergenceError) as info:
        project_intersection(x, planes, space)
    assert info.value.last_t is not None
    assert info.value.grad_norm > 0.0


def test_project_stripe_cases():
    rng = np.random.default_rng(20)
    n = 3
    space = SpaceSpec(1.5, 2.0)
    x = random_grid(rng, n)
    u = random_grid(rng, n)
    value = dual_pairing(u, x)

    inside = Stripe(u, value, 0.5)
    x_same, t = project_two_stage(x, inside, None, space)
    assert t == (0.0,) and x_same is x

    above = Stripe(u, value - 2.0, 0.5)
    x_new, (t,) = project_two_stage(x, above, None, space)
    x_plane, (t_plane,) = project_intersection(x, [(u, above.alpha + above.xi)], space)
    np.testing.assert_allclose(x_new.values, x_plane.values, rtol=1e-12)
    assert t == pytest.approx(t_plane, rel=1e-12)

    below = Stripe(u, value + 2.0, 0.5)
    x_new, _ = project_two_stage(x, below, None, space)
    x_plane, _ = project_intersection(x, [(u, below.alpha - below.xi)], space)
    np.testing.assert_allclose(x_new.values, x_plane.values, rtol=1e-12)

    degenerate = Stripe(u, value - 2.0, 0.0)
    x_new, _ = project_two_stage(x, degenerate, None, space)
    x_plane, _ = project_intersection(x, [(u, degenerate.alpha)], space)
    np.testing.assert_allclose(x_new.values, x_plane.values, rtol=1e-12)


def test_project_stripe_hilbert_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        space = hilbert_space(n)
        x = random_grid(rng, n)
        u = random_grid(rng, n)
        alpha = float(rng.normal())
        xi = float(rng.uniform(0.0, 0.5))
        x_new, _ = project_two_stage(x, Stripe(u, alpha, xi), None, space)
        gap = dual_pairing(u, x) - alpha
        shift = max(abs(gap) - xi, 0.0) * np.sign(gap)
        expected = x.values - (shift / dual_pairing(u, u)) * u.values
        np.testing.assert_allclose(x_new.values, expected, rtol=1e-8, atol=1e-10)


def test_project_two_stage_inside_both_stripes_untouched():
    rng = np.random.default_rng(22)
    x = random_grid(rng)
    space = SpaceSpec(1.5, 2.0)
    u1, u2 = random_grid(rng), random_grid(rng)
    stripe = Stripe(u1, dual_pairing(u1, x) + 0.5, 1.0)
    previous = Stripe(u2, dual_pairing(u2, x) - 0.5, 1.0)
    x_new, t = project_two_stage(x, stripe, previous, space)
    assert x_new is x
    assert t == (0.0,)


def test_project_two_stage_hilbert_kkt_oracle():
    # x above the current stripe and inside the previous one: the result is
    # the metric projection onto the current upper halfspace intersected
    # with the previous stripe, whose two bounds are never both active.
    rng = np.random.default_rng(23)
    planes_used = set()
    for _ in range(100):
        n = int(rng.integers(1, 6))
        space = hilbert_space(n)
        x = random_grid(rng, n, scale=float(rng.uniform(0.3, 3.0)))
        u1, u2 = random_grid(rng, n), random_grid(rng, n)
        xi = float(rng.uniform(0.0, 0.5))
        stripe = Stripe(u1, dual_pairing(u1, x) - xi - float(rng.uniform(0.1, 2.0)), xi)
        prev_xi = float(rng.uniform(0.05, 1.0))
        previous = Stripe(u2, dual_pairing(u2, x)
                          - float(rng.uniform(-1.0, 1.0)) * prev_xi, prev_xi)
        x_new, t = project_two_stage(x, stripe, previous, space)
        planes_used.add(len(t))
        halves = [(u1, stripe.alpha + stripe.xi), (u2, previous.alpha + previous.xi),
                  (u2 * -1.0, previous.xi - previous.alpha)]
        oracle = kkt_halfspace_oracle(x, halves, space, masks=(0, 1, 2, 4, 3, 5))
        np.testing.assert_allclose(x_new.values, oracle.values, rtol=1e-8, atol=1e-8)
    assert planes_used == {1, 2}  # both stages exercised


def test_project_two_stage_perpendicular_normals():
    # Disjoint supports make the normals orthogonal: sequential projections
    # solve the problem exactly, and the pair stage reproduces them. Here x
    # lies above both stripes, so the stage-one point leaves the previous one.
    rng = np.random.default_rng(24)
    n = 3
    space = hilbert_space(n)
    x = random_grid(rng, n)
    left = np.zeros((n + 2, n + 2))
    left[:2, :] = rng.standard_normal((2, n + 2))
    right = np.zeros((n + 2, n + 2))
    right[3:, :] = rng.standard_normal((2, n + 2))
    u1, u2 = GridFunction(left), GridFunction(right)
    stripe = Stripe(u1, dual_pairing(u1, x) - 1.25, 0.25)
    previous = Stripe(u2, dual_pairing(u2, x) - 0.75, 0.25)
    x_new, (t1, t2) = project_two_stage(x, stripe, previous, space)
    # The result lies on the upper bound of the previous stripe.
    bound = previous.alpha + previous.xi
    assert dual_pairing(u2, x_new) == pytest.approx(bound, abs=1e-10)
    oracle = kkt_halfspace_oracle(x, [(u1, stripe.alpha + stripe.xi), (u2, bound)], space)
    np.testing.assert_allclose(x_new.values, oracle.values, rtol=1e-8, atol=1e-10)
    assert t1 == pytest.approx(1.0 / dual_pairing(u1, u1), rel=1e-7)
    assert t2 == pytest.approx(0.5 / dual_pairing(u2, u2), rel=1e-7)


def test_descent_property_hyperplane():
    rng = np.random.default_rng(25)
    n = 4
    space = SpaceSpec(1.5, 2.0)
    for _ in range(30):
        x = random_grid(rng, n, scale=float(rng.uniform(0.3, 3.0)))
        u = random_grid(rng, n)
        alpha = float(rng.normal())
        x_new, _ = project_intersection(x, [(u, alpha)], space)
        z = affine_member(rng, [(u, alpha)], space, n)
        lhs = bregman_distance(x_new, z, space)
        rhs = bregman_distance(x, z, space) - bregman_distance(x, x_new, space)
        assert lhs <= rhs + 1e-9


def test_descent_property_intersection():
    rng = np.random.default_rng(26)
    n = 4
    space = SpaceSpec(1.5, 2.0)
    for _ in range(20):
        x = random_grid(rng, n, scale=float(rng.uniform(0.3, 2.0)))
        planes = [(random_grid(rng, n), float(0.3 * rng.normal())) for _ in range(2)]
        x_new, _ = project_intersection(x, planes, space)
        z = affine_member(rng, planes, space, n)
        lhs = bregman_distance(x_new, z, space)
        rhs = bregman_distance(x, z, space) - bregman_distance(x, x_new, space)
        assert lhs <= rhs + 1e-9
