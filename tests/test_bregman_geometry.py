"""Tests for Bregman projections against closed-form and QP oracles.

In the Hilbert reduction (norm and gauge exponent 2) every Bregman
projection is the metric projection, for which small dense oracles are
assembled here from the weighted Gram matrix and explicit KKT enumeration.
The general-exponent paths are validated through feasibility, idempotence,
finite-difference checks of the dual objective's analytic gradient and
Hessian, and the descent property.
"""

import logging

import numpy as np
import pytest

from resesop import bregman_geometry
from resesop.bregman_geometry import (
    ConvergenceError,
    Stripe,
    StripeSide,
    _dual_objective,
    _well_conditioned,
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
    gram = np.array([[dual_pairing(u, v, space) for v, _ in planes] for u, _ in planes])
    gaps = np.array([dual_pairing(u, x, space) - alpha for u, alpha in planes])
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
        if all(dual_pairing(u, z, space) - alpha <= slack for u, alpha in halves):
            return z
    raise AssertionError('KKT enumeration found no feasible point')


def affine_member(rng, planes, space, n):
    """Random point lying exactly on every plane (for descent-property z)."""
    base = random_grid(rng, n)
    directions = [random_grid(rng, n) for _ in planes]
    matrix = np.array([[dual_pairing(u, d, space) for d in directions]
                       for u, _ in planes])
    rhs = np.array([alpha - dual_pairing(u, base, space) for u, alpha in planes])
    coeffs = np.linalg.solve(matrix, rhs)
    values = base.values.copy()
    for c, d in zip(coeffs, directions):
        values += c * d.values
    return GridFunction(values)


def test_classify_boundary_cases():
    # N=1 grid, weight 1/4: constant functions give dyadic pairings, so the
    # stripe boundary comparisons below are exact in floating point.
    u = GridFunction.full(1, 1.0)
    space = hilbert_space(1)
    stripe = Stripe(u, 2.0, 0.25)
    assert dual_pairing(u, GridFunction.full(1, 1.0), space) == 2.25
    assert classify(GridFunction.full(1, 1.0), stripe, space) is StripeSide.INSIDE
    assert classify(GridFunction.full(1, 8.0 / 9.0), stripe, space) is StripeSide.INSIDE
    assert classify(GridFunction.full(1, 2.0), stripe, space) is StripeSide.ABOVE
    assert classify(GridFunction.zeros(1), stripe, space) is StripeSide.BELOW


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
        gap = dual_pairing(u, x, space) - alpha
        t_expected = gap / dual_pairing(u, u, space)
        expected = GridFunction(x.values - t_expected * u.values)
        np.testing.assert_allclose(x_new.values, expected.values, rtol=1e-8, atol=1e-10)
        assert t == pytest.approx(t_expected, rel=1e-8, abs=1e-12)


def test_project_hyperplane_already_on_plane():
    rng = np.random.default_rng(11)
    x = random_grid(rng)
    u = random_grid(rng)
    space = SpaceSpec(1.5, 2.0)
    alpha = dual_pairing(u, x, space)
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
            assert abs(dual_pairing(u, x_new, space) - alpha) <= feas
            again, _ = project_intersection(x_new, [(u, alpha)], space)
            assert weighted_norm(again - x_new, space) < 1e-8


def test_project_hyperplane_rejects_zero_direction():
    x = GridFunction.full(2, 1.0)
    with pytest.raises(ValueError):
        project_intersection(x, [(GridFunction.zeros(2), 1.0)],
                             SpaceSpec(2.0, 2.0))


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
            jx = duality_map(x, space)
            planes = [(random_grid(rng, n), float(rng.normal())) for _ in range(2)]
            t = rng.normal(size=2) * 0.3
            objective = _dual_objective(
                x.values.ravel(), jx.values.ravel(),
                np.array([u.values.ravel() for u, _ in planes]),
                np.array([alpha for _, alpha in planes]), space, x.h)
            _, grad, hessian, _ = objective(t)
            np.testing.assert_allclose(hessian, hessian.T, rtol=1e-12, atol=1e-14)
            for j in range(2):
                step = 1e-6 * (1.0 + abs(t[j]))
                t_hi = t.copy()
                t_hi[j] += step
                t_lo = t.copy()
                t_lo[j] -= step
                value_hi, grad_hi, _, _ = objective(t_hi)
                value_lo, grad_lo, _, _ = objective(t_lo)
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
    objective = _dual_objective(x.values.ravel(), duality_map(x, space).values.ravel(),
                                u.values.ravel()[None, :], np.array([0.3]), space, x.h)
    with np.errstate(over='ignore', invalid='ignore'):
        assert objective(np.array([1e200])) is None
        assert objective(np.array([-1e200])) is None
    value, grad, hessian, x_t = objective(np.array([0.1]))
    assert np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(x_t).all()
    assert hessian is not None


def test_hessian_judgement_agrees_with_the_condition_number():
    # The eigenvalue test stands for np.linalg.cond(H) < 1/eps, which an
    # SVD used to decide: random symmetric matrices (mostly indefinite),
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
    decisions = [_well_conditioned(m) for m in cases]
    assert decisions == [bool(np.linalg.cond(m) < limit) for m in cases]
    assert 0 < sum(decisions) < len(cases)


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
        gap = dual_pairing(u, x, space) - alpha
        assert coeff == pytest.approx(gap / dual_pairing(u, u, space), rel=1e-8, abs=1e-10)
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
            assert abs(dual_pairing(u, x_new, space) - alpha) <= feas


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
    value = dual_pairing(u, x, space)

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
        gap = dual_pairing(u, x, space) - alpha
        shift = max(abs(gap) - xi, 0.0) * np.sign(gap)
        expected = x.values - (shift / dual_pairing(u, u, space)) * u.values
        np.testing.assert_allclose(x_new.values, expected, rtol=1e-8, atol=1e-10)


def test_project_two_stage_inside_both_stripes_untouched():
    rng = np.random.default_rng(22)
    x = random_grid(rng)
    space = SpaceSpec(1.5, 2.0)
    u1, u2 = random_grid(rng), random_grid(rng)
    stripe = Stripe(u1, dual_pairing(u1, x, space) + 0.5, 1.0)
    previous = Stripe(u2, dual_pairing(u2, x, space) - 0.5, 1.0)
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
        stripe = Stripe(u1, dual_pairing(u1, x, space) - xi - float(rng.uniform(0.1, 2.0)), xi)
        prev_xi = float(rng.uniform(0.05, 1.0))
        previous = Stripe(u2, dual_pairing(u2, x, space)
                          - float(rng.uniform(-1.0, 1.0)) * prev_xi, prev_xi)
        x_new, t = project_two_stage(x, stripe, previous, space)
        planes_used.add(len(t))
        halves = [(u1, stripe.alpha + stripe.xi), (u2, previous.alpha + previous.xi),
                  (-u2, previous.xi - previous.alpha)]
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
    stripe = Stripe(u1, dual_pairing(u1, x, space) - 1.25, 0.25)
    previous = Stripe(u2, dual_pairing(u2, x, space) - 0.75, 0.25)
    x_new, (t1, t2) = project_two_stage(x, stripe, previous, space)
    # The result lies on the upper bound of the previous stripe.
    bound = previous.alpha + previous.xi
    assert dual_pairing(u2, x_new, space) == pytest.approx(bound, abs=1e-10)
    oracle = kkt_halfspace_oracle(x, [(u1, stripe.alpha + stripe.xi), (u2, bound)], space)
    np.testing.assert_allclose(x_new.values, oracle.values, rtol=1e-8, atol=1e-10)
    assert t1 == pytest.approx(1.0 / dual_pairing(u1, u1, space), rel=1e-7)
    assert t2 == pytest.approx(0.5 / dual_pairing(u2, u2, space), rel=1e-7)


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
