"""Property tests of the duality maps and Bregman projections over random
exponents and grids.

Norm and gauge exponents range over [1.2, 6], so both singular (r* < 2) and
degenerate (r* > 2) weights of the dual Hessian occur, with and without its
rank-one term. Each projection example projects a random point onto one or
two random hyperplanes, or takes the two-stage step of the two-direction
method. The duality-map and Bregman-distance examples use the tolerances of
acceptance criteria 1 and 2. Hypothesis runs derandomized, so the examples
are the same on every run.
"""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from resesop.bregman_geometry import (
    ConvergenceError,
    Stripe,
    project_intersection,
    project_two_stage,
)
from resesop.lp_spaces import (
    GridFunction,
    SpaceSpec,
    bregman_distance,
    conjugate_exponent,
    dual_pairing,
    duality_map,
    inverse_duality_map,
    weighted_norm,
)

EXPONENT = st.floats(min_value=1.2, max_value=6.0)
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40,
                             database=None)


def _instance(r, q, k, n, seed):
    rng = np.random.default_rng(seed)
    space = SpaceSpec(r, q)
    x = GridFunction(rng.uniform(0.3, 3.0) * rng.standard_normal((n + 2, n + 2)))
    planes = [(GridFunction(rng.standard_normal((n + 2, n + 2))), float(rng.normal()))
              for _ in range(k)]
    return rng, space, x, planes


def _feasibility_slack(x, u, alpha, space):
    return 1e-8 * (1.0 + abs(alpha) + weighted_norm(u, space.dual()) * weighted_norm(x, space))


def _member(rng, planes, space):
    """A random point on every plane."""
    shape = planes[0][0].values.shape
    base = rng.standard_normal(shape)
    directions = [rng.standard_normal(shape) for _ in planes]
    matrix = np.array([[dual_pairing(u, GridFunction(d), space) for d in directions]
                       for u, _ in planes])
    rhs = np.array([alpha - dual_pairing(u, GridFunction(base), space) for u, alpha in planes])
    coeffs = np.linalg.solve(matrix, rhs)
    return GridFunction(base + sum(c * d for c, d in zip(coeffs, directions)))


@PROPERTY_SETTINGS
@given(r=EXPONENT, q=EXPONENT, k=st.sampled_from([1, 2]), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
# An entry of g crosses zero at the minimizer (r* = 1.25): unsafeguarded
# Newton steps overshoot and oscillate there.
@example(r=5.0, q=2.0, k=1, n=1, seed=753184)
def test_projection_is_feasible_and_satisfies_the_descent_inequality(r, q, k, n, seed):
    rng, space, x, planes = _instance(r, q, k, n, seed)
    x_new, _ = project_intersection(x, planes, space)
    for u, alpha in planes:
        assert abs(dual_pairing(u, x_new, space) - alpha) <= _feasibility_slack(x, u, alpha, space)
    # D(x_new, z) <= D(x, z) - D(x, x_new) for every z on all planes.
    z = _member(rng, planes, space)
    before = bregman_distance(x, z, space)
    after = bregman_distance(x_new, z, space)
    assert after <= before - bregman_distance(x, x_new, space) + 1e-9 * (1.0 + before)


@PROPERTY_SETTINGS
@given(r=EXPONENT, q=EXPONENT, k=st.sampled_from([1, 2]), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_feasible_point_is_returned_with_zero_coefficients(r, q, k, n, seed):
    _, space, x, planes = _instance(r, q, k, n, seed)
    on_planes = [(u, dual_pairing(u, x, space)) for u, _ in planes]
    x_new, t = project_intersection(x, on_planes, space)
    assert x_new is x
    assert np.all(t == 0.0)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.mark.parametrize('r, q, k', [(1.5, 1.5, 1), (1.2, 2.0, 1), (3.0, 1.5, 1),
                                     (1.5, 1.5, 2), (2.0, 1.2, 2)])
@pytest.mark.parametrize('t_start', [1e200, -1e200, 1e100, 1e60, 1e40])
def test_overflowing_coefficients_give_a_finite_point_or_a_typed_error(r, q, k, t_start):
    # Far from the minimizer J_inv(J(x) - t u*) overflows. Such a start or
    # trial point is rejected: the projection returns a feasible finite
    # point or raises ConvergenceError, with no numpy warning on the way.
    _, space, x, planes = _instance(r, q, k, 4, 5)
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        try:
            x_new, t = project_intersection(x, planes, space,
                                            t_init=[t_start] + [0.0] * (k - 1))
        except ConvergenceError:
            return
    assert np.isfinite(t).all()
    for u, alpha in planes:
        assert abs(dual_pairing(u, x_new, space) - alpha) <= _feasibility_slack(
            x, u, alpha, space)


@pytest.mark.parametrize('r, q, k', [(1.5, 1.5, 1), (1.2, 2.0, 1), (3.0, 1.5, 1),
                                     (1.5, 1.5, 2), (2.0, 1.2, 2)])
@pytest.mark.parametrize('t_start', [1e200, -1e200, 1e100, 1e60, 1e40, 1e20, 1e300])
def test_far_warm_start_returns_the_default_start_coefficients(r, q, k, t_start):
    # A start uphill of t = 0 (where h is higher or not finite) is replaced
    # by 0, so no far start exhausts the Newton budget coming back, and an
    # overflowing inverse duality map never passes for a low value of h.
    _, space, x, planes = _instance(r, q, k, 4, 5)
    _, t_default = project_intersection(x, planes, space)
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        _, t = project_intersection(x, planes, space, t_init=[t_start] + [0.0] * (k - 1))
    np.testing.assert_allclose(t, t_default, rtol=1e-8)


@PROPERTY_SETTINGS
@given(r=EXPONENT, q=EXPONENT, n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       factor=st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: abs(v) > 0.1))
def test_near_parallel_pair_falls_back_to_the_first_plane(r, q, n, seed, factor):
    rng, space, x, planes = _instance(r, q, 1, n, seed)
    u, alpha = planes[0]
    # A relative perturbation of 1e-8 leaves the cosine within 1e-12 of 1.
    tilt = rng.standard_normal(u.values.shape)
    tilt *= 1e-8 * abs(factor) * np.linalg.norm(u.values) / np.linalg.norm(tilt)
    pair = [(u, alpha), (GridFunction(factor * u.values + tilt), float(rng.normal()))]
    handler = _Records()
    logger = logging.getLogger('resesop.bregman_geometry')
    logger.addHandler(handler)
    try:
        x_new, t = project_intersection(x, pair, space)
    finally:
        logger.removeHandler(handler)
    assert any('parallel' in message for message in handler.messages)
    x_one, (t_one,) = project_intersection(x, [(u, alpha)], space)
    np.testing.assert_array_equal(x_new.values, x_one.values)
    assert t[0] == t_one and t[1] == 0.0


@PROPERTY_SETTINGS
@given(r=EXPONENT, q=EXPONENT, n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_two_stage_step_is_feasible_and_satisfies_the_descent_inequality(r, q, n, seed):
    # x lies above the current stripe and inside the previous one, as the
    # iterates of the two-direction method do.
    rng, space, x, planes = _instance(r, q, 2, n, seed)
    (u, _), (v, _) = planes
    xi, prev_xi = rng.uniform(0.0, 0.5), rng.uniform(0.05, 1.0)
    stripe = Stripe(u, dual_pairing(u, x, space) - xi - rng.uniform(0.1, 2.0), xi)
    previous = Stripe(v, dual_pairing(v, x, space) - rng.uniform(-1.0, 1.0) * prev_xi, prev_xi)
    x_new, _ = project_two_stage(x, stripe, previous, space)
    upper = stripe.alpha + stripe.xi
    assert dual_pairing(u, x_new, space) - upper <= _feasibility_slack(x, u, upper, space)
    bound = previous.alpha + previous.xi
    assert (abs(dual_pairing(v, x_new, space) - previous.alpha) - previous.xi
            <= _feasibility_slack(x, v, bound, space))
    # D(x_new, z) <= D(x, z) - D(x, x_new) for z in the upper halfspace of the
    # current stripe intersected with the previous stripe.
    z = _member(rng, [(u, upper - rng.uniform(0.1, 1.0)),
                      (v, previous.alpha + rng.uniform(-1.0, 1.0) * prev_xi)], space)
    before = bregman_distance(x, z, space)
    after = bregman_distance(x_new, z, space)
    assert after <= before - bregman_distance(x, x_new, space) + 1e-9 * (1.0 + before)


def _random_grid(seed, n, scale):
    rng = np.random.default_rng(seed)
    return rng, GridFunction(scale * rng.standard_normal((n + 2, n + 2)))


GRID = dict(n=st.integers(1, 12), scale=st.floats(min_value=0.05, max_value=20.0),
            seed=st.integers(0, 2 ** 32 - 1))


@PROPERTY_SETTINGS
@given(r=EXPONENT, q=EXPONENT, **GRID)
def test_duality_map_identities(r, q, n, scale, seed):
    # <J f, f> = ||f||^q, ||J f||_* = ||f||^(q-1) and J_inv(J f) = f
    # (acceptance criterion 1).
    _, f = _random_grid(seed, n, scale)
    space = SpaceSpec(r, q)
    mapped = duality_map(f, space)
    norm = weighted_norm(f, space)
    assert abs(dual_pairing(mapped, f, space) - norm ** q) <= 1e-10 * norm ** q
    assert (abs(weighted_norm(mapped, space.dual()) - norm ** (q - 1.0))
            <= 1e-10 * norm ** (q - 1.0))
    assert weighted_norm(inverse_duality_map(mapped, space) - f, space) <= 1e-10 * norm


@PROPERTY_SETTINGS
@given(r=EXPONENT, q=EXPONENT, **GRID)
def test_bregman_distance_forms_agree(r, q, n, scale, seed):
    # bregman_distance agrees with the defining form of D(x, x_new) and with
    # its three-point rewrite (acceptance criterion 2); it is nonnegative
    # and zero at x_new = x.
    rng, x = _random_grid(seed, n, scale)
    x_new = GridFunction(rng.uniform(0.05, 20.0) * rng.standard_normal(x.values.shape))
    space = SpaceSpec(r, q)
    value = bregman_distance(x, x_new, space)
    jx = duality_map(x, space)
    norm_x, norm_new = weighted_norm(x, space), weighted_norm(x_new, space)
    form_one = norm_new ** q / q - norm_x ** q / q - dual_pairing(jx, x_new - x, space)
    form_three = ((norm_x ** q - norm_new ** q) / conjugate_exponent(q)
                  + dual_pairing(duality_map(x_new, space) - jx, x_new, space))
    allowance = 1e-10 * (1.0 + abs(value))
    assert abs(value - form_one) <= allowance
    assert abs(value - form_three) <= allowance
    assert value >= 0.0
    assert bregman_distance(x, x, space) == 0.0
