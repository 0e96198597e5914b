"""Tests for discrete Lp norms, pairings, duality maps and Bregman distances.

Hand-derived reference values are frozen as literals; identity checks
evaluate both sides of the defining equations independently.
"""

import itertools

import mpmath
import numpy as np
import pytest

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

# (norm exponent r, gauge q) pairs exercised throughout.
EXPONENT_PAIRS = [(1.5, 2.0), (2.0, 2.0), (5.0, 2.0), (3.0, 3.0)]


def random_grid(rng, n=6, scale=1.0):
    return GridFunction(scale * rng.standard_normal((n + 2, n + 2)))


def test_conjugate_exponent_values():
    # 1/p + 1/p* = 1: these three are exact in binary floating point.
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.5) == 3.0
    assert conjugate_exponent(5.0) == 1.25
    for p in (1.1, 1.5, 2.0, 3.0, 7.3):
        assert 1.0 / p + 1.0 / conjugate_exponent(p) == pytest.approx(1.0, rel=1e-15)


def test_conjugate_exponent_rejects_bad_input():
    for p in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(ValueError):
            conjugate_exponent(p)
    for p in (np.inf, np.nan):
        with pytest.raises(ValueError, match='got {}'.format(p)):
            conjugate_exponent(p)


def test_grid_function_basic_properties():
    f = GridFunction(np.arange(9.0).reshape(3, 3))
    assert f.n_interior == 1
    assert f.h == 0.5
    assert f.interior.shape == (1, 1)
    assert f.interior[0, 0] == 4.0


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        GridFunction(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        GridFunction(np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        GridFunction(np.array([[1.0, 2.0, np.inf]] * 3))


def test_grid_function_is_immutable():
    f = GridFunction.zeros(2)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0
    source = np.ones((4, 4))
    g = GridFunction(source)
    source[0, 0] = 7.0  # the constructor must have copied
    assert g.values[0, 0] == 1.0


def test_fresh_arrays_are_adopted_without_a_copy_but_with_every_check():
    values = np.arange(16.0).reshape(4, 4)
    adopted = GridFunction._adopt(values)
    assert adopted.values is values
    assert not values.flags.writeable
    assert adopted == GridFunction(np.arange(16.0).reshape(4, 4))
    for bad in (np.zeros((3, 4)), np.zeros((2, 2)), np.full((3, 3), np.nan),
                np.array([[1.0, 2.0, np.inf]] * 3)):
        with pytest.raises(ValueError):
            GridFunction._adopt(bad)
    # What the package builds from fresh arrays is as read-only as the rest.
    f = GridFunction.full(2, 1.5)
    built = (f + f, f - f, 2.0 * f, f * -1.0,
             GridFunction.from_interior(np.ones((2, 2))),
             duality_map(f, SpaceSpec(3.0, 2.0)))
    for grid in built:
        with pytest.raises(ValueError):
            grid.values[0, 0] = 1.0
    with pytest.raises(ValueError, match='finite'):
        GridFunction.from_interior(np.array([[np.nan]]))


def test_grid_function_arithmetic():
    rng = np.random.default_rng(0)
    f = random_grid(rng, n=3)
    g = random_grid(rng, n=3)
    np.testing.assert_allclose((f + g).values, f.values + g.values)
    np.testing.assert_allclose((f - g).values, f.values - g.values)
    np.testing.assert_allclose((2.5 * f).values, 2.5 * f.values)
    np.testing.assert_allclose((f * 2.5).values, 2.5 * f.values)
    assert np.array_equal((f * -1.0).values, -f.values)
    assert f == GridFunction(f.values.copy())
    assert not f == g


def test_grid_function_constructors():
    z = GridFunction.zeros(3)
    assert z.values.shape == (5, 5)
    assert np.all(z.values == 0.0)
    c = GridFunction.full(3, 2.5)
    assert np.all(c.values == 2.5)
    f = GridFunction.from_interior(np.ones((3, 3)))
    assert f.values[0, 0] == 0.0
    assert f.values[2, 2] == 1.0


def test_space_spec_validation_and_dual():
    dual = SpaceSpec(1.5, 2.0).dual()
    assert dual.norm_exponent == 3.0
    assert dual.gauge_exponent == 2.0
    with pytest.raises(ValueError):
        SpaceSpec(1.0, 2.0)
    with pytest.raises(ValueError):
        SpaceSpec(2.0, 1.0)
    # An infinite exponent would measure a grid of twos as 1.0.
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match='norm exponent .* got {}'.format(bad)):
            SpaceSpec(bad, 2.0)
        with pytest.raises(ValueError, match='gauge exponent .* got {}'.format(bad)):
            SpaceSpec(2.0, bad)


def test_one_space_measures_each_grid_with_its_own_weight():
    # A space is its two exponents; the weight h^2 comes from the grid. On
    # grids of ones with N = 1 (h = 1/2, 9 nodes) and N = 5 (h = 1/6, 49
    # nodes) the 2-norm is h * sqrt(nodes) and the pairing h^2 * nodes.
    space = SpaceSpec(2.0, 2.0)
    for n, norm, pairing in ((1, 1.5, 2.25), (5, 7.0 / 6.0, 49.0 / 36.0)):
        ones = GridFunction.full(n, 1.0)
        assert weighted_norm(ones, space) == pytest.approx(norm, rel=1e-15)
        assert dual_pairing(ones, ones) == pytest.approx(pairing, rel=1e-15)
    # Off the Hilbert case too: the p-norm carries h^(2/p) of its own grid.
    space = SpaceSpec(3.0, 1.5)
    for n in (1, 5):
        ones = GridFunction.full(n, 1.0)
        h = 1.0 / (n + 1)
        expected = h ** (2.0 / 3.0) * (n + 2) ** (2.0 / 3.0)
        assert weighted_norm(ones, space) == pytest.approx(expected, rel=1e-14)
        assert dual_pairing(duality_map(ones, space), ones) == pytest.approx(
            expected ** 1.5, rel=1e-12)


def test_weighted_norm_hand_values():
    # N=1: 3x3 grid of ones, h=1/2; p=2 gives 0.5*sqrt(9) = 1.5.
    f = GridFunction.full(1, 1.0)
    assert weighted_norm(f, SpaceSpec(2.0, 2.0)) == pytest.approx(1.5, rel=1e-15)
    # Single nonzero entry a: norm is h^(2/p) * |a| for every p.
    for p in (1.5, 2.0, 5.0):
        values = np.zeros((4, 4))
        values[2, 1] = -3.0
        g = GridFunction(values)
        expected = g.h ** (2.0 / p) * 3.0
        assert weighted_norm(g, SpaceSpec(p, 2.0)) == pytest.approx(expected, rel=1e-14)
    assert weighted_norm(GridFunction.zeros(5), SpaceSpec(1.5, 2.0)) == 0.0


def test_weighted_norm_homogeneity():
    rng = np.random.default_rng(1)
    f = random_grid(rng)
    for p, _ in EXPONENT_PAIRS:
        space = SpaceSpec(p, 2.0)
        base = weighted_norm(f, space)
        for lam in (-3.0, 0.25, 7.5):
            assert weighted_norm(lam * f, space) == pytest.approx(abs(lam) * base, rel=1e-14)


def test_dual_pairing_hand_value_and_errors():
    # N=1, g = f = 1: h^2 * 9 = 0.25 * 9 = 2.25.
    f = GridFunction.full(1, 1.0)
    assert dual_pairing(f, f) == pytest.approx(2.25, rel=1e-15)
    assert dual_pairing(GridFunction.zeros(1), f) == 0.0
    with pytest.raises(ValueError):
        dual_pairing(GridFunction.zeros(2), f)


def test_duality_map_defining_identities():
    rng = np.random.default_rng(2)
    for r, q in EXPONENT_PAIRS:
        for _ in range(20):
            f = random_grid(rng, scale=float(rng.uniform(0.1, 10.0)))
            space = SpaceSpec(r, q)
            g = duality_map(f, space)
            norm_f = weighted_norm(f, space)
            assert dual_pairing(g, f) == pytest.approx(norm_f ** q, rel=1e-12)
            assert weighted_norm(g, space.dual()) == pytest.approx(norm_f ** (q - 1.0), rel=1e-12)


def test_duality_map_hilbert_identity():
    # J_2 on L^2 returns the values of f, a signed zero as +0.
    rng = np.random.default_rng(3)
    values = rng.standard_normal((6, 6))
    values[2, 3] = -0.0
    f = GridFunction(values)
    image = duality_map(f, SpaceSpec(2.0, 2.0))
    assert image == f
    assert not np.signbit(image.values[2, 3])


def test_duality_map_zero_convention():
    # |0|^(r-1) = 0, so J_q(0) = 0 needs no factor ||f||^(q - r): the map
    # takes no norm at q = r or at q on either side of r, where the norm
    # of an all-zero grid would read as underflow, and -0.0 maps to +0.0.
    for value in (0.0, -0.0):
        for r, q in EXPONENT_PAIRS + [(3.0, 2.0), (1001.0, 1.2)]:
            z = GridFunction.full(4, value)
            g = duality_map(z, SpaceSpec(r, q))
            assert np.all(g.values == 0.0) and not np.signbit(g.values).any()
            assert ('norm', r) not in z._memo


def test_inverse_duality_map_round_trip():
    rng = np.random.default_rng(4)
    for r, q in EXPONENT_PAIRS:
        for _ in range(10):
            f = random_grid(rng, scale=float(rng.uniform(0.1, 10.0)))
            space = SpaceSpec(r, q)
            back = inverse_duality_map(duality_map(f, space), space)
            np.testing.assert_allclose(back.values, f.values, rtol=1e-10, atol=1e-12)


def test_duality_map_monotone():
    rng = np.random.default_rng(5)
    for r, q in EXPONENT_PAIRS:
        for _ in range(10):
            x = random_grid(rng)
            y = random_grid(rng)
            space = SpaceSpec(r, q)
            jump = dual_pairing(duality_map(x, space) - duality_map(y, space), x - y)
            assert jump >= -1e-12


def bregman_form_one(x, x_new, space):
    # (1/q)||x_new||^q - (1/q)||x||^q - <J(x), x_new - x>
    q = space.gauge_exponent
    return (weighted_norm(x_new, space) ** q / q - weighted_norm(x, space) ** q / q
            - dual_pairing(duality_map(x, space), x_new - x))


def bregman_form_three(x, x_new, space):
    # (1/q*)(||x||^q - ||x_new||^q) + <J(x_new) - J(x), x_new>
    q = space.gauge_exponent
    q_conj = conjugate_exponent(q)
    return ((weighted_norm(x, space) ** q - weighted_norm(x_new, space) ** q) / q_conj
            + dual_pairing(duality_map(x_new, space) - duality_map(x, space), x_new))


def test_bregman_distance_forms_agree():
    rng = np.random.default_rng(6)
    for r, q in EXPONENT_PAIRS:
        for _ in range(20):
            x = random_grid(rng, scale=float(rng.uniform(0.1, 5.0)))
            y = random_grid(rng, scale=float(rng.uniform(0.1, 5.0)))
            space = SpaceSpec(r, q)
            d = bregman_distance(x, y, space)
            assert d == pytest.approx(bregman_form_one(x, y, space), rel=1e-10, abs=1e-10)
            assert d == pytest.approx(bregman_form_three(x, y, space), rel=1e-10, abs=1e-10)
            assert d >= 0.0


def test_bregman_distance_identity_of_indiscernibles():
    rng = np.random.default_rng(7)
    x = random_grid(rng)
    y = x + GridFunction.full(x.n_interior, 0.1)
    for r, q in EXPONENT_PAIRS:
        space = SpaceSpec(r, q)
        assert bregman_distance(x, x, space) == 0.0
        assert bregman_distance(x, y, space) > 0.0


def test_bregman_distance_clamp_is_relative():
    # For x_new = 2x the distance has the closed form
    # ||x||^q (2^q / q + 1 / q* - 2); at ||x||^q ~ 4e-14 it is about 8.6e-15,
    # far below an absolute 1e-12 yet far above the rounding of its terms.
    x = GridFunction.full(8, 1e-9)
    space = SpaceSpec(1.5, 1.5)
    q = space.gauge_exponent
    q_conj = conjugate_exponent(q)
    expected = weighted_norm(x, space) ** q * (2.0 ** q / q + 1.0 / q_conj - 2.0)
    assert bregman_distance(x, 2.0 * x, space) == pytest.approx(expected, rel=1e-9, abs=0.0)
    zero = GridFunction.zeros(8)
    assert bregman_distance(zero, zero, space) == 0.0


def test_bregman_distance_hilbert_case():
    rng = np.random.default_rng(8)
    x = random_grid(rng)
    y = random_grid(rng)
    space = SpaceSpec(2.0, 2.0)
    expected = 0.5 * weighted_norm(x - y, space) ** 2
    assert bregman_distance(x, y, space) == pytest.approx(expected, rel=1e-12)


KERNEL_EXPONENTS = (1.2, 1.5, 2.0, 3.0, 6.0)


@pytest.mark.parametrize('r, q', itertools.product(KERNEL_EXPONENTS, repeat=2))
def test_duality_maps_round_trip_and_send_zero_to_zero_on_every_grid(r, q):
    # On every grid, including one of more than 8192 nodes, J_inv(J(f)) is f
    # up to rounding, and the zero grid has norm 0 and is its own image.
    rng = np.random.default_rng(41)
    for n in (1, 6, 100):
        f = random_grid(rng, n, scale=3.0)
        space = SpaceSpec(r, q)
        back = inverse_duality_map(duality_map(f, space), space)
        np.testing.assert_allclose(back.values, f.values, rtol=1e-12, atol=0.0)
        zero = GridFunction.zeros(n)
        assert weighted_norm(zero, space) == 0.0
        assert duality_map(zero, space) == zero


def allocating_norm(v, p, h):
    # The formula of the weighted norm, one new array per operation.
    return h ** (2.0 / p) * float((np.abs(v) ** p).sum()) ** (1.0 / p)


def allocating_duality_map(v, r, q, h):
    # The formula of the duality map, one new array per operation.
    image = np.abs(v) ** (r - 1.0) * np.sign(v)
    if q != r:
        image = np.float64(allocating_norm(v, r, h)) ** (q - r) * image
    return image


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize('q', ['r', 2.0, 4.0])
@pytest.mark.parametrize('r', KERNEL_EXPONENTS)
def test_in_place_maps_equal_the_allocating_formula_bitwise(r, q):
    # The duality map takes |f| once and applies the power and the sign in
    # place; the bits, signed zeros included, are those of
    # |f|^(r-1) sign(f) (times ||f||^(q-r)). The inputs hold +0, -0,
    # negative entries and negative ones whose power underflows to -0.
    q = r if q == 'r' else q
    rng = np.random.default_rng(44)
    v = 3.0 * rng.standard_normal(144)
    v[:4] = 0.0, -0.0, -1e-300, 1e-300
    v[rng.random(144) < 0.1] = 0.0
    assert (v < 0.0).any() and np.signbit(v[1])
    f = GridFunction(v.reshape(12, 12))
    assert f.h == 1.0 / 11.0
    space = SpaceSpec(r, q)
    assert same_bits(duality_map(f, space).values,
                     allocating_duality_map(v, r, q, f.h).reshape(12, 12))
    assert weighted_norm(f, space) == allocating_norm(v, r, f.h)


def test_norm_and_duality_map_are_stored_on_the_grid_function():
    # Each is computed once per grid function and space: a second call
    # returns the stored object, and a value planted in the store comes back
    # unchanged. The dual space is another key.
    f = random_grid(np.random.default_rng(43), scale=2.0)
    for r, q in [(1.5, 2.0), (5.0, 2.0), (3.0, 3.0), (1.5, 1.5), (2.0, 2.0)]:
        space = SpaceSpec(r, q)
        norm, image = weighted_norm(f, space), duality_map(f, space)
        assert norm == allocating_norm(f.values, r, f.h)
        assert weighted_norm(f, space) is norm
        assert duality_map(f, space) is image
    planted_norm, planted_image = 123.0, GridFunction.zeros(f.n_interior)
    f._memo[('norm', 4.0)] = planted_norm
    f._memo[('dual', 4.0, 2.0)] = planted_image
    assert weighted_norm(f, SpaceSpec(4.0, 2.0)) is planted_norm
    assert duality_map(f, SpaceSpec(4.0, 2.0)) is planted_image
    dual = SpaceSpec(1.5, 2.0).dual()
    assert weighted_norm(f, dual) == allocating_norm(f.values, dual.norm_exponent, f.h)
    assert duality_map(f, dual) is not duality_map(f, SpaceSpec(1.5, 2.0))


def test_duality_map_sends_underflowing_grids_to_zero():
    # With q = r the map takes no norm, and each |f|^(r-1) of a subnormal
    # grid underflows to 0, the nearest double to its value. The norm,
    # taken relative to the largest entry, does not: 36 nodes of weight 1/25.
    tiny = GridFunction.full(4, 1e-310)
    space = SpaceSpec(3.0, 3.0)
    assert weighted_norm(tiny, space) / 1e-310 == pytest.approx(1.44 ** (1.0 / 3.0), rel=1e-13)
    assert duality_map(tiny, space) == GridFunction.zeros(4)
    # A grid whose cube does not underflow is mapped by the power map.
    small = GridFunction.full(4, 1e-100)
    assert np.all(duality_map(small, space).values == 1e-200)


def test_duality_map_refuses_only_an_image_that_overflows():
    # |f|^6 overflows, |f|^5 does not, and ||f|| = 1.5^(1/3) 1e60. At q = 2
    # the image ||f||^(-4) |f|^5 is finite; at q = 8 it is ||f||^2 |f|^5,
    # about 1e420, which no double holds. With q = r the map takes no norm.
    huge = GridFunction.full(1, 1e60)
    image = duality_map(huge, SpaceSpec(6.0, 2.0))
    assert np.isfinite(image.values).all()
    assert dual_pairing(image, huge) == pytest.approx(
        weighted_norm(huge, SpaceSpec(6.0, 2.0)) ** 2, rel=1e-13)
    with pytest.raises(FloatingPointError, match='the duality image of the grid function '
                                                 'overflows'):
        duality_map(huge, SpaceSpec(6.0, 8.0))
    assert ('dual', 6.0, 8.0) not in huge._memo
    assert np.isfinite(duality_map(huge, SpaceSpec(6.0, 6.0)).values).all()


def test_hilbert_duality_map_keeps_a_tiny_nonzero_field():
    # J_2 on L^2 returns the values of f however small they are; the norm,
    # whose sum of squares underflows, is sqrt(36 / 25) times them.
    tiny = GridFunction.full(4, 1e-200)
    assert weighted_norm(tiny, SpaceSpec(2.0, 2.0)) / 1e-200 == pytest.approx(1.2, rel=1e-15)
    assert np.all(duality_map(tiny, SpaceSpec(2.0, 2.0)).values == 1e-200)


@pytest.mark.parametrize('value, r, q', [(0.1, 1001.0, 1.2), (200.0, 150.0, 20.0)])
def test_a_representable_duality_image_is_formed(value, r, q):
    # At r = 1001 the sum of |f|^r of an O(1) field underflows and, for
    # q = 1.2, the factor ||f||^(q - r) overflows. At r = 150, 200^149
    # overflows while ||f||^(q - r) is a normal double. Either image is
    # finite, about 0.44 and 4e43, and is formed as
    # ||f||^(q - 1) (|f| / ||f||)^(r - 1).
    field = GridFunction.full(4, value)
    space = SpaceSpec(r, q)
    image = duality_map(field, space)
    assert np.isfinite(image.values).all() and np.all(image.values > 0.0)
    assert dual_pairing(image, field) == pytest.approx(weighted_norm(field, space) ** q,
                                                       rel=1e-12)
    assert field._memo[('dual', r, q)] is image


@pytest.mark.parametrize('p', [3.0, 150.0, 1001.0])
@pytest.mark.parametrize('value', [1e-310, 2e-108, 1e-3, 0.1, 1e200])
def test_weighted_norm_matches_a_high_precision_reference(p, value):
    # Where the sum of |f|^p underflows, is subnormal (the cubes of 2e-108)
    # or overflows (1e200), the norm is taken relative to the largest entry;
    # it stays positive and exact.
    rng = np.random.default_rng(5)
    for f in (GridFunction.full(4, value),
              GridFunction(value * rng.uniform(0.5, 1.0, (6, 6)))):
        norm = weighted_norm(f, SpaceSpec(p, 2.0))
        with mpmath.workdps(50):
            total = mpmath.fsum(abs(mpmath.mpf(float(v))) ** p for v in f.values.ravel())
            reference = mpmath.mpf(f.h) ** (mpmath.mpf(2) / p) * total ** (1 / mpmath.mpf(p))
            assert norm > 0.0
            assert abs(mpmath.mpf(norm) - reference) <= 1e-13 * reference

