"""Discrete weighted Lebesgue spaces on a uniform grid over the unit square.

Grid functions live on the (N+2) x (N+2) node set of [0, 1]^2 with spacing
h = 1/(N+1); node (i, j) sits at (i*h, j*h). The norm carries the quadrature
weight h^(2/p) and the dual pairing carries h^2, so the duality mappings can
stay weight-free pointwise power maps. With this convention the defining
identities of the gauge-q duality mapping hold exactly on the grid:

    <J_q(f), f> = ||f||^q,    ||J_q(f)||_* = ||f||^(q - 1),

where ||.||_* is the norm with the conjugate exponent on the same grid, and
J_2 on a space with norm exponent 2 returns the values of f, its zeros
unsigned. Norms are exact over the double range: a nonzero f whose sum of
|f_ij|^p leaves the normal range is measured relative to its largest entry.
A duality image is formed wherever a double can hold it; only an image
outside that range is refused, with FloatingPointError.

A space is fixed by its two exponents, the norm exponent r and the gauge q
of J_q; the weight belongs to the grid, so every function here takes h
from the grid function it measures, and one space measures grids of any
size. Because a grid function is immutable, the norm and the duality map
compute on its values and store each result on it, keyed by the
exponents: the method asks for the norm and the duality image of the same
iterate in several places, and each is computed once.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    'GridFunction',
    'SpaceSpec',
    'conjugate_exponent',
    'weighted_norm',
    'dual_pairing',
    'duality_map',
    'inverse_duality_map',
    'bregman_distance',
]

# The smallest positive normal double.
TINY = np.finfo(float).tiny
# Relative clamp threshold for Bregman distances: rounding can produce tiny
# values of either sign where the exact distance is 0.
BREGMAN_CLAMP = 1e-12


def conjugate_exponent(p):
    """Return the conjugate exponent p* with 1/p + 1/p* = 1.

    Parameters
    ----------
    p : float
        Exponent, must be finite and satisfy p > 1.

    Returns
    -------
    float
        p / (p - 1). Self-conjugate for p = 2.
    """
    if not 1 < p < math.inf:
        raise ValueError('exponent must be finite and satisfy p > 1, got {}'.format(p))
    return p / (p - 1.0)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values on the (N+2) x (N+2) nodes of the uniform unit-square grid.

    The same container holds primal iterates, residuals and dual vectors;
    the :class:`SpaceSpec` paired with a grid function decides how it is
    measured. Instances are immutable; arithmetic returns new objects.
    :func:`weighted_norm` and :func:`duality_map` store their results on the
    instance, so asking again for the same space computes nothing.

    Parameters
    ----------
    values : array-like of shape (N+2, N+2)
        Nodal values including the boundary ring. Must be finite.
    """

    values: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, values):
        """The constructor without its copy: takes ownership of `values`, a
        fresh float64 array nothing else writes to."""
        grid = object.__new__(cls)
        grid._own(values)
        return grid

    def _own(self, values):
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError('grid values must be square, got shape {}'.format(values.shape))
        if values.shape[0] < 3:
            raise ValueError('grid side must be at least 3, got {}'.format(values.shape[0]))
        if not np.isfinite(values).all():
            raise ValueError('grid values must be finite')
        values.setflags(write=False)
        object.__setattr__(self, 'values', values)
        object.__setattr__(self, '_memo', {})

    @classmethod
    def zeros(cls, n_interior):
        return cls(np.zeros((n_interior + 2, n_interior + 2)))

    @classmethod
    def full(cls, n_interior, value):
        return cls(np.full((n_interior + 2, n_interior + 2), float(value)))

    @classmethod
    def from_interior(cls, interior):
        """Build a grid function from interior values and a zero boundary."""
        interior = np.asarray(interior, dtype=float)
        values = np.zeros((interior.shape[0] + 2, interior.shape[1] + 2))
        values[1:-1, 1:-1] = interior
        return cls._adopt(values)

    @property
    def n_interior(self):
        """Number N of interior nodes per direction."""
        return self.values.shape[0] - 2

    @property
    def h(self):
        """Grid spacing 1/(N+1)."""
        return 1.0 / (self.n_interior + 1)

    @property
    def interior(self):
        """Read-only view of the interior (N x N) block."""
        return self.values[1:-1, 1:-1]

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.array_equal(self.values, other.values))

    def __add__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return GridFunction._adopt(self.values + other.values)

    def __sub__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return GridFunction._adopt(self.values - other.values)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return GridFunction._adopt(self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpaceSpec:
    """A discrete weighted Lebesgue space, fixed by its two exponents.

    The quadrature weight h^2 per node is not part of the space: it comes
    from the grid function being measured.

    Parameters
    ----------
    norm_exponent : float
        Exponent of the norm, finite and > 1 (the space is then uniformly
        convex and uniformly smooth, so duality maps are single-valued).
    gauge_exponent : float
        Gauge of the duality map J_q, finite and > 1.
    """

    norm_exponent: float
    gauge_exponent: float

    def __post_init__(self):
        if not 1 < self.norm_exponent < math.inf:
            raise ValueError('norm exponent must be finite and > 1, got {}'.format(
                self.norm_exponent))
        if not 1 < self.gauge_exponent < math.inf:
            raise ValueError('gauge exponent must be finite and > 1, got {}'.format(
                self.gauge_exponent))

    def dual(self):
        """The dual space: conjugate norm and gauge exponents."""
        return SpaceSpec(conjugate_exponent(self.norm_exponent),
                         conjugate_exponent(self.gauge_exponent))


def _euclidean_norm(values):
    """Euclidean norm of a float array of any shape; equal to
    ``np.linalg.norm(values)`` bit for bit, without its per-call overhead."""
    flat = values.ravel()
    return math.sqrt(flat.dot(flat))


def weighted_norm(f, space):
    """Weighted p-norm h^(2/p) * (sum_ij |f_ij|^p)^(1/p) over all nodes.

    Parameters
    ----------
    f : GridFunction
        Supplies the values and h.
    space : SpaceSpec
        Supplies p = norm_exponent.

    Where the sum of |f_ij|^p overflows or leaves the normal range below
    and f is nonzero, the norm is taken relative to the largest |f_ij|, as
    peak * (h^2 * sum_ij (|f_ij| / peak)^p)^(1/p): so a nonzero f has a
    positive norm wherever a double can hold it. The norm is stored on `f`,
    keyed by p.
    """
    p = space.norm_exponent
    key = ('norm', p)
    norm = f._memo.get(key)
    if norm is None:
        values = f.values
        with np.errstate(over='ignore', under='ignore'):
            powers = np.abs(values)
            powers **= p
            total = float(powers.sum())
            if TINY <= total < math.inf or not values.any():
                norm = f.h ** (2.0 / p) * total ** (1.0 / p)
            else:
                np.abs(values, out=powers)
                peak = float(powers.max())
                powers /= peak
                powers **= p
                norm = peak * (f.h ** 2 * float(powers.sum())) ** (1.0 / p)
        f._memo[key] = norm
    return norm


def dual_pairing(g, f):
    """Quadrature-weighted pairing h^2 * sum_ij g_ij f_ij, h that of the grid.

    Consistent with :func:`weighted_norm`, so that the extremal property
    <J(f), f> = ||J(f)||_* ||f|| holds discretely.
    """
    if g.values.shape != f.values.shape:
        raise ValueError('shape mismatch in pairing: {} vs {}'.format(
            g.values.shape, f.values.shape))
    return f.h ** 2 * float((g.values * f.values).sum())


def duality_map(f, space):
    """Single-valued duality map J_q of the space, applied to `f`.

    With r = norm exponent and q = gauge exponent the image is

        g_ij = ||f||^(q - r) * |f_ij|^(r - 1) * sign(f_ij),

    which satisfies <g, f> = ||f||^q and ||g||_* = ||f||^(q - 1). J_q(0) = 0
    for every gauge, the continuous extension (0 is the only subgradient of
    the norm power at 0).

    Parameters
    ----------
    f : GridFunction
    space : SpaceSpec

    Returns
    -------
    GridFunction
        Dual vector on the same grid; pair it with ``space.dual()``. It is
        stored on `f`, keyed by the exponents.

    For q != r the map scales |f|^(r - 1) by ||f||^(q - r) where that
    factor is a normal double and the power did not overflow; elsewhere it
    forms ||f||^(q - 1) * (|f| / ||f||)^(r - 1) * sign(f), whose factors
    stay in range wherever the image does.

    Raises
    ------
    FloatingPointError
        Where an entry of the image overflows.
    """
    r, q = space.norm_exponent, space.gauge_exponent
    key = ('dual', r, q)
    image = f._memo.get(key)
    if image is not None:
        return image
    values = f.values
    # Numpy floats and arrays: an overflow gives inf, or nan where it meets
    # a zero, and _adopt refuses either; an underflow rounds as it should.
    with np.errstate(all='ignore'):
        g = np.abs(values)
        g **= r - 1.0
        if q != r and values.any():
            norm = np.float64(weighted_norm(f, space))
            factor = norm ** (q - r)
            if TINY <= factor < math.inf and np.isfinite(g).all():
                g *= factor
            else:
                np.abs(values, out=g)
                g /= norm
                g **= r - 1.0
                g *= norm ** (q - 1.0)
    # The sign in place: sign(f) is 0 at f = 0 and at -0.0, where the
    # power is 0 already, so only negative entries change; x * -1 is -x
    # exactly, also at 0.
    np.negative(g, out=g, where=values < 0.0)
    try:
        image = GridFunction._adopt(g)
    except ValueError as exc:
        raise FloatingPointError('the duality image of the grid function overflows') from exc
    f._memo[key] = image
    return image


def inverse_duality_map(g, space):
    """Inverse of :func:`duality_map`: the dual-space map J_{q*} on X*.

    Satisfies inverse_duality_map(duality_map(f), space) == f up to rounding.

    Parameters
    ----------
    g : GridFunction
        Dual vector.
    space : SpaceSpec
        The primal space; the map applied is the duality map of
        ``space.dual()``.
    """
    return duality_map(g, space.dual())


def bregman_distance(x, x_new, space):
    """Bregman distance induced by the norm power (1/q)||.||^q.

    Evaluates, with q the gauge exponent and q* its conjugate,

        D(x, x_new) = (1/q) ||x_new||^q + (1/q*) ||x||^q - <J_q(x), x_new>.

    Nonnegative with D(x, x) = 0; in the Hilbert case (r = q = 2) it equals
    (1/2) ||x - x_new||^2. Values of either sign at most BREGMAN_CLAMP times
    ||x||^q + ||x_new||^q, rounding where the exact distance is 0, are
    clamped to exactly 0; the threshold scales with x and x_new as D does.

    Parameters
    ----------
    x, x_new : GridFunction
        Current point (whose duality map enters) and comparison point.
    space : SpaceSpec
    """
    q = space.gauge_exponent
    q_conj = conjugate_exponent(q)
    norm_x = weighted_norm(x, space)
    norm_new = weighted_norm(x_new, space)
    d = (norm_new ** q / q + norm_x ** q / q_conj
         - dual_pairing(duality_map(x, space), x_new))
    scale = norm_x ** q + norm_new ** q
    if abs(d) <= BREGMAN_CLAMP * scale:
        return 0.0
    return d
