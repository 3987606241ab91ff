"""One-variable transform tower and free additive convolution.

A distribution enters as its moment sequence ``(1, phi(a), phi(a^2), ...)``.
Writing ``h(t) = sum phi(a^n) t^n`` for the moment generating series, the
series ``g(t) = t*h(t)`` plays the role of the Cauchy transform pulled back
to the origin, and its compositional inverse ``k = revert(g)`` encodes the
inverse Cauchy transform without a pole: ``k(z) = z*u(z)`` with ``u(0)=1``,
and ``1/u(z) = 1 + z*r(z)`` where ``r`` is the free cumulant series.  As g
and k are inverse, ``u = (1/h)(z*u)`` and ``h = p(t*h)`` for
``p = 1 + t*r(t)``.

The two-bands cumulants extend the free ones: a moment sequence is the
two-bands table on the box (N, 0), whose right variable is trivial, and
column 0 of its cumulant table holds the free cumulants.  So free additive
convolution is bi-free additive convolution on that box, and h = p(t*h) is
column 0 of the two-bands inverse map there; both run on integers over the
weight scale c^n of a common denominator c.  On the same scale k is row 1
of the Lagrange-Buermann rows of the integer reciprocal of h, which gives
the subordination series.  Only moments_to_r still solves u = (1/h)(z*u) by
one Lagrange step on Fractions.  Nothing is ever stored with a pole and
nothing is ever rounded.

Moments up to order N determine cumulants up to order N-1 (one order is
spent on the leading pole) and conversely.
"""

from __future__ import annotations

from fractions import Fraction

from .partial_r import _forward, _inverse, _unweighted, _weighted
from .series import BadNormalization, Series1, _burmann_rows, _denominator, _divide, _lagrange
from .series import as_fraction, check_orders

__all__ = [
    "BadNormalization",
    "moments_to_r",
    "r_to_moments",
    "free_convolve1",
    "subordination_series",
]


def _normalize_moments(moments) -> tuple[Fraction, ...]:
    """Coerce a moment sequence to exact rationals, checking phi(1) = 1."""
    m = tuple(as_fraction(x) for x in moments)
    if not m or m[0] != 1:
        raise BadNormalization("moment sequences start with phi(1) = 1")
    return m


def _moments(col) -> tuple[Fraction, ...]:
    """The moments h = p(t*h) of the cumulant column col = (0, r0, ..., r(N-1)) of p - 1.

    col is the cumulant table on the box (N, 0), so h is column 0 of the
    two-bands inverse map there: on the weight scale of the plain LCM c of
    col's denominators, entry n of both columns is c^n times its value.
    """
    grid = [[x] for x in col]
    c = _denominator(grid)
    h = _inverse(_weighted(grid, c), len(grid) - 1, 0)
    return tuple(row[0] for row in _unweighted(h, c))


def _inverse_series(moments) -> Series1:
    """k = revert(t*h) of a moment sequence h = (1, m1, ..., mN), to order N >= 1.

    On the weight scale of the LCM c of h's denominators, h~[n] = c^n h[n]
    and k~[n] = c^(n-1) k[n] are integer rows, and k~ = z (1/h~)(k~), so k~
    is row 1 of the Lagrange-Buermann rows of the integer reciprocal of h~.
    """
    n = len(moments) - 1
    c = _denominator([moments])
    (h,) = _weighted([moments], c)
    k = _burmann_rows(_divide([[1] + [0] * n], [h])[0], n)[1]
    return Series1([0] + [Fraction(x, c ** (j - 1)) for j, x in enumerate(k[1:], 1)])


def moments_to_r(moments) -> Series1:
    """Free cumulant series of a moment sequence.

    The coefficient of ``z^n`` in the result is the (n+1)-st free cumulant,
    so moments ``(1, m1, ..., mN)`` give a series of order N-1.  It is
    p - 1 over z for p = 1/u, where u = (1/h)(z*u) is one Lagrange step.
    """
    m = _normalize_moments(moments)
    if len(m) < 2:
        raise ValueError("need at least the first moment beyond phi(1)")
    u = _lagrange(Series1(m).reciprocal())
    return (u.reciprocal() - 1).shift_down()


def r_to_moments(r: Series1, order: int) -> tuple[Fraction, ...]:
    """Moment sequence of a free cumulant series, up to ``order``.

    Exact inverse of :func:`moments_to_r`: the cumulant series must carry
    ``order`` coefficients, that is be of order at least ``order - 1``.
    The moment series h solves h = p(t*h) for p = 1 + t*r(t): it is
    column 0 of the two-bands inverse map on the box (order, 0), run on
    the cumulant column (0, r0, ..., r(order-1)).
    """
    if not isinstance(r, Series1):
        raise TypeError(f"the cumulant series must be a Series1, got {type(r).__name__}")
    check_orders(order)
    if order == 0:
        return (Fraction(1),)
    return _moments(r.truncate(order - 1).shift_up().coeffs)


def free_convolve1(m1, m2) -> tuple[Fraction, ...]:
    """Moments of the free additive convolution, to the shorter input order.

    Column 0 of the bi-free convolution of the two sequences as tables on
    the box (n, 0), by biconvolve's steps: one weight c, the LCM of both
    sequences' denominators, two forward maps whose cumulant columns add,
    and one inverse map.
    """
    a = _normalize_moments(m1)
    b = _normalize_moments(m2)
    n = min(len(a), len(b)) - 1
    grids = [[[x] for x in m[: n + 1]] for m in (a, b)]
    c = _denominator(*grids)
    ra, rb = (_forward(_weighted(grid, c), n, 0) for grid in grids)
    h = _inverse([[x + y] for (x,), (y,) in zip(ra, rb)], n, 0)
    return tuple(row[0] for row in _unweighted(h, c))


def subordination_series(m1, m2, order: int) -> tuple[Series1, Series1]:
    """Subordination reparametrizations for a free additive sum.

    Returns series ``t1(t), t2(t)`` of the given order, both with first-order
    jet (0, 1), satisfying ``t*h(t) = t1(t)*h1(t1(t)) = t2(t)*h2(t2(t))`` and
    ``h(t) = h1(t1(t)) + h2(t2(t)) - 1`` exactly to that order, where ``h``
    is the moment series of the sum.  Both inputs must provide moments up to
    ``order``.  They are ``k1(t*h)`` and ``k2(t*h)`` for ``k1, k2`` the
    inverses of ``t*h1(t)`` and ``t*h2(t)``, each read off its own weighted
    moment row by Lagrange-Buermann, and h from free_convolve1.
    """
    check_orders(order)
    a = _normalize_moments(m1)
    b = _normalize_moments(m2)
    if order < 1:
        raise ValueError("order must be at least 1")
    if len(a) <= order or len(b) <= order:
        raise ValueError(f"need moments up to order {order} for both inputs")
    a, b = a[: order + 1], b[: order + 1]
    g = Series1(free_convolve1(a, b)).shift_up()
    return _inverse_series(a).compose(g), _inverse_series(b).compose(g)
