"""One-variable transform tower and free additive convolution.

A distribution enters as its moment sequence ``(1, phi(a), phi(a^2), ...)``.
Writing ``h(t) = sum phi(a^n) t^n`` for the moment generating series, the
series ``g(t) = t*h(t)`` plays the role of the Cauchy transform pulled back
to the origin, and its compositional inverse ``k = revert(g)`` encodes the
inverse Cauchy transform without a pole: ``k(z) = z*u(z)`` with ``u(0)=1``,
and ``1/u(z) = 1 + z*r(z)`` where ``r`` is the free cumulant series.  As g
and k are inverse, ``u = (1/h)(z*u)`` and ``h = p(t*h)`` for
``p = 1 + t*r(t)``.  Forward, u is one Lagrange solve of ``u = phi(t*u)``
on Fractions.  Backward, the two-bands cumulants extend the free ones:
column 0 of a cumulant table holds the left marginal's free cumulants, so
h is column 0 of the two-bands inverse map on the box (N, 0), which runs
on integers over the weight scale of the cumulants.  Nothing is ever
stored with a pole and nothing is ever rounded.

Moments up to order N determine cumulants up to order N-1 (one order is
spent on the leading pole) and conversely.
"""

from __future__ import annotations

from fractions import Fraction

from .partial_r import _inverse, _unweighted, _weighted
from .series import BadNormalization, Series1, _denominator, _lagrange, as_fraction, check_orders

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


def _marginal(moments) -> tuple[Series1, Series1]:
    """(k, p) of a moment sequence h: k = revert(t*h) and p = 1 + z*r(z).

    k = z*u with u = (1/h)(z*u), one Lagrange step, and p = 1/u.
    """
    u = _lagrange(Series1(moments).reciprocal())
    return u.shift_up(), u.reciprocal()


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


def moments_to_r(moments) -> Series1:
    """Free cumulant series of a moment sequence.

    The coefficient of ``z^n`` in the result is the (n+1)-st free cumulant,
    so moments ``(1, m1, ..., mN)`` give a series of order N-1.
    """
    m = _normalize_moments(moments)
    if len(m) < 2:
        raise ValueError("need at least the first moment beyond phi(1)")
    return (_marginal(m)[1] - 1).shift_down()


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

    The cumulant columns pa - 1 and pb - 1 of the two marginals add.
    """
    a = _normalize_moments(m1)
    b = _normalize_moments(m2)
    n = min(len(a), len(b)) - 1
    pa, pb = (_marginal(m[: n + 1])[1] for m in (a, b))
    return _moments(((pa - 1) + (pb - 1)).coeffs)


def subordination_series(m1, m2, order: int) -> tuple[Series1, Series1]:
    """Subordination reparametrizations for a free additive sum.

    Returns series ``t1(t), t2(t)`` of the given order, both with first-order
    jet (0, 1), satisfying ``t*h(t) = t1(t)*h1(t1(t)) = t2(t)*h2(t2(t))`` and
    ``h(t) = h1(t1(t)) + h2(t2(t)) - 1`` exactly to that order, where ``h``
    is the moment series of the sum.  Both inputs must provide moments up to
    ``order``.  They are ``k1(t*h)`` and ``k2(t*h)`` for ``k1, k2`` the
    inverses of ``t*h1(t)`` and ``t*h2(t)``.
    """
    check_orders(order)
    a = _normalize_moments(m1)
    b = _normalize_moments(m2)
    if order < 1:
        raise ValueError("order must be at least 1")
    if len(a) <= order or len(b) <= order:
        raise ValueError(f"need moments up to order {order} for both inputs")
    ka, pa = _marginal(a[: order + 1])
    kb, pb = _marginal(b[: order + 1])
    g = Series1(_moments(((pa - 1) + (pb - 1)).coeffs)).shift_up()
    return ka.compose(g).truncate(order), kb.compose(g).truncate(order)
