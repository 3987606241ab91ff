"""One-variable transform tower and free additive convolution.

A distribution enters as its moment sequence ``(1, phi(a), phi(a^2), ...)``.
Writing ``h(t) = sum phi(a^n) t^n`` for the moment generating series, the
series ``g(t) = t*h(t)`` plays the role of the Cauchy transform pulled back
to the origin, and its compositional inverse ``k = revert(g)`` encodes the
inverse Cauchy transform without a pole: ``k(z) = z*u(z)`` with ``u(0)=1``,
and ``1/u(z) = 1 + z*r(z)`` where ``r`` is the free cumulant series.  All
conversions below walk up and down this tower; nothing is ever stored with
a pole and nothing is ever rounded.

Moments up to order N determine cumulants up to order N-1 (one order is
spent on the leading pole) and conversely.
"""

from __future__ import annotations

from fractions import Fraction

from .series import Series1, as_fraction, check_orders

__all__ = [
    "BadNormalization",
    "normalize_moments",
    "moments_to_r",
    "r_to_moments",
    "free_convolve1",
    "subordination_series",
]


class BadNormalization(ValueError):
    """Moment data must start with phi(1) = 1."""


def normalize_moments(moments) -> tuple[Fraction, ...]:
    """Coerce a moment sequence to exact rationals, checking phi(1) = 1."""
    m = tuple(as_fraction(x) for x in moments)
    if not m or m[0] != 1:
        raise BadNormalization("moment sequences start with phi(1) = 1")
    return m


def _tower_revert(x: Series1) -> Series1:
    """revert(t*x(t)) for a unit series x: one step of the tower, either way.

    From the moment series h it gives k = z*u(z); from u = 1/(1 + z*r(z))
    it gives g = t*h(t).  The two directions are the same formula because
    g and k are compositional inverses of each other.
    """
    return x.shift_up().revert()


def moments_to_r(moments) -> Series1:
    """Free cumulant series of a moment sequence.

    The coefficient of ``z^n`` in the result is the (n+1)-st free cumulant,
    so moments ``(1, m1, ..., mN)`` give a series of order N-1.
    """
    m = normalize_moments(moments)
    if len(m) < 2:
        raise ValueError("need at least the first moment beyond phi(1)")
    k = _tower_revert(Series1(m))
    return (k.shift_down().reciprocal() - 1).shift_down()


def r_to_moments(r: Series1, order: int) -> tuple[Fraction, ...]:
    """Moment sequence of a free cumulant series, up to ``order``.

    Exact inverse of :func:`moments_to_r`: the cumulant series must carry
    at least ``order - 1`` coefficients.
    """
    check_orders(order)
    if order == 0:
        return (Fraction(1),)
    rr = r.truncate(order - 1)
    one_plus = Series1((Fraction(1),) + rr.coeffs)
    return _tower_revert(one_plus.reciprocal()).shift_down().coeffs


def free_convolve1(m1, m2) -> tuple[Fraction, ...]:
    """Moments of the free additive convolution, to the shorter input order."""
    a = normalize_moments(m1)
    b = normalize_moments(m2)
    n = min(len(a), len(b)) - 1
    if n == 0:
        return (Fraction(1),)
    r = moments_to_r(a[: n + 1]) + moments_to_r(b[: n + 1])
    return r_to_moments(r, n)


def subordination_series(m1, m2, order: int) -> tuple[Series1, Series1]:
    """Subordination reparametrizations for a free additive sum.

    Returns series ``t1(t), t2(t)`` of the given order, both with first-order
    jet (0, 1), satisfying ``t*h(t) = t1(t)*h1(t1(t)) = t2(t)*h2(t2(t))`` and
    ``h(t) = h1(t1(t)) + h2(t2(t)) - 1`` exactly to that order, where ``h``
    is the moment series of the sum.  Both inputs must provide moments up to
    ``order``.
    """
    check_orders(order)
    a = normalize_moments(m1)
    b = normalize_moments(m2)
    if order < 1:
        raise ValueError("order must be at least 1")
    if len(a) <= order or len(b) <= order:
        raise ValueError(f"need moments up to order {order} for both inputs")
    a = a[: order + 1]
    b = b[: order + 1]
    gsum = Series1(free_convolve1(a, b)).shift_up()
    t1 = _tower_revert(Series1(a)).compose(gsum)
    t2 = _tower_revert(Series1(b)).compose(gsum)
    return t1.truncate(order), t2.truncate(order)
