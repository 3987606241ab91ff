"""Two-bands moment tables, their bi-free cumulants, and bi-free convolution.

A pair (a, b) of one left and one right variable is described on a box
``(M, N)`` by the table of two-bands moments ``phi(a^m b^n)``.  The partial
bi-free R-transform packs the two-bands bi-free cumulants ``R[m][n]`` of the
pair into a table of the same shape; it linearizes bi-free additive
convolution, its row and column 0 are the one-variable free cumulants of the
marginals, and ``R[m][n]`` depends on ``phi(a^p b^q)`` only for ``p <= m``,
``q <= n``, with leading coefficient 1 in ``phi(a^m b^n)``.

Both directions of the conversion are one pass of the pole-free identity

    R(z, w) = (1 + z ra(z) + w rb(w))
              - (1 + z ra(z)) (1 + w rb(w)) / H(ka(z), kb(w))

where ``H(t, s) = sum phi(a^m b^n) t^m s^n``, ``ra, rb`` are the marginal
free cumulant series and ``ka, kb`` the inverses of ``t*ha(t)``, ``s*hb(s)``.
Forward, the marginal moments give ``ka`` and ``1 + z ra`` (and the same for
b) by the one-variable tower step and the identity gives R.  Backward,
column 0 and row 0 of R are ``z ra`` and ``w rb``, so the denominator
``1 + z ra + w rb - R`` is known, and solving for H gives

    H(t, s) = Q(t ha(t), s hb(s)),
    Q(z, w) = (1 + z ra(z)) (1 + w rb(w)) / (1 + z ra(z) + w rb(w) - R(z, w))

with ``ha = (1 + t ra)(t ha)`` solved by one Lagrange step.  Every step is
an exact operation on truncated rational series.

Tables are immutable after construction and all functions here are pure, so
values can be shared between threads freely.
"""

from __future__ import annotations

from fractions import Fraction

from .series import BoxMismatch, Series1, Series2, _lagrange
from .transforms import BadNormalization, _marginal

__all__ = [
    "TwoBandsTable",
    "PartialRTable",
    "BoxMismatch",
    "compute_partial_r",
    "partial_r_to_moments",
    "biconvolve",
    "mixed_cumulants_vanish",
]


def _require_corner(table, corner):
    if table.values[0][0] != corner:
        raise BadNormalization(
            f"{type(table).__name__} needs entry (0, 0) = {corner}, got {table.values[0][0]}"
        )


class TwoBandsTable(Series2):
    """Moments phi(a^m b^n) on a box; column 0 and row 0 are the marginals."""

    __slots__ = ()

    def __init__(self, values):
        super().__init__(values)
        _require_corner(self, 1)

    def a_moments(self) -> tuple[Fraction, ...]:
        return tuple(row[0] for row in self.values)

    def b_moments(self) -> tuple[Fraction, ...]:
        return self.values[0]


class PartialRTable(Series2):
    """Two-bands bi-free cumulants R[m][n]; the (0, 0) slot is fixed to 0.

    Bi-free additive convolution adds cumulant tables, and the sum of two
    PartialRTables is again one.
    """

    __slots__ = ()

    def __init__(self, values):
        super().__init__(values)
        _require_corner(self, 0)

    def a_cumulants(self) -> tuple[Fraction, ...]:
        """Free cumulants of the left marginal: entry m is the m-th cumulant."""
        return tuple(row[0] for row in self.values)

    def b_cumulants(self) -> tuple[Fraction, ...]:
        return self.values[0]


def _frame(pa: Series1, pb: Series1):
    """(pa + pb - 1, pa * pb) for pa = 1 + z ra(z) in z and pb = 1 + w rb(w) in w."""
    linear = [[pa[i]] + [Fraction(0)] * pb.order for i in range(pa.order + 1)]
    linear[0] = [pa[0] + pb[0] - 1] + list(pb.coeffs[1:])
    return Series2(linear), Series2.product(pa, pb)


def compute_partial_r(table: TwoBandsTable) -> PartialRTable:
    """Two-bands bi-free cumulant table of a two-bands moment table.

    Exact on the whole input box: R[m][n] is a universal integer polynomial
    in the moments phi(a^p b^q) with p <= m, q <= n.
    """
    ka, pa = _marginal(table.a_moments())
    kb, pb = _marginal(table.b_moments())
    linear, product = _frame(pa, pb)
    frac = table.substitute(ka, kb).reciprocal()
    return PartialRTable((linear - product * frac).values)


def partial_r_to_moments(r: PartialRTable) -> TwoBandsTable:
    """The unique moment table whose cumulant table is ``r``.

    One pass of the identity solved for H: with pa = 1 + z ra(z) and
    pb = 1 + w rb(w) read off column 0 and row 0 of ``r``,
    H = Q(t ha(t), s hb(s)) for Q = pa pb / (pa + pb - 1 - R), where
    ha = pa(t ha) and likewise for b.
    """
    pa = Series1(r.a_cumulants()) + 1
    pb = Series1(r.b_cumulants()) + 1
    linear, product = _frame(pa, pb)
    q = product * (linear - r).reciprocal()
    ga = _lagrange(pa).shift_up()
    gb = _lagrange(pb).shift_up()
    return TwoBandsTable(q.substitute(ga, gb).values)


def biconvolve(t1: TwoBandsTable, t2: TwoBandsTable) -> TwoBandsTable:
    """Two-bands moments of (a' + a'', b' + b'') for bi-free pairs.

    Both tables must live on the same box; truncate explicitly beforehand if
    they do not, so no order loss can pass silently.
    """
    if t1.box != t2.box:
        raise BoxMismatch(f"boxes differ: {t1.box} vs {t2.box}")
    return partial_r_to_moments(compute_partial_r(t1) + compute_partial_r(t2))


def mixed_cumulants_vanish(table: TwoBandsTable) -> bool:
    """True iff every cumulant R[m][n] with m >= 1 and n >= 1 vanishes.

    Holds exactly when the left and right variable are classically
    independent as far as the box can see.
    """
    r = compute_partial_r(table)
    return all(
        r.values[i][j] == 0
        for i in range(1, r.left_order + 1)
        for j in range(1, r.right_order + 1)
    )
