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
Forward, ``ka = z (1/ha)(ka)``, so by Lagrange-Buermann the powers that
the substitution needs come straight from the powers of ``1/ha``,
``[z^n] ka^p = (p/n) [w^(n-p)] (1/ha)^n``, with no reversion; likewise
``kb``.  S = H(ka, kb) has column 0 ``1 + z ra`` and row 0 ``1 + w rb``,
so the identity gives R from S's own marginals.  Backward, column 0 and
row 0 of R are ``z ra`` and ``w rb``; they cancel in the denominator, which
is D = 1 - (the mixed part of R), and solving for H gives

    H(t, s) = Q(t ha(t), s hb(s)),    Q(z, w) = (1 + z ra(z)) (1 + w rb(w)) / D(z, w)

where ``t ha = t pa(t ha)`` for ``pa = 1 + z ra``, so the powers of
``t ha`` are the same Lagrange-Buermann rows, taken from the powers of
``pa``.  Every step is exact, and both directions run on integer grids
over one denominator from the input table to the output: no
one-variable series is built on the way, and a quotient is one division.

Tables are immutable after construction and all functions here are pure, so
values can be shared between threads freely.
"""

from __future__ import annotations

from fractions import Fraction

from .series import BoxMismatch, Series2, _burmann_rows, _divide, _fractions, _reciprocal
from .series import _reduced, _scaled, _substitute
from .transforms import BadNormalization

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


def _forward(values, m, n):
    """(ints, den) of the cumulant table of the moment rows ``values`` on the box (m, n)."""
    h, dh = _scaled(values)
    ka = _burmann_rows(*_reciprocal([[x[0]] for x in h], dh), m)
    kb = _burmann_rows(*_reciprocal([[x] for x in h[0]], dh), n)
    s, ds = _substitute(h, dh, ka, kb)
    col, row = [x[0] for x in s], s[0]
    q, dq = _divide([[x * y for y in row] for x in col], s, ds)
    linear = [[x] + [0] * (len(row) - 1) for x in col]
    linear[0] = [col[0] + row[0] - ds] + row[1:]
    return [[u * dq - v * ds for u, v in zip(lr, qr)] for lr, qr in zip(linear, q)], ds * dq


def _inverse(rho, d, m, n):
    """The moment table whose cumulant table is the integer grid rho over d, on the box (m, n)."""
    a = [row[0] for row in rho]
    b = list(rho[0])
    a[0] = b[0] = d  # 1 + R[0][0] = 1
    grid = [[-x if i and j else 0 for j, x in enumerate(row)] for i, row in enumerate(rho)]
    grid[0][0] = d
    ga = _burmann_rows([[x] for x in a], d, m)
    gb = _burmann_rows([[x] for x in b], d, n)
    q = _divide([[x * y for y in b] for x in a], grid, d)
    return TwoBandsTable(_fractions(*_substitute(*q, ga, gb)))


def compute_partial_r(table: TwoBandsTable) -> PartialRTable:
    """Two-bands bi-free cumulant table of a two-bands moment table.

    Exact on the whole input box: R[m][n] is a universal integer polynomial
    in the moments phi(a^p b^q) with p <= m, q <= n.  The powers of ka and
    kb are the Lagrange-Buermann rows of 1/ha and 1/hb, the integer
    reciprocals of column 0 and row 0 of the scaled table.  With
    S = H(ka, kb), S(z, 0) = 1 + z ra and S(0, w) = 1 + w rb exactly, so R
    is S(z, 0) + S(0, w) - 1 - S(z, 0) S(0, w) / S on S's own integer grid.
    """
    return PartialRTable(_fractions(*_forward(table.values, *table.box)))


def partial_r_to_moments(r: PartialRTable) -> TwoBandsTable:
    """The unique moment table whose cumulant table is ``r``.

    One pass of the identity solved for H: with pa = 1 + z ra(z) and
    pb = 1 + w rb(w) read off column 0 and row 0 of ``r``, row 0 and
    column 0 cancel in pa + pb - 1 - R, which leaves D = 1 - (the mixed
    part of R).  Then H = Q(t ha(t), s hb(s)) for Q = pa pb / D, where
    t ha = t pa(t ha), so the powers of t ha are the Lagrange-Buermann
    rows of pa's integer column, and likewise for b.
    """
    return _inverse(*_scaled(r.values), *r.box)


def biconvolve(t1: TwoBandsTable, t2: TwoBandsTable) -> TwoBandsTable:
    """Two-bands moments of (a' + a'', b' + b'') for bi-free pairs.

    Both tables must live on the same box; truncate explicitly beforehand if
    they do not, so no order loss can pass silently.  Two forward passes and
    one inverse on integers: the cumulant grids add as (r1 d2 + r2 d1) / (d1 d2).
    """
    if t1.box != t2.box:
        raise BoxMismatch(f"boxes differ: {t1.box} vs {t2.box}")
    (r1, d1), (r2, d2) = _forward(t1.values, *t1.box), _forward(t2.values, *t1.box)
    total = [[x * d2 + y * d1 for x, y in zip(u, v)] for u, v in zip(r1, r2)]
    return _inverse(*_reduced(total, d1 * d2), *t1.box)


def mixed_cumulants_vanish(table: TwoBandsTable) -> bool:
    """True iff every cumulant R[m][n] with m >= 1 and n >= 1 vanishes.

    Holds exactly when the left and right variable are classically
    independent as far as the box can see.
    """
    r, _ = _forward(table.values, *table.box)
    return not any(x for row in r[1:] for x in row[1:])
