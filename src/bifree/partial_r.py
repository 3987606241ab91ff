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
``pa``.  Every step is exact and runs on the weight scale: for c the LCM
of a table's denominators, c^(p+q) H[p][q] is the integer table of
(c a, c b), and R scales the same way, so every grid of both maps is an
integer grid, and each marginal one integer row, with no denominator.

Tables are immutable after construction and all functions here are pure, so
values can be shared between threads freely.
"""

from __future__ import annotations

from fractions import Fraction

from .series import BadNormalization, BoxMismatch, Series2, _burmann_rows, _denominator
from .series import _divide, _substitute

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
    if not isinstance(table, Series2):
        kind = "TwoBandsTable" if corner else "PartialRTable"
        raise TypeError(f"the table must be a {kind}, got {type(table).__name__}")
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


def _weighted(grid, c):
    """The integer grid c^(p+q) grid[p][q], for c a multiple of every denominator."""
    w = [c**k for k in range(len(grid) + len(grid[0]) - 1)]
    return [[v.numerator * (w[p + q] // v.denominator) for q, v in enumerate(row)]
            for p, row in enumerate(grid)]


def _unweighted(ints, c):
    """The Fraction rows ints[p][q] / c^(p+q), one Fraction per entry."""
    w = [c**k for k in range(len(ints) + len(ints[0]) - 1)]
    return [[Fraction(x, w[p + q]) for q, x in enumerate(row)] for p, row in enumerate(ints)]


def _forward(h, m, n):
    """The cumulant grid of the moment grid h on the box (m, n), both on the weight scale."""
    ka = _burmann_rows(_divide([[1] + [0] * m], [[x[0] for x in h]])[0], m)
    kb = _burmann_rows(_divide([[1] + [0] * n], [h[0]])[0], n)
    s = _substitute(h, ka, kb)
    col, row = [x[0] for x in s], s[0]
    q = _divide([[x * y for y in row] for x in col], s)
    # S(z, 0) + S(0, w) - 1 is S on column 0 and row 0, and 0 inside
    return [[(0 if i and j else x) - y for j, (x, y) in enumerate(zip(u, v))]
            for i, (u, v) in enumerate(zip(s, q))]


def _inverse(rho, m, n):
    """The moment grid whose cumulant grid is rho on the box (m, n), both on the weight scale."""
    a, b = [1] + [row[0] for row in rho[1:]], [1] + rho[0][1:]  # 1 + R[0][0] = 1
    grid = [[-x if i and j else 0 for j, x in enumerate(row)] for i, row in enumerate(rho)]
    q = _divide([[x * y for y in b] for x in a], grid)
    return _substitute(q, _burmann_rows(a, m), _burmann_rows(b, n))


def compute_partial_r(table: TwoBandsTable) -> PartialRTable:
    """Two-bands bi-free cumulant table of a two-bands moment table.

    Exact on the whole input box: R[m][n] is a universal integer polynomial
    in the moments phi(a^p b^q) with p <= m, q <= n.  The powers of ka and
    kb are the Lagrange-Buermann rows of 1/ha and 1/hb, the integer
    reciprocals of column 0 and row 0 of the weighted table.  With
    S = H(ka, kb), S(z, 0) = 1 + z ra and S(0, w) = 1 + w rb exactly, so R
    is S(z, 0) + S(0, w) - 1 - S(z, 0) S(0, w) / S, S an integer grid.
    """
    _require_corner(table, 1)
    c = _denominator(table.values)
    return PartialRTable(_unweighted(_forward(_weighted(table.values, c), *table.box), c))


def partial_r_to_moments(r: PartialRTable) -> TwoBandsTable:
    """The unique moment table whose cumulant table is ``r``.

    One pass of the identity solved for H: with pa = 1 + z ra(z) and
    pb = 1 + w rb(w) read off column 0 and row 0 of ``r``, row 0 and
    column 0 cancel in pa + pb - 1 - R, which leaves D = 1 - (the mixed
    part of R).  Then H = Q(t ha(t), s hb(s)) for Q = pa pb / D, where
    t ha = t pa(t ha), so the powers of t ha are the Lagrange-Buermann
    rows of pa's integer row, and likewise for b.
    """
    _require_corner(r, 0)
    c = _denominator(r.values)
    return TwoBandsTable(_unweighted(_inverse(_weighted(r.values, c), *r.box), c))


def biconvolve(t1: TwoBandsTable, t2: TwoBandsTable) -> TwoBandsTable:
    """Two-bands moments of (a' + a'', b' + b'') for bi-free pairs.

    Both tables must live on the same box; truncate explicitly beforehand if
    they do not, so no order loss can pass silently.  Two forward passes and
    one inverse on integers: both tables share one weight c, so their
    cumulant grids simply add.
    """
    _require_corner(t1, 1)
    _require_corner(t2, 1)
    if t1.box != t2.box:
        raise BoxMismatch(f"boxes differ: {t1.box} vs {t2.box}")
    c = _denominator(t1.values, t2.values)
    r1, r2 = (_forward(_weighted(t.values, c), *t1.box) for t in (t1, t2))
    total = [[x + y for x, y in zip(u, v)] for u, v in zip(r1, r2)]
    return TwoBandsTable(_unweighted(_inverse(total, *t1.box), c))


def mixed_cumulants_vanish(table: TwoBandsTable) -> bool:
    """True iff every cumulant R[m][n] with m >= 1 and n >= 1 vanishes.

    Holds exactly when the left and right variable are classically
    independent as far as the box can see.
    """
    return not any(x for row in compute_partial_r(table).values[1:] for x in row[1:])
