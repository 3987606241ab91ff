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
Forward, the moments give ``ka, kb`` by reversion and the identity gives R.
Backward, column 0 and row 0 of R are ``z ra`` and ``w rb``, so the
denominator ``1 + z ra + w rb - R`` is known, and solving for H gives

    H(t, s) = Q(t ha(t), s hb(s)),
    Q(z, w) = (1 + z ra(z)) (1 + w rb(w)) / (1 + z ra(z) + w rb(w) - R(z, w))

with ``t ha(t)`` the reversion of ``z / (1 + z ra(z))``.  Every step is an
exact operation on truncated rational series.

Tables are immutable after construction and all functions here are pure, so
values can be shared between threads freely.
"""

from __future__ import annotations

from fractions import Fraction

from .series import Series1, Series2, as_fraction, check_orders
from .transforms import BadNormalization, _tower_revert

__all__ = [
    "TwoBandsTable",
    "PartialRTable",
    "BoxMismatch",
    "compute_partial_r",
    "partial_r_to_moments",
    "biconvolve",
    "mixed_cumulants_vanish",
]


class BoxMismatch(ValueError):
    """Operands must live on the same truncation box."""


class _Table:
    """Rectangular array of exact rationals indexed by bidegree (m, n)."""

    __slots__ = ("values",)

    _corner = None

    def __init__(self, values):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in values)
        if not rows or not rows[0]:
            raise ValueError("a table needs at least its (0, 0) entry")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("table rows must have equal length")
        if self._corner is not None and rows[0][0] != self._corner:
            raise BadNormalization(
                f"{type(self).__name__} needs entry (0, 0) = {self._corner}, got {rows[0][0]}"
            )
        self.values = rows

    @property
    def left_order(self) -> int:
        return len(self.values) - 1

    @property
    def right_order(self) -> int:
        return len(self.values[0]) - 1

    @property
    def box(self):
        return (self.left_order, self.right_order)

    def __getitem__(self, mn):
        m, n = mn
        return self.values[m][n]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash((type(self).__name__, self.values))

    def __repr__(self):
        return f"{type(self).__name__}({[list(r) for r in self.values]!r})"

    def truncate(self, left_order: int, right_order: int):
        check_orders(left_order, right_order)
        if left_order > self.left_order or right_order > self.right_order:
            raise BoxMismatch(f"cannot extend box {self.box} to {(left_order, right_order)}")
        return type(self)(
            tuple(row[: right_order + 1] for row in self.values[: left_order + 1])
        )


class TwoBandsTable(_Table):
    """Moments phi(a^m b^n) on a box; column 0 and row 0 are the marginals."""

    _corner = Fraction(1)

    def a_moments(self) -> tuple[Fraction, ...]:
        return tuple(row[0] for row in self.values)

    def b_moments(self) -> tuple[Fraction, ...]:
        return self.values[0]

    @classmethod
    def product(cls, a_moments, b_moments) -> "TwoBandsTable":
        """Table of a pair with classically independent faces."""
        a = tuple(as_fraction(x) for x in a_moments)
        b = tuple(as_fraction(x) for x in b_moments)
        return cls(tuple(tuple(am * bn for bn in b) for am in a))


class PartialRTable(_Table):
    """Two-bands bi-free cumulants R[m][n]; the (0, 0) slot is fixed to 0."""

    _corner = Fraction(0)

    def __add__(self, other):
        if not isinstance(other, PartialRTable):
            return NotImplemented
        m = min(self.left_order, other.left_order)
        n = min(self.right_order, other.right_order)
        return PartialRTable(
            tuple(
                tuple(self.values[i][j] + other.values[i][j] for j in range(n + 1))
                for i in range(m + 1)
            )
        )

    def a_cumulants(self) -> tuple[Fraction, ...]:
        """Free cumulants of the left marginal: entry m is the m-th cumulant."""
        return tuple(row[0] for row in self.values)

    def b_cumulants(self) -> tuple[Fraction, ...]:
        return self.values[0]


def _frame(pa: Series1, pb: Series1, box):
    """(pa + pb - 1, pa * pb) on the box, for pa = 1 + z ra(z), pb = 1 + w rb(w)."""
    m, n = box
    left = Series2.from_left(pa, n)
    right = Series2.from_right(pb, m)
    return left + right - 1, left * right


def compute_partial_r(table: TwoBandsTable) -> PartialRTable:
    """Two-bands bi-free cumulant table of a two-bands moment table.

    Exact on the whole input box: R[m][n] is a universal integer polynomial
    in the moments phi(a^p b^q) with p <= m, q <= n.
    """
    ka = _tower_revert(Series1(table.a_moments()))
    kb = _tower_revert(Series1(table.b_moments()))
    pa, pb = ka.shift_down().reciprocal(), kb.shift_down().reciprocal()
    linear, product = _frame(pa, pb, table.box)
    frac = Series2(table.values).substitute(ka, kb).reciprocal()
    return PartialRTable((linear - product * frac).rows)


def partial_r_to_moments(r: PartialRTable) -> TwoBandsTable:
    """The unique moment table whose cumulant table is ``r``.

    One pass of the identity solved for H: with pa = 1 + z ra(z) and
    pb = 1 + w rb(w) read off column 0 and row 0 of ``r``,
    H = Q(t ha(t), s hb(s)) for Q = pa pb / (pa + pb - 1 - R), where
    t ha(t) = revert(z / pa(z)) and likewise for b.
    """
    pa = Series1(r.a_cumulants()) + 1
    pb = Series1(r.b_cumulants()) + 1
    linear, product = _frame(pa, pb, r.box)
    q = product * (linear - Series2(r.values)).reciprocal()
    ga = _tower_revert(pa.reciprocal())
    gb = _tower_revert(pb.reciprocal())
    return TwoBandsTable(q.substitute(ga, gb).rows)


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
