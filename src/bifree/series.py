"""Exact truncated formal power series in one and two commuting variables.

Coefficients are ``fractions.Fraction`` and every operation is exact: a
result never contains a denominator that the inputs did not force.  Binary
operations truncate to the smaller operand order (componentwise for two
variables), so the order of a value always states how far its coefficients
are meaningful.  Higher coefficients of a truncation are *unknown*, not
zero; for that reason series can be truncated but never padded.

One loop, _convolve, multiplies grids of ints or Fractions, and _powers,
the power loop of both Lagrange steps, runs on it.  The two-variable
product (its row 0 on one-row grids is the one-variable product), and the
reciprocal and substitution in both classes, run on Python ints over the
LCM of each operand's denominators, with one Fraction per output
coefficient; only _lagrange, the diagonal of the powers, runs the product
loop on Fractions.  It serves only moments_to_r and Series1.revert; free
convolution, subordination and r_to_moments run on the integer two-bands
maps on the box (N, 0) and on _burmann_rows.  The kernels take and return
integer grids: _divide takes its divisor's corner as 1, _substitute takes
the power rows of _power_rows and _burmann_rows, and a one-variable series
enters each kernel as a flat row, never as a one-column grid.

Values are immutable and hashable and may be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "Series1",
    "Series2",
    "ZeroConstantTerm",
    "NotInvertible",
    "NonzeroConstantSubstitution",
    "NegativeOrder",
    "BoxMismatch",
    "BadNormalization",
]


class ZeroConstantTerm(ArithmeticError):
    """Reciprocal of a series whose constant term is zero."""


class NotInvertible(ArithmeticError):
    """Compositional inversion needs f(0) = 0 and f'(0) != 0."""


class NonzeroConstantSubstitution(ValueError):
    """A substituted series must vanish at the origin."""


class NegativeOrder(ValueError):
    """Truncation orders are nonnegative: order 0 keeps the constant term."""


class BoxMismatch(ValueError):
    """Operands must live on the same truncation box."""


class BadNormalization(ValueError):
    """Moment data must start with phi(1) = 1."""


def check_orders(*orders):
    """Raise NegativeOrder unless every truncation order is an int >= 0.

    A bool or any other number type is refused, as for caps and word lengths.
    """
    if any(type(k) is not int or k < 0 for k in orders):
        got = ", ".join(map(repr, orders))
        raise NegativeOrder(f"truncation orders must be >= 0 and of type int, got {got}")


def as_fraction(x) -> Fraction:
    """Coerce ``x`` to an exact rational; floats are rejected, never rounded."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("float coefficients are not allowed; pass Fraction or int")
    return Fraction(x)


class Series1:
    """Truncated power series ``c[0] + c[1] t + ... + c[order] t^order``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(as_fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @classmethod
    def var(cls, order):
        """The identity series t, truncated at ``order`` (order >= 1)."""
        check_orders(order)
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Series1):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Series1({list(self.coeffs)!r})"

    def truncate(self, order: int) -> "Series1":
        """Drop coefficients above ``order``; refuses to invent new ones."""
        check_orders(order)
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to {order}")
        return Series1(self.coeffs[: order + 1])

    def __add__(self, other):
        if isinstance(other, Series1):
            n = min(self.order, other.order)
            return Series1(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))
        c = as_fraction(other)
        return Series1((self.coeffs[0] + c,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Series1(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series1) else -as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series1):
            c = as_fraction(other)
            return Series1(tuple(c * v for v in self.coeffs))
        return Series1((Series2([self.coeffs]) * Series2([other.coeffs])).values[0])

    __rmul__ = __mul__

    def shift_up(self) -> "Series1":
        """Multiply by t (the order grows by one: no information is lost)."""
        return Series1((Fraction(0),) + self.coeffs)

    def shift_down(self) -> "Series1":
        """Divide by t; the constant term must vanish."""
        if self.coeffs[0] != 0:
            raise ValueError("cannot divide by t: nonzero constant term")
        if self.order < 1:
            raise ValueError("cannot divide the zero-order series by t")
        return Series1(self.coeffs[1:])

    def reciprocal(self) -> "Series1":
        """Series g with self * g = 1 up to the order of self."""
        return Series1(_reciprocal(*_scaled([self.coeffs]))[0])

    def compose(self, g: "Series1") -> "Series1":
        """self(g(t)) to order min(self.order, g.order); g must vanish at 0."""
        grid, dh = _scaled([self.coeffs])
        rows, df = _power_rows(g, self.order)
        return Series1(_fractions(_substitute(grid, [[1]], rows), dh * df)[0])

    def revert(self) -> "Series1":
        """Compositional inverse: g with self(g(t)) = t up to the order.

        g = t*u with u = phi(t*u) for the unit series phi = t / self(t).
        """
        if self.order < 1 or self.coeffs[0] != 0 or self.coeffs[1] == 0:
            raise NotInvertible("reversion needs f(0) = 0 and f'(0) != 0")
        return _lagrange(self.shift_down().reciprocal()).shift_up()


def _lagrange(phi: Series1) -> Series1:
    """The unit series u with u = phi(t*u), to phi's order; phi(0) != 0.

    Lagrange inversion: [t^k] u = [z^k] phi^(k+1) / (k+1), the diagonal of
    the powers of phi's row, with no composition.  moments_to_r and
    Series1.revert are this one step; nothing else in the program runs it.
    """
    # Stays on Fraction: with this step on the integer powers of phi's scaled
    # row in both tower directions, one 36 s perfbench tower run (seed 1, a
    # shared 2-vCPU host) went 980 -> 8353 ops/s, but peak_rss_mb rose 38%,
    # 20.27 -> 27.98 MB, against a 5% bound, as perfbench keeps one latency
    # per op run.  The inverse direction alone, on the integer (N, 0) maps,
    # gave 1.64x tower ops/s at +2.1% peak_rss_mb; free convolution and
    # subordination on them then gave 1.17x more (1605 -> 1877 ops/s, 10 of
    # 10 interleaved pairs) at +0.4%.  moments_to_r, 20 of a 24 ms tower
    # pass, waits for a harness whose memory does not grow with op runs
    # (ROADMAP item 1).
    return Series1([p[k] / (k + 1) for k, p in enumerate(_powers(phi.coeffs, phi.order + 1))])


class Series2:
    """Truncated series ``sum c[m][n] t^m s^n`` on the box (left_order, right_order).

    Subclasses are typed grids on the same box (the two-bands moment and
    cumulant tables): a value equals only values of its own type, truncation
    and the sum of two values of one type keep that type, and every other
    operation returns a plain Series2.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(tuple(as_fraction(v) for v in row) for row in values)
        if not self.values or not self.values[0]:
            raise ValueError("a two-variable series needs at least its constant term")
        width = len(self.values[0])
        if any(len(row) != width for row in self.values):
            raise ValueError("coefficient rows must have equal length")

    @classmethod
    def product(cls, f, g):
        """The series f(t) g(s) of coefficient sequences f in t and g in s."""
        a = tuple(as_fraction(x) for x in f)
        b = tuple(as_fraction(x) for x in g)
        return cls(tuple(tuple(x * y for y in b) for x in a))

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
        return type(self)(tuple(row[: right_order + 1] for row in self.values[: left_order + 1]))

    def _min_box(self, other):
        return (min(self.left_order, other.left_order), min(self.right_order, other.right_order))

    def __add__(self, other):
        if isinstance(other, Series2):
            m, n = self._min_box(other)
            a, b = self.values, other.values
            kind = type(self) if type(other) is type(self) else Series2
            return kind(
                tuple(tuple(a[i][j] + b[i][j] for j in range(n + 1)) for i in range(m + 1))
            )
        c = as_fraction(other)
        rows = [list(r) for r in self.values]
        rows[0][0] += c
        return Series2(rows)

    __radd__ = __add__

    def __neg__(self):
        return Series2(tuple(tuple(-v for v in row) for row in self.values))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series2) else -as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series2):
            c = as_fraction(other)
            return Series2(tuple(tuple(c * v for v in row) for row in self.values))
        m, n = self._min_box(other)
        a, da = _scaled(row[: n + 1] for row in self.values[: m + 1])
        b, db = _scaled(row[: n + 1] for row in other.values[: m + 1])
        return Series2(_fractions(_convolve(a, b, m, n), da * db))

    __rmul__ = __mul__

    def reciprocal(self) -> "Series2":
        """Series g with self * g = 1 on the box of self."""
        return Series2(_reciprocal(*_scaled(self.values)))

    def substitute(self, f: Series1, g: Series1) -> "Series2":
        """self(f(z), g(w)) for inner series vanishing at 0.

        The output box is the componentwise minimum of self's box and the
        inner orders: beyond that the substituted coefficients would depend
        on unknown data.
        """
        m, n = self.box
        h, dh = _scaled(self.values)
        (fp, df), (gq, dg) = _power_rows(f, m), _power_rows(g, n)
        return Series2(_fractions(_substitute(h, fp, gq), dh * df * dg))


def _reciprocal(a, d):
    """The Fraction rows of 1 / (a / d) for an integer grid a with a0 = a[0][0] != 0.

    A = a(a0 t, a0 s) / a0, A[p][q] = a0^(p+q-1) a[p][q], is an integer grid
    with corner 1, so 1 / a = B[p][q] / a0^(p+q+1) for the integer grid B = 1 / A.
    """
    a0 = a[0][0]
    if a0 == 0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    weighted = [[x * a0 ** (p + q - 1) if p + q else 1 for q, x in enumerate(row)]
                for p, row in enumerate(a)]
    b = _divide([[1] + [0] * (len(a[0]) - 1)] + [[0] * len(a[0])] * (len(a) - 1), weighted)
    return [[Fraction(d * x, a0 ** (p + q + 1)) for q, x in enumerate(row)]
            for p, row in enumerate(b)]


def _divide(num, a):
    """The integer grid num / a for integer grids num, a on one box.

    a's corner a[0][0] is taken as 1 and never read.  Row p of b is num's
    row p less a's rows i >= 1 times b's rows p - i, then divided by a's
    row 0, visiting only its nonzero entries: 1, 0, ... is free.
    """
    head = [(j, x) for j, x in enumerate(a[0]) if j and x]
    b = []
    for p, row in enumerate(map(list, num)):
        b.append(row)
        for i in range(1, p + 1):
            for j, x in enumerate(a[i]):
                if x:
                    for q, y in enumerate(b[p - i][: len(row) - j], j):
                        row[q] -= x * y
        for q in range(len(row)):
            for j, x in head:
                if j > q:
                    break
                row[q] -= x * row[q - j]
    return b


def _substitute(grid, fp, gq):
    """The integer grid F^T H G = grid(f(z), g(w)) from the power rows F of f and G of g.

    F[p][i] = [z^i] f^p, as _burmann_rows and _power_rows (over its den) give
    them.  The box is (min(m, len(F) - 1), min(n, len(G) - 1)) for a grid on
    (m, n).  Two passes of one row loop that skips zeros: T = H G, then F^T T.
    """
    m = min(len(grid) - 1, len(fp) - 1)
    n = min(len(grid[0]) - 1, len(gq) - 1)
    t, out = ([[0] * (n + 1) for _ in range(m + 1)] for _ in range(2))
    for coeffs, src, dst in ((grid, gq, t), (zip(*fp), t, out)):
        for row, acc in zip(coeffs, dst):
            for x, s in zip(row, src):
                if x:
                    for j in range(n + 1):
                        acc[j] += x * s[j]
    return out


def _scaled(grid):
    """(ints, d) with grid = ints / d, where d is the LCM of the denominators."""
    grid = list(grid)
    d = _denominator(grid)
    return [[v.numerator * (d // v.denominator) for v in row] for row in grid], d


def _denominator(*grids):
    """The LCM of the denominators of every entry of the Fraction grids."""
    d = 1
    for grid in grids:
        for row in grid:
            for v in row:
                d = lcm(d, v.denominator)
    return d


def _fractions(ints, den):
    """The Fraction rows of ints / den, one Fraction per entry."""
    return [[Fraction(x, den) for x in row] for row in ints]


def _convolve(a, b, m, n):
    """The product of grids a and b of ints or Fractions on the box (m, n); a row f is [f].

    Series2's product, whose row 0 is Series1's, runs it on ints; only
    _lagrange, through _powers, runs it on Fractions.
    """
    out = []
    for p in range(m + 1):
        row = [0] * (n + 1)
        for i in range(p + 1):
            ai, bi = a[i], b[p - i]
            for j in range(n + 1):
                x = ai[j]
                if x:
                    for q in range(j, n + 1):
                        row[q] += x * bi[q - j]
        out.append(row)
    return out


def _power_rows(f: Series1, k: int):
    """(rows, den) with rows[p][i] / den = [z^i] f^p for p, i <= min(k, f.order).

    f must be a Series1 that vanishes at 0.  The powers of f's integer row
    come from _powers, and row p is scaled by d^(k-p) so that every row
    shares the denominator den = d^k.
    """
    if not isinstance(f, Series1):
        raise TypeError(f"substituted series must be a Series1, got {type(f).__name__}")
    if f.coeffs[0] != 0:
        raise NonzeroConstantSubstitution("substituted series must vanish at 0")
    k = min(k, f.order)
    (row,), d = _scaled([f.coeffs[: k + 1]])
    scales = [d ** (k - p) for p in range(k + 1)]
    rows = [[x * s for x in power] for s, power in zip(scales, [[1] + [0] * k] + _powers(row, k))]
    return rows, d**k


def _powers(f, k):
    """[f, f^2, ..., f^k] for a row f of ints or Fractions, each cut to len(f) entries."""
    out = [f] if k else []
    for _ in range(1, k):
        out.append(_convolve([out[-1]], [f], 0, len(f) - 1)[0])
    return out


def _burmann_rows(phi, k):
    """rows[p][n] = [z^n] f^p for p, n <= k, where f = z phi(f), for an integer row phi.

    phi is a flat integer sequence of k or more entries, so f and its
    powers have integer coefficients.  Lagrange-Buermann gives them with no
    reversion: [z^n] f^p = p [w^(n-p)] phi^n / n for n >= 1, an exact
    division, and f^0 = 1.  Only w^0 .. w^(k-1) of each power are read, so
    the powers phi^1 .. phi^k are cut to k entries.
    """
    rows = [[1] + [0] * k] + [[0] * (k + 1) for _ in range(k)]
    for n, power in enumerate(_powers(phi[:k], k), 1):
        for p in range(1, n + 1):
            rows[p][n] = p * power[n - p] // n
    return rows
