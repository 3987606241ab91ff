"""Exact truncated formal power series in one and two commuting variables.

Coefficients are ``fractions.Fraction`` and every operation is exact: a
result never contains a denominator that the inputs did not force.  Binary
operations truncate to the smaller operand order (componentwise for two
variables), so the order of a value always states how far its coefficients
are meaningful.  Higher coefficients of a truncation are *unknown*, not
zero; for that reason series can be truncated but never padded.

The two-variable product, and the reciprocal and substitution in both
classes, run on Python ints: each operand grid is scaled to integers over
the LCM of its denominators, and one Fraction is built per output
coefficient.  A one-variable series enters these kernels as a one-column
grid.

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
    "as_fraction",
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


def check_orders(*orders):
    """Raise NegativeOrder unless every truncation order is >= 0."""
    if any(k < 0 for k in orders):
        got = ", ".join(map(str, orders))
        raise NegativeOrder(f"truncation orders must be >= 0, got {got}")


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
        # Stays on Fraction, as does revert: on _convolve it made the perfbench
        # tower workload 2.4-2.9x faster, but perfbench keeps one latency per
        # op run, so that speed raised its peak RSS by 3.3-4.7%, against a 5%
        # bound.
        if not isinstance(other, Series1):
            c = as_fraction(other)
            return Series1(tuple(c * v for v in self.coeffs))
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n + 1):
            out.append(sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)))
        return Series1(out)

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
        return Series1([c for (c,) in _reciprocal([(c,) for c in self.coeffs])])

    def compose(self, g: "Series1") -> "Series1":
        """self(g(t)) to order min(self.order, g.order); g must vanish at 0."""
        column = _substitute([(c,) for c in self.coeffs], g, Series1([0]))
        return Series1([c for (c,) in column])

    def revert(self) -> "Series1":
        """Compositional inverse: g with self(g(t)) = t up to the order.

        Lagrange inversion: phi = t / self(t) is a unit series, and the
        coefficient of t^k in g is (1/k) [z^(k-1)] phi(z)^k.  One reciprocal
        and order - 1 products give every coefficient, with no composition.
        """
        if self.order < 1 or self.coeffs[0] != 0 or self.coeffs[1] == 0:
            raise NotInvertible("reversion needs f(0) = 0 and f'(0) != 0")
        phi = self.shift_down().reciprocal()
        power = phi
        out = [Fraction(0), phi.coeffs[0]]
        for k in range(2, self.order + 1):
            power = power * phi
            out.append(power.coeffs[k - 1] / k)
        return Series1(out)


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
        den = da * db
        return Series2([[Fraction(c, den) for c in row] for row in _convolve(a, b, m, n)])

    __rmul__ = __mul__

    def reciprocal(self) -> "Series2":
        """Series g with self * g = 1 on the box of self."""
        return Series2(_reciprocal(self.values))

    def substitute(self, f: Series1, g: Series1) -> "Series2":
        """self(f(z), g(w)) for inner series vanishing at 0.

        The output box is the componentwise minimum of self's box and the
        inner orders: beyond that the substituted coefficients would depend
        on unknown data.
        """
        return Series2(_substitute(self.values, f, g))


def _reciprocal(grid):
    """Fraction rows of 1 / grid on its box; the corner must be nonzero.

    Fraction-free: with grid = A / d over integers and a0 = A[0][0], the
    scaled coefficients B[p][q] = a0^(p+q+1) (1/A)[p][q] are integers and
    B[p][q] = -sum over (i, j) != (0, 0) of A[i][j] a0^(i+j-1) B[p-i][q-j],
    so the result is d B[p][q] / a0^(p+q+1).
    """
    if grid[0][0] == 0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    a, d = _scaled(grid)
    m, n = len(a) - 1, len(a[0]) - 1
    a0 = a[0][0]
    powers = [1]
    for _ in range(m + n + 1):
        powers.append(powers[-1] * a0)
    # a[i][j] a0^(i+j-1) for (i, j) != (0, 0); the corner is never read
    a = [[x * powers[i + j - 1] if i + j else 0 for j, x in enumerate(row)]
         for i, row in enumerate(a)]
    b = [[0] * (n + 1) for _ in range(m + 1)]
    b[0][0] = 1
    for p in range(m + 1):
        for q in range(n + 1):
            if p or q:
                acc = 0
                for i in range(p + 1):
                    ai, bi = a[i], b[p - i]
                    for j in range(q + 1):
                        if ai[j]:
                            acc -= ai[j] * bi[q - j]
                b[p][q] = acc
    return [[Fraction(d * x, powers[p + q + 1]) for q, x in enumerate(row)]
            for p, row in enumerate(b)]


def _substitute(grid, f: Series1, g: Series1):
    """Fraction rows of grid(f(z), g(w)) for inner series vanishing at 0.

    The box is (min(m, f.order), min(n, g.order)) for a grid on (m, n).
    With F[p][i] = [z^i] f^p and G[q][j] = [w^j] g^q the result is F^T H G,
    computed in two passes, T = H G and then F^T T, on integers over one
    common denominator.
    """
    if f.coeffs[0] != 0 or g.coeffs[0] != 0:
        raise NonzeroConstantSubstitution("substituted series must vanish at 0")
    m = min(len(grid) - 1, f.order)
    n = min(len(grid[0]) - 1, g.order)
    h, dh = _scaled(row[: n + 1] for row in grid[: m + 1])
    fp, df = _power_rows(f, m)
    gq, dg = _power_rows(g, n)
    # g^q starts at w^q, so only q <= j and p <= i contribute
    t = [[sum(row[q] * gq[q][j] for q in range(j + 1)) for j in range(n + 1)] for row in h]
    den = dh * df**m * dg**n
    return [[Fraction(sum(fp[p][i] * t[p][j] for p in range(i + 1)), den) for j in range(n + 1)]
            for i in range(m + 1)]


def _scaled(grid):
    """(ints, d) with grid = ints / d, where d is the LCM of the denominators."""
    grid = list(grid)
    d = 1
    for row in grid:
        for v in row:
            d = lcm(d, v.denominator)
    return [[v.numerator * (d // v.denominator) for v in row] for row in grid], d


def _convolve(a, b, m, n):
    """The integer grid of the product of integer grids a and b on the box (m, n)."""
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
    """(rows, d) with rows[p][i] / d^k = [z^i] f^p for p, i <= k.

    The powers of f's integer coefficients are (k, 0) grid products, and
    row p is scaled by d^(k-p) so that every row shares the denominator d^k.
    """
    col, d = _scaled([c] for c in f.coeffs[: k + 1])
    power = [[1]] + [[0] for _ in range(k)]
    rows = []
    for p in range(k + 1):
        if p:
            power = _convolve(power, col, k, 0)
        scale = d ** (k - p)
        rows.append([x * scale for (x,) in power])
    return rows, d
