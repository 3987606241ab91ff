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
coefficient.  The division and substitution kernels take and return a
reduced integer grid over one denominator, so they chain without Fractions.
A one-variable series enters these kernels as a one-column grid, and the
substitution takes its inner series as integer power rows: _power_rows
builds them from any series that vanishes at 0, and _burmann_rows from phi
alone for the solution f of f = z phi(f).

Values are immutable and hashable and may be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Series1",
    "Series2",
    "ZeroConstantTerm",
    "NotInvertible",
    "NonzeroConstantSubstitution",
    "NegativeOrder",
    "BoxMismatch",
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
        # Stays on Fraction, as does _lagrange.  A prototype with this product
        # on _convolve and _lagrange on integer powers passed every test and
        # ran the perfbench tower workload (seed 1) 4.5x faster, 809 -> 3622
        # ops/s, but its peak_rss_mb rose 13%, 19.88 -> 22.46 MB, against a
        # 5% bound: perfbench keeps one latency per op run, and the op runs
        # went 16871 -> 88085.  It waits for a harness whose memory does not
        # grow with op runs (ROADMAP item 1).
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
        column, d = _reciprocal(*_scaled([c] for c in self.coeffs))
        return Series1([Fraction(x, d) for (x,) in column])

    def compose(self, g: "Series1") -> "Series1":
        """self(g(t)) to order min(self.order, g.order); g must vanish at 0."""
        grid, dh = _scaled([c] for c in self.coeffs)
        column, d = _substitute(grid, dh, _power_rows(g, self.order), ([[1]], 1))
        return Series1([Fraction(x, d) for (x,) in column])

    def revert(self) -> "Series1":
        """Compositional inverse: g with self(g(t)) = t up to the order.

        g = t*u with u = phi(t*u) for the unit series phi = t / self(t).
        """
        if self.order < 1 or self.coeffs[0] != 0 or self.coeffs[1] == 0:
            raise NotInvertible("reversion needs f(0) = 0 and f'(0) != 0")
        return _lagrange(self.shift_down().reciprocal()).shift_up()


def _lagrange(phi: Series1) -> Series1:
    """The unit series u with u = phi(t*u), to phi's order; phi(0) != 0.

    Lagrange inversion: [t^k] u = [z^k] phi^(k+1) / (k+1), so phi.order
    products give every coefficient, with no composition.  Both directions
    of the transform tower are this one step.
    """
    power = phi
    out = [phi.coeffs[0]]
    for k in range(1, phi.order + 1):
        power = power * phi
        out.append(power.coeffs[k] / (k + 1))
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
        return Series2(_fractions(_convolve(a, b, m, n), da * db))

    __rmul__ = __mul__

    def reciprocal(self) -> "Series2":
        """Series g with self * g = 1 on the box of self."""
        return Series2(_fractions(*_reciprocal(*_scaled(self.values))))

    def substitute(self, f: Series1, g: Series1) -> "Series2":
        """self(f(z), g(w)) for inner series vanishing at 0.

        The output box is the componentwise minimum of self's box and the
        inner orders: beyond that the substituted coefficients would depend
        on unknown data.
        """
        m, n = self.box
        return Series2(_fractions(*_substitute(*_scaled(self.values),
                                               _power_rows(f, m), _power_rows(g, n))))


def _reciprocal(a, d):
    """(ints, den) of 1 / (a / d) for an integer grid a: _divide with d at the corner."""
    return _divide([[d] + [0] * (len(a[0]) - 1)] + [[0] * len(a[0])] * (len(a) - 1), a, 1)


def _divide(num, a, den):
    """(ints, d) of (num / den) / a for integer grids num, a on one box; a[0][0] != 0.

    One fraction-free pass: with a0 = a[0][0], B[p][q] = a0^(p+q+1) (num / a)[p][q]
    are integers, B[p][q] = a0^(p+q) num[p][q] - sum over (i, j) != (0, 0) of
    a[i][j] a0^(i+j-1) B[p-i][q-j], and the result is B[p][q] a0^(m+n-p-q)
    over den a0^(m+n+1), reduced.  A zero entry of num costs nothing.
    """
    if a[0][0] == 0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    m, n = len(a) - 1, len(a[0]) - 1
    a0 = a[0][0]
    powers = [1]
    for _ in range(m + n + 1):
        powers.append(powers[-1] * a0)
    # a[i][j] a0^(i+j-1) for (i, j) != (0, 0); the corner is never read
    a = [[x * powers[i + j - 1] if i + j else 0 for j, x in enumerate(row)]
         for i, row in enumerate(a)]
    b = [[0] * (n + 1) for _ in range(m + 1)]
    for p in range(m + 1):
        for q in range(n + 1):
            x = num[p][q]
            acc = x * powers[p + q] if x else 0
            for i in range(p + 1):
                ai, bi = a[i], b[p - i]
                for j in range(q + 1):
                    if ai[j]:
                        acc -= ai[j] * bi[q - j]
            b[p][q] = acc
    return _reduced([[x * powers[m + n - p - q] for q, x in enumerate(row)]
                     for p, row in enumerate(b)], den * powers[m + n + 1])


def _substitute(grid, dh, f_rows, g_rows):
    """(ints, den) of (grid / dh)(f(z), g(w)) from the power rows of f and g.

    f_rows = (F, df) holds F[p][i] / df = [z^i] f^p, as _power_rows and
    _burmann_rows return it, and likewise g_rows = (G, dg).  The box is
    (min(m, len(F) - 1), min(n, len(G) - 1)) for an integer grid on (m, n).
    The result is F^T H G, computed in two passes, T = H G and then F^T T,
    on integers over one common denominator, reduced.
    """
    (fp, df), (gq, dg) = f_rows, g_rows
    m = min(len(grid) - 1, len(fp) - 1)
    n = min(len(grid[0]) - 1, len(gq) - 1)
    h = [row[: n + 1] for row in grid[: m + 1]]
    # f^p and g^q vanish below z^p and w^q, so only p <= i and q <= j contribute
    t = [[sum(row[q] * gq[q][j] for q in range(j + 1)) for j in range(n + 1)] for row in h]
    return _reduced([[sum(fp[p][i] * t[p][j] for p in range(i + 1)) for j in range(n + 1)]
                     for i in range(m + 1)], dh * df * dg)


def _scaled(grid):
    """(ints, d) with grid = ints / d, where d is the LCM of the denominators."""
    grid = list(grid)
    d = 1
    for row in grid:
        for v in row:
            d = lcm(d, v.denominator)
    return [[v.numerator * (d // v.denominator) for v in row] for row in grid], d


def _reduced(ints, den):
    """(ints, den) over their gcd with den > 0: the LCM _scaled finds on the reduced Fractions."""
    g = den
    for row in ints:
        for x in row:
            g = gcd(g, x)
    if den < 0:
        g = -g
    if g == 1:
        return ints, den
    return [[x // g for x in row] for row in ints], den // g


def _fractions(ints, den):
    """The Fraction rows of ints / den, one Fraction per entry."""
    return [[Fraction(x, den) for x in row] for row in ints]


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
    """(rows, den) with rows[p][i] / den = [z^i] f^p for p, i <= min(k, f.order).

    f must vanish at 0.  The powers of f's integer coefficients are grid
    products on (k, 0), and row p is scaled by d^(k-p) so that every row
    shares the denominator den = d^k.
    """
    if f.coeffs[0] != 0:
        raise NonzeroConstantSubstitution("substituted series must vanish at 0")
    k = min(k, f.order)
    col, d = _scaled([c] for c in f.coeffs[: k + 1])
    power = [[1]] + [[0] for _ in range(k)]
    rows = []
    for p in range(k + 1):
        if p:
            power = _convolve(power, col, k, 0)
        scale = d ** (k - p)
        rows.append([x * scale for (x,) in power])
    return rows, d**k


def _burmann_rows(phi, d, k):
    """(rows, den) with rows[p][n] / den = [z^n] f^p for p, n <= k, where f = z (phi / d)(f).

    phi is an integer column on (k - 1, 0) or larger.  Lagrange-Buermann
    gives the powers of f with no reversion: with P_n = phi^n,
    [z^n] f^p = p [w^(n-p)] P_n / (n d^n) for n >= 1, and f^0 = 1.  Only
    w^0 .. w^(k-1) of each power are read, so the powers are grid products
    on (k - 1, 0), and den = d^k lcm(1, ..., k) clears every n d^n.
    """
    lcm_n = lcm(*range(1, k + 1))
    den = d**k * lcm_n
    rows = [[den] + [0] * k] + [[0] * (k + 1) for _ in range(k)]
    power = [[1]] + [[0] for _ in range(k - 1)]
    for n in range(1, k + 1):
        power = _convolve(power, phi, k - 1, 0)
        scale = d ** (k - n) * (lcm_n // n)
        for p in range(1, n + 1):
            rows[p][n] = p * power[n - p][0] * scale
    return rows, den
