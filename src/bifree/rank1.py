"""Systems with rank <= 1 commutation between left and right variables.

A system consists of left variables a_i, right variables b_j in an
implemented probability space (phi, P) with [a_i, b_j] = lam[i, j] * P and
phi(P) = 1.  Its distribution is completely determined by the coefficients
matrix lam together with the two-bands-starting-left moments
phi(a_{i1} .. a_{ip} b_{j1} .. b_{jq}): any other mixed moment is reduced to
those by the right-multiplication recursion implemented here.

Words over the variables are tuples of letters ``(side, label)`` with side
LEFT or RIGHT.  Elements of the reduction space are sparse dicts mapping
canonical IJ-words ``(left_labels, right_labels)`` to coefficients, with
like terms always combined.  Systems are immutable once built; moment
evaluations are pure and parallelizable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import mul
from types import MappingProxyType

from .oracle import LEFT, RIGHT, TwoFacedPairRep, _bump, _integral
from .partial_r import TwoBandsTable, biconvolve
from .series import as_fraction, check_orders

__all__ = [
    "CapExceeded",
    "UnsupportedIndexSets",
    "NotRank1",
    "Rank1System",
    "mixed_moment",
    "biconvolve_rank1",
    "extract_system",
]


class CapExceeded(LookupError):
    """A required two-bands moment lies outside the stored table."""


class UnsupportedIndexSets(ValueError):
    """The operation is only available for a single left and right variable."""


class NotRank1(ValueError):
    """A commutator fails the lam * P shape where the model is reliable."""


def _check_cap(cap) -> int:
    if type(cap) is not int or cap < 0:
        raise ValueError(f"cap must be a nonnegative int, got {cap!r}")
    return cap


class Rank1System:
    """Coefficients matrix plus two-bands-starting-left moment table.

    ``two_bands`` maps ``(left_labels, right_labels)`` tuples of total length
    at most ``cap`` to exact rationals; the empty word carries phi(1) = 1.
    Lookups beyond the stored range raise, they never default: the recursion
    consumes moments as long as the word it reduces, so silent extrapolation
    would fabricate answers.
    """

    __slots__ = ("left_indices", "right_indices", "lam", "two_bands", "cap")

    def __init__(self, left_indices, right_indices, lam, two_bands, cap):
        self.left_indices = tuple(left_indices)
        self.right_indices = tuple(right_indices)
        if len(set(self.left_indices)) != len(self.left_indices) or len(
            set(self.right_indices)
        ) != len(self.right_indices):
            raise ValueError("index labels must be distinct")
        self.cap = _check_cap(cap)
        coefficients = {}
        for (i, j), v in dict(lam).items():
            if i not in self.left_indices or j not in self.right_indices:
                raise ValueError(f"lambda entry for unknown index pair ({i!r}, {j!r})")
            v = as_fraction(v)
            if v:
                coefficients[(i, j)] = v
        self.lam = MappingProxyType(coefficients)
        moments = {}
        for (il, jl), v in dict(two_bands).items():
            il, jl = tuple(il), tuple(jl)
            if len(il) + len(jl) > self.cap:
                raise ValueError(f"stored word {il + jl} exceeds cap {self.cap}")
            if any(i not in self.left_indices for i in il) or any(
                j not in self.right_indices for j in jl
            ):
                raise ValueError(f"word {il + jl} uses undeclared indices")
            moments[(il, jl)] = as_fraction(v)
        if moments.get(((), ())) != 1:
            raise ValueError("two_bands must contain the empty word with value 1")
        self.two_bands = MappingProxyType(moments)

    def coefficient(self, i, j) -> Fraction:
        return self.lam.get((i, j), Fraction(0))

    def phi(self, left_labels, right_labels) -> Fraction:
        """Stored two-bands moment phi(a_{i1}..a_{ip} b_{j1}..b_{jq})."""
        key = (tuple(left_labels), tuple(right_labels))
        if len(key[0]) + len(key[1]) > self.cap:
            raise CapExceeded(
                f"moment of length {len(key[0]) + len(key[1])} exceeds cap {self.cap}"
            )
        try:
            return self.two_bands[key]
        except KeyError:
            raise CapExceeded(f"two-bands moment for {key} not stored") from None

    def table(self, box) -> TwoBandsTable:
        """Rectangular two-bands table of a single-pair system."""
        m, n = box
        check_orders(m, n)
        self._require_single_pair()
        i, j = self.left_indices[0], self.right_indices[0]
        return TwoBandsTable(
            [[self.phi((i,) * p, (j,) * q) for q in range(n + 1)] for p in range(m + 1)]
        )

    def _require_single_pair(self):
        if len(self.left_indices) != 1 or len(self.right_indices) != 1:
            raise UnsupportedIndexSets(
                "this operation needs exactly one left and one right variable"
            )


def _apply_T(system: Rank1System, v: dict, letter) -> dict:
    """Right multiplication by the variable ``letter`` in canonical IJ form.

    A right letter appends to the right block.  A left letter moves to the
    end of the left block, and each right letter it crosses contributes a
    correction -phi(prefix) * lam * (shorter word) from the commutation
    relation.
    """
    side, k = letter
    out: dict = {}
    for (il, jl), coeff in v.items():
        if side == RIGHT:
            _bump(out, (il, jl + (k,)), coeff)
            continue
        _bump(out, (il + (k,), jl), coeff)
        for t, j in enumerate(jl):
            lam = system.coefficient(k, j)
            if lam:
                phi = system.phi(il, jl[:t])
                if phi:
                    _bump(out, ((), jl[t + 1 :]), -coeff * phi * lam)
    return {w: c for w, c in out.items() if c}


def mixed_moment(system: Rank1System, word) -> Fraction:
    """phi of an arbitrary word over the system's variables.

    Applies the right-multiplication operators letter by letter starting
    from the state projector, then evaluates every canonical IJ-word against
    the stored two-bands moments.
    """
    # Stays on Fraction: a prototype on ints, with lam and phi scaled by one
    # D, made the perfbench oracle workload 2.6-2.7x faster instead of 1.8x,
    # but perfbench keeps one latency per op run, and the extra runs raised
    # its peak RSS by 3.4-3.9%, too close to the 5% bound.
    v = {((), ()): Fraction(1)}
    for letter in word:
        side, k = letter
        if side not in (LEFT, RIGHT):
            raise ValueError(f"letter {letter!r} has side {side!r}, not LEFT or RIGHT")
        labels = system.left_indices if side == LEFT else system.right_indices
        if k not in labels:
            raise ValueError(f"letter {letter!r} uses an undeclared index")
        v = _apply_T(system, v, letter)
    return sum((c * system.phi(il, jl) for (il, jl), c in v.items()), Fraction(0))


def biconvolve_rank1(s1: Rank1System, s2: Rank1System) -> Rank1System:
    """Bi-free additive convolution of two single-pair systems.

    The coefficients matrices add; the two-bands moments convolve through
    the partial R-transform, one rectangular box per maximal stored word.
    Both systems must store the same collection of words (a rectangle, or
    the full triangle below the cap), and every convolved word needs its
    whole dependency rectangle present; a missing moment raises rather than
    being extrapolated.
    """
    s1._require_single_pair()
    s2._require_single_pair()
    if (
        s1.left_indices != s2.left_indices
        or s1.right_indices != s2.right_indices
    ):
        raise UnsupportedIndexSets("systems must declare the same index labels")
    if s1.cap != s2.cap:
        raise ValueError(f"caps differ: {s1.cap} vs {s2.cap}")
    if set(s1.two_bands) != set(s2.two_bands):
        raise ValueError("systems store different two-bands domains")
    i, j = s1.left_indices[0], s1.right_indices[0]
    degrees = {(len(il), len(jl)) for il, jl in s1.two_bands}
    corners = [
        (p, q)
        for p, q in degrees
        if not any((p, q) != (u, v) and p <= u and q <= v for u, v in degrees)
    ]
    two_bands = {}
    for p, q in sorted(corners):
        out = biconvolve(s1.table((p, q)), s2.table((p, q)))
        for u in range(p + 1):
            for v in range(q + 1):
                two_bands[((i,) * u, (j,) * v)] = out.values[u][v]
    lam = {(i, j): s1.coefficient(i, j) + s2.coefficient(i, j)}
    return Rank1System((i,), (j,), lam, two_bands, s1.cap)


def _columns(ops, labels, dim: int, length: int) -> dict:
    """{(j1, .., jq): ops[j1] .. ops[jq] e0} for every word over ``labels``
    with q <= length, each built from its suffix one operator at a time.

    Rows come out too: e0^T a_{i1} .. a_{ip} is the column of the
    transposed operators on the reversed word (i_p, .., i_1).  The
    operators are int matrices, so the columns are int tuples.
    """
    frontier = {(): (1,) + (0,) * (dim - 1)}
    cols = dict(frontier)
    for _ in range(length):
        frontier = {
            (j,) + word: tuple(sum(map(mul, row, vec)) for row in ops[j])
            for word, vec in frontier.items()
            for j in labels
        }
        cols.update(frontier)
    return cols


def _commutator_column(a_cols, b_cols, c: int) -> list:
    """Column c of [a, b], that is a (b e_c) - b (a e_c), from the int
    columns of a and b, skipping zero entries."""
    out = [0] * len(a_cols)
    for cols, vec, sign in ((a_cols, b_cols[c], 1), (b_cols, a_cols[c], -1)):
        for k, x in enumerate(vec):
            if x:
                x *= sign
                for r, y in enumerate(cols[k]):
                    if y:
                        out[r] += x * y
    return out


def extract_system(rep: TwoFacedPairRep, cap: int) -> Rank1System:
    """Read a rank <= 1 system off an operator model.

    The coefficient lam[i, j] is the (0, 0) entry of the commutator
    [a_i, b_j]; the lam * P shape is verified one reliable column at a time,
    and NotRank1 raised at the first column that fails it.  Two-bands
    moments are computed directly on the model space for every IJ-word of
    total length <= cap; for truncation-built models the caller must keep
    cap within the range where those moments are exact.

    The left operators are scaled to ints over the LCM D_L of their
    denominators and the right ones over D_R, so a commutator entry is exact
    over D_L D_R and phi(a_{i1}..a_{ip} b_{j1}..b_{jq}) over D_L^p D_R^q.
    """
    _check_cap(cap)
    dim = rep.dim
    left, dl = _integral(rep.left_ops)
    right, dr = _integral(rep.right_ops)
    # the transposes hold the operators' columns; left_t also builds the rows
    left_t = {i: tuple(zip(*a)) for i, a in left.items()}
    right_t = {j: tuple(zip(*b)) for j, b in right.items()}
    lam = {}
    for i, a_cols in left_t.items():
        for j, b_cols in right_t.items():
            first = _commutator_column(a_cols, b_cols, 0)
            for c in rep.reliable:
                col = first if c == 0 else _commutator_column(a_cols, b_cols, c)
                # lam P e_c is lam e0 for c = 0 and zero otherwise
                if any(col[1:]) or (c and col[0]):
                    raise NotRank1(
                        f"[a_{i}, b_{j}] is not a multiple of the state projector "
                        f"on reliable column {c}"
                    )
            if first[0]:
                lam[(i, j)] = Fraction(first[0], dl * dr)

    left_labels = tuple(sorted(rep.left_ops))
    right_labels = tuple(sorted(rep.right_ops))

    # phi(a_{i1}..a_{ip} b_{j1}..b_{jq}) = row(i-word) . col(j-word); a row is
    # the column of the transposed left operators on the reversed word.
    cols = _columns(right, right_labels, dim, cap)
    rows = _columns(left_t, left_labels, dim, cap)

    two_bands = {}
    for p in range(cap + 1):
        for iw in product(left_labels, repeat=p):
            row = rows[iw[::-1]]
            for q in range(cap + 1 - p):
                den = dl**p * dr**q
                for jw in product(right_labels, repeat=q):
                    two_bands[(iw, jw)] = Fraction(sum(map(mul, row, cols[jw])), den)
    return Rank1System(left_labels, right_labels, lam, two_bands, cap)
