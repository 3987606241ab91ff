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
like terms always combined.  The coefficients are ints over a power of
one scale D per system, the LCM of the denominators of lam and of the
stored moments, so the reduction builds a single ``Fraction``, the
moment.  Systems are immutable once built; moment evaluations are pure and
parallelizable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from types import MappingProxyType

from .oracle import LEFT, RIGHT, TwoFacedPairRep, _bump, _integral, _ReadOnly
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


class Rank1System(_ReadOnly):
    """Coefficients matrix plus two-bands-starting-left moment table.

    ``two_bands`` maps ``(left_labels, right_labels)`` tuples of total length
    at most ``cap`` to exact rationals; the empty word carries phi(1) = 1.
    Lookups beyond the stored range raise, they never default: the recursion
    consumes moments as long as the word it reduces, so silent extrapolation
    would fabricate answers.  Attributes cannot be reassigned after
    construction: the recursion's scale is derived from ``lam`` and
    ``two_bands`` once, here.
    """

    __slots__ = ("left_indices", "right_indices", "lam", "two_bands", "cap", "_scale")

    def __init__(self, left_indices, right_indices, lam, two_bands, cap):
        left_indices = tuple(left_indices)
        right_indices = tuple(right_indices)
        if len(set(left_indices)) != len(left_indices) or len(set(right_indices)) != len(
            right_indices
        ):
            raise ValueError("index labels must be distinct")
        cap = _check_cap(cap)
        # the LCM of every lam and stored phi denominator
        scale = 1
        coefficients = {}
        for (i, j), v in dict(lam).items():
            if i not in left_indices or j not in right_indices:
                raise ValueError(f"lambda entry for unknown index pair ({i!r}, {j!r})")
            v = as_fraction(v)
            if v:
                coefficients[(i, j)] = v
                scale = lcm(scale, v.denominator)
        moments = {}
        for (il, jl), v in dict(two_bands).items():
            il, jl = tuple(il), tuple(jl)
            if len(il) + len(jl) > cap:
                raise ValueError(f"stored word {il + jl} exceeds cap {cap}")
            if any(i not in left_indices for i in il) or any(
                j not in right_indices for j in jl
            ):
                raise ValueError(f"word {il + jl} uses undeclared indices")
            v = moments[(il, jl)] = as_fraction(v)
            scale = lcm(scale, v.denominator)
        if moments.get(((), ())) != 1:
            raise ValueError("two_bands must contain the empty word with value 1")
        self._set(
            left_indices=left_indices,
            right_indices=right_indices,
            lam=MappingProxyType(coefficients),
            two_bands=MappingProxyType(moments),
            cap=cap,
            _scale=scale,
        )

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

    Coefficients are ints over a power of the system's scale D: a left
    letter multiplies every carried term by D^2, and a correction is
    -c (phi D) (lam D), so after L left letters a coefficient c stands
    for c / D^(2L).
    """
    side, k = letter
    if side == RIGHT:
        return {(il, jl + (k,)): c for (il, jl), c in v.items()}
    d = system._scale
    dd = d * d
    lam = system.lam
    out: dict = {}
    for (il, jl), c in v.items():
        out[(il + (k,), jl)] = c * dd
        for t, j in enumerate(jl):
            x = lam.get((k, j))
            if x:
                phi = system.phi(il, jl[:t])
                if phi:
                    phi_d = phi.numerator * (d // phi.denominator)
                    _bump(out, ((), jl[t + 1 :]), -c * phi_d * x.numerator * (d // x.denominator))
    return {w: c for w, c in out.items() if c}


def mixed_moment(system: Rank1System, word) -> Fraction:
    """phi of an arbitrary word over the system's variables.

    Applies the right-multiplication operators letter by letter starting
    from the state projector, then evaluates every canonical IJ-word against
    the stored two-bands moments.  A letter is a ``(side, label)`` tuple
    whose label is one the system declares for that side, of the same type.
    """
    # Every coefficient is an int over D^(2L) after L left letters (see
    # _apply_T), and phi D is an int, so the moment is one Fraction over
    # D^(2L+1).
    lefts = 0
    v = {((), ()): 1}
    for letter in word:
        if not isinstance(letter, tuple) or len(letter) != 2:
            raise ValueError(f"letter {letter!r} is not a (side, label) pair")
        side, k = letter
        if side not in (LEFT, RIGHT):
            raise ValueError(f"letter {letter!r} has side {side!r}, not LEFT or RIGHT")
        labels = system.left_indices if side == LEFT else system.right_indices
        if k not in labels or type(k) is not type(labels[labels.index(k)]):
            raise ValueError(f"letter {letter!r} uses an undeclared index")
        lefts += side == LEFT
        v = _apply_T(system, v, letter)
    d = system._scale
    total = 0
    for (il, jl), c in v.items():
        phi = system.phi(il, jl)
        total += c * phi.numerator * (d // phi.denominator)
    return Fraction(total, d ** (2 * lefts + 1))


def biconvolve_rank1(s1: Rank1System, s2: Rank1System) -> Rank1System:
    """Bi-free additive convolution of two single-pair systems.

    The coefficients matrices add; the two-bands moments convolve through
    the partial R-transform on one box, (max p, max q) over the stored
    words a^p b^q; output (u, v) reads only inputs (p, q) <= (u, v), so the
    unstored cells hold a fill that is never read back.  Both systems must
    store the same collection of words (a rectangle, or the full triangle
    below the cap), and every stored word needs its whole dependency
    rectangle present; a missing moment raises rather than being extrapolated.
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
    degrees = sorted({(len(il), len(jl)) for il, jl in s1.two_bands})
    # row u is read up to the longest stored a^p b^q with p >= u, and phi
    # raises CapExceeded at the first gap; the rest of the box holds 0
    reach = [max(q for p, q in degrees if p >= u) for u in range(degrees[-1][0] + 1)]
    grids = [[[s.phi((i,) * u, (j,) * v) if v <= r else 0 for v in range(reach[0] + 1)]
              for u, r in enumerate(reach)] for s in (s1, s2)]
    out = biconvolve(*map(TwoBandsTable, grids)).values
    two_bands = {((i,) * u, (j,) * v): out[u][v] for u, v in degrees}
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
