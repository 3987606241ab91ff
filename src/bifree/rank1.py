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
stored moments, and the reduction reads phi * D and lam * D from int
tables, so it builds a single ``Fraction``, the moment.  ``_fill`` derives
D and the tables from the checked ``Fraction`` maps, for the constructor
and :func:`extract_system` alike.  A letter is checked with one lookup in
the system's table of declared letters, and a run of right letters is
appended in one pass.  Systems are immutable once built; moment
evaluations are pure and parallelizable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from types import MappingProxyType

from .oracle import LEFT, RIGHT, TwoFacedPairRep, _box_orders, _bump, _columns, _integral
from .oracle import _ReadOnly, _require_rep
from .partial_r import BadNormalization, TwoBandsTable, biconvolve
from .series import as_fraction

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
    at most ``cap`` to exact rationals; the empty word carries phi(1) = 1,
    and BadNormalization refuses a table without it.
    Lookups beyond the stored range raise, they never default: the recursion
    consumes moments as long as the word it reduces, so silent extrapolation
    would fabricate answers.  Attributes cannot be reassigned after
    construction: the recursion's scale D, its int tables of phi * D and of
    the nonzero lam * D, and its table of declared letters are derived from
    ``lam`` and ``two_bands`` once, by ``_fill``.
    """

    __slots__ = ("left_indices", "right_indices", "lam", "two_bands", "cap",
                 "_scale", "_phi_d", "_lam_d", "_letters")

    def __init__(self, left_indices, right_indices, lam, two_bands, cap):
        left_indices = tuple(left_indices)
        right_indices = tuple(right_indices)
        left_set, right_set = set(left_indices), set(right_indices)
        if len(left_set) != len(left_indices) or len(right_set) != len(right_indices):
            raise ValueError("index labels must be distinct")
        cap = _check_cap(cap)
        coefficients = {}
        for (i, j), v in dict(lam).items():
            if i not in left_set or j not in right_set:
                raise ValueError(f"lambda entry for unknown index pair ({i!r}, {j!r})")
            v = as_fraction(v)
            if v:
                coefficients[(i, j)] = v
        moments = {}
        for (il, jl), v in dict(two_bands).items():
            il, jl = tuple(il), tuple(jl)
            if len(il) + len(jl) > cap:
                raise ValueError(f"stored word {il + jl} exceeds cap {cap}")
            if not (left_set.issuperset(il) and right_set.issuperset(jl)):
                raise ValueError(f"word {il + jl} uses undeclared indices")
            moments[(il, jl)] = as_fraction(v)
        if moments.get(((), ())) != 1:
            raise BadNormalization("two_bands must contain the empty word with value 1")
        _fill(self, left_indices, right_indices, coefficients, moments, cap)

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
        m, n = _box_orders(box)
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


def _require_system(system):
    if not isinstance(system, Rank1System):
        raise TypeError(f"systems must be Rank1Systems, got {type(system).__name__}")


def _fill(system, left_indices, right_indices, lam, two_bands, cap):
    """Set every slot of ``system`` from checked ``Fraction`` maps, ``lam``
    holding the nonzero coefficients; the public constructor and
    :func:`extract_system` both end here, so only this derives the scale D
    (the LCM of every denominator in both maps), the int tables of phi * D
    and lam * D, and the letter table: each declared (side, label) letter
    maps to (is it a left letter, the label's type)."""
    scale = lcm(*(v.denominator for v in (*lam.values(), *two_bands.values())))
    letters = {(LEFT, i): (True, type(i)) for i in left_indices}
    letters.update({(RIGHT, j): (False, type(j)) for j in right_indices})
    system._set(
        left_indices=left_indices,
        right_indices=right_indices,
        lam=MappingProxyType(lam),
        two_bands=MappingProxyType(two_bands),
        cap=cap,
        _scale=scale,
        _phi_d={w: v.numerator * (scale // v.denominator) for w, v in two_bands.items()},
        _lam_d={ij: x.numerator * (scale // x.denominator) for ij, x in lam.items()},
        _letters=letters,
    )
    return system


def _apply_T(system: Rank1System, v: dict, k) -> dict:
    """Right multiplication by the left variable a_k in canonical IJ form.

    The letter moves to the end of the left block, and each right letter it
    crosses contributes a correction -phi(prefix) * lam * (shorter word) from
    the commutation relation.

    Coefficients are ints over a power of the system's scale D: the letter
    multiplies every carried term by D^2, and a correction is
    -c (phi D) (lam D), so after L left letters a coefficient c stands
    for c / D^(2L).
    """
    dd = system._scale ** 2
    phis, lams = system._phi_d, system._lam_d
    out: dict = {}
    for (il, jl), c in v.items():
        out[(il + (k,), jl)] = c * dd
        for t, j in enumerate(jl):
            x = lams.get((k, j))
            if x:
                phi = phis.get((il, jl[:t]))
                if phi is None:
                    system.phi(il, jl[:t])  # not stored: raises CapExceeded
                if phi:
                    _bump(out, ((), jl[t + 1 :]), -c * phi * x)
    return {w: c for w, c in out.items() if c}


def mixed_moment(system: Rank1System, word) -> Fraction:
    """phi of an arbitrary word over the system's variables.

    Applies the right-multiplication operators letter by letter starting
    from the state projector, then evaluates every canonical IJ-word against
    the stored two-bands moments.  A letter is a ``(side, label)`` tuple
    whose label is one the system declares for that side, of the same type.
    """
    _require_system(system)
    # Every coefficient is an int over D^(2L) after L left letters (see
    # _apply_T), and phi D is an int, so the moment is one Fraction over
    # D^(2L+1).  A right letter only appends its label to every right
    # block, so a run is appended once, before a left letter or in the evaluation.
    letters = system._letters
    lefts, run = 0, ()
    v = {((), ()): 1}
    for letter in word:
        try:
            left, kind = letters[letter]
        except (KeyError, TypeError):  # undeclared, or unhashable
            kind = None
        if kind is None or type(letter[1]) is not kind:
            _refuse_letter(letter)
        if left:
            v = _apply_T(
                system, {(il, jl + run): c for (il, jl), c in v.items()} if run else v, letter[1]
            )
            lefts, run = lefts + 1, ()
        else:
            run += (letter[1],)
    phis = system._phi_d
    total = 0
    for (il, jl), c in v.items():
        jl += run
        phi = phis.get((il, jl))
        if phi is None:
            system.phi(il, jl)  # not stored: raises CapExceeded
        total += c * phi
    return Fraction(total, system._scale ** (2 * lefts + 1))


def _refuse_letter(letter):
    """Raise the ValueError naming the fault of a letter that misses the
    letter table or its label's type.  A pair with a valid side is then
    undeclared: labels are distinct, so no equal label of another type is."""
    if not isinstance(letter, tuple) or len(letter) != 2:
        raise ValueError(f"letter {letter!r} is not a (side, label) pair")
    if letter[0] not in (LEFT, RIGHT):
        raise ValueError(f"letter {letter!r} has side {letter[0]!r}, not LEFT or RIGHT")
    raise ValueError(f"letter {letter!r} uses an undeclared index")


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
    for s in (s1, s2):
        _require_system(s)
        s._require_single_pair()
    if s1.left_indices != s2.left_indices or s1.right_indices != s2.right_indices:
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
    Each value is one ``Fraction``; ``_fill`` derives D and the int tables.
    """
    _check_cap(cap)
    _require_rep(rep)
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
    return _fill(
        Rank1System.__new__(Rank1System), left_labels, right_labels, lam, two_bands, cap
    )
