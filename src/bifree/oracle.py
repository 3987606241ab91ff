"""Brute-force operator models for two-faced pairs.

A factor is a pointed space Q^d with state vector e0 together with left and
right operator families acting on it.  Several factors combine into the
truncated free product of their pointed spaces, on which each factor k acts
by a left representation (touching the first tensor slot) and a right
representation (touching the last slot).  Joint moments of the lifted
variables realize bi-freeness of the factors, so this module serves as an
independent oracle for everything the series machinery claims.

Vectors of the product space are sparse dicts keyed by alternating words
``((factor, coord), ...)``; coords index the complement of the state vector,
1 .. dim-1.  Words longer than ``max_word_len`` are dropped, which is sound
exactly when no operator word longer than that is evaluated: applying one
operator grows a word by at most one letter.

A representation stores its matrices as tuples of row tuples of
``fractions.Fraction``; ``_inner`` and ``_matvec``, which evaluate a moment on
the factor's own space, skip zero entries, which the sparse shift and Fock
models are full of.  The model tables scale each band's operators to ints
once, over the LCM D of their denominators (``_integral``); a vector after
p steps is then exact over D^p, and each table entry is one ``Fraction`` at
the end.  A sum table runs the lift kernel ``_lift`` on the product space.
A factor's own table, and :func:`bifree.rank1.extract_system`, build dense
int columns on the factor's own space instead (``_columns``).
``apply_left`` and ``apply_right`` run the lift kernel on the Fractions
they are given.
Representations and product states are read-only after construction, so
evaluations may run in parallel.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul
from types import MappingProxyType

from .partial_r import TwoBandsTable
from .series import NegativeOrder, as_fraction, check_orders

__all__ = [
    "LEFT",
    "RIGHT",
    "FactorMismatch",
    "TruncationUnsound",
    "TwoFacedPairRep",
    "ProductState",
    "gaussian_pair_rep",
    "shift_pair_rep",
    "two_bands_table",
    "sum_two_bands_table",
]

LEFT = "L"
RIGHT = "R"


class FactorMismatch(ValueError):
    """Operator applied with a factor index or shape it does not fit."""


class TruncationUnsound(ValueError):
    """Requested evaluation exceeds the range the truncation keeps exact."""


def _rational_vector(entries) -> tuple:
    return tuple(as_fraction(v) for v in entries)


def _rational_matrix(rows) -> tuple:
    mat = tuple(_rational_vector(row) for row in rows)
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("expected a square matrix")
    return mat


def _basis_vector(dim: int) -> tuple:
    """The state vector e0 of Q^dim."""
    return (Fraction(1),) + (Fraction(0),) * (dim - 1)


def _box_orders(box) -> tuple:
    """The orders (m, n) of a box; NegativeOrder unless it is a pair of them."""
    try:
        m, n = box
    except (TypeError, ValueError):
        raise NegativeOrder(f"box must be a pair (m, n) of orders, got {box!r}") from None
    check_orders(m, n)
    return m, n


def _require_rep(rep):
    if not isinstance(rep, TwoFacedPairRep):
        raise TypeError(f"factors must be TwoFacedPairReps, got {type(rep).__name__}")


def _integral(mats) -> tuple:
    """(ints, D) for a dict of Fraction matrices: mats[k] = ints[k] / D, with
    D the LCM of every entry's denominator."""
    d = 1
    for mat in mats.values():
        for row in mat:
            for x in row:
                d = lcm(d, x.denominator)
    ints = {
        k: tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in mat)
        for k, mat in mats.items()
    }
    return ints, d


def _inner(u, v) -> Fraction:
    """sum u[i] v[i], skipping zero entries."""
    acc = Fraction(0)
    for x, y in zip(u, v):
        if x and y:
            acc += x * y
    return acc


def _matvec(mat, vec) -> tuple:
    """mat @ vec."""
    return tuple(_inner(row, vec) for row in mat)


class _ReadOnly:
    """Base of the value classes whose attributes are fixed by ``__init__``.

    Assigning or deleting an attribute raises ``AttributeError``; the
    constructor sets its slots through ``_set``.
    """

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def __copy__(self):
        return self


class TwoFacedPairRep(_ReadOnly):
    """Left and right operator families on Q^dim with state vector e0.

    Coordinates 1 .. dim-1 span the complement of the state vector.
    ``reliable`` lists the basis indices on which commutation identities of
    a truncation-built model can be trusted (None means all of them); it is
    consulted by :func:`bifree.rank1.extract_system`, never by moment
    evaluation.  Its attributes cannot be reassigned after construction.
    """

    __slots__ = ("dim", "left_ops", "right_ops", "reliable")

    def __init__(self, dim: int, left_ops, right_ops, reliable=None):
        if type(dim) is not int or dim < 1:
            raise ValueError(f"a pair representation needs an int dimension >= 1, got {dim!r}")
        self._set(dim=dim)
        left_ops = MappingProxyType({k: self._check(m) for k, m in dict(left_ops).items()})
        right_ops = MappingProxyType({k: self._check(m) for k, m in dict(right_ops).items()})
        reliable = tuple(range(dim) if reliable is None else reliable)
        if any(type(c) is not int or not 0 <= c < dim for c in reliable):
            raise ValueError(f"reliable indices must be ints in range({dim}), got {reliable}")
        self._set(left_ops=left_ops, right_ops=right_ops, reliable=tuple(sorted(set(reliable))))

    def _check(self, mat) -> tuple:
        mat = _rational_matrix(mat)
        if len(mat) != self.dim:
            raise FactorMismatch(
                f"operator shape {(len(mat), len(mat))} does not fit dimension {self.dim}"
            )
        return mat

    def operator(self, side, label) -> tuple:
        try:
            return {LEFT: self.left_ops, RIGHT: self.right_ops}[side][label]
        except KeyError:
            raise FactorMismatch(f"no {side!r} operator labelled {label!r}") from None

    def moment(self, word) -> Fraction:
        """phi of a product of declared variables on the factor's own space.

        ``word`` lists (side, label) pairs in product order.
        """
        vec = _basis_vector(self.dim)
        for side, label in reversed(tuple(word)):
            vec = _matvec(self.operator(side, label), vec)
        return vec[0]


class ProductState(_ReadOnly):
    """Truncated free product of the factors' pointed spaces; read-only."""

    __slots__ = ("factors", "max_word_len")

    def __init__(self, factors, max_word_len: int):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        for f in factors:
            _require_rep(f)
        if type(max_word_len) is not int or max_word_len < 0:
            raise ValueError(f"max_word_len must be a nonnegative int, got {max_word_len!r}")
        self._set(factors=factors, max_word_len=max_word_len)

    def _factor(self, k) -> TwoFacedPairRep:
        if type(k) is not int or not 0 <= k < len(self.factors):
            raise FactorMismatch(f"no factor {k!r}")
        return self.factors[k]

    def vacuum(self) -> dict:
        return {(): Fraction(1)}

    def expectation(self, vec: dict) -> Fraction:
        return vec.get((), Fraction(0))

    def apply_left(self, k, mat, vec: dict) -> dict:
        """Apply the left representation of factor k's operator ``mat``."""
        factor = self._factor(k)
        out: dict = {}
        _lift(out, k, tuple(zip(*factor._check(mat))), self.max_word_len, vec)
        return {w: v for w, v in out.items() if v}

    def apply_right(self, k, mat, vec: dict) -> dict:
        """Apply the right representation, acting on the last tensor slot.

        Reversing every word swaps the first and the last slot, so this is
        the left action conjugated by reversal.  Reversal maps the words of
        length <= max_word_len onto themselves, so the truncation agrees.
        """
        return _reversed(self.apply_left(k, mat, _reversed(vec)))


def _lift(out: dict, k: int, cols, max_word_len: int, vec: dict):
    """Add to ``out`` the left lift of factor k's operator, given by its
    columns, applied to ``vec``.

    The numbers may be Fractions or ints scaled over a common denominator.
    """
    dim = len(cols)
    for word, c in vec.items():
        if word and word[0][0] == k:
            col = cols[word[0][1]]
            rest = word[1:]
            if col[0]:
                _bump(out, rest, c * col[0])
            for r in range(1, dim):
                if col[r]:
                    _bump(out, ((k, r),) + rest, c * col[r])
        else:
            col = cols[0]
            if col[0]:
                _bump(out, word, c * col[0])
            if len(word) < max_word_len:
                for r in range(1, dim):
                    if col[r]:
                        _bump(out, ((k, r),) + word, c * col[r])


def _bump(d: dict, key, value):
    cur = d.get(key)
    d[key] = value if cur is None else cur + value


def _reversed(vec: dict) -> dict:
    """The vector with every word key read backwards."""
    return {word[::-1]: c for word, c in vec.items()}


def shift_pair_rep(dim: int, omega) -> TwoFacedPairRep:
    """Pair (a S + b S*, c S + d S*) built from the truncated shift on Q^dim.

    S is the creation operator on the full Fock space of a one-dimensional
    Hilbert space, where left and right creation agree, so this is the
    one-mode field pair ``gaussian_pair_rep([a], [b], [c], [d], dim - 1)``:
    commutation identities hold on the first dim-1 basis indices and
    moments of words of length up to 2*(dim-1) are exact.
    """
    if type(dim) is not int or dim < 2:
        raise ValueError(f"shift model needs an int dimension >= 2, got {dim!r}")
    ((a, b), (c, d)) = omega
    return gaussian_pair_rep([a], [b], [c], [d], dim - 1)


def _fock_words(hilbert_dim: int, cutoff: int) -> list:
    """Tensor words over range(hilbert_dim) of length <= cutoff, ordered by
    length then lexicographically; the empty word is the vacuum."""
    out = []
    for length in range(cutoff + 1):
        out.extend(itertools.product(range(hilbert_dim), repeat=length))
    return out


def gaussian_pair_rep(h_left, hs_left, h_right, hs_right, fock_cutoff: int) -> TwoFacedPairRep:
    """Field-operator pair on a truncated full Fock space.

    The left variable is l(h_left) + l*(hs_left), the right variable
    r(h_right) + r*(hs_right), with l/r the creation operators on the first
    and last tensor slot and l*/r* the matching annihilations for the exact
    bilinear pairing <u, v> = sum u_i v_i.  The state vector is the vacuum.
    Commutation identities hold below the cutoff layer, and moments of words
    of length up to 2*fock_cutoff are exact.
    """
    if type(fock_cutoff) is not int or fock_cutoff < 1:
        raise ValueError(f"fock_cutoff must be an int >= 1, got {fock_cutoff!r}")
    h_left = _rational_vector(h_left)
    hs_left = _rational_vector(hs_left)
    h_right = _rational_vector(h_right)
    hs_right = _rational_vector(hs_right)
    hdim = len(h_left)
    if not (len(hs_left) == len(h_right) == len(hs_right) == hdim) or hdim < 1:
        raise ValueError("the four vectors must share one positive dimension")

    words = _fock_words(hdim, fock_cutoff)
    index = {w: i for i, w in enumerate(words)}
    dim = len(words)

    left = [[Fraction(0)] * dim for _ in range(dim)]
    right = [[Fraction(0)] * dim for _ in range(dim)]
    for w, j in index.items():
        if len(w) < fock_cutoff:
            for i in range(hdim):
                if h_left[i]:
                    left[index[(i,) + w]][j] += h_left[i]
                if h_right[i]:
                    right[index[w + (i,)]][j] += h_right[i]
        if w:
            if hs_left[w[0]]:
                left[index[w[1:]]][j] += hs_left[w[0]]
            if hs_right[w[-1]]:
                right[index[w[:-1]]][j] += hs_right[w[-1]]

    reliable = [i for i, w in enumerate(words) if len(w) < fock_cutoff]
    return TwoFacedPairRep(dim, {0: left}, {0: right}, reliable=reliable)


def two_bands_table(rep: TwoFacedPairRep, box) -> TwoBandsTable:
    """Moments phi(a^m b^n) of the pair labelled 0 on the factor's own space.

    Entry (p, q) pairs the row e0^T a^p, the column of the transposed left
    operator, with the column b^q e0, both dense int columns over the LCM of
    their operator's denominators, D_L and D_R, so the pairing is exact over
    D_L^p D_R^q.  This equals the sum table of the one-factor free product,
    whose words are never longer than one letter.
    """
    m, n = _box_orders(box)
    _require_rep(rep)
    left, dl = _integral({0: tuple(zip(*rep.operator(LEFT, 0)))})
    right, dr = _integral({0: rep.operator(RIGHT, 0)})
    # one label: the words (0,) * p come out in order of length
    rows = list(_columns(left, (0,), rep.dim, m).values())
    cols = list(_columns(right, (0,), rep.dim, n).values())
    return TwoBandsTable(
        [Fraction(sum(map(mul, row, col)), dl**p * dr**q) for q, col in enumerate(cols)]
        for p, row in enumerate(rows)
    )


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


def sum_two_bands_table(product: ProductState, box) -> TwoBandsTable:
    """Moments phi((sum_k a_k)^m (sum_k b_k)^n) of the lifted variable sums.

    Every factor must declare the pair labelled 0; exactness requires
    m + n <= max_word_len on the whole box.  Entry (p, q) pairs the row
    Omega^T A^p with the column B^q Omega, for A and B the summed left and
    right lifts.  The row is the column of the transposed left operators,
    because on the word basis the lift of a transpose is the transpose of
    the lift.  The column is the left band of the right operators read
    backwards, since the right lift is the left lift conjugated by reversal.
    Each band runs on its operators scaled to ints over the LCM of their
    denominators, D_L and D_R, so entry (p, q) is the int pairing over
    D_L^p D_R^q.
    """
    m, n = _box_orders(box)
    if not isinstance(product, ProductState):
        raise TypeError(f"product must be a ProductState, got {type(product).__name__}")
    if m + n > product.max_word_len:
        raise TruncationUnsound(
            f"box {box} needs words of length {m + n} but max_word_len is "
            f"{product.max_word_len}"
        )
    # the columns of a transposed left operator are its rows
    left, dl = _integral({k: f.operator(LEFT, 0) for k, f in enumerate(product.factors)})
    right, dr = _integral(
        {k: tuple(zip(*f.operator(RIGHT, 0))) for k, f in enumerate(product.factors)}
    )
    rows = _band(left, product.max_word_len, m)
    cols = [_reversed(vec) for vec in _band(right, product.max_word_len, n)]
    return TwoBandsTable(
        [Fraction(_pair(row, col), dl**p * dr**q) for q, col in enumerate(cols)]
        for p, row in enumerate(rows)
    )


def _band(cols, max_word_len: int, length: int) -> list:
    """[Omega, X Omega, .., X^length Omega] for X the sum over k of the left
    lifts of the operators with columns cols[k]."""
    vec = {(): 1}
    band = [vec]
    for _ in range(length):
        out: dict = {}
        for k, factor_cols in cols.items():
            _lift(out, k, factor_cols, max_word_len, vec)
        vec = {w: v for w, v in out.items() if v}
        band.append(vec)
    return band


def _pair(u: dict, v: dict) -> int:
    """sum_w u[w] v[w], over the words both vectors hold."""
    return sum(c * v[w] for w, c in u.items() if w in v)
