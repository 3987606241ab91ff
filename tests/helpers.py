"""Shared test inputs, and the reference algorithms the fast paths replaced.

The references are earlier algorithms of the library, kept here only as
independent oracles: each reaches the same exact values by a different
route than the library code it checks.  The free-product references work on
a ``ProductState`` through its two actions alone.
"""

import itertools
from fractions import Fraction as F

from bifree.oracle import LEFT, RIGHT, TruncationUnsound, rational_matrix
from bifree.partial_r import PartialRTable, TwoBandsTable, compute_partial_r
from bifree.series import NotInvertible, Series1


def random_table(rng, box, lo=-3, hi=3, denominators=(1,)):
    """A TwoBandsTable with entries p/q, p in [lo, hi], q from denominators."""
    m, n = box
    vals = [
        [F(rng.randint(lo, hi), rng.choice(denominators)) for _ in range(n + 1)]
        for _ in range(m + 1)
    ]
    vals[0][0] = F(1)
    return TwoBandsTable(vals)


def picard_revert(f: Series1) -> Series1:
    """Reversion by the contraction x -> (t - tail(x)) / f'(0).

    tail collects the terms of degree >= 2; each pass gains one exact order.
    """
    if f.order < 1 or f[0] != 0 or f[1] == 0:
        raise NotInvertible("reversion needs f(0) = 0 and f'(0) != 0")
    n = f.order
    inv1 = F(1) / f[1]
    tail = Series1((F(0), F(0)) + f.coeffs[2:])
    t = Series1.var(n)
    g = t * inv1
    for _ in range(n - 1):
        g = (t - tail.compose(g)) * inv1
    return g


def antidiagonal_inverse(r: PartialRTable) -> TwoBandsTable:
    """Solve compute_partial_r(result) = r degree by degree.

    Every cumulant is that bidegree's moment plus a polynomial in moments of
    strictly smaller total degree, so each forward pass fixes one
    antidiagonal of the table.
    """
    m, n = r.box
    vals = [[F(0)] * (n + 1) for _ in range(m + 1)]
    vals[0][0] = F(1)
    for d in range(1, m + n + 1):
        p, q = min(m, d), min(n, d)
        partial = compute_partial_r(TwoBandsTable(tuple(row[: q + 1] for row in vals[: p + 1])))
        for i in range(max(0, d - n), min(m, d) + 1):
            j = d - i
            vals[i][j] = r.values[i][j] - partial.values[i][j]
    return TwoBandsTable(vals)


def mirrored_apply_right(product, k, mat, vec: dict) -> dict:
    """The right action of factor k's ``mat`` on ``product``, written out as
    the mirror image of ProductState.apply_left: the last tensor slot is
    read and written where apply_left reads and writes the first.
    """
    dim = product.factors[k].dim
    cols = tuple(zip(*rational_matrix(mat)))
    out: dict = {}

    def bump(word, value):
        out[word] = out.get(word, 0) + value

    for word, c in vec.items():
        if word and word[-1][0] == k:
            col = cols[word[-1][1]]
            rest = word[:-1]
            if col[0]:
                bump(rest, c * col[0])
            for r in range(1, dim):
                if col[r]:
                    bump(rest + ((k, r),), c * col[r])
        else:
            col = cols[0]
            if col[0]:
                bump(word, c * col[0])
            if len(word) < product.max_word_len:
                for r in range(1, dim):
                    if col[r]:
                        bump(word + ((k, r),), c * col[r])
    return {w: v for w, v in out.items() if v}


def basis(product) -> list:
    """The words of ``product``: by length, then factor indices, then
    coordinate indices, all lexicographic.  Exponential in max_word_len."""
    words = [()]
    nf = len(product.factors)
    for length in range(1, product.max_word_len + 1):
        for fseq in itertools.product(range(nf), repeat=length):
            if any(fseq[i] == fseq[i + 1] for i in range(length - 1)):
                continue
            ranges = [range(1, product.factors[k].dim) for k in fseq]
            for coords in itertools.product(*ranges):
                words.append(tuple(zip(fseq, coords)))
    return words


def _materialize(product, apply_fn, k, mat) -> tuple:
    words = basis(product)
    index = {w: i for i, w in enumerate(words)}
    out = [[F(0)] * len(words) for _ in words]
    for j, w in enumerate(words):
        for image, v in apply_fn(k, mat, {w: F(1)}).items():
            out[index[image]][j] = v
    return tuple(map(tuple, out))


def left_action(product, k, mat) -> tuple:
    """Matrix over basis(product) of the left representation of factor k's mat."""
    return _materialize(product, product.apply_left, k, mat)


def right_action(product, k, mat) -> tuple:
    return _materialize(product, product.apply_right, k, mat)


def apply_sum(product, side, label, vec: dict) -> dict:
    """Apply sum_k (lift of factor k's operator ``label``) on ``side``."""
    apply = product.apply_left if side == LEFT else product.apply_right
    out: dict = {}
    for k, factor in enumerate(product.factors):
        for w, v in apply(k, factor.operator(side, label), vec).items():
            out[w] = out.get(w, 0) + v
    return {w: v for w, v in out.items() if v}


def joint_moment(product, word) -> F:
    """phi of a product of lifted variables.

    ``word`` lists (side, factor, label) triples in product order; a word
    longer than max_word_len could see the truncation, so it raises.
    """
    word = tuple(word)
    if len(word) > product.max_word_len:
        raise TruncationUnsound(
            f"word of length {len(word)} exceeds max_word_len {product.max_word_len}"
        )
    vec = product.vacuum()
    for side, k, label in reversed(word):
        mat = product.factors[k].operator(side, label)
        apply = product.apply_left if side == LEFT else product.apply_right
        vec = apply(k, mat, vec)
    return product.expectation(vec)


def nested_sum_two_bands_table(product, box):
    """phi((sum_k a_k)^m (sum_k b_k)^n) by applying the summed left operator
    to every power of the summed right one applied to the vacuum."""
    m, n = box
    values = [[F(0)] * (n + 1) for _ in range(m + 1)]
    vec = product.vacuum()
    for j in range(n + 1):
        if j:
            vec = apply_sum(product, RIGHT, 0, vec)
        w = vec
        values[0][j] = product.expectation(w)
        for i in range(1, m + 1):
            w = apply_sum(product, LEFT, 0, w)
            values[i][j] = product.expectation(w)
    return TwoBandsTable(values)
