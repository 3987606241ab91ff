"""Shared test inputs, and the reference algorithms the fast paths replaced.

The references are the earlier fixed-point solvers, kept here only as
independent oracles: each reaches the same exact values by a different
route than the library code it checks.
"""

from fractions import Fraction as F

from bifree.oracle import rational_matrix
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
