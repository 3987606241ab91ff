"""Shared test inputs, and the reference algorithms the fast paths replaced.

The references are earlier algorithms of the library, kept here only as
independent oracles: each reaches the same exact values by a different
route than the library code it checks.  The free-product references work on
a ``ProductState`` through its two actions alone.
"""

import itertools
from fractions import Fraction as F

from bifree.io import to_json
from bifree.oracle import LEFT, RIGHT, TruncationUnsound, basis_vector, rational_matrix
from bifree.partial_r import PartialRTable, TwoBandsTable, compute_partial_r
from bifree.series import NotInvertible, Series1, Series2


def random_table(rng, box, lo=-3, hi=3, denominators=(1,)):
    """A TwoBandsTable with entries p/q, p in [lo, hi], q from denominators."""
    m, n = box
    vals = [
        [F(rng.randint(lo, hi), rng.choice(denominators)) for _ in range(n + 1)]
        for _ in range(m + 1)
    ]
    vals[0][0] = F(1)
    return TwoBandsTable(vals)


def identity_matrix(dim: int) -> tuple:
    return tuple(basis_vector(dim, i) for i in range(dim))


def save_path(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json(obj))


def fraction_mul(x: Series2, y: Series2) -> Series2:
    """x * y by the Fraction double convolution, on the smaller box."""
    m, n = min(x.left_order, y.left_order), min(x.right_order, y.right_order)
    a, b = x.values, y.values
    out = []
    for p in range(m + 1):
        row = []
        for q in range(n + 1):
            acc = F(0)
            for i in range(p + 1):
                ai = a[i]
                bi = b[p - i]
                for j in range(q + 1):
                    if ai[j]:
                        acc += ai[j] * bi[q - j]
            row.append(acc)
        out.append(row)
    return Series2(out)


def fraction_reciprocal(x: Series2) -> Series2:
    """1 / x by the Fraction recurrence g[p][q] = -(1/c0) sum x[i][j] g[p-i][q-j]."""
    c0 = x.values[0][0]
    m, n = x.box
    inv = F(1) / c0
    out = [[F(0)] * (n + 1) for _ in range(m + 1)]
    out[0][0] = inv
    for p in range(m + 1):
        for q in range(n + 1):
            if p == 0 and q == 0:
                continue
            acc = F(0)
            for i in range(p + 1):
                ai = x.values[i]
                for j in range(q + 1):
                    if (i or j) and ai[j]:
                        acc += ai[j] * out[p - i][q - j]
            out[p][q] = -inv * acc
    return Series2(out)


def fraction_reciprocal1(f: Series1) -> Series1:
    """1 / f by the Fraction recurrence g[k] = -(1/c0) sum_{i>=1} f[i] g[k-i]."""
    inv = F(1) / f.coeffs[0]
    out = [inv]
    for k in range(1, f.order + 1):
        acc = sum((f.coeffs[i] * out[k - i] for i in range(1, k + 1)), F(0))
        out.append(-inv * acc)
    return Series1(out)


def horner_compose(f: Series1, g: Series1) -> Series1:
    """f(g(t)) by Horner's rule in Fractions, to order min(f.order, g.order)."""
    n = min(f.order, g.order)
    g = g.truncate(n)
    acc = Series1([f.coeffs[n]] + [0] * n)
    for k in range(n - 1, -1, -1):
        acc = acc * g + f.coeffs[k]
    return acc


def _powers(f: Series1, count: int):
    """[1, f, f^2, ..., f^count] truncated to f's order."""
    out = [Series1([1] + [0] * f.order)]
    for _ in range(count):
        out.append(out[-1] * f)
    return out


def fraction_substitute(h: Series2, f: Series1, g: Series1) -> Series2:
    """h(f(z), g(w)) as the direct sum over (i, j, p <= i, q <= j) of
    h[p][q] [z^i] f^p [w^j] g^q, in Fractions."""
    m = min(h.left_order, f.order)
    n = min(h.right_order, g.order)
    fpow = _powers(f.truncate(m), m)
    gpow = _powers(g.truncate(n), n)
    out = []
    for i in range(m + 1):
        row = []
        for j in range(n + 1):
            acc = F(0)
            for p in range(i + 1):
                fp = fpow[p].coeffs[i]
                if not fp:
                    continue
                for q in range(j + 1):
                    c = h.values[p][q]
                    if c:
                        acc += c * fp * gpow[q].coeffs[j]
            row.append(acc)
        out.append(row)
    return Series2(out)


def noncrossing_partitions(size: int) -> list:
    """Every non-crossing partition of range(size), as a list of blocks.

    The first element either is a singleton, or its block goes on at some
    j; then range(1, j) is partitioned on its own and the first element
    joins the block of j in a partition of range(j, size).  The block of
    the first element always comes first.
    """

    def parts(lo, hi):
        if lo == hi:
            return [[]]
        out = [[(lo,)] + rest for rest in parts(lo + 1, hi)]
        for j in range(lo + 1, hi):
            for inner in parts(lo + 1, j):
                for outer in parts(j, hi):
                    out.append([(lo,) + outer[0]] + inner + outer[1:])
        return out

    return parts(0, size)


def noncrossing_cumulants(table: TwoBandsTable) -> PartialRTable:
    """Two-bands cumulants by the bi-free moment-cumulant formula.

    phi(a^m b^n) is the sum over non-crossing partitions pi of the m + n
    letters, read in the order a_1 .. a_m b_n .. b_1, of the product over
    blocks V of kappa(#a in V, #b in V) (Charlesworth, Nelson and
    Skoufranis 2015).  The one-block partition contributes kappa(m, n)
    itself and every other one only lower degrees, so the formula is solved
    degree by degree.  Shares no code with the series route.
    """
    m, n = table.box
    kappa = {}
    for degree in range(1, m + n + 1):
        partitions = noncrossing_partitions(degree)
        for i in range(max(0, degree - n), min(m, degree) + 1):
            rest = F(0)
            for blocks in partitions:
                if len(blocks) == 1:
                    continue
                term = F(1)
                for block in blocks:
                    left = sum(1 for x in block if x < i)
                    term *= kappa[(left, len(block) - left)]
                rest += term
            kappa[(i, degree - i)] = table.values[i][degree - i] - rest
    return PartialRTable(
        [[kappa.get((i, j), F(0)) for j in range(n + 1)] for i in range(m + 1)]
    )


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
        g = (t - horner_compose(tail, g)) * inv1
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
