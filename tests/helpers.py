"""Shared test inputs, and the reference algorithms the fast paths replaced.

The references are earlier algorithms of the library, kept here only as
independent oracles: each reaches the same exact values by a different
route than the library code it checks.  The free-product references work on
a ``ProductState`` through its two actions alone, in Fractions.
"""

import itertools
from fractions import Fraction as F
from itertools import product as iproduct
from math import gcd, lcm

from bifree.io import to_json
from bifree.oracle import (
    LEFT,
    RIGHT,
    TruncationUnsound,
    TwoFacedPairRep,
    _basis_vector,
    _bump,
    _inner,
    _matvec,
    _rational_matrix,
)
from bifree.partial_r import PartialRTable, TwoBandsTable, biconvolve, compute_partial_r
from bifree.rank1 import NotRank1, Rank1System, UnsupportedIndexSets
from bifree.series import NotInvertible, Series1, Series2, ZeroConstantTerm, _scaled
from bifree.transforms import moments_to_r


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
    return tuple(tuple(F(int(r == c)) for c in range(dim)) for r in range(dim))


def state_projector(dim: int) -> tuple:
    """The rank-one idempotent onto the state vector e0."""
    return (_basis_vector(dim),) + ((F(0),) * dim,) * (dim - 1)


def shift_combo(dim: int, x, y) -> list:
    """x S + y S* on Q^dim, entry by entry, for S the truncated shift
    e_i -> e_(i+1): x below the diagonal, y above it."""
    x, y = F(x), F(y)
    return [[x if r == c + 1 else y if c == r + 1 else F(0) for c in range(dim)]
            for r in range(dim)]


def matrix_shift_pair_rep(dim: int, omega) -> TwoFacedPairRep:
    """The pair (a S + b S*, c S + d S*) built from its matrices, reliable on
    the first dim-1 basis indices: the shift pair as the library built it
    before it became the one-mode Fock pair."""
    ((a, b), (c, d)) = omega
    return TwoFacedPairRep(dim, {0: shift_combo(dim, a, b)}, {0: shift_combo(dim, c, d)},
                           reliable=range(dim - 1))


def matmul(a, b) -> tuple:
    """The dense matrix product a @ b, skipping zero entries of a."""
    out = []
    for row in a:
        acc = [F(0)] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                for c, y in enumerate(b_row):
                    acc[c] += x * y
        out.append(tuple(acc))
    return tuple(out)


def commutator(a, b) -> tuple:
    """The full matrix a @ b - b @ a."""
    return tuple(
        tuple(x - y for x, y in zip(u, v)) for u, v in zip(matmul(a, b), matmul(b, a))
    )


def dense_lam(rep) -> dict:
    """The coefficients extract_system reads off ``rep``, from full commutators.

    lam[i, j] is the (0, 0) entry of [a_i, b_j]; every reliable column must
    equal that of lam[i, j] * P, else NotRank1 names the first one that
    does not, with extract_system's message.
    """
    proj = state_projector(rep.dim)
    lam = {}
    for i, a in rep.left_ops.items():
        for j, b in rep.right_ops.items():
            comm = commutator(a, b)
            lam_ij = comm[0][0]
            for c in rep.reliable:
                if any(comm[r][c] != lam_ij * proj[r][c] for r in range(rep.dim)):
                    raise NotRank1(
                        f"[a_{i}, b_{j}] is not a multiple of the state projector "
                        f"on reliable column {c}"
                    )
            if lam_ij:
                lam[(i, j)] = lam_ij
    return lam


def fraction_extract_system(rep, cap: int) -> Rank1System:
    """extract_system in Fractions: the commutator columns and the two-bands
    rows and columns are built from the model's Fraction matrices."""
    left_t = {i: tuple(zip(*a)) for i, a in rep.left_ops.items()}
    right_t = {j: tuple(zip(*b)) for j, b in rep.right_ops.items()}

    def commutator_column(a_cols, b_cols, c):
        out = [F(0)] * rep.dim
        for cols, vec, sign in ((a_cols, b_cols[c], 1), (b_cols, a_cols[c], -1)):
            for k, x in enumerate(vec):
                for r, y in enumerate(cols[k]):
                    out[r] += sign * x * y
        return out

    lam = {}
    for i, a_cols in left_t.items():
        for j, b_cols in right_t.items():
            first = commutator_column(a_cols, b_cols, 0)
            for c in rep.reliable:
                col = first if c == 0 else commutator_column(a_cols, b_cols, c)
                if any(col[1:]) or (c and col[0]):
                    raise NotRank1(
                        f"[a_{i}, b_{j}] is not a multiple of the state projector "
                        f"on reliable column {c}"
                    )
            if first[0]:
                lam[(i, j)] = first[0]

    def columns(ops, labels):
        frontier = {(): _basis_vector(rep.dim)}
        cols = dict(frontier)
        for _ in range(cap):
            frontier = {
                (j,) + word: _matvec(ops[j], vec) for word, vec in frontier.items() for j in labels
            }
            cols.update(frontier)
        return cols

    left_labels = tuple(sorted(rep.left_ops))
    right_labels = tuple(sorted(rep.right_ops))
    cols = columns(rep.right_ops, right_labels)
    rows = columns(left_t, left_labels)
    two_bands = {}
    for p in range(cap + 1):
        for iw in iproduct(left_labels, repeat=p):
            for q in range(cap + 1 - p):
                for jw in iproduct(right_labels, repeat=q):
                    two_bands[(iw, jw)] = _inner(rows[iw[::-1]], cols[jw])
    return Rank1System(left_labels, right_labels, lam, two_bands, cap)


def fraction_mixed_moment(system, word) -> F:
    """mixed_moment in Fractions: the same right-multiplication recursion,
    with the system's lam and stored moments as they are, unscaled.  Letters
    are not validated."""
    v = {((), ()): F(1)}
    for side, k in word:
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
        v = {w: c for w, c in out.items() if c}
    return sum((c * system.phi(il, jl) for (il, jl), c in v.items()), F(0))


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


def fraction_mul1(a, b) -> list:
    """The product of coefficient rows a and b of ints or Fractions, cut to
    the shorter row, as the sum of a[i] b[k - i] over i <= k."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), 0) for k in range(min(len(a), len(b)))]


def fraction_lagrange(phi: Series1) -> Series1:
    """The unit series u with u = phi(t*u): [t^k] u = [z^k] phi^(k+1) / (k+1),
    each power of phi one more Fraction product."""
    power = phi.coeffs
    out = [phi.coeffs[0]]
    for k in range(1, phi.order + 1):
        power = fraction_mul1(power, phi.coeffs)
        out.append(power[k] / (k + 1))
    return Series1(out)


def horner_compose(f: Series1, g: Series1) -> Series1:
    """f(g(t)) by Horner's rule in Fractions, to order min(f.order, g.order)."""
    n = min(f.order, g.order)
    g = g.truncate(n)
    acc = Series1([f.coeffs[n]] + [0] * n)
    for k in range(n - 1, -1, -1):
        acc = Series1(fraction_mul1(acc.coeffs, g.coeffs)) + f.coeffs[k]
    return acc


def _powers(f: Series1, count: int):
    """[1, f, f^2, ..., f^count] truncated to f's order."""
    out = [Series1([1] + [0] * f.order)]
    for _ in range(count):
        out.append(Series1(fraction_mul1(out[-1].coeffs, f.coeffs)))
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


def two_pass_reciprocal(a, d):
    """(ints, den) of 1 / (a / d) for an integer grid a, by the reciprocal
    recurrence alone: with a0 = a[0][0], B[p][q] = a0^(p+q+1) (1/a)[p][q] and
    B[p][q] = -sum over (i, j) != (0, 0) of a[i][j] a0^(i+j-1) B[p-i][q-j]."""
    if a[0][0] == 0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    m, n = len(a) - 1, len(a[0]) - 1
    a0 = a[0][0]
    b = [[0] * (n + 1) for _ in range(m + 1)]
    b[0][0] = 1
    for p in range(m + 1):
        for q in range(n + 1):
            if p or q:
                b[p][q] = -sum(
                    a[i][j] * a0 ** (i + j - 1) * b[p - i][q - j]
                    for i in range(p + 1)
                    for j in range(q + 1)
                    if i or j
                )
    return _reduced([[d * x * a0 ** (m + n - p - q) for q, x in enumerate(row)]
                     for p, row in enumerate(b)], a0 ** (m + n + 1))


def two_pass_divide(num, a, den):
    """(ints, den) of (num / den) / a as two passes: the reciprocal of a,
    then its product with num."""
    inverse, d = two_pass_reciprocal(a, 1)
    product = fraction_mul(Series2(num), Series2(inverse))
    return _reduced([[x.numerator for x in row] for row in product.values], den * d)


# The two-bands maps on integer grids over one denominator, (ints, den),
# which the weight-scale kernels replaced: a fraction-free division that
# carries powers of the divisor's corner a0, Buermann rows over
# d^k lcm(1, ..., k), and a gcd reduction between kernels.


def fraction_free_divide(num, a, den):
    """(ints, d) of (num / den) / a for integer grids num, a on one box; a[0][0] != 0.

    With a0 = a[0][0], B[p][q] = a0^(p+q+1) (num / a)[p][q] are integers,
    B[p][q] = a0^(p+q) num[p][q] - sum over (i, j) != (0, 0) of
    a[i][j] a0^(i+j-1) B[p-i][q-j], and the result is B[p][q] a0^(m+n-p-q)
    over den a0^(m+n+1), reduced.
    """
    if a[0][0] == 0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    m, n = len(a) - 1, len(a[0]) - 1
    a0 = a[0][0]
    powers = [1]
    for _ in range(m + n + 1):
        powers.append(powers[-1] * a0)
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


def fraction_free_reciprocal(a, d):
    """(ints, den) of 1 / (a / d): the division of d at the corner by a."""
    return fraction_free_divide([[d] + [0] * (len(a[0]) - 1)] + [[0] * len(a[0])] * (len(a) - 1),
                                a, 1)


def fraction_free_substitute(grid, dh, f_rows, g_rows):
    """(ints, den) of (grid / dh)(f(z), g(w)) for power rows (F, df) and (G, dg), reduced."""
    (fp, df), (gq, dg) = f_rows, g_rows
    m = min(len(grid) - 1, len(fp) - 1)
    n = min(len(grid[0]) - 1, len(gq) - 1)
    h = [row[: n + 1] for row in grid[: m + 1]]
    t = [[sum(row[q] * gq[q][j] for q in range(j + 1)) for j in range(n + 1)] for row in h]
    return _reduced([[sum(fp[p][i] * t[p][j] for p in range(i + 1)) for j in range(n + 1)]
                     for i in range(m + 1)], dh * df * dg)


def fraction_free_burmann_rows(phi, d, k):
    """(rows, den) with rows[p][n] / den = [z^n] f^p for f = z (phi / d)(f), over
    den = d^k lcm(1, ..., k): [z^n] f^p = p [w^(n-p)] P_n / (n d^n), P_n = phi^n."""
    lcm_n = lcm(*range(1, k + 1))
    den = d**k * lcm_n
    rows = [[den] + [0] * k] + [[0] * (k + 1) for _ in range(k)]
    row, power = [x for (x,) in phi], [1] + [0] * (k - 1)
    for n in range(1, k + 1):
        power = fraction_mul1(power, row)
        scale = d ** (k - n) * (lcm_n // n)
        for p in range(1, n + 1):
            rows[p][n] = p * power[n - p] * scale
    return rows, den


def fraction_free_forward(values, m, n):
    """(ints, den) of the cumulant table of the moment rows ``values`` on the box (m, n)."""
    h, dh = _scaled(values)
    ka = fraction_free_burmann_rows(*fraction_free_reciprocal([[x[0]] for x in h], dh), m)
    kb = fraction_free_burmann_rows(*fraction_free_reciprocal([[x] for x in h[0]], dh), n)
    s, ds = fraction_free_substitute(h, dh, ka, kb)
    col, row = [x[0] for x in s], s[0]
    q, dq = fraction_free_divide([[x * y for y in row] for x in col], s, ds)
    linear = [[x] + [0] * (len(row) - 1) for x in col]
    linear[0] = [col[0] + row[0] - ds] + row[1:]
    return [[u * dq - v * ds for u, v in zip(lr, qr)] for lr, qr in zip(linear, q)], ds * dq


def fraction_free_inverse(rho, d, m, n):
    """The moment table whose cumulant table is the integer grid rho over d, on the box (m, n)."""
    a = [row[0] for row in rho]
    b = list(rho[0])
    a[0] = b[0] = d
    grid = [[-x if i and j else 0 for j, x in enumerate(row)] for i, row in enumerate(rho)]
    grid[0][0] = d
    ga = fraction_free_burmann_rows([[x] for x in a], d, m)
    gb = fraction_free_burmann_rows([[x] for x in b], d, n)
    q = fraction_free_divide([[x * y for y in b] for x in a], grid, d)
    ints, den = fraction_free_substitute(*q, ga, gb)
    return TwoBandsTable([[F(x, den) for x in row] for row in ints])


def fraction_free_compute_partial_r(table: TwoBandsTable) -> PartialRTable:
    ints, den = fraction_free_forward(table.values, *table.box)
    return PartialRTable([[F(x, den) for x in row] for row in ints])


def fraction_free_partial_r_to_moments(r: PartialRTable) -> TwoBandsTable:
    return fraction_free_inverse(*_scaled(r.values), *r.box)


def fraction_free_biconvolve(t1: TwoBandsTable, t2: TwoBandsTable) -> TwoBandsTable:
    """Two forward passes, the cumulant grids added as (r1 d2 + r2 d1) / (d1 d2), one inverse."""
    (r1, d1), (r2, d2) = (fraction_free_forward(t.values, *t.box) for t in (t1, t2))
    total = [[x * d2 + y * d1 for x, y in zip(u, v)] for u, v in zip(r1, r2)]
    return fraction_free_inverse(*_reduced(total, d1 * d2), *t1.box)


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


def reverted_marginal(moments) -> tuple:
    """(k, p) of a moment sequence h by reversion: k = revert(t*h) and p = z / k(z) = 1 + z*r(z)."""
    k = Series1(moments).shift_up().revert()
    return k, k.shift_down().reciprocal()


def reverted_moments_to_r(moments) -> Series1:
    """Cumulants by reversion: k = revert(t*h) and 1 + z*r(z) = z / k(z)."""
    return (reverted_marginal(moments)[1] - 1).shift_down()


def reverted_r_to_moments(r: Series1, order: int) -> tuple:
    """Moments of a cumulant series by reversion: t*h = revert(t / (1 + t*r))."""
    if order == 0:
        return (F(1),)
    p = r.truncate(order - 1).shift_up() + 1
    return p.reciprocal().shift_up().revert().shift_down().coeffs


def cumulant_sum_convolve1(m1, m2) -> tuple:
    """Free convolution as the moments of the summed cumulant series, taken
    back by reversion, so that it shares no inverse step with the tower."""
    n = min(len(m1), len(m2)) - 1
    if n == 0:
        return (F(1),)
    return reverted_r_to_moments(moments_to_r(m1[: n + 1]) + moments_to_r(m2[: n + 1]), n)


def reverted_subordination(m1, m2, order: int) -> tuple:
    """(revert(t*h1)(t*h), revert(t*h2)(t*h)) with h the moments of the sum."""
    g = Series1(cumulant_sum_convolve1(m1[: order + 1], m2[: order + 1])).shift_up()
    return tuple(
        Series1(m[: order + 1]).shift_up().revert().compose(g).truncate(order)
        for m in (m1, m2)
    )


def reverted_partial_r_to_moments(r: PartialRTable) -> TwoBandsTable:
    """H = Q(t ha, s hb), Q = pa pb / (pa + pb - 1 - R), with t*ha = revert(z / pa)."""
    pa = Series1([row[0] for row in r.values]) + 1
    pb = Series1(r.values[0]) + 1
    m, n = r.box
    linear = Series2.product(pa, [1] + [0] * n) + Series2.product([1] + [0] * m, pb) - 1
    q = Series2.product(pa, pb) * (linear - r).reciprocal()
    ga = pa.reciprocal().shift_up().revert()
    gb = pb.reciprocal().shift_up().revert()
    return TwoBandsTable(q.substitute(ga, gb).values)


def framed_compute_partial_r(table: TwoBandsTable) -> PartialRTable:
    """R = (pa + pb - 1) - pa(z) pb(w) / H(ka(z), kb(w)) on public Series2 operations,
    with (ka, pa) and (kb, pb) from the reverted marginals."""
    ka, pa = reverted_marginal(table.a_moments())
    kb, pb = reverted_marginal(table.b_moments())
    m, n = table.box
    linear = Series2.product(pa, [1] + [0] * n) + Series2.product([1] + [0] * m, pb) - 1
    frac = table.substitute(ka, kb).reciprocal()
    return PartialRTable((linear - Series2.product(pa, pb) * frac).values)


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


def rank1_from_table(table: TwoBandsTable, lam_value) -> Rank1System:
    """Single-pair system, both labels 0, from a rectangular moment table.

    Stores every phi(a^p b^q) with p <= left order, q <= right order of
    the table; the cap is the sum of the orders, so rectangular lookups
    stay within the diagonal cap discipline.
    """
    two_bands = {
        ((0,) * p, (0,) * q): table.values[p][q]
        for p in range(table.left_order + 1)
        for q in range(table.right_order + 1)
    }
    cap = table.left_order + table.right_order
    return Rank1System((0,), (0,), {(0, 0): lam_value}, two_bands, cap)


def per_corner_biconvolve_rank1(s1: Rank1System, s2: Rank1System) -> Rank1System:
    """biconvolve_rank1 with one biconvolve per maximal stored degree (p, q),
    each on the rectangle (p, q) of stored moments alone."""
    s1._require_single_pair()
    s2._require_single_pair()
    if s1.left_indices != s2.left_indices or s1.right_indices != s2.right_indices:
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


def mirrored_apply_right(product, k, mat, vec: dict) -> dict:
    """The right action of factor k's ``mat`` on ``product``, written out as
    the mirror image of ProductState.apply_left: the last tensor slot is
    read and written where apply_left reads and writes the first.
    """
    dim = product.factors[k].dim
    cols = tuple(zip(*_rational_matrix(mat)))
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
