"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Every test prints a single PASS line on success; a failure raises before the
line is printed, so the printed report mirrors the pytest outcome.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they appear.
"""

import random
from fractions import Fraction as F
from itertools import product as iproduct
from math import comb

from bifree.oracle import (
    LEFT,
    RIGHT,
    ProductState,
    TwoFacedPairRep,
    _rational_matrix,
    gaussian_pair_rep,
    shift_pair_rep,
    sum_two_bands_table,
    two_bands_table,
)
from bifree.partial_r import (
    PartialRTable,
    TwoBandsTable,
    biconvolve,
    compute_partial_r,
    mixed_cumulants_vanish,
    partial_r_to_moments,
)
from bifree.rank1 import extract_system, mixed_moment
from bifree.selfcheck import _quotient
from bifree.series import Series1
from bifree.transforms import free_convolve1, subordination_series
from helpers import apply_sum, basis, random_table


def _report(line):
    print(f"PASS {line}")


def random_rep(rng, dim, lo=-2, hi=2):
    mk = lambda: [[F(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)]
    return TwoFacedPairRep(dim, {0: mk()}, {0: mk()})


def test_criterion_1_additivity_of_partial_r():
    """50 random pairs of operator models, dims <= 4, product length 8:
    cumulants of the bi-free sum equal the sum of cumulants, box (4, 4)."""
    rng = random.Random(101)
    for trial in range(50):
        dims = rng.choice([2, 2, 2, 3, 3, 4]), rng.choice([2, 2, 2, 3, 3, 4])
        r1, r2 = random_rep(rng, dims[0]), random_rep(rng, dims[1])
        t1 = two_bands_table(r1, (4, 4))
        t2 = two_bands_table(r2, (4, 4))
        product = ProductState([r1, r2], max_word_len=8)
        t_sum = sum_two_bands_table(product, (4, 4))
        assert compute_partial_r(t_sum) == compute_partial_r(t1) + compute_partial_r(t2)
    _report("criterion 1: partial R-transform additivity on 50 oracle pairs, box (4,4)")


def test_criterion_2_roundtrip():
    """Moments -> cumulants -> moments is the identity on 100 random
    rational tables on box (6, 6)."""
    rng = random.Random(102)
    for trial in range(100):
        table = random_table(rng, (6, 6), lo=-6, hi=6, denominators=(1, 1, 2, 3))
        assert partial_r_to_moments(compute_partial_r(table)) == table
    _report("criterion 2: cumulant/moment roundtrip on 100 rational tables, box (6,6)")


def test_criterion_3_leading_coefficient_and_bihomogeneity():
    """A finite difference in one moment moves the matching cumulant by the
    same amount, cannot reach cumulants outside its shadow, and scaling
    the faces by (2, 3) scales R[m][n] by 2^m 3^n."""
    rng = random.Random(103)
    base = random_table(rng, (4, 4), denominators=(1, 2))
    r0 = compute_partial_r(base)
    step = F(3, 7)
    for m in range(5):
        for n in range(5):
            if m == n == 0:
                continue
            rows = [list(row) for row in base.values]
            rows[m][n] += step
            r1 = compute_partial_r(TwoBandsTable(rows))
            assert r1.values[m][n] - r0.values[m][n] == step
            for p in range(5):
                for q in range(5):
                    if p < m or q < n:
                        assert r1.values[p][q] == r0.values[p][q]
    lam, mu = F(2), F(3)
    scaled = TwoBandsTable(
        [[lam**p * mu**q * v for q, v in enumerate(row)] for p, row in enumerate(base.values)]
    )
    r_scaled = compute_partial_r(scaled)
    assert r_scaled == PartialRTable(
        [[lam**m * mu**n * v for n, v in enumerate(row)] for m, row in enumerate(r0.values)]
    )
    _report("criterion 3: leading coefficient via finite differences + (2,3)-bihomogeneity")


def test_criterion_4_r11_closed_form():
    """R[1][1] = phi(ab) - phi(a) phi(b), against an independent expansion
    of the defining series at bidegree (1, 1)."""
    rng = random.Random(104)
    for trial in range(50):
        t = random_table(rng, (1, 1), lo=-9, hi=9, denominators=(1, 2, 3))
        one, pa = F(1), t.values[1][0]
        pb, pab = t.values[0][1], t.values[1][1]
        # independent order-(1,1) expansion: with k_a(z) = z - pa z^2 + ...,
        # H(k_a(z), k_b(w)) = 1 + pa z + pb w + pab zw + (deg >= 2 in z or w),
        # so 1/H = 1 - pa z - pb w + (2 pa pb - pab) zw + ...; multiplying by
        # (1 + pa z)(1 + pb w) leaves 1 + (pab - pa pb) zw as the only mixed
        # term, and the linear parts cancel against z R_a + w R_b.
        expected = pab - pa * pb
        assert compute_partial_r(t).values[1][1] == expected
    _report("criterion 4: R[1][1] = phi(ab) - phi(a) phi(b) on 50 random tables")


def test_criterion_5_integrality():
    """Integer moment tables give integer cumulant tables: 100 random
    integer tables, box (5, 5)."""
    rng = random.Random(105)
    for trial in range(100):
        table = random_table(rng, (5, 5), lo=-9, hi=9)
        r = compute_partial_r(table)
        assert all(v.denominator == 1 for row in r.values for v in row)
    _report("criterion 5: integrality of cumulants on 100 integer tables, box (5,5)")


def _alternating_patterns(length):
    if length == 0:
        return [()]
    out = []
    for first in (0, 1):
        pattern = [first]
        for _ in range(length - 1):
            pattern.append(1 - pattern[-1])
        out.append(tuple(pattern))
    return out


def test_criterion_6_alternating_factorization():
    """Centered alternating strings a_m .. a_1 b_n .. b_1 over a bi-free
    family factor into pairwise moments, all patterns with m, n <= 4."""
    rng = random.Random(106)
    reps = [random_rep(rng, 3), random_rep(rng, 3)]
    product = ProductState(reps, max_word_len=8)

    def centered(dim):
        mat = [[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        mat[0][0] = F(0)
        return _rational_matrix(mat)

    def pair_moment(k, a, b):
        single = ProductState([reps[k]], max_word_len=2)
        vec = single.apply_left(0, a, single.apply_right(0, b, single.vacuum()))
        return single.expectation(vec)

    checked = 0
    for m in range(5):
        for n in range(5):
            for alpha in _alternating_patterns(m):
                for beta in _alternating_patterns(n):
                    lefts = [centered(reps[k].dim) for k in alpha]
                    rights = [centered(reps[k].dim) for k in beta]
                    vec = product.vacuum()
                    for k, mat in zip(beta, rights):
                        vec = product.apply_right(k, mat, vec)
                    for k, mat in zip(alpha, lefts):
                        vec = product.apply_left(k, mat, vec)
                    got = product.expectation(vec)
                    if m == n and alpha == beta:
                        expected = F(1)
                        for k, a, b in zip(alpha, lefts, rights):
                            expected *= pair_moment(k, a, b)
                    else:
                        expected = F(0)
                    assert got == expected
                    checked += 1
    assert checked == 81
    _report("criterion 6: alternating centered factorization, all patterns m, n <= 4")


def test_criterion_7_subordination_identities():
    """One-variable subordination identities and the combined two-variable
    quotient identity, to order 8, on 20 random pairs."""
    rng = random.Random(107)
    order = 8
    for trial in range(20):
        t1_table = random_table(rng, (order, order), lo=-2, hi=2)
        t2_table = random_table(rng, (order, order), lo=-2, hi=2)

        for side in ("a", "b"):
            m1 = t1_table.a_moments() if side == "a" else t1_table.b_moments()
            m2 = t2_table.a_moments() if side == "a" else t2_table.b_moments()
            msum = free_convolve1(m1, m2)
            u1, u2 = subordination_series(m1, m2, order)
            h1, h2, hsum = Series1(m1), Series1(m2), Series1(msum)
            assert hsum == h1.compose(u1) + h2.compose(u2) - 1
            pulled = hsum.shift_up().truncate(order)
            assert pulled == u1 * h1.compose(u1)
            assert pulled == u2 * h2.compose(u2)

        tsum = biconvolve(t1_table, t2_table)
        u1, u2 = subordination_series(t1_table.a_moments(), t2_table.a_moments(), order)
        s1, s2 = subordination_series(t1_table.b_moments(), t2_table.b_moments(), order)
        combined = _quotient(t1_table, u1, s1) + _quotient(t2_table, u2, s2) - 1
        assert combined == _quotient(tsum, Series1.var(order), Series1.var(order))
    _report("criterion 7: subordination identities to order 8 on 20 random pairs")


def test_criterion_8_two_bands_determination():
    """The recursion over the two-bands table reproduces every model moment
    of length <= 6 for shift-built and Fock-built systems."""
    models = [
        shift_pair_rep(4, [[1, 2], [3, 1]]),
        shift_pair_rep(4, [[1, 1], [-1, 1]]),
        shift_pair_rep(5, [[2, 1], [1, 1]]),
        gaussian_pair_rep([1, 2], [1, 0], [0, 1], [2, 1], fock_cutoff=3),
        gaussian_pair_rep([1, 0, 1], [0, 1, 1], [1, 1, 0], [2, 0, 1], fock_cutoff=3),
    ]
    for rep in models:
        system = extract_system(rep, cap=6)
        for length in range(7):
            for sides in iproduct((LEFT, RIGHT), repeat=length):
                word = [(side, 0) for side in sides]
                assert mixed_moment(system, word) == rep.moment(word)
    _report("criterion 8: two-bands determination of all words of length <= 6")


def test_criterion_9_commutator_transport():
    """Bi-free sums carry the summed commutation coefficient, and juxtaposed
    systems the direct-sum coefficients matrix, exactly on the reliable part
    of the product space."""
    rep_a = shift_pair_rep(4, [[1, 2], [3, 1]])  # lam = 5
    rep_b = shift_pair_rep(4, [[1, 1], [-1, 1]])  # lam = -2
    product = ProductState([rep_a, rep_b], max_word_len=4)
    safe_words = [
        w
        for w in basis(product)
        if len(w) <= product.max_word_len - 2
        and all(c in product.factors[k].reliable for k, c in w)
    ]
    assert len(safe_words) > 1

    def commutator_on(vec, left_apply, right_apply):
        return _vec_sub(left_apply(right_apply(vec)), right_apply(left_apply(vec)))

    lam_a, lam_b = F(5), F(-2)
    for w in safe_words:
        vec = {w: F(1)}
        # summed pair: [a' + a'', b' + b''] = (lam' + lam'') P
        got = commutator_on(
            vec,
            lambda v: apply_sum(product, LEFT, 0, v),
            lambda v: apply_sum(product, RIGHT, 0, v),
        )
        expected = {(): (lam_a + lam_b) * vec.get((), F(1))} if w == () else {}
        assert got == expected
        # cross-factor commutators vanish; within-factor ones persist
        for k, lam in ((0, lam_a), (1, lam_b)):
            for other in (0, 1):
                got = commutator_on(
                    vec,
                    lambda v, k=k: product.apply_left(k, product.factors[k].left_ops[0], v),
                    lambda v, o=other: product.apply_right(
                        o, product.factors[o].right_ops[0], v
                    ),
                )
                if k == other:
                    expected = {(): lam} if w == () else {}
                else:
                    expected = {}
                assert got == expected
    _report("criterion 9: summed and direct-sum commutation coefficients on the product")


def test_criterion_10_independence_detection_and_closure():
    """Product tables have vanishing mixed cumulants and the property is
    closed under bi-free convolution, checked by moment factorization."""
    rng = random.Random(110)
    for trial in range(20):
        tables = []
        for _ in range(2):
            a = [F(1)] + [F(rng.randint(-3, 3)) for _ in range(4)]
            b = [F(1)] + [F(rng.randint(-3, 3)) for _ in range(4)]
            tables.append(TwoBandsTable.product(a, b))
        assert all(mixed_cumulants_vanish(t) for t in tables)
        conv = biconvolve(tables[0], tables[1])
        assert mixed_cumulants_vanish(conv)
        assert conv == TwoBandsTable.product(conv.a_moments(), conv.b_moments())
    _report("criterion 10: independence detection and closure under convolution, box (4,4)")


def test_criterion_11_one_variable_sanity():
    """Free convolution of two symmetric Bernoulli laws matches the
    free-product model through order 8 (central binomial even moments)."""
    sym = [[0, 1], [1, 0]]
    zero = [[0, 0], [0, 0]]
    reps = [TwoFacedPairRep(2, {0: sym}, {0: zero}) for _ in range(2)]
    product = ProductState(reps, max_word_len=8)
    oracle = [product.expectation(product.vacuum())]
    vec = product.vacuum()
    for n in range(8):
        vec = apply_sum(product, LEFT, 0, vec)
        oracle.append(product.expectation(vec))
    bernoulli = tuple(F(1 - k % 2) for k in range(9))
    got = free_convolve1(bernoulli, bernoulli)
    assert tuple(oracle) == got
    assert got == tuple(F(comb(k, k // 2)) if k % 2 == 0 else F(0) for k in range(9))
    _report("criterion 11: Bernoulli free convolution matches the oracle through order 8")


def _vec_sub(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, val in v.items():
        out[k] = out.get(k, F(0)) - val
    return {k: val for k, val in out.items() if val}
