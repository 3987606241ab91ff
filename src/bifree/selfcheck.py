"""Randomized exact cross-validation of the series machinery against the
operator-model oracle.

Every suite draws small random instances, computes the same quantity along
two independent routes, and demands equality of exact rationals.  A fixed
seed reproduces the identical report byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .oracle import (
    LEFT,
    RIGHT,
    ProductState,
    TwoFacedPairRep,
    gaussian_pair_rep,
    shift_pair_rep,
    sum_two_bands_table,
    two_bands_table,
)
from .partial_r import TwoBandsTable, biconvolve, mixed_cumulants_vanish
from .rank1 import extract_system, mixed_moment
from .series import Series1, Series2
from .transforms import subordination_series

__all__ = ["run_selfcheck"]


def _rand_matrix(rng, dim):
    return [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]


def _rand_rep(rng, dim):
    return TwoFacedPairRep(dim, {0: _rand_matrix(rng, dim)}, {0: _rand_matrix(rng, dim)})


def _centered_matrix(rng, dim):
    mat = _rand_matrix(rng, dim)
    mat[0][0] = Fraction(0)
    return mat


def check_additivity(rng, size, corrupt=False):
    """Two-bands cumulants add across bi-free summands built on the product."""
    for _ in range(2 * size):
        reps = [_rand_rep(rng, rng.choice([2, 3])) for _ in range(2)]
        tables = [two_bands_table(rep, (3, 3)) for rep in reps]
        product = ProductState(reps, max_word_len=6)
        oracle = sum_two_bands_table(product, (3, 3))
        if corrupt:
            rows = [list(r) for r in oracle.values]
            rows[1][1] += 1
            oracle = TwoBandsTable(rows)
        if biconvolve(tables[0], tables[1]) != oracle:
            return "series convolution disagrees with the free-product model"
    return None


def check_alternating_factorization(rng, size):
    """Centered alternating left/right strings factor into pairwise moments."""
    reps = [_rand_rep(rng, rng.choice([2, 3])) for _ in range(2)]
    product = ProductState(reps, max_word_len=6)
    for _ in range(4 * size):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        alpha = _alternating_pattern(rng, m)
        beta = _alternating_pattern(rng, n)
        lefts = [_centered_matrix(rng, reps[k].dim) for k in alpha]
        rights = [_centered_matrix(rng, reps[k].dim) for k in beta]
        # product order: a_m ... a_1 b_n ... b_1
        vec = product.vacuum()
        for k, mat in zip(beta, rights):
            vec = product.apply_right(k, mat, vec)
        for k, mat in zip(alpha, lefts):
            vec = product.apply_left(k, mat, vec)
        got = product.expectation(vec)
        expected = Fraction(0)
        if m == n and alpha == beta:
            expected = Fraction(1)
            for k, a, b in zip(alpha, lefts, rights):
                single = ProductState([reps[k]], max_word_len=2)
                pair = single.apply_left(0, a, single.apply_right(0, b, single.vacuum()))
                expected *= single.expectation(pair)
        if got != expected:
            return f"moment of pattern {alpha}/{beta} is {got}, expected {expected}"
    return None


def _alternating_pattern(rng, length):
    pattern = []
    for _ in range(length):
        pattern.append(rng.choice([k for k in (0, 1) if not pattern or k != pattern[-1]]))
    return tuple(pattern)


def check_subordination(rng, size):
    """Reparametrized one-variable series and the combined two-variable
    quotient identity reassemble the distribution of a bi-free sum."""
    box = 4
    for _ in range(size):
        t1_table = _rand_table(rng, box)
        t2_table = _rand_table(rng, box)
        tsum = biconvolve(t1_table, t2_table)

        for side in ("a", "b"):
            m1 = t1_table.a_moments() if side == "a" else t1_table.b_moments()
            m2 = t2_table.a_moments() if side == "a" else t2_table.b_moments()
            msum = tsum.a_moments() if side == "a" else tsum.b_moments()
            u1, u2 = subordination_series(m1, m2, box)
            h1, h2, hs = Series1(m1), Series1(m2), Series1(msum)
            if hs != h1.compose(u1) + h2.compose(u2) - 1:
                return f"{side}-marginal sum identity failed"
            pulled_back = hs.shift_up().truncate(box)
            if pulled_back != u1 * h1.compose(u1) or pulled_back != u2 * h2.compose(u2):
                return f"{side}-marginal reparametrization identity failed"

        t1, t2 = subordination_series(t1_table.a_moments(), t2_table.a_moments(), box)
        s1, s2 = subordination_series(t1_table.b_moments(), t2_table.b_moments(), box)
        q1 = _quotient(t1_table, t1, s1)
        q2 = _quotient(t2_table, t2, s2)
        qsum = _quotient(tsum, Series1.var(box), Series1.var(box))
        if q1 + q2 - 1 != qsum:
            return "combined two-variable quotient identity failed"
    return None


def _quotient(table, t_series, s_series):
    """h_a(t(.)) h_b(s(.)) / H(t(.), s(.)) as an exact two-variable series."""
    ha = Series1(table.a_moments()).compose(t_series)
    hb = Series1(table.b_moments()).compose(s_series)
    h2 = table.substitute(t_series, s_series)
    return Series2.product(ha, hb) * h2.reciprocal()


def _rand_table(rng, box):
    values = [[Fraction(rng.randint(-2, 2)) for _ in range(box + 1)] for _ in range(box + 1)]
    values[0][0] = Fraction(1)
    return TwoBandsTable(values)


def check_determination(rng, size):
    """The two-bands recursion reproduces every model moment."""
    models = []
    for _ in range(size):
        omega = [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(2)]
        models.append(shift_pair_rep(4, omega))
        vectors = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(4)]
        models.append(gaussian_pair_rep(*vectors, fock_cutoff=3))
    for rep in models:
        system = extract_system(rep, cap=5)
        for _ in range(10 * size):
            length = rng.randint(0, 5)
            word = [(rng.choice([LEFT, RIGHT]), 0) for _ in range(length)]
            if mixed_moment(system, word) != rep.moment(word):
                return f"recursion disagrees with the model on word {word}"
    return None


def check_independence_closure(rng, size):
    """Vanishing mixed cumulants survive bi-free convolution."""
    for _ in range(2 * size):
        tables = []
        for _ in range(2):
            a = [Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            b = [Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            tables.append(TwoBandsTable.product(a, b))
        if not all(mixed_cumulants_vanish(t) for t in tables):
            return "a product table shows mixed cumulants"
        conv = biconvolve(tables[0], tables[1])
        if not mixed_cumulants_vanish(conv):
            return "convolution of product tables shows mixed cumulants"
        if conv != TwoBandsTable.product(conv.a_moments(), conv.b_moments()):
            return "convolution of product tables does not factorize"
    return None


SUITES = (
    ("additivity-vs-oracle", check_additivity),
    ("alternating-factorization", check_alternating_factorization),
    ("subordination-identities", check_subordination),
    ("two-bands-determination", check_determination),
    ("independence-closure", check_independence_closure),
)


def run_selfcheck(seed: int, size: int = 2, corrupt: bool = False):
    """Run every suite; returns (report text, all passed).

    The report is a deterministic function of (seed, size, corrupt).  A
    size that is not an int, or below 1 and so drawing no instance, raises
    ValueError.
    """
    if type(size) is not int or size < 1:
        raise ValueError(f"selfcheck size must be >= 1 and of type int, got {size!r}")
    lines = []
    passed = 0
    for name, check in SUITES:
        rng = random.Random(f"{seed}:{name}")
        if name == "additivity-vs-oracle":
            detail = check(rng, size, corrupt=corrupt)
        else:
            detail = check(rng, size)
        if detail is None:
            passed += 1
            lines.append(f"PASS {name}")
        else:
            lines.append(f"FAIL {name}: {detail}")
    lines.append(f"selfcheck: {passed}/{len(SUITES)} suites passed (seed={seed}, size={size})")
    return "\n".join(lines) + "\n", passed == len(SUITES)
