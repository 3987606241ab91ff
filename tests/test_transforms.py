"""Moment/cumulant conversions, free convolution, subordination."""

import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree.partial_r import TwoBandsTable, biconvolve
from bifree.series import NegativeOrder, Series1, _lagrange
from bifree.transforms import (
    BadNormalization,
    _inverse_series,
    _moments,
    free_convolve1,
    moments_to_r,
    r_to_moments,
    subordination_series,
)
from helpers import (
    cumulant_sum_convolve1,
    fraction_lagrange,
    picard_revert,
    reverted_moments_to_r,
    reverted_r_to_moments,
    reverted_subordination,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


BERNOULLI = tuple(F(1 - k % 2) for k in range(9))  # 1, 0, 1, 0, ...
SEMICIRCLE = tuple(
    F(catalan(k // 2)) if k % 2 == 0 else F(0) for k in range(9)
)
ARCSINE = tuple(F(comb(k, k // 2)) if k % 2 == 0 else F(0) for k in range(9))


moment_seqs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=5, max_size=8
).map(lambda tail: (F(1),) + tuple(tail))


def test_normalization_enforced():
    with pytest.raises(BadNormalization):
        moments_to_r([2, 1, 1])
    with pytest.raises(BadNormalization):
        free_convolve1([1, 1], [0, 1])


def test_cumulant_series_must_be_series1():
    # a plain sequence is refused by name, not by an attribute lookup inside
    for order in (0, 2):
        with pytest.raises(TypeError, match="Series1"):
            r_to_moments([1, 2], order)
    assert r_to_moments(Series1([1, 2]), 2) == (1, 1, 3)


def test_point_mass_cumulants():
    c = F(5, 3)
    r = moments_to_r([c**n for n in range(6)])
    assert r == Series1([c, 0, 0, 0, 0])


def test_bernoulli_cumulants():
    # alternating signed Catalan pattern: odd cumulants vanish and the
    # (2n)-th cumulant is (-1)^(n-1) * catalan(n-1)
    r = moments_to_r(BERNOULLI)
    expected = [0] * 8
    for n in range(1, 5):
        expected[2 * n - 1] = (-1) ** (n - 1) * catalan(n - 1)
    assert r == Series1(expected)


def test_semicircle_is_the_free_gaussian():
    assert moments_to_r(SEMICIRCLE) == Series1([0, 1, 0, 0, 0, 0, 0, 0])


def test_r_to_moments_needs_order_coefficients():
    # a cumulant series of order N - 1 (N coefficients) gives moments to N
    assert r_to_moments(Series1([3]), 1) == (1, 3)
    with pytest.raises(ValueError):
        r_to_moments(Series1([3]), 2)


def test_r_to_moments_trivial():
    assert r_to_moments(Series1([0, 0, 0]), 3) == (1, 0, 0, 0)
    c = F(-3, 2)
    assert r_to_moments(Series1([c, 0, 0]), 3) == (1, c, c**2, c**3)
    got = r_to_moments(Series1([0, 1, 0, 0, 0, 0]), 6)
    assert got == (1, 0, 1, 0, 2, 0, 5)
    with pytest.raises(NegativeOrder):
        r_to_moments(Series1([0, 0, 0]), -1)
    with pytest.raises(NegativeOrder):
        subordination_series((1, 0, 1), (1, 0, 1), -2)
    for order in (2.0, 1.5, True):
        with pytest.raises(NegativeOrder):
            r_to_moments(Series1([0, 0, 0]), order)
        with pytest.raises(NegativeOrder):
            subordination_series((1, 0, 1), (1, 0, 1), order)
    with pytest.raises(ValueError) as info:
        subordination_series((1, 0, 1), (1, 0, 1), 0)
    assert info.type is ValueError


@given(moment_seqs)
@settings(max_examples=60)
def test_roundtrip(moments):
    order = len(moments) - 1
    assert r_to_moments(moments_to_r(moments), order) == moments


@given(moment_seqs)
@settings(max_examples=40)
def test_homogeneity(moments):
    # scaling a -> lam * a multiplies the n-th z-coefficient by lam^(n+1)
    lam = F(3, 2)
    scaled = tuple(lam**n * m for n, m in enumerate(moments))
    r = moments_to_r(moments)
    assert moments_to_r(scaled) == Series1(
        [lam ** (n + 1) * c for n, c in enumerate(r.coeffs)]
    )


@given(st.lists(st.integers(-5, 5), min_size=5, max_size=8))
@settings(max_examples=40)
def test_integer_moments_give_integer_cumulants(tail):
    r = moments_to_r((1, *tail))
    assert all(c.denominator == 1 for c in r.coeffs)


def test_convolution_of_point_masses():
    da = [F(2) ** n for n in range(5)]
    db = [F(3) ** n for n in range(5)]
    assert free_convolve1(da, db) == tuple(F(5) ** n for n in range(5))


def test_convolution_identity_element():
    m = (F(1), F(2), F(-1), F(3), F(0))
    assert free_convolve1(m, [1, 0, 0, 0, 0]) == m


def test_bernoulli_convolution_is_arcsine():
    assert free_convolve1(BERNOULLI, BERNOULLI) == ARCSINE


@given(moment_seqs, moment_seqs)
@settings(max_examples=30)
def test_convolution_is_commutative(m1, m2):
    assert free_convolve1(m1, m2) == free_convolve1(m2, m1)


def test_convolution_of_length_one_inputs():
    m = (F(1), F(-1, 2), F(3))
    for a, b in (([1], [1]), ([1], m), (m, (F(1),))):
        assert free_convolve1(a, b) == (1,)
        assert cumulant_sum_convolve1(a, b) == (1,)


@given(moment_seqs, moment_seqs)
@settings(max_examples=30, deadline=None)
def test_lagrange_tower_matches_reversion_routes(m1, m2):
    # each tower step against the reversion it replaced: k = revert(t*h),
    # t*h = revert(t/p), convolution by summed cumulants, and subordination
    # as k1(t*h), k2(t*h)
    r = moments_to_r(m1)
    assert r == reverted_moments_to_r(m1)
    for order in range(len(m1)):
        assert r_to_moments(r, order) == reverted_r_to_moments(r, order)
    assert free_convolve1(m1, m2) == cumulant_sum_convolve1(m1, m2)
    for order in range(1, min(len(m1), len(m2))):
        assert subordination_series(m1, m2, order) == reverted_subordination(m1, m2, order)


@pytest.mark.parametrize("dens", [(1,), (1, 2, 3), (2, 3, 5, 7)], ids=str)
@pytest.mark.parametrize("order", [0, 1, 2, 5, 10, 20, 40])
def test_moments_step_matches_lagrange(order, dens):
    # h = p(t*h) as column 0 of the two-bands inverse map on the box
    # (N, 0), against the Lagrange step it replaced and its Fraction loop
    rng = random.Random(100 * order + len(dens))
    col = (F(0),) + tuple(F(rng.randint(-6, 6), rng.choice(dens)) for _ in range(order))
    p = Series1(col) + 1
    want = fraction_lagrange(p).coeffs
    assert _lagrange(p).coeffs == want
    got = _moments(col)
    assert got == want
    assert all(type(x) is F for x in got)
    if order:
        assert r_to_moments(Series1(col[1:]), order) == want


# the convolution maps against the reversion oracles, which run on
# moments_to_r and Series1.revert and share no step with them


DENOMINATORS = [(1,), (1, 2, 3), (2, 3, 5, 7)]


def _moment_rows(seed, lengths, dens):
    """Moment sequences (1, p/q, ...) with 0 < |p| <= 6 and q drawn from dens."""
    rng = random.Random(seed)
    return [(F(1),) + tuple(F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.choice(dens))
                            for _ in range(n)) for n in lengths]


@pytest.mark.parametrize("dens", DENOMINATORS, ids=str)
@pytest.mark.parametrize("order", [0, 1, 2, 5, 10, 20, 40])
def test_free_convolution_matches_reversion_oracle(order, dens):
    # inputs of unequal length convolve to the shorter one's order, and the
    # result is column 0 of biconvolve on the tables of the box (order, 0)
    m1, m2 = _moment_rows(f"conv:{order}:{dens}", (order, order + 3), dens)
    want = cumulant_sum_convolve1(m1, m2)
    assert len(want) == order + 1
    assert free_convolve1(m1, m2) == want
    assert free_convolve1(m2, m1) == want
    tables = (TwoBandsTable([[x] for x in m[: order + 1]]) for m in (m1, m2))
    assert biconvolve(*tables).a_moments() == want


@pytest.mark.parametrize("dens", DENOMINATORS, ids=str)
@pytest.mark.parametrize("order", range(1, 21))
def test_subordination_matches_reversion_oracle(order, dens):
    # both inputs carry more moments than the order, by unequal amounts
    m1, m2 = _moment_rows(f"sub:{order}:{dens}", (order + 2, order + 5), dens)
    want = reverted_subordination(m1, m2, order)
    assert subordination_series(m1, m2, order) == want
    assert subordination_series(m2, m1, order) == want[::-1]


@pytest.mark.parametrize("dens", DENOMINATORS, ids=str)
@pytest.mark.parametrize("order", [1, 2, 3, 5, 10, 20])
def test_inverse_series_matches_picard_revert(order, dens):
    # k = revert(t*h) from the Lagrange-Buermann rows on the weight scale,
    # against Picard iteration on Fractions, to the order of h
    (m,) = _moment_rows(f"k:{order}:{dens}", (order,), dens)
    got = _inverse_series(m)
    assert got == picard_revert(Series1(m).shift_up()).truncate(order)
    assert all(type(x) is F for x in got)


# -- subordination --


def _implicit_subordination(m1, m2, order):
    """Independent oracle: solve t*h(t) = t1*h1(t1) by fixed-point iteration
    t1 <- t*h(t) / h1(t1), one exact order per pass."""
    h1 = Series1(m1[: order + 1])
    hsum = Series1(free_convolve1(m1, m2)[: order + 1])
    target = hsum.shift_up().truncate(order)
    t1 = Series1.var(order)
    for _ in range(order):
        t1 = target * h1.compose(t1).reciprocal()
    return t1


def test_subordination_trivial_summand():
    m = (F(1), F(2), F(5), F(14), F(42))
    delta0 = (F(1), F(0), F(0), F(0), F(0))
    t1, t2 = subordination_series(m, delta0, 4)
    assert t1 == Series1.var(4)


def test_subordination_of_point_masses():
    # for point masses at c1 and c2 the first reparametrization collapses to
    # the closed form t / (1 - c2 t) = sum c2^(n-1) t^n
    c1, c2 = F(2), F(-3)
    m1 = [c1**n for n in range(7)]
    m2 = [c2**n for n in range(7)]
    t1, t2 = subordination_series(m1, m2, 6)
    assert t1 == Series1([0] + [c2 ** (n - 1) for n in range(1, 7)])
    assert t2 == Series1([0] + [c1 ** (n - 1) for n in range(1, 7)])
    assert t1 == _implicit_subordination(m1, m2, 6)


def test_subordination_symmetric_case():
    t1, t2 = subordination_series(BERNOULLI[:7], BERNOULLI[:7], 6)
    assert t1 == t2
    hsum = Series1(free_convolve1(BERNOULLI[:7], BERNOULLI[:7]))
    h = Series1(BERNOULLI[:7])
    assert hsum.shift_up().truncate(6) == t1 * h.compose(t1)


@given(moment_seqs, moment_seqs)
@settings(max_examples=30, deadline=None)
def test_subordination_identities(m1, m2):
    order = min(len(m1), len(m2)) - 1
    t1, t2 = subordination_series(m1, m2, order)
    assert t1.coeffs[0] == 0 and t1.coeffs[1] == 1
    assert t2.coeffs[0] == 0 and t2.coeffs[1] == 1
    h1 = Series1(m1[: order + 1])
    h2 = Series1(m2[: order + 1])
    hsum = Series1(free_convolve1(m1, m2)[: order + 1])
    assert hsum == h1.compose(t1) + h2.compose(t2) - 1
    pulled = hsum.shift_up().truncate(order)
    assert pulled == t1 * h1.compose(t1)
    assert pulled == t2 * h2.compose(t2)
    # against the implicit-equation oracle
    assert t1 == _implicit_subordination(m1, m2, order)
    assert t2 == _implicit_subordination(m2, m1, order)
