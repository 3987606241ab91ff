"""Exactness and ring-axiom tests for the truncated series kernels."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree.series import (
    NegativeOrder,
    NonzeroConstantSubstitution,
    NotInvertible,
    Series1,
    Series2,
    ZeroConstantTerm,
    _burmann_rows,
    _divide,
    _fractions,
    _lagrange,
    _power_rows,
    _reciprocal,
    _reduced,
    _scaled,
    _substitute,
)
from helpers import (
    fraction_mul,
    fraction_reciprocal,
    fraction_reciprocal1,
    fraction_substitute,
    horner_compose,
    picard_revert,
    two_pass_divide,
    two_pass_reciprocal,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def series1(order=4):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(Series1)


def series2(box=(2, 2)):
    m, n = box
    row = st.lists(rationals, min_size=n + 1, max_size=n + 1)
    return st.lists(row, min_size=m + 1, max_size=m + 1).map(Series2)


# -- construction and arithmetic basics --


def test_floats_rejected():
    with pytest.raises(TypeError):
        Series1([0.5, 1])


def test_add_trivial():
    one_ts = Series2([[1, 0], [0, 1]])
    two_ts = Series2([[2, 0], [0, 1]])
    assert one_ts + two_ts == Series2([[3, 0], [0, 2]])
    assert one_ts + Series2([[0, 0], [0, 0]]) == one_ts
    t = Series2([[0, 0], [1, 0]])
    s = Series2([[0, 1], [0, 0]])
    assert t + s == Series2([[0, 1], [1, 0]])


def test_mul_trivial():
    one_plus_t = Series2([[1, 0], [1, 0]])
    one_plus_s = Series2([[1, 1], [0, 0]])
    assert one_plus_t * one_plus_s == Series2([[1, 1], [1, 1]])
    f = Series2([[2, 3], [5, 7]])
    assert f * Series2([[1, 0], [0, 0]]) == f


def test_mul_truncates_to_min_order():
    f = Series1([1, 1, 1])
    g = Series1([1, -1])
    # full product is 1 - t^3; at order min(2, 1) = 1 only 1 remains visible
    assert f * g == Series1([1, 0])
    assert f * g.shift_up().shift_down() == Series1([1, 0])
    assert f.truncate(2) * Series1([1, -1, 0]) == Series1([1, 0, 0])


def test_reciprocal_geometric():
    f = Series2([[1, 0], [0, -1]])  # 1 - ts
    g = f.reciprocal()
    assert g == Series2([[1, 0], [0, 1]])
    big = Series2([[1, 0, 0], [0, -1, 0], [0, 0, 0]]).reciprocal()
    assert big == Series2([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    one = Series2([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert one.reciprocal() == one


def test_reciprocal_neumann_oracle():
    # oracle: sum_k (-(t+s))^k on the box
    f = Series2([[1, 1, 0], [1, 0, 0], [0, 0, 0]])
    x = Series2([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    acc = term = Series2([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    for _ in range(4):
        term = term * (-x)
        acc = acc + term
    assert f.reciprocal() == acc


def test_reciprocal_needs_constant_term():
    with pytest.raises(ZeroConstantTerm):
        Series2([[0, 1], [1, 0]]).reciprocal()
    with pytest.raises(ZeroConstantTerm):
        Series1([0, 1]).reciprocal()
    with pytest.raises(ZeroConstantTerm):
        _divide([[1, 2]], [[0, 1]], 1)


# -- reversion --


def test_revert_identity_and_scaling():
    t = Series1.var(4)
    assert t.revert() == t
    c = F(7, 3)
    assert (c * t).revert() == Series1([0, 1 / c, 0, 0, 0])


def test_revert_catalan_signs():
    # oracle: iterate g <- t - g*g, the fixed-point form of t = g + g^2
    f = Series1([0, 1, 1, 0, 0])
    g = Series1.var(4)
    for _ in range(4):
        g = Series1.var(4) - g * g
    assert f.revert() == g
    assert f.revert() == Series1([0, 1, -1, 2, -5])


def test_revert_requires_jet():
    with pytest.raises(NotInvertible):
        Series1([1, 1]).revert()
    with pytest.raises(NotInvertible):
        Series1([0, 0, 1]).revert()


@pytest.mark.parametrize("lead", [F(1), F(2), F(-3, 2)])
@pytest.mark.parametrize("order", range(1, 13))
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_lagrange_revert_matches_picard(order, lead, data):
    entries = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    tail = data.draw(st.lists(entries, min_size=order - 1, max_size=order - 1))
    f = Series1([0, lead, *tail])
    assert f.revert() == picard_revert(f)


@pytest.mark.parametrize("lead", [F(2), F(-3, 2), F(5, 3)])
@pytest.mark.parametrize("order", range(13))
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_lagrange_solves_its_fixed_point(order, lead, data):
    # u = phi(t*u), checked by Horner composition, with phi(0) not in {0, 1, -1}
    entries = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    tail = data.draw(st.lists(entries, min_size=order, max_size=order))
    phi = Series1([lead, *tail])
    u = _lagrange(phi)
    assert u.order == order
    assert u == horner_compose(phi, u.shift_up())


@pytest.mark.parametrize("lead", [F(2), F(-3, 2), F(5, 3), F(1)])
@pytest.mark.parametrize("order", range(13))
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_burmann_rows_match_lagrange_power_rows(order, lead, data):
    # The power rows of f = t u, u = phi(t u), straight from the powers of
    # phi, against reversion by the Fraction Lagrange step and a power loop.
    # Lead 1 is the inverse map's phi = 1 + z r; the others are the forward
    # map's 1 / h.  Only phi's first `order` coefficients may be read.
    entries = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    tail = data.draw(st.lists(entries, min_size=order, max_size=order))
    phi = Series1([lead, *tail])
    column, d = _scaled([c] for c in phi.coeffs)
    rows, den = _burmann_rows(column[:order], d, order)
    want, want_den = _power_rows(_lagrange(phi).shift_up(), order)
    assert len(rows) == len(want) == order + 1
    assert [[F(x, den) for x in row] for row in rows] == [
        [F(x, want_den) for x in row] for row in want
    ]


@given(series1(5))
@settings(max_examples=60)
def test_revert_is_involutive(f):
    coeffs = (F(0), F(1)) + f.coeffs[2:]
    g = Series1(coeffs)
    assert g.revert().revert() == g
    assert g.compose(g.revert()) == Series1.var(5)


# -- substitution --


def test_substitute_identity():
    h = Series2([[0, 0], [0, 1]])  # ts
    t = Series1.var(1)
    assert h.substitute(t, t) == h
    h2 = Series2([[1, 0], [0, 1]])
    assert h2.substitute(Series1([0, 2]), Series1([0, 3])) == Series2([[1, 0], [0, 6]])


def test_substitute_direct():
    h = Series2([[1, 1], [1, 0]])  # 1 + t + s
    out = h.substitute(Series1([0, 1, 1]), Series1([0, 1]))
    assert out == Series2([[1, 1], [1, 0]])
    # and on a taller box the t^2 term of the substitution is visible
    h_tall = Series2([[1, 1], [1, 0], [0, 0]])
    out = h_tall.substitute(Series1([0, 1, 1]), Series1([0, 1]))
    assert out == Series2([[1, 1], [1, 0], [1, 0]])


def test_substitute_rejects_constant():
    h = Series2([[1, 0], [0, 1]])
    with pytest.raises(NonzeroConstantSubstitution):
        h.substitute(Series1([1, 1]), Series1([0, 1]))
    with pytest.raises(NonzeroConstantSubstitution):
        Series1([1, 2]).compose(Series1([1, 1]))


@given(series2((2, 2)))
@settings(max_examples=40)
def test_substitute_identity_is_identity(h):
    assert h.substitute(Series1.var(2), Series1.var(2)) == h


# -- the integer kernels against the Fraction loops they replaced --

BOXES = [(m, n) for m in range(7) for n in range(7)]
# denominators {1, 2, 3, 5} make every operand's LCM and every inner
# series' scale differ from 1 in most draws
entries = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
units = entries.filter(lambda x: x not in (0, 1, -1))


def grid(data, box, corner=entries):
    m, n = box
    rows = data.draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1),
                              min_size=m + 1, max_size=m + 1))
    rows[0][0] = data.draw(corner)
    return Series2(rows)


def inner_series(data):
    """A series vanishing at 0, of any order 0-7, often below the box."""
    return Series1([0] + data.draw(st.lists(entries, min_size=0, max_size=7)))


@pytest.mark.parametrize("box", BOXES)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_product_matches_fraction_loop(box, data):
    x = grid(data, box)
    y = grid(data, data.draw(st.sampled_from(BOXES)))
    assert x * y == fraction_mul(x, y)
    assert y * x == fraction_mul(y, x)


@pytest.mark.parametrize("box", BOXES)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_reciprocal_matches_fraction_loop(box, data):
    x = grid(data, box, corner=units)
    assert x.reciprocal() == fraction_reciprocal(x)


@pytest.mark.parametrize("box", BOXES)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_substitute_matches_fraction_loop(box, data):
    h = grid(data, box)
    f, g = inner_series(data), inner_series(data)
    out = h.substitute(f, g)
    assert out.box == (min(box[0], f.order), min(box[1], g.order))
    assert out == fraction_substitute(h, f, g)
    # power rows longer than the grid: the kernel still stops at the smaller box
    rows = _power_rows(f, f.order), _power_rows(g, g.order)
    assert Series2(_fractions(*_substitute(*_scaled(h.values), *rows))) == out


@pytest.mark.parametrize("box", [(0, 0), (0, 3), (2, 0), (3, 2)])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_reduced_matches_scaled_fractions(box, data):
    m, n = box
    # entries share factors with den often; den may be negative
    ints = data.draw(st.lists(st.lists(st.sampled_from([0, 1, -2, 3, 4, -6, 12, 30, -45]),
                                       min_size=n + 1, max_size=n + 1),
                              min_size=m + 1, max_size=m + 1))
    den = data.draw(st.sampled_from([1, -1, 2, -4, 6, 9, -12, 60]))
    assert _reduced(ints, den) == _scaled([F(x, den) for x in row] for row in ints)


@pytest.mark.parametrize("box", BOXES)
@given(data=st.data())
@settings(max_examples=2, deadline=None)
def test_kernels_return_reduced_grids(box, data):
    # every kernel reduces its output, so the next one starts from the LCM
    x = grid(data, box, corner=units)
    assert _reciprocal(*_scaled(x.values)) == _scaled(x.reciprocal().values)
    f, g = inner_series(data), inner_series(data)
    rows = _power_rows(f, box[0]), _power_rows(g, box[1])
    assert _substitute(*_scaled(x.values), *rows) == _scaled(x.substitute(f, g).values)


# one fraction-free division replaced the reciprocal of the divisor followed
# by a product with the numerator; the two-pass route checks it on integer
# grids up to (8, 8), one-column grids among them, with corners that make
# every power of a0 count


DIVIDE_BOXES = [(0, 0), (1, 0), (4, 0), (8, 0), (0, 3), (2, 2), (3, 5), (6, 4), (8, 8)]
ints = st.integers(-30, 30)


@pytest.mark.parametrize("box", DIVIDE_BOXES)
@pytest.mark.parametrize("shape", ["full", "rank-one", "corner"])
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_divide_matches_two_pass_quotient(box, shape, data):
    m, n = box
    a = data.draw(st.lists(st.lists(ints, min_size=n + 1, max_size=n + 1),
                           min_size=m + 1, max_size=m + 1))
    a[0][0] = data.draw(st.sampled_from([2, -2, 3, -5, 7, 12]))
    if shape == "full":
        num = data.draw(st.lists(st.lists(ints, min_size=n + 1, max_size=n + 1),
                                 min_size=m + 1, max_size=m + 1))
    elif shape == "rank-one":
        col = data.draw(st.lists(ints, min_size=m + 1, max_size=m + 1))
        row = data.draw(st.lists(ints, min_size=n + 1, max_size=n + 1))
        num = [[x * y for y in row] for x in col]
    else:
        num = [[0] * (n + 1) for _ in range(m + 1)]
        num[0][0] = data.draw(st.sampled_from([1, -4, 9]))
    den = data.draw(st.sampled_from([1, 2, 6, 35]))
    assert _divide(num, a, den) == two_pass_divide(num, a, den)
    assert _reciprocal(a, den) == two_pass_reciprocal(a, den)


# the one-variable reciprocal and composition are one-column grids in the
# same kernels; the Fraction recurrence and Horner's rule they replaced
# check them on every order 0-12


@pytest.mark.parametrize("order", range(13))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_one_variable_reciprocal_matches_fraction_loop(order, data):
    tail = data.draw(st.lists(entries, min_size=order, max_size=order))
    f = Series1([data.draw(units), *tail])
    got = f.reciprocal()
    assert got.order == order
    assert got == fraction_reciprocal1(f)


@pytest.mark.parametrize("order", range(13))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_compose_matches_horner(order, data):
    tail = data.draw(st.lists(entries, min_size=order, max_size=order))
    f = Series1([data.draw(units), *tail])
    # inner series shorter than the outer one (where there is room), as
    # long, and longer
    inner_orders = [order, data.draw(st.integers(order + 1, order + 3))]
    if order:
        inner_orders.append(data.draw(st.integers(0, order - 1)))
    for k in inner_orders:
        g = Series1([0] + data.draw(st.lists(entries, min_size=k, max_size=k)))
        got = f.compose(g)
        assert got.order == min(order, k)
        assert got == horner_compose(f, g)


# -- ring axioms, exactly --


@given(series1(4), series1(4), series1(4))
@settings(max_examples=60)
def test_ring_axioms_one_variable(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@given(series2((2, 2)), series2((2, 2)), series2((2, 2)))
@settings(max_examples=40)
def test_ring_axioms_two_variables(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@given(series2((2, 2)))
@settings(max_examples=40)
def test_reciprocal_is_two_sided_inverse(f):
    rows = [list(r) for r in f.values]
    rows[0][0] = F(1) + abs(rows[0][0])  # force a nonzero constant term
    f = Series2(rows)
    one = Series2([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert f * f.reciprocal() == one
    assert f.reciprocal() * f == one


@given(st.lists(st.integers(-9, 9), min_size=5, max_size=5),
       st.lists(st.integers(-9, 9), min_size=5, max_size=5))
@settings(max_examples=40)
def test_integer_inputs_force_no_denominators(a, b):
    f, g = Series1(a), Series1(b)
    for result in (f + g, f * g, f - g):
        assert all(c.denominator == 1 for c in result.coeffs)
    unit = Series1([1] + a[1:])
    assert all(c.denominator == 1 for c in unit.reciprocal().coeffs)


def test_truncate_never_extends():
    f = Series1([1, 2, 3])
    assert f.truncate(1) == Series1([1, 2])
    with pytest.raises(ValueError):
        f.truncate(5)
    h = Series2([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        h.truncate(2, 1)


def test_truncate_rejects_negative_orders():
    f = Series1([1, 2, 3, 4])
    h = Series2([[1, 2], [3, 4]])
    with pytest.raises(NegativeOrder):
        f.truncate(-2)
    for box in ((-2, 1), (1, -1)):
        with pytest.raises(NegativeOrder):
            h.truncate(*box)
    with pytest.raises(NegativeOrder):
        Series1.var(-1)
    for order in (1.5, 2.0, F(1), True, "1"):
        with pytest.raises(NegativeOrder):
            f.truncate(order)
        with pytest.raises(NegativeOrder):
            h.truncate(1, order)
        with pytest.raises(NegativeOrder):
            Series1.var(order)
    assert issubclass(NegativeOrder, ValueError)
    assert f.truncate(0) == Series1([1])
    assert h.truncate(0, 0) == Series2([[1]])
    with pytest.raises(ValueError) as info:
        Series1.var(0)
    assert info.type is ValueError
