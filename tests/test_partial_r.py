"""Two-bands cumulant transform: inversion, convolution, structure."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree.partial_r import (
    BoxMismatch,
    PartialRTable,
    TwoBandsTable,
    biconvolve,
    compute_partial_r,
    mixed_cumulants_vanish,
    partial_r_to_moments,
)
from bifree.partial_r import _forward, _unweighted, _weighted
from bifree.series import NegativeOrder, Series2, _denominator
from bifree.transforms import BadNormalization, _marginal, moments_to_r
from helpers import (
    antidiagonal_inverse,
    fraction_free_biconvolve,
    fraction_free_compute_partial_r,
    fraction_free_partial_r_to_moments,
    framed_compute_partial_r,
    noncrossing_cumulants,
    random_table,
    reverted_partial_r_to_moments,
)


tables33 = st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=4, max_size=4),
    min_size=4,
    max_size=4,
).map(lambda rows: TwoBandsTable([[F(1)] + rows[0][1:], *rows[1:]]))


def test_corner_invariants():
    with pytest.raises(BadNormalization):
        TwoBandsTable([[2, 1], [1, 1]])
    with pytest.raises(BadNormalization):
        PartialRTable([[1, 0], [0, 0]])


@pytest.mark.parametrize("corner", [0, 1, 2])
def test_maps_check_the_corner_of_a_plain_series(corner):
    # the kernels assume the (0, 0) entry of a moment table is 1 and read
    # none of a cumulant table's, so a plain Series2 with another corner is
    # refused at the entry of every map, not turned into a wrong table
    grid = [[corner, 2], [3, 5]]
    table, series = TwoBandsTable([[1, 2], [3, 5]]), Series2(grid)
    moment_calls = (lambda: compute_partial_r(series), lambda: mixed_cumulants_vanish(series),
                    lambda: biconvolve(series, table), lambda: biconvolve(table, series))
    for call in moment_calls:
        if corner == 1:
            call()
        else:
            with pytest.raises(BadNormalization, match=r"entry \(0, 0\) = 1"):
                call()
    assert compute_partial_r(Series2([[1, 2], [3, 5]])) == compute_partial_r(table)
    if corner == 0:
        assert partial_r_to_moments(series) == partial_r_to_moments(PartialRTable(grid))
    else:
        with pytest.raises(BadNormalization, match=r"entry \(0, 0\) = 0"):
            partial_r_to_moments(series)
    with pytest.raises(BadNormalization):
        compute_partial_r(compute_partial_r(table))


def test_maps_refuse_a_value_that_is_not_a_table():
    # a list, None or an int is refused by the type the map expects, before
    # any attribute of it is read
    table = TwoBandsTable([[1, 2], [3, 5]])
    for junk in ([[1, 2], [3, 5]], None, 3):
        for call in (compute_partial_r, mixed_cumulants_vanish, lambda t: biconvolve(t, table),
                     lambda t: biconvolve(table, t)):
            with pytest.raises(TypeError, match="must be a TwoBandsTable, got"):
                call(junk)
        with pytest.raises(TypeError, match="must be a PartialRTable, got"):
            partial_r_to_moments(junk)


def test_table_equals_only_its_own_type():
    grid = [[1, 2], [3, 4]]
    moments = TwoBandsTable(grid)
    assert moments == TwoBandsTable(grid)
    assert moments != Series2(grid)
    assert Series2(grid) != moments
    cumulants = PartialRTable([[0, 2], [3, 4]])
    assert cumulants != Series2([[0, 2], [3, 4]])
    assert cumulants != moments
    assert len({moments, Series2(grid)}) == 2


def test_cumulant_tables_add_to_a_cumulant_table():
    rng = random.Random(47)
    r1 = compute_partial_r(random_table(rng, (2, 3)))
    r2 = compute_partial_r(random_table(rng, (2, 3)))
    total = r1 + r2
    assert type(total) is PartialRTable
    assert total.values == tuple(
        tuple(x + y for x, y in zip(u, v)) for u, v in zip(r1.values, r2.values)
    )
    assert type(r1.truncate(1, 1)) is PartialRTable
    # any other operand gives a plain series
    assert type(r1 + Series2([[0] * 4] * 3)) is Series2


def test_independent_faces_have_zero_mixed_cumulants():
    a = [F(1), F(2), F(5), F(13)]
    b = [F(1), F(-1), F(4), F(-7)]
    r = compute_partial_r(TwoBandsTable.product(a, b))
    assert all(r.values[m][n] == 0 for m in range(1, 4) for n in range(1, 4))
    assert mixed_cumulants_vanish(TwoBandsTable.product(a, b))


def test_r11_closed_form():
    rng = random.Random(11)
    for _ in range(25):
        t = random_table(rng, (1, 1), denominators=(1, 2, 3))
        r = compute_partial_r(t)
        assert r.values[1][1] == t.values[1][1] - t.values[1][0] * t.values[0][1]


def test_zero_moments_give_zero_cumulants():
    t = TwoBandsTable([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert compute_partial_r(t) == PartialRTable([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_degenerate_boxes():
    # a one-row table is just the right marginal; the left face carries only
    # phi(1), so the cumulant row is the marginal cumulant sequence
    t = TwoBandsTable([[1, 2, 5]])
    r = compute_partial_r(t)
    assert r.values[0] == (F(0),) + moments_to_r([1, 2, 5]).coeffs
    assert partial_r_to_moments(r) == t
    t = TwoBandsTable([[1], [3], [10]])
    r = compute_partial_r(t)
    assert tuple(row[0] for row in r.values) == (F(0),) + moments_to_r([1, 3, 10]).coeffs
    assert partial_r_to_moments(r) == t
    point = TwoBandsTable([[1]])
    assert compute_partial_r(point) == PartialRTable([[0]])
    assert partial_r_to_moments(PartialRTable([[0]])) == point


def test_marginal_consistency():
    rng = random.Random(5)
    t = random_table(rng, (4, 3), denominators=(1, 2))
    r = compute_partial_r(t)
    ra = moments_to_r(t.a_moments())
    rb = moments_to_r(t.b_moments())
    assert tuple(row[0] for row in r.values) == (F(0),) + ra.coeffs
    assert r.values[0] == (F(0),) + rb.coeffs


def test_inverse_trivial_cases():
    zero_r = PartialRTable([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert partial_r_to_moments(zero_r) == TwoBandsTable(
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    )
    c1, c2 = F(2), F(-3)
    scalar_r = PartialRTable([[0, c2, 0], [c1, 0, 0], [0, 0, 0]])
    assert partial_r_to_moments(scalar_r) == TwoBandsTable.product(
        [1, c1, c1**2], [1, c2, c2**2]
    )


@pytest.mark.parametrize("box", [(m, n) for m in range(6) for n in range(6)])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_closed_form_inverse_matches_antidiagonal_solver(box, data):
    entries = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))
    row = st.lists(entries, min_size=box[1] + 1, max_size=box[1] + 1)
    rows = data.draw(st.lists(row, min_size=box[0] + 1, max_size=box[0] + 1))
    r = PartialRTable([[F(0)] + rows[0][1:], *rows[1:]])
    assert partial_r_to_moments(r) == antidiagonal_inverse(r)
    # the marginal steps t*ha = t*Lagrange(pa) against revert(z / pa)
    assert partial_r_to_moments(r) == reverted_partial_r_to_moments(r)


@pytest.mark.parametrize("box", [(m, n) for m in range(7) for n in range(7)])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_integer_pipeline_matches_framed_route(box, data):
    # both directions against the Fraction-grid route they replaced; the
    # denominators make every scaled grid's LCM differ from 1 in most draws
    entries = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    row = st.lists(entries, min_size=box[1] + 1, max_size=box[1] + 1)
    rows = data.draw(st.lists(row, min_size=box[0] + 1, max_size=box[0] + 1))
    table = TwoBandsTable([[F(1)] + rows[0][1:], *rows[1:]])
    r = compute_partial_r(table)
    assert r == framed_compute_partial_r(table)
    assert partial_r_to_moments(r) == table
    rows = data.draw(st.lists(row, min_size=box[0] + 1, max_size=box[0] + 1))
    r = PartialRTable([[F(0)] + rows[0][1:], *rows[1:]])
    moments = partial_r_to_moments(r)
    assert moments == reverted_partial_r_to_moments(r)
    assert framed_compute_partial_r(moments) == r
    # S = H(ka, kb) has the marginals pa, pb as its column 0 and row 0
    ka, pa = _marginal(table.a_moments())
    kb, pb = _marginal(table.b_moments())
    s = table.substitute(ka, kb)
    assert tuple(x[0] for x in s.values) == pa.coeffs
    assert s.values[0] == pb.coeffs


# the weight scale against the (ints, den) route it replaced, which carried
# powers of each divisor's corner and reduced by a gcd between kernels


WEIGHT_BOXES = [(0, 0), (1, 0), (0, 3), (2, 2), (4, 1), (1, 6), (4, 4), (3, 7), (8, 8),
                (9, 5), (12, 12)]
DENOMINATORS = [(1,), (1, 2, 3), (2, 3, 5, 7), (1, 2, 3, 5, 7)]


@pytest.mark.parametrize("denominators", DENOMINATORS)
@pytest.mark.parametrize("box", WEIGHT_BOXES)
def test_weight_scale_maps_match_fraction_free_route(box, denominators):
    rng = random.Random(f"{box}:{denominators}")
    t1, t2 = (random_table(rng, box, -9, 9, denominators) for _ in range(2))
    assert compute_partial_r(t1) == fraction_free_compute_partial_r(t1)
    rows = [list(row) for row in random_table(rng, box, -9, 9, denominators).values]
    rows[0][0] = F(0)
    r = PartialRTable(rows)
    assert partial_r_to_moments(r) == fraction_free_partial_r_to_moments(r)
    assert biconvolve(t1, t2) == fraction_free_biconvolve(t1, t2)
    # one weight for both tables: an integer table with a rational one
    whole = random_table(rng, box, -9, 9)
    assert biconvolve(whole, t2) == fraction_free_biconvolve(whole, t2)
    assert biconvolve(t2, whole) == fraction_free_biconvolve(t2, whole)


@pytest.mark.parametrize("box", WEIGHT_BOXES[:9])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_weighted_grids_are_integral(box, data):
    # on the weight scale c^(p+q), S = H(ka, kb) is an integer grid with
    # corner 1 and R one with corner 0, for c the LCM of H's denominators
    entries = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7]))
    row = st.lists(entries, min_size=box[1] + 1, max_size=box[1] + 1)
    rows = data.draw(st.lists(row, min_size=box[0] + 1, max_size=box[0] + 1))
    table = TwoBandsTable([[F(1)] + rows[0][1:], *rows[1:]])
    c = _denominator(table.values)
    ka, _ = _marginal(table.a_moments())
    kb, _ = _marginal(table.b_moments())
    s = table.substitute(ka, kb)
    weighted_s = [c ** (p + q) * x for p, row in enumerate(s.values) for q, x in enumerate(row)]
    assert weighted_s[0] == 1
    assert all(x.denominator == 1 for x in weighted_s)
    r = _forward(_weighted(table.values, c), *box)
    assert r[0][0] == 0
    assert all(type(x) is int for row in r for x in row)
    assert PartialRTable(_unweighted(r, c)) == compute_partial_r(table)


@pytest.mark.parametrize("box", [(m, n) for m in range(8) for n in range(8 - m)])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_noncrossing_route_matches_compute_partial_r(box, data):
    # the bi-free moment-cumulant formula over NC(m + n) shares no code
    # with the series route
    entries = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5]))
    row = st.lists(entries, min_size=box[1] + 1, max_size=box[1] + 1)
    rows = data.draw(st.lists(row, min_size=box[0] + 1, max_size=box[0] + 1))
    table = TwoBandsTable([[F(1)] + rows[0][1:], *rows[1:]])
    assert noncrossing_cumulants(table) == compute_partial_r(table)


@given(tables33)
@settings(max_examples=50, deadline=None)
def test_roundtrip(table):
    assert partial_r_to_moments(compute_partial_r(table)) == table


def test_leading_coefficient_by_finite_difference():
    rng = random.Random(23)
    base = random_table(rng, (3, 3), denominators=(1, 2))
    r0 = compute_partial_r(base)
    h = F(1, 2)
    for m in range(4):
        for n in range(4):
            if m == n == 0:
                continue
            rows = [list(row) for row in base.values]
            rows[m][n] += h
            r1 = compute_partial_r(TwoBandsTable(rows))
            delta = [
                [r1.values[p][q] - r0.values[p][q] for q in range(4)] for p in range(4)
            ]
            assert delta[m][n] == h
            for p in range(4):
                for q in range(4):
                    if p < m or q < n:
                        assert delta[p][q] == 0


def test_bihomogeneity():
    rng = random.Random(29)
    base = random_table(rng, (3, 3), denominators=(1, 3))
    lam, mu = F(2), F(3)
    scaled = TwoBandsTable(
        [
            [lam**p * mu**q * base.values[p][q] for q in range(4)]
            for p in range(4)
        ]
    )
    r0 = compute_partial_r(base)
    r1 = compute_partial_r(scaled)
    assert r1 == PartialRTable(
        [[lam**m * mu**n * r0.values[m][n] for n in range(4)] for m in range(4)]
    )


@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=40)
def test_integrality(rows):
    rows = [list(map(F, r)) for r in rows]
    rows[0][0] = F(1)
    r = compute_partial_r(TwoBandsTable(rows))
    assert all(v.denominator == 1 for row in r.values for v in row)


def test_biconvolve_scalar_pairs():
    t1 = TwoBandsTable.product([1, 1, 1], [1, 2, 4])
    t2 = TwoBandsTable.product([1, 3, 9], [1, 4, 16])
    assert biconvolve(t1, t2) == TwoBandsTable.product([1, 4, 16], [1, 6, 36])


def test_biconvolve_identity_element():
    rng = random.Random(31)
    t = random_table(rng, (3, 3), denominators=(1, 2))
    delta = TwoBandsTable([[1, 0, 0, 0]] + [[0, 0, 0, 0]] * 3)
    assert biconvolve(t, delta) == t


def test_biconvolve_box_mismatch():
    t1 = TwoBandsTable.product([1, 1], [1, 1])
    t2 = TwoBandsTable.product([1, 1, 1], [1, 1])
    with pytest.raises(BoxMismatch):
        biconvolve(t1, t2)


@pytest.mark.parametrize("box", [(m, n) for m in range(6) for n in range(6)])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_biconvolve_is_the_sum_of_cumulant_tables(box, data):
    # biconvolve adds the two cumulant grids on integers between the maps;
    # the public route adds PartialRTables of Fractions
    entries = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    row = st.lists(entries, min_size=box[1] + 1, max_size=box[1] + 1)
    t1, t2 = (
        TwoBandsTable([[F(1)] + rows[0][1:], *rows[1:]])
        for rows in (data.draw(st.lists(row, min_size=box[0] + 1, max_size=box[0] + 1))
                     for _ in range(2))
    )
    want = partial_r_to_moments(compute_partial_r(t1) + compute_partial_r(t2))
    assert biconvolve(t1, t2) == want
    assert biconvolve(t2, t1) == want


def test_table_truncate_rejects_negative_orders():
    t = TwoBandsTable.product([1, 2, 5], [1, -1, 4])
    r = compute_partial_r(t)
    for table in (t, r):
        for box in ((-2, 2), (2, -1), (-1, -1)):
            with pytest.raises(NegativeOrder):
                table.truncate(*box)
        assert table.truncate(0, 2).box == (0, 2)
    assert not issubclass(NegativeOrder, BoxMismatch)


def test_additivity_of_cumulants_under_biconvolve():
    rng = random.Random(37)
    for _ in range(5):
        t1 = random_table(rng, (3, 3), denominators=(1, 2))
        t2 = random_table(rng, (3, 3), denominators=(1, 2))
        conv = biconvolve(t1, t2)
        assert compute_partial_r(conv) == compute_partial_r(t1) + compute_partial_r(t2)


def test_independence_closure():
    rng = random.Random(41)
    for _ in range(5):
        t1 = TwoBandsTable.product(
            [F(1)] + [F(rng.randint(-3, 3)) for _ in range(3)],
            [F(1)] + [F(rng.randint(-3, 3)) for _ in range(3)],
        )
        t2 = TwoBandsTable.product(
            [F(1)] + [F(rng.randint(-3, 3)) for _ in range(3)],
            [F(1)] + [F(rng.randint(-3, 3)) for _ in range(3)],
        )
        conv = biconvolve(t1, t2)
        assert mixed_cumulants_vanish(conv)
        assert conv == TwoBandsTable.product(conv.a_moments(), conv.b_moments())


def test_combined_quotient_identity_on_oracle_pairs():
    # h_a(t1) h_b(s1) / H_1(t1, s1) + h_a(t2) h_b(s2) / H_2(t2, s2) - 1
    # equals the same quotient for the bi-free sum, with the sum's table
    # taken from the operator model rather than from the convolution
    from bifree.oracle import ProductState, TwoFacedPairRep, sum_two_bands_table
    from bifree.oracle import two_bands_table as model_table
    from bifree.selfcheck import _quotient as quotient
    from bifree.series import Series1
    from bifree.transforms import subordination_series

    rng = random.Random(43)
    box = 4
    for _ in range(3):
        mk = lambda d: [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        reps = [TwoFacedPairRep(3, {0: mk(3)}, {0: mk(3)}) for _ in range(2)]
        tables = [model_table(rep, (box, box)) for rep in reps]
        oracle_sum = sum_two_bands_table(ProductState(reps, 2 * box), (box, box))
        t1, t2 = subordination_series(tables[0].a_moments(), tables[1].a_moments(), box)
        s1, s2 = subordination_series(tables[0].b_moments(), tables[1].b_moments(), box)
        combined = quotient(tables[0], t1, s1) + quotient(tables[1], t2, s2) - 1
        assert combined == quotient(oracle_sum, Series1.var(box), Series1.var(box))


def test_noncrossing_route_is_additive_on_model_sums():
    from bifree.oracle import ProductState, TwoFacedPairRep, sum_two_bands_table
    from bifree.oracle import two_bands_table as model_table

    rng = random.Random(53)
    box = (3, 3)
    for _ in range(4):
        mk = lambda d: [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        reps = [TwoFacedPairRep(d, {0: mk(d)}, {0: mk(d)}) for d in (2, 3)]
        parts = [noncrossing_cumulants(model_table(rep, box)) for rep in reps]
        total = sum_two_bands_table(ProductState(reps, sum(box)), box)
        assert noncrossing_cumulants(total) == parts[0] + parts[1]


def test_gaussian_pair_doubling():
    from bifree.oracle import ProductState, gaussian_pair_rep, sum_two_bands_table
    from bifree.oracle import two_bands_table as model_table

    rep = gaussian_pair_rep([1, 2], [1, 0], [0, 1], [2, 1], fock_cutoff=4)
    table = model_table(rep, (3, 3))
    r = compute_partial_r(table)
    # a centered pair with all cumulants beyond total degree 2 equal to zero
    assert r.values[1][0] == 0 and r.values[0][1] == 0
    for m in range(4):
        for n in range(4):
            if m + n > 2:
                assert r.values[m][n] == 0
    doubled = biconvolve(table, table)
    copies = ProductState([rep, rep], max_word_len=6)
    assert doubled == sum_two_bands_table(copies, (3, 3))
    r2 = compute_partial_r(doubled)
    assert r2.values[2][0] == 2 * r.values[2][0]
    assert r2.values[1][1] == 2 * r.values[1][1]
    assert r2.values[0][2] == 2 * r.values[0][2]


def test_mixed_cumulants_vanish_negative():
    t = TwoBandsTable([[1, 1], [1, 2]])  # phi(ab) != phi(a) phi(b)
    assert not mixed_cumulants_vanish(t)
    delta = TwoBandsTable([[1, 0], [0, 0]])
    assert mixed_cumulants_vanish(delta)
