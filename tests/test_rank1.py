"""Rank <= 1 commutation systems: recursion, convolution, extraction."""

import copy
import random
import re
from fractions import Fraction as F
from itertools import product as iproduct
from math import lcm

import pytest

from bifree.oracle import (
    LEFT,
    RIGHT,
    ProductState,
    TwoFacedPairRep,
    gaussian_pair_rep,
    shift_pair_rep,
    sum_two_bands_table,
)
from bifree.partial_r import TwoBandsTable, biconvolve
from bifree.rank1 import (
    CapExceeded,
    NotRank1,
    Rank1System,
    UnsupportedIndexSets,
    _apply_T,
    biconvolve_rank1,
    extract_system,
    mixed_moment,
)
from bifree.series import BadNormalization, NegativeOrder
from helpers import (
    apply_sum,
    basis,
    dense_lam,
    fraction_extract_system,
    fraction_mixed_moment,
    left_action,
    per_corner_biconvolve_rank1,
    rank1_from_table,
    right_action,
    shift_combo,
)


def a(label=0):
    return (LEFT, label)


def b(label=0):
    return (RIGHT, label)


def matrix_sum(x, y):
    return tuple(tuple(u + v for u, v in zip(r, s)) for r, s in zip(x, y))


# -- the recursion --


def single_pair_system(table, lam):
    return rank1_from_table(table, lam)


def demo_system():
    # phi(a^p b^q) = p! q!-free small integers, cap 4, lambda = 2
    vals = [[1, 1, 2], [3, 5, 7], [4, 6, 8]]
    return single_pair_system(TwoBandsTable(vals), F(2))


def test_apply_T_examples():
    s = demo_system()  # integer data, so the scale D is 1
    empty = {((), ()): 1}
    assert _apply_T(s, empty, 0) == {((0,), ()): 1}
    # a right letter only appends its label; mixed_moment does that itself,
    # once per run of right letters
    assert mixed_moment(s, [a(), b(), b()]) == s.phi((0,), (0, 0))
    # a left letter crosses one right letter: correction -phi(a) * lam
    out = _apply_T(s, {((0,), (0,)): 1}, 0)
    phi_a = s.phi((0,), ())
    assert out == {((0, 0), (0,)): 1, ((), ()): -phi_a * 2}
    # lam = 1/2 and phi(a) = 1/3 give D = 6: the left letter carries the
    # term by D^2 and the correction is -(phi D)(lam D) = -2 * 3
    r = rank1_from_table(TwoBandsTable([[1, 1], [F(1, 3), 1]]), F(1, 2))
    assert _apply_T(r, {((0,), (0,)): 1}, 0) == {((0, 0), (0,)): 36, ((), ()): -6}
    assert mixed_moment(r, [b(), a()]) == r.phi((0,), (0,)) - F(1, 2)


def test_mixed_moment_examples():
    s = demo_system()
    # canonical words pass through unchanged
    assert mixed_moment(s, [a(), b()]) == s.phi((0,), (0,))
    assert mixed_moment(s, [a(), a(), b(), b()]) == s.phi((0, 0), (0, 0))
    # phi(ba) = phi(ab) - lam
    assert mixed_moment(s, [b(), a()]) == s.phi((0,), (0,)) - F(2)
    # phi(aba) = phi(a^2 b) - lam * phi(a)
    assert mixed_moment(s, [a(), b(), a()]) == s.phi((0, 0), (0,)) - F(2) * s.phi((0,), ())


def test_mixed_moment_rejects_unknown_index():
    s = demo_system()
    with pytest.raises(ValueError):
        mixed_moment(s, [(LEFT, 3)])
    # a side that is neither LEFT nor RIGHT is refused, not read as a left letter
    s = extract_system(shift_pair_rep(3, ((1, 2), (3, 1))), 4)
    for word in ([("X", 0), (LEFT, 0)], [(RIGHT, 0), ("left", 0)]):
        with pytest.raises(ValueError):
            mixed_moment(s, word)


def test_mixed_moment_rejects_malformed_letters():
    # a letter is a (side, label) tuple, and a label that equals a declared
    # one must also have its type: 0.0 and True are not labels 0 and 1.  A
    # declared letter is found with one lookup in the system's letter table;
    # these checks, and their messages, run only on a miss.
    s = Rank1System((0, 1), (0, "x"), {(1, "x"): 2}, {((), ()): 1, ((1,), ("x",)): 3}, 2)
    not_a_pair = re.escape("is not a (side, label) pair")
    bad_side = "not LEFT or RIGHT"
    undeclared = "uses an undeclared index"
    bad_words = [
        ([5], not_a_pair),
        ([None], not_a_pair),
        ([LEFT], not_a_pair),
        ([()], not_a_pair),
        ([(LEFT,)], not_a_pair),
        ([(LEFT, 0, 1)], not_a_pair),
        ([[LEFT, 0]], not_a_pair),
        ([("left", 0)], bad_side),
        ([(RIGHT, "x"), (None, "x")], bad_side),
        ([(LEFT, 0.0)], undeclared),
        ([(LEFT, True)], undeclared),
        ([(LEFT, [0])], undeclared),
        ([(RIGHT, 0), (LEFT, F(1))], undeclared),
        ([(RIGHT, False)], undeclared),
        ([(RIGHT, 0.0)], undeclared),
        ([(RIGHT, "y")], undeclared),
        # labels declared only on the other face
        ([(LEFT, "x")], undeclared),
        ([(RIGHT, 1)], undeclared),
        # an unhashable side misses the table like any other bad side
        ([([], 0)], bad_side),
    ]
    for word, message in bad_words:
        with pytest.raises(ValueError, match=message):
            mixed_moment(s, word)
    assert mixed_moment(s, [(LEFT, 1), (RIGHT, "x")]) == 3
    assert mixed_moment(s, [(RIGHT, "x"), (LEFT, 1)]) == 3 - 2


def test_cap_is_enforced():
    s = demo_system()
    with pytest.raises(CapExceeded):
        s.phi((0, 0, 0), (0, 0))
    with pytest.raises(CapExceeded):
        mixed_moment(s, [a()] * 5)
    rep = shift_pair_rep(4, [[1, 2], [3, 1]])
    for cap in (2.9, 2.5, True, -1, "4"):
        with pytest.raises(ValueError):
            Rank1System((0,), (0,), {}, {((), ()): F(1)}, cap)
        with pytest.raises(ValueError):
            extract_system(rep, cap)


def test_table_rejects_bad_boxes():
    s = rank1_from_table(TwoBandsTable([[1, 2], [3, 4]]), 0)
    for box in ((-1, 1), (1, -1), (1.5, 1), (1, True)):
        with pytest.raises(NegativeOrder):
            s.table(box)
    # a box that is not a pair is refused by name, not by a failed unpacking
    for box in (5, (1,), (1, 2, 3), None):
        with pytest.raises(NegativeOrder, match=re.escape(f"got {box!r}")):
            s.table(box)
    assert s.table((1, 1)) == TwoBandsTable([[1, 2], [3, 4]])


def _naive_normalize(system, word):
    """Independent oracle: push left letters leftwards one swap at a time,
    splitting off projector terms, then evaluate segment products."""
    # a term is (coeff, segments); phi(term) = coeff * prod_seg phi(segment)
    done = []
    stack = [(F(1), (tuple(word),))]
    while stack:
        coeff, segments = stack.pop()
        for si, seg in enumerate(segments):
            pos = next(
                (
                    p
                    for p in range(len(seg) - 1)
                    if seg[p][0] == RIGHT and seg[p + 1][0] == LEFT
                ),
                None,
            )
            if pos is not None:
                break
        else:
            done.append((coeff, segments))
            continue
        swapped = seg[:pos] + (seg[pos + 1], seg[pos]) + seg[pos + 2 :]
        stack.append((coeff, segments[:si] + (swapped,) + segments[si + 1 :]))
        lam = system.coefficient(seg[pos + 1][1], seg[pos][1])
        if lam:
            left_part, right_part = seg[:pos], seg[pos + 2 :]
            stack.append(
                (
                    -coeff * lam,
                    segments[:si] + (left_part, right_part) + segments[si + 1 :],
                )
            )
    total = F(0)
    for coeff, segments in done:
        value = coeff
        for seg in segments:
            il = tuple(lbl for side, lbl in seg if side == LEFT)
            jl = tuple(lbl for side, lbl in seg if side == RIGHT)
            value *= system.phi(il, jl)
        total += value
    return total


def test_int_recursion_matches_fraction_route():
    # mixed_moment runs on ints over powers of one scale D; the Fraction
    # recursion must give the same value, or raise the same CapExceeded, on
    # every word up to one letter past the cap.  The denominators {1, 2, 3, 5}
    # are split between lam and the stored moments, some of both are zero,
    # and some systems miss stored moments inside their cap.  Right letters
    # are appended once per run, so the gappy systems must see words that
    # end in a run of right letters, and words of right letters only, both
    # evaluated and refused.
    rng = random.Random(43)

    def outcome(evaluate, system, word):
        try:
            value = evaluate(system, word)
        except CapExceeded as exc:
            return f"CapExceeded: {exc}"
        assert type(value) is F
        return value

    def random_system(left, right, cap, dropped):
        dens = rng.sample((1, 2, 3, 5), 4)
        lam_dens, phi_dens = dens[:2], dens[2:]
        rational = lambda ds: F(rng.choice((0, 0, 1, -1, 2, -3, 4)), rng.choice(ds))
        lam = {(i, j): rational(lam_dens) for i in left for j in right}
        two_bands = {((), ()): F(1)}
        for p in range(cap + 1):
            for il in iproduct(left, repeat=p):
                for q in range(cap + 1 - p):
                    for jl in iproduct(right, repeat=q):
                        if (il or jl) and rng.random() >= dropped:
                            two_bands[(il, jl)] = rational(phi_dens)
        return Rank1System(left, right, lam, two_bands, cap)

    systems = [
        random_system((0,), (0,), 7, 0),
        random_system((0,), (0,), 6, 0.1),
        random_system((0, 1), (0,), 4, 0),
        random_system((0, 1), (2, 5), 4, 0),
        random_system((0, 1), (2, 5), 4, 0.05),
    ]
    for _ in range(2):
        omega = [[F(rng.choice((1, -1, 2)), rng.choice((2, 3, 5))) for _ in range(2)]]
        omega.append([F(rng.choice((1, -2, 3)), rng.choice((1, 2, 3, 5))) for _ in range(2)])
        systems.append(extract_system(shift_pair_rep(5, omega), cap=6))
    seen = set()
    for system in systems:
        letters = [a(i) for i in system.left_indices] + [b(j) for j in system.right_indices]
        stored = sum(len(system.left_indices) ** p * len(system.right_indices) ** q
                     for p in range(system.cap + 1) for q in range(system.cap + 1 - p))
        gappy = len(system.two_bands) < stored
        for length in range(system.cap + 2):
            for word in iproduct(letters, repeat=length):
                got = outcome(mixed_moment, system, word)
                assert got == outcome(fraction_mixed_moment, system, word), word
                if isinstance(got, str):
                    seen.add("past the cap" if length > system.cap else "missing moment")
                else:
                    seen.add("zero" if got == 0 else "rational" if got.denominator > 1 else "int")
                if gappy and length > 1 and word[-1][0] == word[-2][0] == RIGHT:
                    tail = "all right" if all(x[0] == RIGHT for x in word) else "right run"
                    seen.add(f"{tail}, {'refused' if isinstance(got, str) else 'value'}")
        if any(v == 0 for v in system.two_bands.values()):
            seen.add("zero phi")
        if len(system.lam) < len(system.left_indices) * len(system.right_indices):
            seen.add("zero lam")
    assert seen == {
        "past the cap", "missing moment", "zero", "rational", "int", "zero phi", "zero lam",
        "right run, value", "right run, refused", "all right, value", "all right, refused",
    }


def test_stored_zero_moments_skip_the_phi_fallback(monkeypatch):
    # Shift models store many zero moments (odd words vanish).  The recursion
    # reads a stored zero from its int table like any other moment and calls
    # Rank1System.phi only on a word that is not stored, to raise CapExceeded.
    system = extract_system(shift_pair_rep(4, ((1, 2), (3, 1))), 5)
    assert 0 in system.two_bands.values()
    words = [w for n in range(6) for w in iproduct([a(), b()], repeat=n)]
    expected = [fraction_mixed_moment(system, w) for w in words]
    calls = []
    phi = Rank1System.phi
    monkeypatch.setattr(
        Rank1System, "phi", lambda s, il, jl: calls.append((il, jl)) or phi(s, il, jl)
    )
    assert [mixed_moment(system, w) for w in words] == expected
    assert 0 in expected and calls == []
    with pytest.raises(CapExceeded):
        mixed_moment(system, [b(), a()] * 3)
    assert len(calls) == 1


def test_recursion_matches_naive_normalization():
    rng = random.Random(17)
    vals = [[F(rng.randint(-2, 3)) for _ in range(4)] for _ in range(4)]
    vals[0][0] = F(1)
    s = single_pair_system(TwoBandsTable(vals), F(3, 2))
    for length in range(7):
        for sides in iproduct((LEFT, RIGHT), repeat=length):
            if sides.count(LEFT) > 3 or sides.count(RIGHT) > 3:
                continue  # the stored rectangle only reaches bidegree (3, 3)
            word = [(side, 0) for side in sides]
            assert mixed_moment(s, word) == _naive_normalize(s, word)


def test_determination_on_models():
    models = [
        shift_pair_rep(4, [[1, 2], [3, 1]]),
        shift_pair_rep(4, [[1, 1], [-1, 1]]),
        gaussian_pair_rep([1, 2], [1, 0], [0, 1], [2, 1], fock_cutoff=3),
    ]
    for rep in models:
        system = extract_system(rep, cap=5)
        for length in range(6):
            for sides in iproduct((LEFT, RIGHT), repeat=length):
                word = [(side, 0) for side in sides]
                assert mixed_moment(system, word) == rep.moment(word)


# -- extraction --


def test_extract_shift_coefficient():
    omega = [[1, 2], [3, 1]]  # det = -5
    system = extract_system(shift_pair_rep(5, omega), cap=4)
    assert system.lam == {(0, 0): F(5)}


def test_extract_gaussian_coefficient():
    h_l, hs_l, h_r, hs_r = [1, 2], [1, 0], [0, 1], [2, 1]
    system = extract_system(gaussian_pair_rep(h_l, hs_l, h_r, hs_r, 3), cap=4)
    pair = lambda u, v: sum(F(x) * F(y) for x, y in zip(u, v))
    assert system.coefficient(0, 0) == pair(h_r, hs_l) - pair(h_l, hs_r)


def test_extract_commuting_pair_is_bipartite():
    diag_a = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    diag_b = [[7, 0, 0], [0, 1, 0], [0, 0, 2]]
    rep = TwoFacedPairRep(3, {0: diag_a}, {0: diag_b})
    system = extract_system(rep, cap=4)
    assert system.lam == {}


def test_extracted_moments_match_the_model():
    # two labels a side, so rows must be read on the right words: every
    # stored phi(a_{i1}..a_{ip} b_{j1}..b_{jq}) against a chain of matvec calls
    dim = 4
    rep = TwoFacedPairRep(
        dim,
        {0: shift_combo(dim, 1, 2), 1: shift_combo(dim, -1, 3)},
        {0: shift_combo(dim, 2, -1), 1: shift_combo(dim, 1, 1)},
        reliable=range(dim - 1),
    )
    system = extract_system(rep, cap=4)
    assert len(system.two_bands) == sum((d + 1) * 2**d for d in range(5))  # 129
    for (il, jl), value in system.two_bands.items():
        assert value == rep.moment([a(i) for i in il] + [b(j) for j in jl])
    assert system.lam == {
        (i, j): F(y * u - x * v)
        for i, (x, y) in enumerate(((1, 2), (-1, 3)))
        for j, (u, v) in enumerate(((2, -1), (1, 1)))
    }


def test_extract_rejects_higher_rank_commutators():
    x = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    y = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    rep = TwoFacedPairRep(3, {0: x}, {0: y})
    with pytest.raises(NotRank1):
        extract_system(rep, cap=3)


def test_column_check_matches_dense_commutators():
    # extract_system reads commutator columns; dense_lam builds every full
    # commutator.  Both must give the same lam, or name the same column.
    rng = random.Random(40)
    entries = (0, 0, 0, 1, -1, 2, F(1, 2))

    def random_rep():
        dim = rng.randint(1, 5)
        mk = lambda: [[rng.choice(entries) for _ in range(dim)] for _ in range(dim)]
        labels = lambda: {k: mk() for k in range(rng.randint(1, 2))}
        reliable = rng.choice(
            [[], range(1, dim), None, [c for c in range(dim) if rng.random() < 0.5]]
        )
        return TwoFacedPairRep(dim, labels(), labels(), reliable=reliable)

    def outcome(extract, rep):
        try:
            return extract(rep)
        except NotRank1 as exc:
            return str(exc)

    reps = [random_rep() for _ in range(600)]
    for _ in range(10):
        omega = [[rng.choice(entries) for _ in range(2)] for _ in range(2)]
        reps.append(shift_pair_rep(rng.randint(2, 6), omega))
        vectors = [[rng.choice(entries) for _ in range(2)] for _ in range(4)]
        reps.append(gaussian_pair_rep(*vectors, fock_cutoff=rng.randint(1, 3)))
    seen = set()
    for rep in reps:
        got = outcome(lambda r: dict(extract_system(r, cap=1).lam), rep)
        assert got == outcome(dense_lam, rep)
        seen.add("raised" if isinstance(got, str) else "lam" if got else "zero")
        if isinstance(got, str) and not got.endswith("column 0"):
            seen.add("raised past column 0")
    assert seen == {"raised", "raised past column 0", "lam", "zero"}


def test_int_extraction_matches_fraction_route():
    # extract_system scales each face to ints; the Fraction route and the
    # dense commutators must give the same lam and two-bands moments, or the
    # same NotRank1 message, with denominators that differ between the faces
    rng = random.Random(41)

    def rational(dens):
        return F(rng.choice((0, 0, 1, -1, 2, -3)), rng.choice(dens))

    def dens():
        return rng.sample((1, 2, 3, 5), rng.randint(1, 2))

    def random_rep():
        dim = rng.randint(1, 4)

        def face():
            ds = dens()
            mk = lambda: [[rational(ds) for _ in range(dim)] for _ in range(dim)]
            return {k: mk() for k in rng.sample((0, 1, 2), rng.randint(1, 2))}

        reliable = rng.choice([[], [0], None, [c for c in range(dim) if rng.random() < 0.5]])
        return TwoFacedPairRep(dim, face(), face(), reliable=reliable)

    def outcome(extract, rep):
        try:
            return extract(rep)
        except NotRank1 as exc:
            return str(exc)

    reps = [random_rep() for _ in range(150)]
    for _ in range(15):
        left, right = dens(), dens()
        omega = [[rational(left), rational(left)], [rational(right), rational(right)]]
        reps.append(shift_pair_rep(rng.randint(2, 5), omega))
        left, right = dens(), dens()
        vectors = [[rational(ds) for _ in range(2)] for ds in (left, left, right, right)]
        reps.append(gaussian_pair_rep(*vectors, fock_cutoff=rng.randint(1, 2)))
    seen = set()
    for rep in reps:
        cap = rng.randint(0, 4)
        got = outcome(lambda r: extract_system(r, cap), rep)
        want = outcome(lambda r: fraction_extract_system(r, cap), rep)
        if isinstance(got, str):
            assert got == want == outcome(dense_lam, rep)
            seen.add("raised")
            continue
        assert (got.lam, got.two_bands, got.cap) == (want.lam, want.two_bands, want.cap)
        assert got.lam == dense_lam(rep)
        # both routes end in _fill, so a constructor-built copy checks only
        # the fields it is given; D and the int tables are checked here:
        # D is the LCM of the reduced denominators, not of D_L^p D_R^q
        s = Rank1System(got.left_indices, got.right_indices, got.lam, got.two_bands, got.cap)
        assert (got._scale, got._phi_d, got._lam_d, got._letters) == (
            s._scale, s._phi_d, s._lam_d, s._letters)
        values = [*got.lam.values(), *got.two_bands.values()]
        assert got._scale == lcm(*(v.denominator for v in values))
        assert got._phi_d == {w: v * got._scale for w, v in got.two_bands.items()}
        assert got._lam_d == {ij: x * got._scale for ij, x in got.lam.items()}
        assert all(type(x) is int for x in [*got._phi_d.values(), *got._lam_d.values()])
        seen.add("lam" if got.lam else "zero")
        if any(v.denominator > 1 for v in got.lam.values()):
            seen.add("rational lam")
    assert seen == {"raised", "lam", "zero", "rational lam"}


def test_systems_are_immutable():
    system = extract_system(shift_pair_rep(4, [[1, 2], [3, 1]]), cap=4)
    with pytest.raises(TypeError):
        system.two_bands[((), ())] = 7
    with pytest.raises(TypeError):
        system.lam[(0, 0)] = 99
    with pytest.raises(TypeError):
        system.lam[(0, 1)] = 99
    # attributes cannot be rebound or deleted: the recursion's scale was
    # derived from lam and two_bands at construction
    for name, value in (("two_bands", {}), ("lam", {}), ("cap", 9), ("_scale", 1),
                        ("_letters", {})):
        with pytest.raises(AttributeError):
            setattr(system, name, value)
        with pytest.raises(AttributeError):
            delattr(system, name)
    with pytest.raises(AttributeError):
        system.extra = 1
    assert copy.copy(system) is system
    assert system.phi((), ()) == 1
    assert system.coefficient(0, 0) == 5
    assert system.lam == {(0, 0): F(5)}
    assert system.cap == 4


def test_phi_of_projector_is_one():
    message = "two_bands must contain the empty word with value 1"
    with pytest.raises(BadNormalization, match=message):
        Rank1System((0,), (0,), {}, {((), ()): F(2)}, 2)
    with pytest.raises(BadNormalization, match=message):
        Rank1System((0,), (0,), {}, {}, 2)


# -- convolution --


def test_biconvolve_rank1_bipartite_stays_bipartite():
    t1 = TwoBandsTable.product([1, 2, 5, 14], [1, 1, 3, 7])
    t2 = TwoBandsTable.product([1, 0, 1, 0], [1, 1, 1, 1])
    s1 = rank1_from_table(t1.truncate(2, 2), 0)
    s2 = rank1_from_table(t2.truncate(2, 2), 0)
    out = biconvolve_rank1(s1, s2)
    assert out.lam == {}
    assert out.cap == 4


def test_biconvolve_rank1_identity():
    vals = [[F(1), F(2)], [F(3), F(4)]]
    s = rank1_from_table(TwoBandsTable(vals), F(5))
    zero = rank1_from_table(TwoBandsTable([[1, 0], [0, 0]]), 0)
    out = biconvolve_rank1(s, zero)
    assert out.two_bands == s.two_bands
    assert out.coefficient(0, 0) == F(5)


def test_biconvolve_rank1_matches_oracle_sum():
    rep_a = shift_pair_rep(5, [[1, 1], [0, 1]])
    rep_b = shift_pair_rep(5, [[2, 0], [1, 1]])
    sys_a = extract_system(rep_a, cap=6)
    sys_b = extract_system(rep_b, cap=6)
    out = biconvolve_rank1(sys_a, sys_b)
    assert out.coefficient(0, 0) == sys_a.coefficient(0, 0) + sys_b.coefficient(0, 0)
    p = ProductState([rep_a, rep_b], max_word_len=6)
    assert out.table((3, 3)) == sum_two_bands_table(p, (3, 3))
    # the convolved system also reproduces arbitrary mixed words of the sum
    for sides in [(RIGHT, LEFT), (LEFT, RIGHT, LEFT), (RIGHT, RIGHT, LEFT, LEFT)]:
        word = [(s, 0) for s in sides]
        vec = p.vacuum()
        for side, _ in reversed(word):
            vec = apply_sum(p, side, 0, vec)
        assert mixed_moment(out, word) == p.expectation(vec)


def test_biconvolve_rank1_gaussian_coefficients_add():
    pair = lambda u, v: sum(F(x) * F(y) for x, y in zip(u, v))
    vector_sets = [([1, 2], [1, 0], [0, 1], [2, 1]), ([0, 1], [1, 1], [1, 0], [0, 2])]
    reps = [gaussian_pair_rep(*vecs, fock_cutoff=3) for vecs in vector_sets]
    systems = [extract_system(rep, cap=4) for rep in reps]
    out = biconvolve_rank1(systems[0], systems[1])
    lams = [pair(h_r, hs_l) - pair(h_l, hs_r) for h_l, hs_l, h_r, hs_r in vector_sets]
    assert out.coefficient(0, 0) == lams[0] + lams[1]
    p = ProductState(reps, max_word_len=4)
    assert out.table((2, 2)) == sum_two_bands_table(p, (2, 2))


def test_biconvolve_rank1_rejects_multi_pairs():
    table = TwoBandsTable([[1, 0], [0, 0]])
    s = rank1_from_table(table, 0)
    multi = Rank1System(
        (0, 1),
        (0,),
        {},
        {((), ()): F(1)},
        0,
    )
    with pytest.raises(UnsupportedIndexSets):
        biconvolve_rank1(multi, multi)
    with pytest.raises(ValueError):
        biconvolve_rank1(s, rank1_from_table(TwoBandsTable([[1]]), 0))


def random_single_pair(rng, corners, lam=None):
    """A single-pair system storing every a^u b^v below one of ``corners``,
    with entries p/q, q in {1, 2, 3, 5}, and the cap the largest p + q."""
    cells = {(u, v) for p, q in corners for u in range(p + 1) for v in range(q + 1)}
    two_bands = {
        ((0,) * u, (0,) * v): F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5])) if u + v else F(1)
        for u, v in sorted(cells)
    }
    if lam is None:
        lam = F(rng.randint(-3, 3), rng.choice([1, 2]))
    return Rank1System((0,), (0,), {(0, 0): lam}, two_bands, max(p + q for p, q in corners))


def convolution_pairs():
    mixes = ([[1, 1], [0, 1]], [[2, 0], [1, 1]])
    shift = [extract_system(shift_pair_rep(5, mix), cap=6) for mix in mixes]
    vector_sets = [([1, 2], [1, 0], [0, 1], [2, 1]), ([0, 1], [1, 1], [1, 0], [0, 2])]
    gauss = [extract_system(gaussian_pair_rep(*vecs, fock_cutoff=3), cap=4) for vecs in vector_sets]
    rng = random.Random(53)
    pairs = [shift, gauss]
    for corners in ([(2, 3)], [(4, 0), (0, 4), (2, 2)], [(0, 5)], [(3, 0)], [(0, 0)],
                    [(p, 5 - p) for p in range(6)]):
        pairs.append([random_single_pair(rng, corners) for _ in range(2)])
    return pairs


def test_biconvolve_rank1_matches_per_corner_route():
    for s1, s2 in convolution_pairs():
        out = biconvolve_rank1(s1, s2)
        want = per_corner_biconvolve_rank1(s1, s2)
        assert out.lam == want.lam
        assert out.cap == want.cap
        # equal values, and the words in the same order
        assert list(out.two_bands.items()) == list(want.two_bands.items())


def filled_table(system, box, fill):
    """The table of a single-pair system on ``box``, ``fill`` where it stores nothing."""
    m, n = box
    return TwoBandsTable([[system.two_bands.get(((0,) * u, (0,) * v), fill)
                           for v in range(n + 1)] for u in range(m + 1)])


def test_biconvolve_rank1_ignores_the_fill():
    # the box cells a system does not store are scratch: whatever they hold,
    # every stored word convolves to the same moment
    fills = (0, F(-7, 3))
    for s1, s2 in convolution_pairs():
        degrees = {(len(il), len(jl)) for il, jl in s1.two_bands}
        box = (max(p for p, _ in degrees), max(q for _, q in degrees))
        outs = [biconvolve(filled_table(s1, box, x), filled_table(s2, box, x)) for x in fills]
        assert all(outs[0].values[u][v] == outs[1].values[u][v] for u, v in degrees)
        out = biconvolve_rank1(s1, s2)
        assert all(out.phi((0,) * u, (0,) * v) == outs[1].values[u][v] for u, v in degrees)


def test_rank1_entry_points_refuse_a_value_that_is_not_a_system():
    system = random_single_pair(random.Random(60), [(2, 2)])
    table = system.table((1, 1))
    for junk in (None, table, [[1, 2], [3, 5]], 3):
        for call in (lambda s: mixed_moment(s, [(LEFT, 0)]), lambda s: biconvolve_rank1(s, system),
                     lambda s: biconvolve_rank1(system, s)):
            with pytest.raises(TypeError, match="must be Rank1Systems, got"):
                call(junk)


def test_biconvolve_rank1_refusals_keep_their_messages():
    rng = random.Random(59)
    full = random_single_pair(rng, [(2, 2)])
    # a stored word whose dependency rectangle is not fully stored
    holes = dict(full.two_bands)
    del holes[((0,), (0,))]
    gappy = Rank1System((0,), (0,), {}, holes, full.cap)
    other_label = Rank1System((0,), (1,), {}, {((), ()): 1}, full.cap)
    other_cap = Rank1System((0,), (0,), {}, full.two_bands, full.cap + 1)
    cases = [
        ((gappy, gappy), CapExceeded, r"two-bands moment for \(\(0,\), \(0,\)\) not stored"),
        ((full, other_label), UnsupportedIndexSets, "systems must declare the same index labels"),
        ((full, other_cap), ValueError, "caps differ: 4 vs 5"),
        ((full, gappy), ValueError, "systems store different two-bands domains"),
    ]
    for route in (biconvolve_rank1, per_corner_biconvolve_rank1):
        for args, error, message in cases:
            with pytest.raises(error, match=message):
                route(*args)
    # on random domains, gaps or none, both routes name the same first gap
    for _ in range(200):
        cells = [(0, 0)] + [(u, v) for u in range(4) for v in range(4 - u)
                            if (u, v) != (0, 0) and rng.random() < 0.7]
        two_bands = {((0,) * u, (0,) * v): F(1) if u + v == 0 else F(rng.randint(-3, 3), 2)
                     for u, v in cells}
        system = Rank1System((0,), (0,), {}, two_bands, 3)
        outcomes = []
        for route in (biconvolve_rank1, per_corner_biconvolve_rank1):
            try:
                out = route(system, system)
                outcomes.append(list(out.two_bands.items()))
            except CapExceeded as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]


def test_biconvolve_rank1_commutes_with_extraction():
    # extracting the summed system from the lifted product equals convolving
    # the individually extracted systems
    rep_a = shift_pair_rep(3, [[1, 2], [3, 1]])
    rep_b = shift_pair_rep(3, [[1, 1], [-1, 1]])
    p = ProductState([rep_a, rep_b], max_word_len=4)
    safe = [
        i
        for i, w in enumerate(basis(p))
        if len(w) <= p.max_word_len - 2
        and all(c in p.factors[k].reliable for k, c in w)
    ]
    summed_left = matrix_sum(
        left_action(p, 0, rep_a.left_ops[0]), left_action(p, 1, rep_b.left_ops[0])
    )
    summed_right = matrix_sum(
        right_action(p, 0, rep_a.right_ops[0]), right_action(p, 1, rep_b.right_ops[0])
    )
    lifted = TwoFacedPairRep(
        len(basis(p)), {0: summed_left}, {0: summed_right}, reliable=safe
    )
    extracted = extract_system(lifted, cap=2)
    convolved = biconvolve_rank1(
        extract_system(rep_a, cap=2), extract_system(rep_b, cap=2)
    )
    assert extracted.lam == convolved.lam
    assert extracted.two_bands == convolved.two_bands
    assert extracted.cap == convolved.cap


def test_direct_sum_of_coefficient_matrices():
    # two bi-free single-pair systems juxtaposed form a 2x2 system whose
    # coefficients matrix is the direct sum: cross entries vanish
    rep_a = shift_pair_rep(3, [[1, 0], [0, 1]])
    rep_b = shift_pair_rep(3, [[1, 1], [-1, 1]])
    p = ProductState([rep_a, rep_b], max_word_len=3)
    safe = [
        i
        for i, w in enumerate(basis(p))
        if len(w) <= p.max_word_len - 2
        and all(c in p.factors[k].reliable for k, c in w)
    ]
    lifted = TwoFacedPairRep(
        len(basis(p)),
        {k: left_action(p, k, p.factors[k].left_ops[0]) for k in range(2)},
        {k: right_action(p, k, p.factors[k].right_ops[0]) for k in range(2)},
        reliable=safe,
    )
    system = extract_system(lifted, cap=3)
    assert system.coefficient(0, 0) == -F(1)
    assert system.coefficient(1, 1) == -F(2)
    assert system.coefficient(0, 1) == 0
    assert system.coefficient(1, 0) == 0
