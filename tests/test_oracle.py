"""Operator-model oracle: product actions, model builders, bi-freeness."""

import copy
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from bifree.oracle import (
    LEFT,
    RIGHT,
    FactorMismatch,
    ProductState,
    TruncationUnsound,
    TwoFacedPairRep,
    _integral,
    _rational_matrix,
    gaussian_pair_rep,
    shift_pair_rep,
    sum_two_bands_table,
    two_bands_table,
)
from bifree.partial_r import TwoBandsTable, biconvolve
from bifree.rank1 import extract_system
from bifree.series import NegativeOrder
from helpers import (
    apply_sum,
    basis,
    commutator,
    identity_matrix,
    joint_moment,
    left_action,
    matrix_shift_pair_rep,
    mirrored_apply_right,
    nested_sum_two_bands_table,
    right_action,
    state_projector,
)


def rand_rep(rng, dim, lo=-2, hi=2):
    mk = lambda: [[F(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)]
    return TwoFacedPairRep(dim, {0: mk()}, {0: mk()})


def centered(rng, dim, corner=F(0)):
    mat = [[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
    mat[0][0] = corner
    return _rational_matrix(mat)


def two_factor_product(rng, dims=(2, 3), max_word_len=6):
    return ProductState([rand_rep(rng, d) for d in dims], max_word_len)


def test_identity_lifts_to_identity():
    rng = random.Random(0)
    p = two_factor_product(rng, (2, 2), max_word_len=3)
    n = len(basis(p))
    for k in range(2):
        assert left_action(p, k, identity_matrix(2)) == identity_matrix(n)
        assert right_action(p, k, identity_matrix(2)) == identity_matrix(n)


def test_scalar_action_on_state_vector():
    # an operator fixing the factor state vector acts on the product state
    # vector by its expectation alone
    rng = random.Random(1)
    p = two_factor_product(rng, (3, 2), max_word_len=3)
    mat = _rational_matrix([[F(7, 2), 1, 0], [0, 1, 1], [0, 2, 0]])
    out = p.apply_left(0, mat, p.vacuum())
    assert out == {(): F(7, 2)}
    out = p.apply_right(0, mat, p.vacuum())
    assert out == {(): F(7, 2)}


def test_left_and_right_agree_on_state_vector():
    rng = random.Random(2)
    p = two_factor_product(rng, (3, 3), max_word_len=3)
    mat = centered(rng, 3, corner=F(5))
    assert p.apply_left(1, mat, p.vacuum()) == p.apply_right(1, mat, p.vacuum())


def test_centered_cross_moment_vanishes():
    rng = random.Random(3)
    p = two_factor_product(rng, (3, 3), max_word_len=4)
    a = centered(rng, 3)
    b = centered(rng, 3)
    vec = p.apply_left(0, a, p.apply_right(1, b, p.vacuum()))
    assert p.expectation(vec) == 0


def _alternating_patterns(length, first_choices=(0, 1)):
    if length == 0:
        return [()]
    out = []
    for first in first_choices:
        pattern = [first]
        for _ in range(length - 1):
            pattern.append(1 - pattern[-1])
        out.append(tuple(pattern))
    return out


def _pair_expectation(rep, a, b):
    single = ProductState([rep], max_word_len=2)
    return single.expectation(
        single.apply_left(0, a, single.apply_right(0, b, single.vacuum()))
    )


def test_alternating_centered_factorization():
    # phi(a_m .. a_1 b_n .. b_1) = [m == n] * prod [alpha_k == beta_k] * phi(a_k b_k)
    rng = random.Random(4)
    reps = [rand_rep(rng, 3), rand_rep(rng, 2)]
    p = ProductState(reps, max_word_len=6)
    for m in range(4):
        for n in range(4):
            for alpha in _alternating_patterns(m):
                for beta in _alternating_patterns(n):
                    lefts = [centered(rng, reps[k].dim) for k in alpha]
                    rights = [centered(rng, reps[k].dim) for k in beta]
                    vec = p.vacuum()
                    for k, mat in zip(beta, rights):
                        vec = p.apply_right(k, mat, vec)
                    for k, mat in zip(alpha, lefts):
                        vec = p.apply_left(k, mat, vec)
                    got = p.expectation(vec)
                    if m == n and alpha == beta:
                        expected = F(1)
                        for k, a, b in zip(alpha, lefts, rights):
                            expected *= _pair_expectation(reps[k], a, b)
                    else:
                        expected = F(0)
                    assert got == expected


def test_joint_moment_basics():
    rng = random.Random(5)
    reps = [rand_rep(rng, 3), rand_rep(rng, 2)]
    p = ProductState(reps, max_word_len=5)
    assert joint_moment(p, []) == 1
    # a single lifted variable keeps its factor moment
    for k, rep in enumerate(reps):
        for side in (LEFT, RIGHT):
            for power in range(1, 5):
                word = [(side, k, 0)] * power
                assert joint_moment(p, word) == rep.moment([(side, 0)] * power)


def test_restriction_fidelity():
    rng = random.Random(6)
    reps = [rand_rep(rng, 3), rand_rep(rng, 3)]
    p = ProductState(reps, max_word_len=6)
    for k, rep in enumerate(reps):
        for sides in iproduct((LEFT, RIGHT), repeat=3):
            word = [(s, k, 0) for s in sides]
            assert joint_moment(p, word) == rep.moment([(s, 0) for s in sides])


def test_scalar_pair_sum():
    c1, c2, c3, c4 = F(1), F(2), F(3), F(4)
    mk = lambda c: TwoFacedPairRep(1, {0: [[c]]}, {0: [[c]]})
    r1 = TwoFacedPairRep(1, {0: [[c1]]}, {0: [[c2]]})
    r2 = TwoFacedPairRep(1, {0: [[c3]]}, {0: [[c4]]})
    p = ProductState([r1, r2], max_word_len=6)
    got = sum_two_bands_table(p, (3, 3))
    assert got == TwoBandsTable.product(
        [(c1 + c3) ** n for n in range(4)], [(c2 + c4) ** n for n in range(4)]
    )


def test_truncation_guard():
    rng = random.Random(7)
    p = two_factor_product(rng, (2, 2), max_word_len=3)
    with pytest.raises(TruncationUnsound):
        joint_moment(p, [(LEFT, 0, 0)] * 4)
    with pytest.raises(TruncationUnsound):
        sum_two_bands_table(p, (2, 2))
    for box in ((-1, 2), (2, -1), (-3, 1)):
        with pytest.raises(NegativeOrder):
            sum_two_bands_table(p, box)
        with pytest.raises(NegativeOrder):
            two_bands_table(p.factors[0], box)
    for max_word_len in (2.5, True, -1, "3"):
        with pytest.raises(ValueError):
            ProductState(p.factors, max_word_len)


def test_factor_mismatch():
    rng = random.Random(8)
    p = two_factor_product(rng, (2, 3), max_word_len=3)
    with pytest.raises(FactorMismatch):
        p.apply_left(5, identity_matrix(2), p.vacuum())
    with pytest.raises(FactorMismatch):
        p.apply_left(0, identity_matrix(3), p.vacuum())
    with pytest.raises(FactorMismatch):
        p.apply_right(5, identity_matrix(2), p.vacuum())
    with pytest.raises(FactorMismatch):
        p.apply_right(0, identity_matrix(3), p.vacuum())
    # a factor index is an int: True is not factor 1, nor 0.0 factor 0
    for k, dim in ((True, 3), (0.0, 2), (1.0, 3), ("0", 2)):
        with pytest.raises(FactorMismatch):
            p.apply_left(k, identity_matrix(dim), p.vacuum())
        with pytest.raises(FactorMismatch):
            p.apply_right(k, identity_matrix(dim), p.vacuum())
    with pytest.raises(FactorMismatch):
        p.factors[0].operator(LEFT, 9)
    # a side other than LEFT or RIGHT names no operator
    rep = shift_pair_rep(3, ((1, 2), (3, 1)))
    with pytest.raises(FactorMismatch):
        rep.operator("left", 0)
    with pytest.raises(FactorMismatch):
        rep.moment([("X", 0), (LEFT, 0)])


def random_vector(rng, p, terms):
    """Random coefficients on random words of every length up to max_word_len."""
    vec = {}
    for _ in range(terms):
        word = []
        for _ in range(rng.randint(0, p.max_word_len)):
            ks = [k for k, f in enumerate(p.factors) if f.dim > 1]
            ks = [k for k in ks if not word or k != word[-1][0]]
            if not ks:
                break
            k = rng.choice(ks)
            word.append((k, rng.randint(1, p.factors[k].dim - 1)))
        vec[tuple(word)] = F(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
    return vec


def test_apply_right_matches_mirrored_loop():
    # the reversal route against the mirrored loop it replaced, on vectors
    # that reach the truncation length
    rng = random.Random(20)
    at_length = 0
    for _ in range(60):
        dims = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        p = ProductState([rand_rep(rng, d) for d in dims], max_word_len=rng.randint(2, 5))
        vec = random_vector(rng, p, terms=8)
        at_length += any(len(w) == p.max_word_len for w in vec)
        for k, d in enumerate(dims):
            mat = [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
            assert p.apply_right(k, mat, vec) == mirrored_apply_right(p, k, mat, vec)
    assert at_length >= 30


def test_basis_enumeration_is_deterministic():
    rng = random.Random(9)
    p = two_factor_product(rng, (2, 3), max_word_len=2)
    words = basis(p)
    assert words[0] == ()
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    # within a length: factor indices first, then coordinates, lexicographic
    assert words[1:5] == [((0, 1),), ((1, 1),), ((1, 2),), ((0, 1), (1, 1))]
    q = two_factor_product(random.Random(9), (2, 3), max_word_len=2)
    assert basis(q) == words


def test_cross_factor_commutators_vanish():
    rng = random.Random(10)
    reps = [rand_rep(rng, 2), rand_rep(rng, 3)]
    p = ProductState(reps, max_word_len=4)
    a0 = left_action(p, 0, reps[0].left_ops[0])
    b1 = right_action(p, 1, reps[1].right_ops[0])
    n = len(basis(p))
    zero = ((F(0),) * n,) * n
    assert commutator(a0, b1) == zero
    a1 = left_action(p, 1, reps[1].left_ops[0])
    b0 = right_action(p, 0, reps[0].right_ops[0])
    assert commutator(a1, b0) == zero


def test_operators_are_immutable():
    rep = TwoFacedPairRep(2, {0: [[1, 2], [3, 4]]}, {0: [[0, 1], [1, 0]]})
    with pytest.raises(TypeError):
        rep.left_ops[0][0][0] = F(5)
    with pytest.raises(TypeError):
        rep.left_ops[0][0, 0] = F(5)
    with pytest.raises(TypeError):
        rep.left_ops[0] = ((9, 9), (9, 9))
    with pytest.raises(TypeError):
        rep.right_ops[1] = ((9, 9), (9, 9))
    # the attributes cannot be rebound or deleted either
    for name, value in (("left_ops", {}), ("right_ops", {}), ("dim", 3), ("reliable", ())):
        with pytest.raises(AttributeError):
            setattr(rep, name, value)
        with pytest.raises(AttributeError):
            delattr(rep, name)
    with pytest.raises(AttributeError):
        rep.extra = 1
    assert copy.copy(rep) is rep
    assert rep.left_ops[0] == ((1, 2), (3, 4))
    assert rep.moment([(LEFT, 0)]) == 1
    assert set(rep.right_ops) == {0}
    assert (rep.dim, rep.reliable) == (2, (0, 1))


def test_product_state_is_read_only():
    rep = TwoFacedPairRep(2, {0: [[1, 2], [3, 4]]}, {0: [[0, 1], [1, 0]]})
    p = ProductState([rep], max_word_len=2)
    for name, value in (("max_word_len", 8), ("factors", (rep, rep))):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
        with pytest.raises(AttributeError):
            delattr(p, name)
    with pytest.raises(AttributeError):
        p.extra = 1
    assert copy.copy(p) is p
    assert (p.factors, p.max_word_len) == ((rep,), 2)
    with pytest.raises(TruncationUnsound):
        sum_two_bands_table(p, (4, 4))


def test_product_state_refuses_a_non_rep_factor():
    rep = TwoFacedPairRep(2, {0: [[1, 2], [3, 4]]}, {0: [[0, 1], [1, 0]]})
    for factors in ([1], [rep, None], [rep, {0: [[1]]}]):
        with pytest.raises(TypeError, match="TwoFacedPairRep"):
            ProductState(factors, 2)


def test_import_loads_only_the_standard_library():
    # the matrices are plain tuples, so the package needs nothing installed
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bifree, bifree.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "['bifree']"


# -- model builders --


def test_two_bands_table_matches_moment():
    # rows of transposes times columns, against a chain of matvec calls
    rng = random.Random(21)
    for _ in range(30):
        rep = rand_rep(rng, rng.randint(1, 4))
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        table = two_bands_table(rep, (m, n))
        assert table.box == (m, n)
        for i in range(m + 1):
            for j in range(n + 1):
                word = [(LEFT, 0)] * i + [(RIGHT, 0)] * j
                assert table.values[i][j] == rep.moment(word)


def test_two_bands_table_refusals_keep_their_messages():
    # a factor's table is read on its own space, with the refusals of the
    # one-factor free product it stands for, in the same order
    rep = shift_pair_rep(3, ((1, 2), (3, 1)))
    bad_order = "truncation orders must be >= 0 and of type int"
    for box in ((-1, 2), (2, -1), (True, 1), (1, 2.0)):
        with pytest.raises(NegativeOrder, match=bad_order):
            two_bands_table(rep, box)
        with pytest.raises(NegativeOrder, match=bad_order):
            two_bands_table(None, box)
    p = ProductState([rep], 4)
    for not_a_rep in (p, None, {0: rep}):
        message = f"^factors must be TwoFacedPairReps, got {type(not_a_rep).__name__}$"
        with pytest.raises(TypeError, match=message):
            two_bands_table(not_a_rep, (2, 2))
        # extract_system refuses a non-rep the same way, after its cap check
        with pytest.raises(TypeError, match=message):
            extract_system(not_a_rep, 3)
        with pytest.raises(ValueError, match="cap must be a nonnegative int"):
            extract_system(not_a_rep, -1)
    only_left = TwoFacedPairRep(2, {0: identity_matrix(2)}, {1: identity_matrix(2)})
    only_right = TwoFacedPairRep(2, {1: identity_matrix(2)}, {0: identity_matrix(2)})
    no_labels = TwoFacedPairRep(2, {}, {})
    for model, side in ((only_left, RIGHT), (only_right, LEFT), (no_labels, LEFT)):
        with pytest.raises(FactorMismatch, match=f"no {side!r} operator labelled 0"):
            two_bands_table(model, (1, 1))


def test_sum_table_refuses_a_non_product():
    # the product is checked after the box, by name, not by a failed lookup
    rep = shift_pair_rep(3, ((1, 2), (3, 1)))
    for not_a_product in (None, [rep], rep):
        message = f"^product must be a ProductState, got {type(not_a_product).__name__}$"
        with pytest.raises(TypeError, match=message):
            sum_two_bands_table(not_a_product, (2, 2))
        with pytest.raises(NegativeOrder):
            sum_two_bands_table(not_a_product, (-1, 2))


def test_boxes_must_be_pairs_of_orders():
    # a box that is not a pair raises NegativeOrder naming it, not an unpacking error
    rep = shift_pair_rep(3, ((1, 2), (3, 1)))
    p = ProductState([rep], 4)
    for box in (5, (1,), (1, 2, 3), None, ()):
        message = re.escape(f"box must be a pair (m, n) of orders, got {box!r}")
        with pytest.raises(NegativeOrder, match=message):
            two_bands_table(rep, box)
        with pytest.raises(NegativeOrder, match=message):
            sum_two_bands_table(p, box)


def test_dimensions_and_cutoffs_must_be_ints():
    vectors = [[F(1), F(0)]] * 4
    for bad in (1.5, 2.5, True, "3", 0):
        with pytest.raises(ValueError):
            TwoFacedPairRep(bad, {}, {})
        with pytest.raises(ValueError):
            shift_pair_rep(bad, ((1, 2), (3, 1)))
        with pytest.raises(ValueError):
            gaussian_pair_rep(*vectors, fock_cutoff=bad)
    # reliable column indices are ints too: 0.0 and True are not read as 0 and 1
    for reliable in ([1.5], [0.0], [True], [0, "1"], [3], [-1]):
        with pytest.raises(ValueError):
            TwoFacedPairRep(3, {}, {}, reliable=reliable)
    assert TwoFacedPairRep(3, {}, {}, reliable=[2, 0, 2]).reliable == (0, 2)
    assert gaussian_pair_rep(*vectors, fock_cutoff=1).dim == 3


def test_shift_pair_is_the_one_mode_fock_pair():
    # shift_pair_rep builds no matrix of its own: it is the field pair of a
    # one-dimensional Hilbert space.  The matrices of x S + y S*, written
    # entry by entry, are its oracle, on every face and in every entry.
    rng = random.Random(27)
    omegas = [((1, 2), (3, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((-2, 3), (5, -7))]
    omegas += [tuple(tuple(F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in "xy") for _ in "LR")
               for _ in range(4)]
    omegas.append((("3/2", -1), (F(-5, 4), "2/7")))
    for dim in range(2, 9):
        for omega in omegas:
            got, want = shift_pair_rep(dim, omega), matrix_shift_pair_rep(dim, omega)
            assert (got.dim, got.reliable) == (want.dim, want.reliable)
            assert dict(got.left_ops) == dict(want.left_ops), (dim, omega)
            assert dict(got.right_ops) == dict(want.right_ops), (dim, omega)


def test_shift_pair_refusals_keep_their_messages():
    good = ((1, 2), (3, 1))
    for bad in (1, 0, -2, True, 2.0, "3", None):
        message = re.escape(f"shift model needs an int dimension >= 2, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            shift_pair_rep(bad, good)
    for omega in (((1, 0.5), (3, 1)), ((1, 2), (1.5, 1))):
        with pytest.raises(TypeError, match="float coefficients are not allowed"):
            shift_pair_rep(3, omega)
    with pytest.raises(ValueError, match=re.escape("Invalid literal for Fraction: 'x'")):
        shift_pair_rep(3, ((1, 2), ("x", 1)))
    # a malformed omega fails where it is unpacked into two faces of two
    # coefficients, with the interpreter's own message
    for omega in (((1, 2), (3,)), ((1, 2),), (1, 2, 3, 4), None, ((1, 2), (3, 1), (0, 0))):
        try:
            ((_, _), (_, _)) = omega
        except (TypeError, ValueError) as exc:
            expected = exc
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            shift_pair_rep(3, omega)


def test_shift_identity_omega_gives_shift_pair():
    rep = shift_pair_rep(4, [[1, 0], [0, 1]])
    table = two_bands_table(rep, (3, 3))
    expected = [[F(int(m == 0 and n == 0)) for n in range(4)] for m in range(4)]
    assert table == TwoBandsTable(expected)


def test_shift_commutator_shape():
    for omega, det in [([[1, 0], [0, 1]], 1), ([[1, 1], [-1, 1]], 2)]:
        rep = shift_pair_rep(5, omega)
        comm = commutator(rep.left_ops[0], rep.right_ops[0])
        proj = state_projector(5)
        for c in rep.reliable:
            assert all(comm[r][c] == (-F(det)) * proj[r][c] for r in range(5))


def test_gaussian_first_moments():
    h_l, hs_l = [F(1), F(2)], [F(3), F(-1)]
    h_r, hs_r = [F(0), F(1)], [F(2), F(5)]
    rep = gaussian_pair_rep(h_l, hs_l, h_r, hs_r, fock_cutoff=3)
    assert rep.moment([(LEFT, 0)]) == 0
    assert rep.moment([(RIGHT, 0)]) == 0
    pair = lambda u, v: sum(x * y for x, y in zip(u, v))
    assert rep.moment([(LEFT, 0), (RIGHT, 0)]) == pair(h_r, hs_l)
    assert rep.moment([(LEFT, 0), (LEFT, 0)]) == pair(h_l, hs_l)


def test_gaussian_commutator_formula():
    rng = random.Random(12)
    for _ in range(5):
        vecs = [[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(4)]
        h_l, hs_l, h_r, hs_r = vecs
        rep = gaussian_pair_rep(h_l, hs_l, h_r, hs_r, fock_cutoff=3)
        pair = lambda u, v: sum(x * y for x, y in zip(u, v))
        lam = pair(h_r, hs_l) - pair(h_l, hs_r)
        comm = commutator(rep.left_ops[0], rep.right_ops[0])
        proj = state_projector(rep.dim)
        for c in rep.reliable:
            assert all(comm[r][c] == lam * proj[r][c] for r in range(rep.dim))


def test_one_variable_convolution_against_oracle():
    from bifree.transforms import free_convolve1

    rng = random.Random(14)
    for _ in range(3):
        reps = [rand_rep(rng, rng.choice([2, 3])) for _ in range(2)]
        p = ProductState(reps, max_word_len=6)
        oracle = [p.expectation(p.vacuum())]
        vec = p.vacuum()
        for _ in range(6):
            vec = apply_sum(p, LEFT, 0, vec)
            oracle.append(p.expectation(vec))
        factor_moments = [
            [rep.moment([(LEFT, 0)] * n) for n in range(7)] for rep in reps
        ]
        assert tuple(oracle) == free_convolve1(*factor_moments)


def test_sum_two_bands_table_matches_nested_loop():
    # left band against right band, against the loop it replaced: the summed
    # left operator applied to every power of the summed right one
    rng = random.Random(22)
    for _ in range(60):
        dims = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        p = ProductState([rand_rep(rng, d) for d in dims], m + n + rng.randint(0, 1))
        assert sum_two_bands_table(p, (m, n)) == nested_sum_two_bands_table(p, (m, n))


def test_additivity_against_series_route():
    rng = random.Random(13)
    for _ in range(3):
        reps = [rand_rep(rng, rng.choice([2, 3])) for _ in range(2)]
        t1 = two_bands_table(reps[0], (3, 3))
        t2 = two_bands_table(reps[1], (3, 3))
        p = ProductState(reps, max_word_len=6)
        assert sum_two_bands_table(p, (3, 3)) == biconvolve(t1, t2)


def word_count(dims, length):
    """How many words of length <= ``length`` the free product of factors of
    dimensions ``dims`` has."""
    ending = [0] * len(dims)  # words of the current length, by last factor
    total = 1
    for step in range(length):
        ending = [
            (d - 1) * (1 if step == 0 else sum(ending) - ending[k]) for k, d in enumerate(dims)
        ]
        total += sum(ending)
    return total


def test_int_tables_match_fraction_route():
    # the int bands against the nested Fraction loop through the product's
    # two actions, with operator denominators that differ between the
    # factors and between the faces
    rng = random.Random(30)

    def rational_rep(dim):
        def mk():
            dens = rng.sample((1, 2, 3, 5), rng.randint(1, 2))
            return [[F(rng.randint(-3, 3), rng.choice(dens)) for _ in range(dim)]
                    for _ in range(dim)]

        return TwoFacedPairRep(dim, {0: mk()}, {0: mk()})

    seen = set()
    cases = 0
    while cases < 150:
        dims = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        if word_count(dims, m + n) > 3000:
            continue
        cases += 1
        reps = [rational_rep(d) for d in dims]
        p = ProductState(reps, m + n + rng.randint(0, 1))
        got = sum_two_bands_table(p, (m, n))
        assert got == nested_sum_two_bands_table(p, (m, n))
        assert two_bands_table(reps[0], (m, n)) == nested_sum_two_bands_table(
            ProductState(reps[:1], m + n), (m, n)
        )
        dl = [_integral({0: r.operator(LEFT, 0)})[1] for r in reps]
        dr = [_integral({0: r.operator(RIGHT, 0)})[1] for r in reps]
        if m and n:
            seen.add("faces differ" if dl != dr else "faces agree")
        if m and n and (max(dl) > 1 or max(dr) > 1) and len(set(dl)) > 1 and len(set(dr)) > 1:
            seen.add("factors differ")
    assert seen == {"faces differ", "faces agree", "factors differ"}
