"""Seeded inputs, measured calls and exact checks for the bifree benchmark.

Each workload turns a seed into a fixed-shape list of ``Op``s: the shape
(orders, boxes, dims, caps, word lengths) is the same for every seed, and
only the values change, so a run's work does not depend on which seed it
is given.  ``bifree`` receives only the generated values and the fixture
files written here.

Every call takes tens of milliseconds at most.  On a host shared with
other tenants, the fastest of many runs of a short call repeats within a
few percent, because short calls often fall between two bursts of the
other tenants' load; a call of about a hundred milliseconds always
spans some bursts, and its fastest run moves with their load by up to a
quarter.  So the shapes stop below the largest ones the paper's examples
reach: orders up to 10, boxes up to (4, 4), caps up to 6.

Every check is exact and runs outside the timed interval.  Where it can,
a check recomputes the answer along a route that shares no code with the
measured call (the free moment-cumulant recursion and the integer matrix
products below); where the benchmark has no independent route, it uses
another part of ``bifree`` itself (the forward map, ``biconvolve``,
``TwoFacedPairRep.moment``).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import bifree
import bifree.cli
from bifree.oracle import LEFT, RIGHT, TwoFacedPairRep
from bifree.partial_r import TwoBandsTable

DENOMINATORS = (1, 2, 3)
# Numerators for each denominator: nonzero, |p| <= 6 and prime to q, so
# that every rational has exactly the denominator its position gives it.
NUMERATORS = {q: tuple(p for p in range(-6, 7) if p and math.gcd(p, q) == 1) for q in DENOMINATORS}
# Matrix entries: nonzero, so a seed that draws zeros cannot make a run cheaper.
DENSE_ENTRIES = (-2, -1, 1, 2)


@dataclass
class Op:
    """One measured call.

    ``call`` is the only code inside the timed interval.  ``collect`` turns
    its return value into the output that is stored and checked (for the CLI
    it reads the output file), and ``check`` verifies that output exactly.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    collect: Callable[[Any], Any] = field(default=lambda out: out)


# ---------------------------------------------------------------- references


def _rat(rng, k):
    """A random p/q whose denominator q is fixed by the position ``k``.

    The seed draws only the numerators.  Exact rational arithmetic costs
    more as denominators grow, so fixing where each one falls keeps the
    work of an op nearly the same from seed to seed.
    """
    q = DENOMINATORS[k % len(DENOMINATORS)]
    return Fraction(rng.choice(NUMERATORS[q]), q)


def _rats(rng, count):
    return tuple(_rat(rng, k) for k in range(count))


def _moment_seq(rng, order):
    return (Fraction(1),) + _rats(rng, order)


def _free_recursion(seq, n, from_moments):
    """Free moment-cumulant recursion m_k = sum_s kappa_s [z^(k-s)] M(z)^s.

    ``seq`` holds moments (1, m_1, ..., m_n) when ``from_moments`` is true
    and cumulants (kappa_1, ..., kappa_n) otherwise; returns the other one
    in the same layout.  Independent of the series code in ``bifree``.
    """
    m = [Fraction(1)] + [Fraction(0)] * n
    kappa = [Fraction(0)] * (n + 1)
    # c[s][d] = [z^d] M(z)^s, filled by antidiagonals s + d = k
    c = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    c[0][0] = Fraction(1)
    for k in range(1, n + 1):
        for s in range(1, k + 1):
            d = k - s
            c[s][d] = sum((m[j] * c[s - 1][d - j] for j in range(d + 1)), Fraction(0))
        lower = sum((kappa[s] * c[s][k - s] for s in range(1, k)), Fraction(0))
        if from_moments:
            m[k] = seq[k]
            kappa[k] = m[k] - lower
        else:
            kappa[k] = seq[k - 1]
            m[k] = lower + kappa[k]
    return tuple(kappa[1:]) if from_moments else tuple(m)


def free_cumulants(moments):
    """(kappa_1, ..., kappa_n) of moments (1, m_1, ..., m_n)."""
    return _free_recursion(moments, len(moments) - 1, True)


def free_moments(cumulants):
    """(1, m_1, ..., m_n) of cumulants (kappa_1, ..., kappa_n)."""
    return _free_recursion(cumulants, len(cumulants), False)


def _pmul(a, b, n):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]


def _pcompose(f, g, n):
    acc = [f[n]] + [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = _pmul(acc, g, n)
        acc[0] += f[k]
    return acc


def _int_matvec(mat, vec):
    return [sum(row[c] * vec[c] for c in range(len(vec))) for row in mat]


def _int_vecmat(vec, mat):
    return [sum(vec[r] * mat[r][c] for r in range(len(vec))) for c in range(len(vec))]


def _int_two_bands(a, b, m, n):
    """phi(a^p b^q) = e0' a^p b^q e0 in plain integer arithmetic."""
    dim = len(a)
    col = [1] + [0] * (dim - 1)
    values = []
    cols = []
    for _ in range(n + 1):
        cols.append(col)
        col = _int_matvec(b, col)
    row = [1] + [0] * (dim - 1)
    for _ in range(m + 1):
        values.append([sum(x * y for x, y in zip(row, c)) for c in cols])
        row = _int_vecmat(row, a)
    return values


def _int_matrix(rng, dim):
    return [[rng.choice(DENSE_ENTRIES) for _ in range(dim)] for _ in range(dim)]


# ------------------------------------------------------------------ fixtures


def _rational_json(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _write_table(path, values):
    doc = {
        "format_version": "1",
        "kind": "two_bands_pair",
        "values": [[_rational_json(Fraction(v)) for v in row] for row in values],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _read_file(path):
    with open(path, "rb") as handle:
        return handle.read()


def _parse_table(data: bytes, kind: str):
    doc = json.loads(data)
    if set(doc) != {"format_version", "kind", "values"}:
        return None
    if doc["format_version"] != "1" or doc["kind"] != kind:
        return None
    return [[Fraction(v) for v in row] for row in doc["values"]]


def _cli_op(label, argv, out_path, check):
    """Run ``bifree.cli.main`` in process; collect its exit code and output file."""
    return Op(
        label,
        lambda: bifree.cli.main(argv),
        check,
        collect=lambda code: (code, _read_file(out_path)),
    )


# ----------------------------------------------------------------- workloads

# Orders of the moment sequences in one tower pass: the two one-way maps
# at orders 6..10, three sequences each, and free convolution and
# subordination, which revert three to five times per call, at 4..6.
TOWER_MAP_ORDERS = tuple(range(6, 11)) * 3
TOWER_CONV_ORDERS = (4, 5, 6)


def _tower_ops(rng, workdir):
    ops = []
    for order in TOWER_MAP_ORDERS:
        moments = _moment_seq(rng, order)
        cumulants = _rats(rng, order)
        ops.append(
            Op(
                f"moments_to_r@{order}",
                lambda m=moments: bifree.moments_to_r(m),
                lambda out, m=moments: tuple(out.coeffs) == free_cumulants(m),
            )
        )
        r = bifree.Series1(cumulants)
        ops.append(
            Op(
                f"r_to_moments@{order}",
                lambda r=r, n=order: bifree.r_to_moments(r, n),
                lambda out, k=cumulants: tuple(out) == free_moments(k),
            )
        )
    for order in TOWER_CONV_ORDERS:
        m1 = _moment_seq(rng, order)
        m2 = _moment_seq(rng, order)
        ops.append(
            Op(
                f"free_convolve1@{order}",
                lambda a=m1, b=m2: bifree.free_convolve1(a, b),
                lambda out, a=m1, b=m2: tuple(out) == _convolved(a, b),
            )
        )
        ops.append(
            Op(
                f"subordination_series@{order}",
                lambda a=m1, b=m2, n=order: bifree.subordination_series(a, b, n),
                lambda out, a=m1, b=m2, n=order: _subordination_holds(a, b, n, out),
            )
        )
    return ops


def _convolved(m1, m2):
    return free_moments(tuple(x + y for x, y in zip(free_cumulants(m1), free_cumulants(m2))))


def _subordination_holds(m1, m2, n, out):
    """t h(t) = t1 h1(t1) = t2 h2(t2) and h = h1(t1) + h2(t2) - 1 to order n."""
    t1, t2 = (list(s.coeffs) for s in out)
    if len(t1) != n + 1 or len(t2) != n + 1 or t1[0] != 0 or t2[0] != 0:
        return False
    h = list(_convolved(m1, m2))
    h1 = _pcompose(list(m1), t1, n)
    h2 = _pcompose(list(m2), t2, n)
    if h != [x + y - (k == 0) for k, (x, y) in enumerate(zip(h1, h2))]:
        return False
    th = [Fraction(0)] + h[:n]
    return th == _pmul(t1, h1, n) == _pmul(t2, h2, n)


# Boxes and model dimensions of one convolve pass; each entry convolves the
# tables of two random integer operator models of dimension ``dim``.  Eight
# cheap cases come first, then 22 of one shape, (3, 3) with dim 3, so that
# the median (ranks 14 and 15 of 30) and the tail (rank 19) both fall
# inside that group, whose ops cost alike, rather than between two groups.
CONVOLVE_CASES = (
    [((2, 2), 2), ((2, 2), 3), ((2, 3), 3), ((3, 2), 3)] * 2
    + [((3, 3), 3)] * 22
)


def _convolve_ops(rng, workdir):
    ops = []
    for i, ((m, n), dim) in enumerate(CONVOLVE_CASES):
        tables = [_int_two_bands(_int_matrix(rng, dim), _int_matrix(rng, dim), m, n) for _ in range(2)]
        paths = [os.path.join(workdir, f"convolve-{i}-{k}.json") for k in range(2)]
        for path, values in zip(paths, tables):
            _write_table(path, values)
        out = os.path.join(workdir, f"convolve-{i}.out.json")
        ops.append(
            _cli_op(
                f"convolve@{m}x{n}",
                ["convolve", paths[0], paths[1], "-o", out],
                out,
                lambda res, t=tables: _additivity_holds(t, res),
            )
        )
    return ops


def _additivity_holds(tables, res):
    """Exit 0 and the cumulants of the output are the sum of the inputs' cumulants."""
    code, data = res
    c = _parse_table(data, "two_bands_pair")
    if code != 0 or c is None or len(c) != len(tables[0]) or len(c[0]) != len(tables[0][0]):
        return False
    a, b = (TwoBandsTable(t) for t in tables)
    for marginal in (lambda t: tuple(row[0] for row in t), lambda t: tuple(t[0])):
        got = free_cumulants(marginal(c))
        want = tuple(x + y for x, y in zip(*(free_cumulants(marginal(t)) for t in tables)))
        if got != want:
            return False
    forward = bifree.compute_partial_r
    return forward(TwoBandsTable(c)) == forward(a) + forward(b)


# Free-product cases (box, dims of the two factors) and rank <= 1 shift
# models (cap, words per moment batch, batches) of one oracle pass.  The
# free-product table grows exponentially with the box and the dims, so the
# boxes stay at (3, 3)-(4, 4) and the dims at 2-3 where the box is (4, 4).
# The oracle's matrices and shift coefficients are dense (nonzero entries in
# [-2, 2]) and every lam[i, j] is nonzero: how many words a free-product
# vector holds, and how many correction terms the rank-1 recursion makes,
# then follow from the shape alone, not from zeros a seed happens to draw.
ORACLE_PRODUCTS = (
    [((3, 3), (2, 3)), ((3, 3), (3, 3)), ((3, 3), (2, 4))]
    + [((3, 4), (2, 3)), ((4, 3), (3, 2)), ((4, 4), (2, 3))]
) * 2
ORACLE_SHIFTS = ((4, 24, 9), (5, 24, 9), (6, 24, 9))


def _oracle_ops(rng, workdir):
    ops = []
    for (m, n), dims in ORACLE_PRODUCTS:
        ints = [(_int_matrix(rng, d), _int_matrix(rng, d)) for d in dims]
        reps = [TwoFacedPairRep(d, {0: a}, {0: b}) for d, (a, b) in zip(dims, ints)]
        ops.append(
            Op(
                f"product@{m}x{n}",
                lambda reps=reps, box=(m, n): _product_tables(reps, box),
                lambda out, ints=ints, box=(m, n): _product_holds(ints, box, out),
            )
        )
    for cap, words_per_batch, batches in ORACLE_SHIFTS:
        rep, lam, ops_ints = _shift_model(rng, cap)
        systems = {}
        ops.append(
            Op(
                f"extract_system@{cap}",
                lambda rep=rep, cap=cap, s=systems: _extract(rep, cap, s),
                lambda out, lam=lam, g=ops_ints, cap=cap: _system_holds(out, lam, g, cap),
                collect=lambda system: (system.cap, system.lam, system.two_bands),
            )
        )
        for batch in range(batches):
            # Which face each letter is on shapes the rank-1 recursion, so it
            # is drawn from a generator of its own, the same for every seed;
            # the seed draws the labels.
            faces = random.Random(f"faces:{cap}:{batch}")
            words = [
                tuple((faces.choice((LEFT, RIGHT)), rng.choice((0, 1))) for _ in range(cap))
                for _ in range(words_per_batch)
            ]
            ops.append(
                Op(
                    f"mixed_moment@{cap}",
                    lambda s=systems, w=words: [bifree.mixed_moment(s[0], x) for x in w],
                    lambda out, rep=rep, w=words: out == [rep.moment(x) for x in w],
                )
            )
    return ops


def _extract(rep, cap, systems):
    """Extract a system and keep it for the moment batches that follow."""
    systems[0] = bifree.extract_system(rep, cap)
    return systems[0]


def _product_tables(reps, box):
    m, n = box
    product = bifree.ProductState(reps, max_word_len=m + n)
    return (
        bifree.sum_two_bands_table(product, box),
        bifree.two_bands_table(reps[0], box),
        bifree.two_bands_table(reps[1], box),
    )


def _product_holds(ints, box, out):
    """Factor tables match integer arithmetic; the sum is their bi-free convolution."""
    total, t1, t2 = out
    for (a, b), table in zip(ints, (t1, t2)):
        if table.values != tuple(map(tuple, _int_two_bands(a, b, *box))):
            return False
    return bifree.biconvolve(t1, t2) == total


def _shift_model(rng, cap):
    """Two left and two right labels, each x S + y S* on the truncated shift.

    [x S + y S*, u S + v S*] = (y u - x v) P off the top corner, so the model
    has rank <= 1 commutation on its first dim-1 columns, and dim exceeds
    cap / 2 + 1 so every word up to the cap has an exact moment.  The
    coefficients are redrawn until every lam[i, j] is nonzero.
    """
    dim = cap // 2 + 2
    shift = [[int(r == c + 1) for c in range(dim)] for r in range(dim)]
    costar = [list(col) for col in zip(*shift)]

    def combo(x, y):
        return [[x * shift[r][c] + y * costar[r][c] for c in range(dim)] for r in range(dim)]

    while True:
        coeffs = {
            side: {label: (rng.choice(DENSE_ENTRIES), rng.choice(DENSE_ENTRIES)) for label in (0, 1)}
            for side in (LEFT, RIGHT)
        }
        lam = {
            (i, j): Fraction(y * u - x * v)
            for i, (x, y) in coeffs[LEFT].items()
            for j, (u, v) in coeffs[RIGHT].items()
        }
        if all(lam.values()):
            break
    ints = {side: {k: combo(*xy) for k, xy in coeffs[side].items()} for side in coeffs}
    rep = TwoFacedPairRep(dim, ints[LEFT], ints[RIGHT], reliable=range(dim - 1))
    return rep, lam, ints


def _system_holds(system, lam, ints, cap):
    """Coefficients and every stored two-bands moment, in integer arithmetic."""
    got_cap, got_lam, got_two_bands = system
    if got_cap != cap or got_lam != lam:
        return False
    dim = len(ints[LEFT][0])
    e0 = [1] + [0] * (dim - 1)
    rows, cols = {(): e0}, {(): e0}
    for length in range(1, cap + 1):
        for word in [w for w in rows if len(w) == length - 1]:
            for i in (0, 1):
                rows[word + (i,)] = _int_vecmat(rows[word], ints[LEFT][i])
        for word in [w for w in cols if len(w) == length - 1]:
            for j in (0, 1):
                cols[(j,) + word] = _int_matvec(ints[RIGHT][j], cols[word])
    want = {
        (iw, jw): sum(x * y for x, y in zip(row, col))
        for iw, row in rows.items()
        for jw, col in cols.items()
        if len(iw) + len(jw) <= cap
    }
    return got_two_bands == want


BUILDERS = {
    "tower": _tower_ops,
    "convolve": _convolve_ops,
    "oracle": _oracle_ops,
}


def build_ops(workload: str, seed: int, tag: str, workdir: str) -> list:
    """The seeded op list ``tag`` of a workload; fixture files go to ``workdir``.

    Different tags give independent values on the same shapes: the timed
    list and the warm-up lists of one run share no input.
    """
    rng = random.Random(f"{workload}:{seed}:{tag}")
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[workload](rng, workdir)
