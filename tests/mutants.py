"""Mutation checks: each edit listed here must make its target tests fail.

Run from anywhere, with the interpreter that has pytest and Hypothesis:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

For each mutant, ``src/`` and ``tests/`` are copied to a fresh temporary
directory outside the checkout and the one edit is applied there.  Then

    python -m pytest -q -x -p no:cacheprovider --hypothesis-seed=0 TARGET ...

runs in that directory against the mutated copy.  The mutant is killed when
pytest exits nonzero.  The script exits 1 if any mutant survives, or if an
old text does not occur exactly once in its file: a refactor that moves the
mutated code must update this list, not drop a mutant unseen.

Before any mutant, the union of the chosen mutants' targets runs once the
same way on an unmutated copy, and the script exits 1 without trying a
mutant if that run fails: a target that already fails would make every
mutant aimed at it read as killed.

Stdlib only.  pytest does not collect this file, whose name does not start
with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERIES = "src/bifree/series.py"
PARTIAL_R = "src/bifree/partial_r.py"
RANK1 = "src/bifree/rank1.py"
ORACLE = "src/bifree/oracle.py"
TRANSFORMS = "src/bifree/transforms.py"
SELFCHECK = "src/bifree/selfcheck.py"
IO = "src/bifree/io.py"
CLI = "src/bifree/cli.py"

RECIPROCAL_TESTS = (
    "tests/test_series.py::test_reciprocal_matches_fraction_loop",
    "tests/test_series.py::test_one_variable_reciprocal_matches_fraction_loop",
    "tests/test_series.py::test_public_reciprocals_take_any_corner",
)
DIVIDE_TEST = "tests/test_series.py::test_divide_matches_two_pass_quotient"
SUBSTITUTE_TESTS = (
    "tests/test_series.py::test_substitute_matches_fraction_loop",
    "tests/test_series.py::test_compose_matches_horner",
)
FRAMED_TEST = "tests/test_partial_r.py::test_integer_pipeline_matches_framed_route"
BURMANN_TEST = "tests/test_series.py::test_burmann_rows_match_lagrange_power_rows"
POWERS_TEST = "tests/test_series.py::test_power_loop_matches_convolve_powers"
SUM_TEST = "tests/test_partial_r.py::test_biconvolve_is_the_sum_of_cumulant_tables"
WEIGHT_TEST = "tests/test_partial_r.py::test_weight_scale_maps_match_fraction_free_route"
RECURSION_TEST = "tests/test_rank1.py::test_int_recursion_matches_fraction_route"
ZERO_TEST = "tests/test_rank1.py::test_stored_zero_moments_skip_the_phi_fallback"
LAGRANGE_TEST = "tests/test_series.py::test_lagrange_solves_its_fixed_point"
MOMENTS_TEST = "tests/test_transforms.py::test_moments_step_matches_lagrange"
MUL1_TEST = "tests/test_series.py::test_series1_product_matches_fraction_mul1"
CORNER_TEST = "tests/test_partial_r.py::test_maps_check_the_corner_of_a_plain_series"
INT_TABLES_TEST = "tests/test_oracle.py::test_int_tables_match_fraction_route"
EXTRACTION_TEST = "tests/test_rank1.py::test_int_extraction_matches_fraction_route"
LETTERS_TEST = "tests/test_rank1.py::test_mixed_moment_rejects_malformed_letters"
SYSTEM_TEST = "tests/test_rank1.py::test_rank1_entry_points_refuse_a_value_that_is_not_a_system"

# (name, file, exact old text, new text, pytest targets)
MUTANTS = [
    # a public reciprocal weights its grid by powers of its corner a0, so
    # that the division kernel sees corner 1
    ("reciprocal-weight-a0-power", SERIES,
     "x * a0 ** (p + q - 1) if p + q else 1",
     "x * a0 ** (p + q) if p + q else 1",
     RECIPROCAL_TESTS + (DIVIDE_TEST,)),
    # the division runs row by row: the earlier rows of the quotient times
    # a's rows i >= 1, then one division by a's row 0
    ("divide-row-0-division-skipped", SERIES,
     "head = [(j, x) for j, x in enumerate(a[0]) if j and x]",
     "head = []",
     RECIPROCAL_TESTS + (DIVIDE_TEST,)),
    ("divide-earlier-rows-from-0", SERIES,
     "for i in range(1, p + 1):",
     "for i in range(p + 1):",
     (DIVIDE_TEST,)),
    # the output box of a substitution is the smaller of the outer and the
    # inner order
    ("substitute-order-from-inner", SERIES,
     "m = min(len(grid) - 1, len(fp) - 1)",
     "m = len(fp) - 1",
     SUBSTITUTE_TESTS),
    ("substitute-order-from-outer", SERIES,
     "m = min(len(grid) - 1, len(fp) - 1)",
     "m = len(grid) - 1",
     SUBSTITUTE_TESTS),
    # the two-variable maps
    ("forward-quotient-row-column-swap", PARTIAL_R,
     "_divide([[x * y for y in row] for x in col], s)",
     "_divide([[x * y for y in col] for x in row], s)",
     (FRAMED_TEST,)),
    ("inverse-quotient-row-column-swap", PARTIAL_R,
     "_divide([[x * y for y in b] for x in a], grid)",
     "_divide([[x * y for y in a] for x in b], grid)",
     (FRAMED_TEST,)),
    ("inverse-divisor-keeps-row-0", PARTIAL_R,
     "[[-x if i and j else 0 for j, x in enumerate(row)]",
     "[[-x if j else 0 for j, x in enumerate(row)]",
     (FRAMED_TEST,)),
    # the Lagrange-Buermann power rows, [z^n] f^p = p [w^(n-p)] phi^n / n
    ("burmann-p-over-n", SERIES,
     "rows[p][n] = p * power[n - p] // n",
     "rows[p][n] = power[n - p] // n",
     (BURMANN_TEST,)),
    ("burmann-divisor-n-plus-1", SERIES,
     "rows[p][n] = p * power[n - p] // n",
     "rows[p][n] = p * power[n - p] // (n + 1)",
     (BURMANN_TEST,)),
    ("burmann-empty-row-0", SERIES,
     "rows = [[1] + [0] * k]",
     "rows = [[0] + [0] * k]",
     (BURMANN_TEST,)),
    # the one power loop of _burmann_rows, _power_rows and _lagrange starts
    # from f and multiplies the last power by f
    ("powers-start-from-1", SERIES,
     "out = [f] if k else []",
     "out = [[1] + [0] * (len(f) - 1)] if k else []",
     (POWERS_TEST, BURMANN_TEST)),
    ("powers-square-of-f", SERIES,
     "_convolve([out[-1]], [f], 0, len(f) - 1)",
     "_convolve([f], [f], 0, len(f) - 1)",
     (POWERS_TEST,)),
    # the one-variable product is row 0 of the two-variable product of both
    # operands
    ("mul1-product-of-self", SERIES,
     "Series2([self.coeffs]) * Series2([other.coeffs])",
     "Series2([self.coeffs]) * Series2([self.coeffs])",
     (MUL1_TEST,)),
    # the two-bands maps weight entry (p, q) by c^(p+q), and biconvolve
    # weights both tables by one c
    ("weight-c-to-the-p", PARTIAL_R,
     "w[p + q] // v.denominator",
     "w[p] // v.denominator",
     (WEIGHT_TEST,)),
    ("biconvolve-weight-from-t1", PARTIAL_R,
     "c = _denominator(t1.values, t2.values)",
     "c = _denominator(t1.values)",
     (WEIGHT_TEST,)),
    # every map checks the corner of a plain Series2 it is given
    ("biconvolve-second-corner-unchecked", PARTIAL_R,
     "    _require_corner(t2, 1)\n",
     "",
     (CORNER_TEST,)),
    # the rank-1 recursion on ints over powers of one scale D: a left letter
    # carries D^2, a correction (phi D)(lam D), and the moment is over D^(2L+1)
    ("rank1-left-letter-carries-d", RANK1,
     "dd = system._scale ** 2",
     "dd = system._scale",
     (RECURSION_TEST,)),
    ("rank1-lam-unscaled", RANK1,
     "_lam_d={ij: x.numerator * (scale // x.denominator)",
     "_lam_d={ij: x.numerator",
     (RECURSION_TEST,)),
    ("rank1-phi-numerators-only", RANK1,
     "_phi_d={w: v.numerator * (scale // v.denominator)",
     "_phi_d={w: v.numerator",
     (RECURSION_TEST,)),
    ("rank1-result-power", RANK1,
     "system._scale ** (2 * lefts + 1)",
     "system._scale ** (2 * lefts)",
     (RECURSION_TEST,)),
    # a run of right letters is appended once, before the next left letter
    # or in the evaluation
    ("rank1-final-run-dropped", RANK1,
     "        jl += run\n",
     "",
     (RECURSION_TEST,)),
    ("rank1-final-run-reversed", RANK1,
     "        jl += run\n",
     "        jl += run[::-1]\n",
     (RECURSION_TEST,)),
    ("rank1-run-before-left-reversed", RANK1,
     "{(il, jl + run): c for (il, jl), c in v.items()}",
     "{(il, jl + run[::-1]): c for (il, jl), c in v.items()}",
     (RECURSION_TEST,)),
    # a word the system does not store raises; a stored zero is read from the
    # int table, not through Rank1System.phi
    ("rank1-correction-miss-is-zero", RANK1,
     "phi = phis.get((il, jl[:t]))",
     "phi = phis.get((il, jl[:t]), 0)",
     (RECURSION_TEST,)),
    ("rank1-evaluation-miss-is-zero", RANK1,
     "phi = phis.get((il, jl))",
     "phi = phis.get((il, jl), 0)",
     (RECURSION_TEST,)),
    ("rank1-zero-takes-fallback", RANK1,
     "phi = phis.get((il, jl))\n        if phi is None:",
     "phi = phis.get((il, jl))\n        if not phi:",
     (ZERO_TEST,)),
    # one box for the rank-1 convolution still refuses a gap below a stored word
    ("rank1-no-gap-check", RANK1,
     "[[s.phi((i,) * u, (j,) * v) if v <= r else 0",
     "[[s.two_bands.get(((i,) * u, (j,) * v), 0) if v <= r else 0",
     ("tests/test_rank1.py::test_biconvolve_rank1_refusals_keep_their_messages",)),
    # the tower: [t^k] u = [z^k] phi^(k+1) / (k+1), the sum of two marginals
    # adds both cumulant columns, and p = 1/u
    ("lagrange-divisor-k", SERIES,
     "p[k] / (k + 1) for k, p in enumerate",
     "p[k] / max(k, 1) for k, p in enumerate",
     (LAGRANGE_TEST,)),
    ("free-convolve-one-cumulant-column", TRANSFORMS,
     "return _moments(((pa - 1) + (pb - 1)).coeffs)",
     "return _moments((pa - 1).coeffs)",
     ("tests/test_transforms.py::test_convolution_of_point_masses",)),
    ("subordination-one-cumulant-column", TRANSFORMS,
     "g = Series1(_moments(((pa - 1) + (pb - 1)).coeffs))",
     "g = Series1(_moments((pa - 1).coeffs))",
     ("tests/test_transforms.py::test_subordination_of_point_masses",)),
    ("marginal-p-is-u", TRANSFORMS,
     "return u.shift_up(), u.reciprocal()",
     "return u.shift_up(), u",
     ("tests/test_transforms.py::test_point_mass_cumulants",)),
    # the tower's inverse step: entry n of the (N, 0) box is over c^n, and
    # the cumulant r(n) sits at entry n + 1 of the column
    ("moments-unweighted-by-c", TRANSFORMS,
     "_unweighted(h, c)",
     "[[Fraction(x, c) for x in row] for row in h]",
     (MOMENTS_TEST,)),
    ("r-to-moments-column-offset", TRANSFORMS,
     "_moments(r.truncate(order - 1).shift_up().coeffs)",
     "_moments(r.truncate(order - 1).coeffs + (0,))",
     (MOMENTS_TEST,)),
    # the oracle: entry (p, q) of a table, and an extracted moment, is exact
    # over D_L^p D_R^q, with one D_L for every factor of the left band
    ("sum-table-den-dl-only", ORACLE,
     "Fraction(_pair(row, col), dl**p * dr**q)",
     "Fraction(_pair(row, col), dl**(p + q))",
     (INT_TABLES_TEST,)),
    ("own-table-den-dl-only", ORACLE,
     "Fraction(sum(map(mul, row, col)), dl**p * dr**q)",
     "Fraction(sum(map(mul, row, col)), dl**(p + q))",
     (INT_TABLES_TEST,)),
    ("extract-den-dl-only", RANK1,
     "den = dl**p * dr**q",
     "den = dl**(p + q)",
     (EXTRACTION_TEST,)),
    ("left-band-per-factor-d", ORACLE,
     "left, dl = _integral({k: f.operator(LEFT, 0) for k, f in enumerate(product.factors)})",
     "left = {k: _integral({k: f.operator(LEFT, 0)})[0][k]"
     " for k, f in enumerate(product.factors)}\n"
     "    dl = _integral({k: f.operator(LEFT, 0) for k, f in enumerate(product.factors)})[1]",
     (INT_TABLES_TEST,)),
    # _fill alone derives D, the LCM of every lam and stored phi denominator,
    # and extract_system's lam is exact over D_L D_R
    ("fill-scale-without-lam", RANK1,
     "(*lam.values(), *two_bands.values())",
     "(*two_bands.values(),)",
     (RECURSION_TEST,)),
    ("fill-scale-without-moments", RANK1,
     "(*lam.values(), *two_bands.values())",
     "(*lam.values(),)",
     (RECURSION_TEST,)),
    ("extract-lam-over-dl", RANK1,
     "Fraction(first[0], dl * dr)",
     "Fraction(first[0], dl)",
     (EXTRACTION_TEST,)),
    # a letter found in the letter table must also carry its label's type
    ("letter-lookup-without-type", RANK1,
     "if kind is None or type(letter[1]) is not kind:",
     "if kind is None:",
     (LETTERS_TEST,)),
    # a box that is not a pair, and extract_system's model that is not a rep,
    # are refused by name, not by a failed unpacking or attribute lookup
    ("box-unpack-unguarded", ORACLE,
     "    try:\n        m, n = box\n    except (TypeError, ValueError):\n"
     "        raise NegativeOrder(f\"box must be a pair (m, n) of orders, got {box!r}\") from None\n",
     "    m, n = box\n",
     ("tests/test_oracle.py::test_boxes_must_be_pairs_of_orders",)),
    ("extract-rep-unchecked", RANK1,
     "    _require_rep(rep)\n",
     "",
     ("tests/test_oracle.py::test_two_bands_table_refusals_keep_their_messages",)),
    # sum_two_bands_table refuses a product that is not a ProductState by name
    ("sum-table-product-unchecked", ORACLE,
     "    if not isinstance(product, ProductState):\n"
     "        raise TypeError(f\"product must be a ProductState, got {type(product).__name__}\")\n",
     "",
     ("tests/test_oracle.py::test_sum_table_refuses_a_non_product",)),
    # every two-bands map, mixed_moment and biconvolve_rank1 refuse a value of
    # the wrong type by name, not by a failed attribute lookup
    ("corner-gate-type-unchecked", PARTIAL_R,
     "    if not isinstance(table, Series2):\n"
     "        kind = \"TwoBandsTable\" if corner else \"PartialRTable\"\n"
     "        raise TypeError(f\"the table must be a {kind}, got {type(table).__name__}\")\n",
     "",
     ("tests/test_partial_r.py::test_maps_refuse_a_value_that_is_not_a_table",)),
    ("moment-system-unchecked", RANK1,
     "    _require_system(system)\n",
     "",
     (SYSTEM_TEST,)),
    ("biconvolve-rank1-systems-unchecked", RANK1,
     "        _require_system(s)\n",
     "",
     (SYSTEM_TEST,)),
    # each selfcheck suite, disabled, must fail the test that feeds it one
    # wrong value
    ("selfcheck-subordination-disabled", SELFCHECK,
     "    box = 4\n",
     "    return None\n",
     ("tests/test_io_cli.py::test_subordination_suite_sees_one_wrong_coefficient",)),
    ("selfcheck-determination-disabled", SELFCHECK,
     "if mixed_moment(system, word) != rep.moment(word):",
     "if False:",
     ("tests/test_io_cli.py::test_determination_suite_sees_one_wrong_moment",)),
    ("selfcheck-independence-disabled", SELFCHECK,
     "    for _ in range(2 * size):\n        tables = []\n",
     "    for _ in range(0):\n        tables = []\n",
     ("tests/test_io_cli.py::test_independence_suite_sees_a_sum_that_does_not_factorize",)),
    ("selfcheck-factorization-disabled", SELFCHECK,
     "        if got != expected:",
     "        if False:",
     ("tests/test_io_cli.py::test_factorization_suite_sees_a_wrong_pair_moment",)),
    # the input boundary: documents, truncation orders, boxes, models and
    # exit codes
    ("json-duplicate-keys-accepted", IO,
     "json.loads(text, object_pairs_hook=_unique_keys)",
     "json.loads(text)",
     ("tests/test_io_cli.py::test_version_and_kind_checked",)),
    ("json-negative-labels-accepted", IO,
     "isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in value",
     "isinstance(v, int) and not isinstance(v, bool) for v in value",
     ("tests/test_io_cli.py::test_negative_rank1_labels_rejected",)),
    ("json-bools-read-as-rationals", IO,
     "if isinstance(v, int) and not isinstance(v, bool):",
     "if isinstance(v, int):",
     ("tests/test_io_cli.py::test_rational_codec",)),
    ("bool-truncation-orders-accepted", SERIES,
     "if any(type(k) is not int or k < 0 for k in orders):",
     "if any(not isinstance(k, int) or k < 0 for k in orders):",
     ("tests/test_series.py::test_truncate_rejects_negative_orders",)),
    ("truncation-guard-off-by-one", ORACLE,
     "if m + n > product.max_word_len:",
     "if m + n > product.max_word_len + 1:",
     ("tests/test_oracle.py::test_truncation_guard",)),
    ("rank-check-column-0-only", RANK1,
     "for c in rep.reliable:",
     "for c in (0,):",
     ("tests/test_rank1.py::test_extract_rejects_higher_rank_commutators",)),
    ("cap-exceeded-exits-2", CLI,
     "(CapExceeded, 5),",
     "(CapExceeded, 2),",
     ("tests/test_io_cli.py::test_moment_cap_exceeded_exits_5",)),
    # the console script writes outputs past the interpreter's digit limit
    ("cli-digit-limit-kept", CLI,
     "        sys.set_int_max_str_digits(0)\n",
     "        pass\n",
     ("tests/test_io_cli.py::test_console_script_writes_outputs_past_the_digit_limit",)),
    # the shift pair is the one-mode Fock pair: face a is (a S + b S*) and the
    # cutoff keeps words of up to dim - 1 letters
    ("shift-faces-swapped", ORACLE,
     "return gaussian_pair_rep([a], [b], [c], [d], dim - 1)",
     "return gaussian_pair_rep([c], [d], [a], [b], dim - 1)",
     ("tests/test_oracle.py::test_shift_pair_is_the_one_mode_fock_pair",)),
    ("shift-cutoff-dim", ORACLE,
     "return gaussian_pair_rep([a], [b], [c], [d], dim - 1)",
     "return gaussian_pair_rep([a], [b], [c], [d], dim)",
     ("tests/test_oracle.py::test_shift_pair_is_the_one_mode_fock_pair",)),
    ("shift-dim-check-dropped", ORACLE,
     "    if type(dim) is not int or dim < 2:\n"
     "        raise ValueError(f\"shift model needs an int dimension >= 2, got {dim!r}\")\n",
     "",
     ("tests/test_oracle.py::test_shift_pair_refusals_keep_their_messages",)),
    # a rank-1 system without phi(1) = 1 is a BadNormalization, in the
    # library and through a document, and exits 3
    ("rank1-normalization-plain-value-error", RANK1,
     'raise BadNormalization("two_bands must contain the empty word with value 1")',
     'raise ValueError("two_bands must contain the empty word with value 1")',
     ("tests/test_rank1.py::test_phi_of_projector_is_one",)),
    ("json-wraps-bad-normalization", IO,
     "        except BadNormalization:\n            raise\n",
     "",
     ("tests/test_io_cli.py::test_rank1_bad_normalization_exits_3",)),
    # the two-bands maps take their error from series, not from the tower;
    # transforms imports partial_r, so the import the other way runs late,
    # inside the function, where it raises the same class and only the
    # import scan sees it
    ("partial-r-imports-the-tower", PARTIAL_R,
     "def _require_corner(table, corner):\n",
     "def _require_corner(table, corner):\n    from .transforms import BadNormalization\n\n",
     ("tests/test_public_api.py::test_only_the_package_and_selfcheck_import_the_tower",)),
    # a miss with a bad side is refused as such, not as an undeclared label
    ("refuse-letter-side-unchecked", RANK1,
     "    if letter[0] not in (LEFT, RIGHT):\n"
     "        raise ValueError(f\"letter {letter!r} has side {letter[0]!r}, not LEFT or RIGHT\")\n",
     "",
     (LETTERS_TEST,)),
]


def run_targets(targets, edit=None):
    """pytest on copies of src/ and tests/, with ``edit`` = (path, old, new)
    applied to the copy first; returns the completed process."""
    with tempfile.TemporaryDirectory(prefix="bifree-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis"))
        if edit is not None:
            path, old, new = edit
            (work / path).write_text((ROOT / path).read_text(encoding="utf-8").replace(old, new),
                                     encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *targets]
        return subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)


def check(name, path, old, new, targets) -> str | None:
    """None if the mutant is killed, else why it is not."""
    count = (ROOT / path).read_text(encoding="utf-8").count(old)
    if count != 1:
        return f"old text occurs {count} times in {path}"
    done = run_targets(targets, (path, old, new))
    if done.returncode == 0:
        return "survived: every target passed"
    if done.returncode != 1:
        # 2-5 are pytest's own errors (interrupted, internal, usage, no tests)
        return f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
    return None


def main(argv) -> int:
    names = {m[0] for m in MUTANTS}
    unknown = [n for n in argv if n not in names]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    targets = list(dict.fromkeys(t for m in chosen for t in m[4]))
    start = time.perf_counter()
    done = run_targets(targets)
    took = time.perf_counter() - start
    if done.returncode != 0:
        print(f"FAILED unmutated run of {len(targets)} targets ({took:.1f} s), "
              f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}",
              flush=True)
        return 1
    print(f"passed unmutated run of {len(targets)} targets ({took:.1f} s)", flush=True)
    failures = 0
    for name, path, old, new, targets in chosen:
        start = time.perf_counter()
        problem = check(name, path, old, new, targets)
        took = time.perf_counter() - start
        print(f"{'killed' if problem is None else 'FAILED'} {name} ({took:.1f} s)", flush=True)
        if problem is not None:
            failures += 1
            print(f"  {problem}", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
