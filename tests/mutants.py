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

RECIPROCAL_TESTS = (
    "tests/test_series.py::test_reciprocal_matches_fraction_loop",
    "tests/test_series.py::test_one_variable_reciprocal_matches_fraction_loop",
)
DIVIDE_TEST = "tests/test_series.py::test_divide_matches_two_pass_quotient"
SUBSTITUTE_TESTS = (
    "tests/test_series.py::test_substitute_matches_fraction_loop",
    "tests/test_series.py::test_compose_matches_horner",
)
FRAMED_TEST = "tests/test_partial_r.py::test_integer_pipeline_matches_framed_route"
BURMANN_TEST = "tests/test_series.py::test_burmann_rows_match_lagrange_power_rows"
SUM_TEST = "tests/test_partial_r.py::test_biconvolve_is_the_sum_of_cumulant_tables"

# (name, file, exact old text, new text, pytest targets)
MUTANTS = [
    # the a0 powers of the division recurrence: the reciprocal tests that
    # first caught them, and the two-pass quotient
    ("divide-output-power", SERIES,
     "[[x * powers[m + n - p - q] for q, x",
     "[[x * powers[m + n + 1 - p - q] for q, x",
     RECIPROCAL_TESTS + (DIVIDE_TEST,)),
    ("divide-recurrence-power", SERIES,
     "x * powers[i + j - 1] if i + j else 0",
     "x * powers[i + j] if i + j else 0",
     RECIPROCAL_TESTS + (DIVIDE_TEST,)),
    ("divide-numerator-power", SERIES,
     "acc = x * powers[p + q] if x else 0",
     "acc = x * powers[p + q + 1] if x else 0",
     (DIVIDE_TEST,)),
    ("divide-numerator-dropped", SERIES,
     "acc = x * powers[p + q] if x else 0",
     "acc = x if p + q == 0 else 0",
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
     "_divide([[x * y for y in row] for x in col], s, ds)",
     "_divide([[x * y for y in col] for x in row], s, ds)",
     (FRAMED_TEST,)),
    ("inverse-quotient-row-column-swap", PARTIAL_R,
     "_divide([[x * y for y in b] for x in a], grid, d)",
     "_divide([[x * y for y in a] for x in b], grid, d)",
     (FRAMED_TEST,)),
    ("inverse-divisor-keeps-row-0", PARTIAL_R,
     "[[-x if i and j else 0 for j, x in enumerate(row)]",
     "[[-x if j else 0 for j, x in enumerate(row)]",
     (FRAMED_TEST,)),
    # the Lagrange-Buermann power rows
    ("burmann-p-over-n", SERIES,
     "rows[p][n] = p * power[n - p][0] * scale",
     "rows[p][n] = power[n - p][0] * scale",
     (BURMANN_TEST,)),
    ("burmann-den-without-lcm", SERIES,
     "den = d**k * lcm_n\n",
     "den = d**k\n",
     (BURMANN_TEST,)),
    ("burmann-lcm-is-k", SERIES,
     "lcm_n = lcm(*range(1, k + 1))",
     "lcm_n = max(k, 1)",
     (BURMANN_TEST,)),
    ("burmann-empty-row-0", SERIES,
     "rows = [[den] + [0] * k]",
     "rows = [[0] + [0] * k]",
     (BURMANN_TEST,)),
    # biconvolve adds r1 / d1 + r2 / d2 on integers
    ("biconvolve-swapped-scales", PARTIAL_R,
     "[[x * d2 + y * d1 for x, y in zip(u, v)]",
     "[[x * d1 + y * d2 for x, y in zip(u, v)]",
     (SUM_TEST,)),
    ("biconvolve-sum-over-d1", PARTIAL_R,
     "[[x * d2 + y * d1 for x, y in zip(u, v)] for u, v in zip(r1, r2)]\n"
     "    return _inverse(*_reduced(total, d1 * d2), *t1.box)",
     "[[x + y for x, y in zip(u, v)] for u, v in zip(r1, r2)]\n"
     "    return _inverse(*_reduced(total, d1), *t1.box)",
     (SUM_TEST,)),
    # one box for the rank-1 convolution still refuses a gap below a stored word
    ("rank1-no-gap-check", RANK1,
     "[[s.phi((i,) * u, (j,) * v) if v <= r else 0",
     "[[s.two_bands.get(((i,) * u, (j,) * v), 0) if v <= r else 0",
     ("tests/test_rank1.py::test_biconvolve_rank1_refusals_keep_their_messages",)),
]


def check(name, path, old, new, targets) -> str | None:
    """None if the mutant is killed, else why it is not."""
    source = (ROOT / path).read_text(encoding="utf-8")
    count = source.count(old)
    if count != 1:
        return f"old text occurs {count} times in {path}"
    with tempfile.TemporaryDirectory(prefix=f"bifree-mutant-{name}-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis"))
        (work / path).write_text(source.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *targets]
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
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
