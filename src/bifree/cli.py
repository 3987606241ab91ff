"""Command-line front end.

Subcommands::

    bifree cumulants INPUT [--box M N] [-o OUT]   two-bands cumulant table
    bifree convolve A B [-o OUT]                  bi-free additive convolution
    bifree moment SYSTEM --word "a1 b2 a1"        one mixed moment, exact
    bifree selfcheck [--seed N] [--size K]        oracle cross-validation
                     [--corrupt]

Inputs and outputs are the JSON documents of :mod:`bifree.io`; output is
deterministic, so identical inputs give byte-identical files.  Exit codes:
0 success, 1 a selfcheck failed, 2 parse or usage errors, 3 bad
normalization, 4 box mismatch, 5 two-bands cap exceeded.  ``--seed``
defaults to 0 and ``--size`` to 2.  The console script, :func:`entry`,
reads and writes numbers of any length; :func:`main` keeps the
interpreter's limit on int <-> str digits.
"""

from __future__ import annotations

import argparse
import sys

from .io import ParseError, load_path, parse_word, to_json
from .partial_r import BoxMismatch, TwoBandsTable, biconvolve, compute_partial_r
from .rank1 import CapExceeded, Rank1System, mixed_moment
from .selfcheck import run_selfcheck
from .series import BadNormalization

__all__ = ["main", "entry"]


def _load(path, cls, kind):
    obj = load_path(path)
    if not isinstance(obj, cls):
        raise ParseError(f"{path}: expected a {kind} document")
    return obj


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_cumulants(args) -> int:
    table = _load(args.input, TwoBandsTable, "two_bands_pair")
    if args.box is not None:
        table = table.truncate(args.box[0], args.box[1])
    _emit(args, to_json(compute_partial_r(table)))
    return 0


def cmd_convolve(args) -> int:
    a = _load(args.a, TwoBandsTable, "two_bands_pair")
    b = _load(args.b, TwoBandsTable, "two_bands_pair")
    _emit(args, to_json(biconvolve(a, b)))
    return 0


def cmd_moment(args) -> int:
    system = _load(args.system, Rank1System, "rank1_system")
    print(mixed_moment(system, parse_word(args.word)))
    return 0


def cmd_selfcheck(args) -> int:
    report, ok = run_selfcheck(args.seed, args.size, corrupt=args.corrupt)
    sys.stdout.write(report)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifree",
        description="Exact two-bands bi-free cumulants, convolution, and moments.",
    )
    sub = parser.add_subparsers(required=True, metavar="COMMAND")

    p = sub.add_parser("cumulants", help="two-bands cumulant table of a moment table")
    p.add_argument("input", help="two_bands_pair JSON file")
    p.add_argument("--box", nargs=2, type=int, metavar=("M", "N"), help="truncate first")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("convolve", help="bi-free additive convolution of two tables")
    p.add_argument("a", help="two_bands_pair JSON file")
    p.add_argument("b", help="two_bands_pair JSON file")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("moment", help="one mixed moment of a rank <= 1 system")
    p.add_argument("system", help="rank1_system JSON file")
    p.add_argument("--word", required=True, help='e.g. "a1 b2 a1"')
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("selfcheck", help="randomized exact oracle cross-validation")
    p.add_argument("--seed", type=int, default=0, help="seed of the random suites (default: 0)")
    p.add_argument("--size", type=int, default=2, help="scale of the random suites")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="inject a wrong moment to confirm the checks can fail",
    )
    p.set_defaults(func=cmd_selfcheck)
    return parser


_PARSER = _build_parser()

# Exit code of each error a command may raise, tried in order: BadNormalization
# and BoxMismatch are ValueErrors too, so they come before ValueError.
_EXIT_CODES = (
    (BadNormalization, 3),
    (BoxMismatch, 4),
    (CapExceeded, 5),
    ((ParseError, OSError, ValueError), 2),
)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


def entry():
    # the console script writes every exact output, so it lifts the
    # interpreter's limit on int <-> str digits for its own process; main(),
    # which other programs call in process, keeps it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
