"""Command-line front end.

Subcommands::

    bifree cumulants INPUT [--box M N] [-o OUT]   two-bands cumulant table
    bifree convolve A B [-o OUT]                  bi-free additive convolution
    bifree moment SYSTEM --word "a1 b2 a1"        one mixed moment, exact
    bifree selfcheck [--seed N] [--size K]        oracle cross-validation

Inputs and outputs are the JSON documents of :mod:`bifree.io`; output is
deterministic, so identical inputs give byte-identical files.  Exit codes:
0 success, 1 a selfcheck failed, 2 parse or usage errors, 3 bad
normalization, 4 box mismatch, 5 two-bands cap exceeded.  The environment variable BIFREE_SEED supplies
the default selfcheck seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .io import ParseError, load_path, parse_word, to_json
from .partial_r import BoxMismatch, TwoBandsTable, biconvolve, compute_partial_r
from .rank1 import CapExceeded, Rank1System, mixed_moment
from .selfcheck import run_selfcheck
from .transforms import BadNormalization

__all__ = ["main", "entry", "build_parser"]


def _load_table(path) -> TwoBandsTable:
    obj = load_path(path)
    if not isinstance(obj, TwoBandsTable):
        raise ParseError(f"{path}: expected a two_bands_pair document")
    return obj


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_cumulants(args) -> int:
    table = _load_table(args.input)
    if args.box is not None:
        table = table.truncate(args.box[0], args.box[1])
    _emit(args, to_json(compute_partial_r(table)))
    return 0


def cmd_convolve(args) -> int:
    _emit(args, to_json(biconvolve(_load_table(args.a), _load_table(args.b))))
    return 0


def cmd_moment(args) -> int:
    system = load_path(args.system)
    if not isinstance(system, Rank1System):
        raise ParseError(f"{args.system}: expected a rank1_system document")
    print(mixed_moment(system, parse_word(args.word)))
    return 0


def cmd_selfcheck(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("BIFREE_SEED", "0"))
    report, ok = run_selfcheck(seed, args.size, corrupt=args.corrupt)
    sys.stdout.write(report)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--seed", type=int, default=None, help="default: $BIFREE_SEED or 0")
    p.add_argument("--size", type=int, default=2, help="scale of the random suites")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="inject a wrong moment to confirm the checks can fail",
    )
    p.set_defaults(func=cmd_selfcheck)
    return parser


_PARSER = build_parser()

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
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
