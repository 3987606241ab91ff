"""JSON serialization for distribution data.

Rationals travel as JSON integers or strings ``"p"`` or ``"p/q"`` (an
optional minus sign, ASCII decimal digits, q nonzero); floats are rejected
outright so generic tooling can never corrupt a value.  Documents carry a
``format_version`` and a ``kind`` from {two_bands_pair, rank1_system} for
inputs, plus ``partial_r_table`` for emitted cumulant tables.  Unknown
fields and objects that repeat a key are rejected, and serialization is
canonical (sorted keys, two-space indent), so parse -> serialize -> parse
is the identity and equal data always produces byte-identical files.  Both
directions keep the interpreter's limit on int <-> str digits, which the
``bifree`` console script lifts for its own process.

Words over the variables are whitespace-separated letters: ``a<label>`` for
left, ``b<label>`` for right, labels in ASCII digits, e.g. ``"a1 b2 a1"``;
the empty string is the empty word.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .oracle import LEFT, RIGHT
from .partial_r import PartialRTable, TwoBandsTable
from .rank1 import Rank1System
from .series import BadNormalization

__all__ = ["ParseError", "parse_word", "to_json", "load_path"]

FORMAT_VERSION = "1"

_LETTER = re.compile(r"^([ab])([0-9]+)$")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class ParseError(ValueError):
    """Malformed distribution document."""


def rational_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_from_json(v) -> Fraction:
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    match = _RATIONAL.fullmatch(v) if isinstance(v, str) else None
    if match is None:
        raise ParseError(f"rationals must be integers or 'p/q' strings, got {v!r}")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:  # q = 0, or too many digits
        raise ParseError(f"bad rational literal {v!r}") from exc


def parse_word(text: str):
    """Parse ``"a1 b2 a1"`` into a tuple of (side, label) letters."""
    letters = []
    for token in text.split():
        match = _LETTER.match(token)
        if not match:
            raise ParseError(f"bad letter {token!r}: expected a<label> or b<label>")
        side = LEFT if match.group(1) == "a" else RIGHT
        try:
            letters.append((side, int(match.group(2))))
        except ValueError as exc:  # more digits than int() accepts
            raise ParseError(f"label of {token!r} is too long") from exc
    return tuple(letters)


def _ij_word(il, jl) -> str:
    """The canonical IJ-word: left labels ``il``, then right labels ``jl``."""
    return " ".join([f"a{i}" for i in il] + [f"b{j}" for j in jl])


_TABLE_KINDS = {"two_bands_pair": TwoBandsTable, "partial_r_table": PartialRTable}


def _document(obj) -> dict:
    for kind, cls in _TABLE_KINDS.items():
        if isinstance(obj, cls):
            return {
                "format_version": FORMAT_VERSION,
                "kind": kind,
                "values": [[rational_to_json(v) for v in row] for row in obj.values],
            }
    if isinstance(obj, Rank1System):
        # a word names its labels in decimal digits, so only those read back
        for label in obj.left_indices + obj.right_indices:
            if not isinstance(label, int) or isinstance(label, bool) or label < 0:
                raise ValueError(f"label {label!r} is not a non-negative int")
        lam = [
            [rational_to_json(obj.coefficient(i, j)) for j in obj.right_indices]
            for i in obj.left_indices
        ]
        two_bands = {
            _ij_word(il, jl): rational_to_json(v) for (il, jl), v in obj.two_bands.items()
        }
        return {
            "format_version": FORMAT_VERSION,
            "kind": "rank1_system",
            "left_indices": list(obj.left_indices),
            "right_indices": list(obj.right_indices),
            "lambda": lam,
            "cap": obj.cap,
            "two_bands": two_bands,
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    return json.dumps(_document(obj), sort_keys=True, indent=2) + "\n"


def _require_keys(doc: dict, keys: set):
    missing = keys - set(doc)
    extra = set(doc) - keys
    if missing:
        raise ParseError(f"missing fields: {sorted(missing)}")
    if extra:
        raise ParseError(f"unknown fields: {sorted(extra)}")


def _values_grid(doc):
    values = doc["values"]
    if not isinstance(values, list) or not values or not all(
        isinstance(row, list) and row and len(row) == len(values[0]) for row in values
    ):
        raise ParseError("'values' must be a nonempty rectangular array")
    return [[rational_from_json(v) for v in row] for row in values]


def _int_list(doc, field):
    value = doc[field]
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in value
    ):
        raise ParseError(f"'{field}' must be a list of non-negative integers")
    return value


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"key {key!r} repeated in one object")
        obj[key] = value
    return obj


def from_json(text: str):
    """Parse a document into its domain object.

    Returns a TwoBandsTable, PartialRTable or Rank1System according to the
    document kind.  A document whose values break phi(1) = 1 raises
    BadNormalization, as the constructors do, and a malformed one ParseError.
    """
    # ValueError covers JSONDecodeError, a repeated key and an integer
    # literal over the interpreter's digit limit; RecursionError, deep nesting
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")

    if isinstance(kind, str) and kind in _TABLE_KINDS:
        _require_keys(doc, {"format_version", "kind", "values"})
        return _TABLE_KINDS[kind](_values_grid(doc))
    if kind == "rank1_system":
        _require_keys(doc, {"format_version", "kind", "left_indices", "right_indices",
                            "lambda", "cap", "two_bands"})
        left = _int_list(doc, "left_indices")
        right = _int_list(doc, "right_indices")
        lam_rows = doc["lambda"]
        if (
            not isinstance(lam_rows, list)
            or len(lam_rows) != len(left)
            or any(not isinstance(r, list) or len(r) != len(right) for r in lam_rows)
        ):
            raise ParseError("'lambda' must be a |left| x |right| array")
        lam = {
            (i, j): rational_from_json(lam_rows[p][q])
            for p, i in enumerate(left)
            for q, j in enumerate(right)
        }
        raw = doc["two_bands"]
        if not isinstance(raw, dict):
            raise ParseError("'two_bands' must be an object keyed by words")
        two_bands = {}
        for key, value in raw.items():
            letters = parse_word(key)
            il = tuple(label for side, label in letters if side == LEFT)
            jl = tuple(label for side, label in letters if side == RIGHT)
            if _ij_word(il, jl) != " ".join(key.split()):
                raise ParseError(f"two_bands key {key!r} is not a canonical IJ-word")
            if (il, jl) in two_bands:
                raise ParseError(f"two_bands key {key!r} repeats an earlier word")
            two_bands[(il, jl)] = rational_from_json(value)
        try:
            return Rank1System(left, right, lam, two_bands, doc["cap"])
        except BadNormalization:
            raise
        except ValueError as exc:
            raise ParseError(f"invalid rank1 system: {exc}") from exc
    raise ParseError(f"unknown kind {kind!r}")


def load_path(path):
    with open(path, "r", encoding="utf-8") as handle:
        return from_json(handle.read())

