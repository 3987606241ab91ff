"""Spans around the public functions of each bifree layer, installed from outside.

A ``Tracer`` replaces each listed function or method with a wrapper that
records a span (name, start, end, parent span, op id) in memory.  The
wrapper is put in every place that holds the original object: the defining
class or module, aliases such as ``__rmul__ = __mul__``, the package
namespace and every ``from .x import y`` copy in the other modules, so a
call reaches the wrapper by whatever name it uses.  ``uninstall`` puts the
originals back, and ``assert_clean`` checks by identity that none is left.

The program's own sources are never edited; runs without ``--trace 1``
never install anything.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (span name, module, class or None, attribute)
TARGETS = (
    ("series.Series1.mul", "series", "Series1", "__mul__"),
    ("series.Series1.reciprocal", "series", "Series1", "reciprocal"),
    ("series.Series1.compose", "series", "Series1", "compose"),
    ("series.Series1.revert", "series", "Series1", "revert"),
    ("series.Series2.mul", "series", "Series2", "__mul__"),
    ("series.Series2.reciprocal", "series", "Series2", "reciprocal"),
    ("series.Series2.substitute", "series", "Series2", "substitute"),
    ("transforms.moments_to_r", "transforms", None, "moments_to_r"),
    ("transforms.r_to_moments", "transforms", None, "r_to_moments"),
    ("transforms.free_convolve1", "transforms", None, "free_convolve1"),
    ("transforms.subordination_series", "transforms", None, "subordination_series"),
    ("partial_r.compute_partial_r", "partial_r", None, "compute_partial_r"),
    ("partial_r.partial_r_to_moments", "partial_r", None, "partial_r_to_moments"),
    ("partial_r.biconvolve", "partial_r", None, "biconvolve"),
    ("oracle.two_bands_table", "oracle", None, "two_bands_table"),
    ("oracle.sum_two_bands_table", "oracle", None, "sum_two_bands_table"),
    ("oracle.ProductState.apply_left", "oracle", "ProductState", "apply_left"),
    ("oracle.ProductState.apply_right", "oracle", "ProductState", "apply_right"),
    ("rank1.extract_system", "rank1", None, "extract_system"),
    ("rank1.mixed_moment", "rank1", None, "mixed_moment"),
    ("io.load_path", "io", None, "load_path"),
    ("io.to_json", "io", None, "to_json"),
    ("cli.main", "cli", None, "main"),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)


def _holders(module_name, class_name, attr):
    """Every (namespace, name) that holds the target object, and the object."""
    module = sys.modules[f"bifree.{module_name}"]
    if class_name is not None:
        cls = getattr(module, class_name)
        original = cls.__dict__[attr]
        return original, [(cls, n) for n, v in vars(cls).items() if v is original]
    original = getattr(module, attr)
    holders = []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "bifree":
            holders.extend((mod, n) for n, v in vars(mod).items() if v is original)
    return original, holders


def originals():
    """Snapshot of the unwrapped target objects, taken before any install."""
    return {name: _holders(*target)[0] for name, *target in TARGETS}


def assert_clean(snapshot):
    """Raise unless every target is its original and no wrapper is left anywhere."""
    wrapped = {id(f) for f in snapshot.values()}
    namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "bifree"]
    for name, module_name, class_name, attr in TARGETS:
        if _holders(module_name, class_name, attr)[0] is not snapshot[name]:
            raise RuntimeError(f"{name} is not the original function")
        if class_name is not None:
            namespaces.append(getattr(sys.modules[f"bifree.{module_name}"], class_name))
    for namespace in namespaces:
        for attr, value in vars(namespace).items():
            if id(getattr(value, "__wrapped__", None)) in wrapped:
                raise RuntimeError(f"a span wrapper is left on {namespace.__name__}.{attr}")


def coeff_bits(obj) -> int:
    """Largest numerator or denominator bit length in a bifree output."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return obj.bit_length()
    for attr in ("coeffs", "rows", "values"):
        inner = getattr(obj, attr, None)
        if inner is not None:
            return coeff_bits(inner)
    if isinstance(obj, (tuple, list)):
        return max((coeff_bits(x) for x in obj), default=0)
    return 0


class Tracer:
    """In-memory spans; ``observe`` adds output statistics for the stats pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.observe = False
        self.terms_out = 0
        self.max_bits = {}
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        module = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if self.observe:
                self._note(module, name, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _note(self, module, name, out):
        if name.startswith("oracle.ProductState.apply_"):
            self.terms_out += len(out)
        elif module in ("series", "partial_r", "transforms"):
            self.max_bits[module] = max(self.max_bits.get(module, 0), coeff_bits(out))

    def install(self):
        for name, *target in TARGETS:
            original, holders = _holders(*target)
            wrapper = self._wrap(name, original)
            for holder, attr in holders:
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.terms_out = 0
        self.max_bits.clear()

    def self_times(self):
        """{span name: (calls, self seconds)}; self = duration - direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for (name, start, end, _, _), cover in zip(self.spans, covered):
            out[name][0] += 1
            out[name][1] += end - start - cover
        return out

    def children_per_parent(self, child, parent):
        """Mean number of ``child`` spans directly under each ``parent`` span."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent}
        if not parents:
            return 0
        kids = sum(1 for s in self.spans if s[0] == child and s[3] in parents)
        return Fraction(kids, len(parents))

    def counts(self):
        """The count metrics; from one stats pass they repeat exactly."""
        return {
            "series.compose_calls_per_revert": self.children_per_parent(
                "series.Series1.compose", "series.Series1.revert"
            ),
            "partial_r.forward_calls_per_inverse": self.children_per_parent(
                "partial_r.compute_partial_r", "partial_r.partial_r_to_moments"
            ),
            "oracle.terms_out": self.terms_out,
            "series.max_coeff_bits": self.max_bits.get("series", 0),
            "partial_r.max_coeff_bits": self.max_bits.get("partial_r", 0),
            "transforms.max_coeff_bits": self.max_bits.get("transforms", 0),
        }
