"""The public API is what the program itself uses.

A name belongs in a submodule's ``__all__`` only if the package re-exports
it, or if the command line, a demo, the benchmark harness or the package's
console scripts use it.  Helpers that only the library and its tests call
carry a leading underscore instead.
"""

import ast
import copy
import importlib
import pkgutil
import re
from itertools import product
from pathlib import Path
from types import FunctionType

import bifree

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = sorted(
    f"bifree.{info.name}" for info in pkgutil.iter_modules(bifree.__path__)
)


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return None


def _uses(path: Path, package: str | None = None) -> set:
    """(module, name) pairs that the source at ``path`` imports or reads.

    ``package`` resolves relative imports for a file inside ``bifree``.
    """
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"{package}.{module}" if module else package
            used.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.startswith("bifree."):
                module, _, name = dotted.rpartition(".")
                used.add((module, name))
    return used


def program_uses() -> set:
    used = _uses(ROOT / "src" / "bifree" / "cli.py", package="bifree")
    for pattern in ("demos/*.py", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            used |= _uses(path)
    # the console scripts: name = "module:function" lines of [project.scripts]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.partition("[project.scripts]")[2].partition("\n[")[0]
    used.update(re.findall(r'^[\w-]+\s*=\s*"([\w.]+):(\w+)"', scripts, re.M))
    return used


def test_every_exported_name_is_defined():
    for name in SUBMODULES:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"{name}.__all__ lists undefined {export!r}"


def test_every_exported_name_is_used_by_the_program():
    used = program_uses()
    top = set(bifree.__all__)
    unused = [
        f"{name}.{export}"
        for name in SUBMODULES
        for export in getattr(importlib.import_module(name), "__all__", ())
        if export not in top and (name, export) not in used
    ]
    assert unused == []


def test_every_public_method_is_used_by_the_program(monkeypatch):
    # The same rule for methods: a public method of an exported class must be
    # read as an attribute somewhere in the library, a demo or the benchmark
    # harness; tests read what such a method would return off the value
    # itself.  The methods the benchmark's tracer wraps stay where it finds them.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    pinned = {(cls, attr) for _, _, cls, attr in tracing.TARGETS if cls}
    read = set()
    for pattern in ("src/bifree/*.py", "demos/*.py", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            read.update(node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    methods = (FunctionType, classmethod, staticmethod, property)
    unused = [
        f"{cls.__name__}.{name}"
        for cls in (getattr(bifree, export) for export in bifree.__all__)
        if isinstance(cls, type)
        for name, value in vars(cls).items()
        if isinstance(value, methods) and not name.startswith("_")
        and name not in read and (cls.__name__, name) not in pinned
    ]
    assert unused == []


JUNK = (None, True, 1.5, "ab", [], 3, [[1, 2], [3, 5]])


def test_junk_arguments_raise_typed_errors():
    # Every exported function and class, given arguments of the wrong type in
    # one, two or three positions, either works or raises a TypeError,
    # ValueError, ArithmeticError or LookupError: never an AttributeError or
    # another error from inside that names no fault of the arguments.
    leaks = {}
    for name in bifree.__all__:
        obj = getattr(bifree, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        for k in (1, 2, 3):
            for args in product(JUNK, repeat=k):
                try:
                    obj(*copy.deepcopy(args))
                except (TypeError, ValueError, ArithmeticError, LookupError):
                    pass
                except Exception as exc:
                    leaks.setdefault(name, f"{type(exc).__name__} on {args!r}")
    assert leaks == {}


def test_the_oracle_imports_no_series_kernel():
    # The operator oracle checks the series route, so it must not share that
    # route's kernels: from bifree.series it takes only input validation and
    # its error, and no private name from any module but the oracle itself.
    allowed = {"as_fraction", "check_orders", "NegativeOrder"}
    for module in ("oracle", "rank1"):
        tree = ast.parse((ROOT / "src" / "bifree" / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
                assert not any(n.split(".")[0] == "bifree" for n in names), (module, names)
            elif isinstance(node, ast.ImportFrom):
                source = "bifree." * bool(node.level) + (node.module or "")
                for alias in node.names:
                    where = f"{module}.py imports {alias.name} from {source}"
                    if source == "bifree.series":
                        assert alias.name in allowed, where
                    elif source.startswith("bifree"):
                        assert alias.name != "series", where
                        assert not alias.name.startswith("_") or source == "bifree.oracle", where


def test_only_the_package_and_selfcheck_import_the_tower():
    # The two-bands maps, the rank-1 layer, the JSON codec and the CLI take
    # BadNormalization from series, so no module below the package imports
    # the one-variable tower: the tower can then run on the two-bands maps
    # without an import cycle.  transforms still re-exports the error.
    importers = {
        path.name for path in (ROOT / "src" / "bifree").glob("*.py")
        if any(module == "bifree.transforms" or (module, name) == ("bifree", "transforms")
               for module, name in _uses(path, package="bifree"))
    }
    assert importers <= {"__init__.py", "selfcheck.py"}, importers
    assert bifree.transforms.BadNormalization is bifree.series.BadNormalization
    assert bifree.BadNormalization is bifree.series.BadNormalization


def test_the_tower_inverse_is_the_two_bands_inverse_map():
    # h = p(t*h) is column 0 of partial_r._inverse on the box (N, 0), so
    # the tower's inverse direction names no _lagrange; the forward
    # marginal still solves u = (1/h)(t*u) with it
    tree = ast.parse((ROOT / "src" / "bifree" / "transforms.py").read_text(encoding="utf-8"))
    names = {node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("r_to_moments", "free_convolve1", "subordination_series"):
        assert "_lagrange" not in names[name], name
        assert "_moments" in names[name], name
    assert "_inverse" in names["_moments"]
    assert "_lagrange" in names["_marginal"]


def test_the_test_oracles_share_no_product_loop():
    # the reference algorithms check the one product loop and the power
    # loop built on it, so they multiply with loops of their own
    used = _uses(ROOT / "tests" / "helpers.py")
    assert not used & {("bifree.series", "_convolve"), ("bifree.series", "_powers")}


def test_partial_r_stays_on_integer_grids():
    # Both two-variable maps run on integer grids on the weight scale, with
    # no denominator, from the weighted table to the output: the
    # Lagrange-Buermann power rows replace the Fraction tower step, so
    # partial_r must not bring back that step or the one-variable class it
    # computes on.  Its quotients are one division by a grid with corner 1,
    # so it needs no separate product kernel either.
    banned = {"_lagrange", "Series1", "_convolve"}
    tree = ast.parse((ROOT / "src" / "bifree" / "partial_r.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name.split(".")[-1] for alias in node.names}
            assert not names & banned, names & banned
        elif isinstance(node, ast.Attribute):
            assert node.attr not in banned, node.attr
    # biconvolve adds the two cumulant grids on integers: no cumulant table,
    # and no Fraction, stands between the forward and the inverse map
    (body,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "biconvolve"]
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    between = {"PartialRTable", "compute_partial_r", "partial_r_to_moments", "Fraction"}
    assert not named & between, named & between


def test_kernels_carry_no_denominator():
    # the division, substitution and Buermann kernels take integer grids
    # alone, and no gcd reduction runs between them
    tree = ast.parse((ROOT / "src" / "bifree" / "series.py").read_text(encoding="utf-8"))
    args = {node.name: [a.arg for a in node.args.args] for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    assert args["_divide"] == ["num", "a"]
    assert args["_substitute"] == ["grid", "fp", "gq"]
    assert args["_burmann_rows"] == ["phi", "k"]
    for path in sorted((ROOT / "src" / "bifree").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"_reduced", "gcd"}, path.name


def test_the_rank1_recursion_stays_on_ints():
    # mixed_moment and _apply_T read phi * D and lam * D from the system's
    # int tables, so neither takes a Fraction apart, and the moment is the
    # one Fraction that mixed_moment builds
    tree = ast.parse((ROOT / "src" / "bifree" / "rank1.py").read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in ("_apply_T", "mixed_moment")}
    assert set(bodies) == {"_apply_T", "mixed_moment"}
    for name, body in bodies.items():
        attrs = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
        assert not attrs & {"numerator", "denominator"}, name
    calls = [node for node in ast.walk(bodies["mixed_moment"])
             if isinstance(node, ast.Call) and _dotted(node.func) == "Fraction"]
    assert len(calls) == 1
