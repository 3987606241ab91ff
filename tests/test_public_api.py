"""The public API is what the program itself uses.

A name belongs in a submodule's ``__all__`` only if the package re-exports
it, or if the command line, a demo, the benchmark harness or the package's
console scripts use it.  Helpers that only the library and its tests call
carry a leading underscore instead.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

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


def test_the_oracle_imports_no_series_kernel():
    # The operator oracle checks the series route, so it must not share that
    # route's kernels: from bifree.series it takes only input validation, and
    # no private name from any module but the oracle itself.
    allowed = {"as_fraction", "check_orders"}
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


def test_partial_r_stays_on_integer_grids():
    # Both two-variable maps run on (ints, den) grids from the table to the
    # output: the Lagrange-Buermann power rows replace the Fraction tower
    # step, so partial_r must not bring back that step or the one-variable
    # class it computes on.  Its quotients are one fraction-free division,
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
