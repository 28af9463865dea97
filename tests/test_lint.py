"""Static checks on the package source, made with ``ast`` alone."""
from __future__ import annotations

import ast
import pathlib

import pytest

import semiflat

PACKAGE = pathlib.Path(semiflat.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line; ``__future__`` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return out


def _called_names(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """The names called as ``f(...)`` or ``mod.f(...)``, outside the subtree ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                out.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                out.add(node.func.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export, so it is the one module left out
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [(path.name, line, name)
                   for name, line in _imported_names(tree).items() if name not in used]
    assert MODULES
    assert unused == []


def _uncalled_public_functions(module: pathlib.Path) -> list[str]:
    """The public functions of ``module`` that nothing in the package calls.

    A check that only tests call belongs in the tests, not in the package;
    a function's calls of itself do not count.
    """
    trees = {path: _tree(path) for path in MODULES}
    public = [node for node in trees[module].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public
    uncalled = []
    for fn in public:
        called = set()
        for path, tree in trees.items():
            called |= _called_names(tree, skip=fn if path == module else None)
        if fn.name not in called:
            uncalled.append(fn.name)
    return uncalled


def test_every_public_flatness_function_has_a_caller_in_the_package():
    assert _uncalled_public_functions(PACKAGE / "flatness.py") == []


def test_every_public_homology_function_has_a_caller_in_the_package():
    assert _uncalled_public_functions(PACKAGE / "homology.py") == []


# cli and suite are left out because their public functions are reached
# through dispatch tables.  catalog's ``product_semiring`` is the one named
# exception: it stays as the constructor of the BB semiring that four test
# modules build.  The check goes by name, so it cannot see a function that
# shares its name with a call elsewhere: ``itertools.product(...)`` hid an
# uncalled ``limits.product``.
@pytest.mark.parametrize("name", ["catalog", "congruence", "limits", "structures",
                                  "subsets", "tensor", "workspace"])
def test_every_public_function_has_a_caller_in_the_package(name):
    kept = ["product_semiring"] if name == "catalog" else []
    assert _uncalled_public_functions(PACKAGE / f"{name}.py") == kept


def test_every_congruence_closure_has_maps_to_close_under():
    # a partition with nothing to close under is the fibres of a map, and
    # goes through ``congruence.fibres`` instead of the union-find engine
    calls, empty = 0, []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) != "congruence_closure":
                continue
            calls += 1
            maps = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "maps"), None)
            if isinstance(maps, (ast.Tuple, ast.List)) and not maps.elts:
                empty.append((path.name, node.lineno))
    assert calls
    assert empty == []
