"""Static checks on the package source, made with ``ast`` alone."""
from __future__ import annotations

import ast
import functools
import pathlib
from collections import Counter

import pytest

import semiflat

PACKAGE = pathlib.Path(semiflat.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


@functools.lru_cache(maxsize=None)
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


def _uses(node: ast.AST) -> tuple[Counter, Counter]:
    """How often each name is called, as ``f(...)`` or ``obj.f(...)``, and read
    as an attribute, ``obj.f``, in the subtree of ``node``.  A function named
    in a dispatch table, the ``ALL_SUITES`` tuple or a ``set_defaults(fn=...)``
    keyword, counts as called there."""
    calls, reads = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                calls[sub.func.id] += 1
            elif isinstance(sub.func, ast.Attribute):
                calls[sub.func.attr] += 1
                if sub.func.attr == "set_defaults":
                    calls.update(k.value.id for k in sub.keywords
                                 if isinstance(k.value, ast.Name))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.Assign) and any(getattr(t, "id", None) == "ALL_SUITES"
                                                 for t in sub.targets):
            calls.update(n.id for n in ast.walk(sub.value) if isinstance(n, ast.Name))
    return calls, reads


@functools.lru_cache(maxsize=None)
def _package_uses() -> tuple[Counter, Counter]:
    """``_uses`` summed over the package, one walk per module tree."""
    calls, reads = Counter(), Counter()
    for path in MODULES:
        c, r = _uses(_tree(path))
        calls += c
        reads += r
    return calls, reads


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


def _uncalled_functions(module: pathlib.Path, private: bool) -> list[str]:
    """The public or private functions of ``module`` that nothing in the package calls.

    A check that only tests call belongs in the tests, not in the package;
    a function's calls of itself do not count.
    """
    calls, _ = _package_uses()
    functions = [node for node in _tree(module).body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private]
    assert functions
    return [fn.name for fn in functions if calls[fn.name] == _uses(fn)[0][fn.name]]


# Every module that defines a module-level function; a new module joins
# the caller checks by itself.
FUNCTION_MODULES = [p.stem for p in MODULES
                    if any(isinstance(node, ast.FunctionDef) for node in _tree(p).body)]


# The check goes by name, so it cannot see a function that shares its name
# with a call elsewhere: ``itertools.product(...)`` hid an uncalled
# ``limits.product``.
@pytest.mark.parametrize("name", FUNCTION_MODULES)
def test_every_public_function_has_a_caller_in_the_package(name):
    assert _uncalled_functions(PACKAGE / f"{name}.py", private=False) == []


@pytest.mark.parametrize("name", FUNCTION_MODULES)
def test_every_private_function_has_a_caller_in_the_package(name):
    assert _uncalled_functions(PACKAGE / f"{name}.py", private=True) == []


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


def test_every_public_member_is_read_in_the_package():
    # A public method or property that only tests read belongs in the
    # tests.  A member counts as read when its name is read as an
    # attribute outside its own body.  Dunders are exempt: they are called
    # implicitly (``x in s``, ``len(s)``, ``f(x)``), so no attribute names
    # them and this check cannot tell a used one from an unused one.
    _, reads = _package_uses()
    unread = []
    for path in MODULES:
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if (isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                        and reads[member.name] == _uses(member)[1][member.name]):
                    unread.append(f"{cls.name}.{member.name}")
    assert unread == []


def test_every_record_field_is_read_in_the_package():
    # A field that nothing reads is filled for no one: it belongs in the
    # tests, or nowhere.  A field counts as read when any attribute read in
    # the package names it.  The check goes by name, so a field that shares
    # its name with one that is read passes unseen: unread ``detail`` fields
    # of ``Violation`` and ``FlatnessVerdict`` hid behind
    # ``SuiteResult.detail``, and an unread ``StageFlags.witness`` behind
    # ``FlatnessVerdict.witness``.
    _, reads = _package_uses()
    classes = [cls for path in MODULES for cls in ast.walk(_tree(path))
               if isinstance(cls, ast.ClassDef)]
    records, grown = {"Record"}, True
    while grown:
        found = {cls.name for cls in classes
                 if any(getattr(base, "id", None) in records for base in cls.bases)}
        grown = not found <= records
        records |= found
    unread = [f"{cls.name}.{node.target.id}" for cls in classes if cls.name in records
              for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and not node.target.id.startswith("_") and not reads[node.target.id]]
    assert len(records) > 20
    assert unread == []


# A product or quotient of valid modules is valid, and so is a closed
# subset of one: the modules that build derived carriers build them as
# records directly, through ``structures.product_table``,
# ``product_action`` and ``transport``, and never scan their axioms again.
DERIVED = ["limits", "congruence", "subsets", "homology", "tensor", "flatness"]


@pytest.mark.parametrize("name", DERIVED)
def test_derived_constructions_never_validate(name):
    named = set()
    for node in ast.walk(_tree(PACKAGE / f"{name}.py")):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    assert named & {"build_semiring", "build_semimodule"} == set()
