"""Record classes against dataclass twins of their ``@dataclass`` declarations.

The package's records are plain classes on ``semiflat.record.Record`` so
that importing the package compiles no generated code.  Each one must keep
the behaviour the ``@dataclass(frozen=True)`` declaration gave it: the
constructor signature, equality, hashing, repr and frozen instances.
"""
from __future__ import annotations

import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

from semiflat import structures, suite
from semiflat.catalog import (bool_semiring, sat_semiring, trivial_module, zmod_module,
                              zmod_semiring)
from semiflat.congruence import Congruence
from semiflat.flatness import (FlatCertificate, FlatnessVerdict, SearchConfig, SearchRecord,
                               search_counterexamples)
from semiflat.homology import (ExactnessReport, HomModule, InjectivityEntry,
                               InjectivityReport, MorphismProfile,
                               StageFlags, hom_module)
from semiflat.limits import (Colimit, DirectedSystem, HomColimitComparison, InverseSystem,
                             ProductData)
from semiflat.record import Record
from semiflat.structures import (Morphism, SecondAction, Semimodule, Semiring, Violation,
                                 counting_semiring, identity_morphism, zero_morphism)
from semiflat.subsets import Subsemimodule
from semiflat.suite import SuiteResult
from semiflat.tensor import (AdjunctionReport, CancellativeTensor, HomTensorComparison,
                             IsoPair, TensorPresentation)
from semiflat.workspace import Diagram, Workspace
from two_row_oracle import TwoRowReport

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FACTORY = object()      # a field declared with default_factory=dict

# Every record as it was declared with @dataclass: fields in order, and a
# (name, default) pair for a field with a default.
DECLARATIONS = [
    (Violation, ["axiom", "witness"]),
    (Semiring, ["labels", "add", "mul", "zero", "one"]),
    (SecondAction, ["semiring", "side", "table"]),
    (Semimodule, ["semiring", "side", "labels", "add", "zero", "action", ("second", None)]),
    (Morphism, ["source", "target", "map"]),
    (Subsemimodule, ["parent", "members"]),
    (Congruence, ["size", "class_of", "class_count"]),
    (MorphismProfile, ["k_uniform", "i_uniform", "semi_epi"]),
    (StageFlags, ["chain_step", "proper_exact", "semi_exact", "quasi_exact", "exact"]),
    (ExactnessReport, ["stages"]),
    (HomModule, ["source", "target", "module", "maps"]),
    (InjectivityEntry, ["module_index", "sub_members", "surjective", "uniform"]),
    (InjectivityReport, ["entries"]),
    (TwoRowReport, ["case_1a", "case_1b", "case_2a", "case_2b"]),
    (ProductData, ["module", "factors", "projections", "injections"]),
    (DirectedSystem, ["nodes", "order", "maps"]),
    (Colimit, ["module", "legs", "class_of"]),
    (InverseSystem, ["nodes", "order", "maps"]),
    (HomColimitComparison, ["injective", "bijective"]),
    (TensorPresentation, ["left", "right", "left_gens", "right_gens", "radices", "box_size",
                          "module", "tau", "rep_coords", "dense"]),
    (IsoPair, ["forward", "backward"]),
    (CancellativeTensor, ["presentation", "module", "reflection", "tau"]),
    (AdjunctionReport, ["bijective", "additive", "natural_in_source", "natural_in_target"]),
    (HomTensorComparison, ["injective", "uniform", "bijective"]),
    (FlatnessVerdict, ["holds", ("witness", None)]),
    (FlatCertificate, ["system", "node_witnesses", "iso"]),
    (SearchConfig, ["semirings", ("max_size", 4), ("budget_seconds", 300.0),
                    ("out_path", None)]),
    (SearchRecord, ["semiring_index", "module_index", "size", "add", "action", "mono_flat",
                    "i_uniform_class", "uniformly_flat", "certified_flat", "witness"]),
    (SuiteResult, ["tag", "passed", "checks", "detail", "seconds"]),
    (Diagram, ["kind", "arrows"]),
    (Workspace, [("semirings", FACTORY), ("semimodules", FACTORY), ("morphisms", FACTORY),
                 ("systems", FACTORY), ("diagrams", FACTORY)]),
]

# the classes that define their own repr, and the hash keys that leave fields out
CUSTOM_REPR = {Semiring, Semimodule, Morphism, Subsemimodule, Congruence}
HASH_KEYS = {
    Congruence: lambda r: (r.size, r.class_of),
    HomModule: lambda r: (r.source, r.target, r.module),
    DirectedSystem: lambda r: (r.nodes, r.order, tuple(m.map for m in r.maps)),
    InverseSystem: lambda r: (r.nodes, r.order, tuple(m.map for m in r.maps)),
    TensorPresentation: lambda r: (r.left, r.right, r.module, r.tau),
}

_M = zmod_module(4, 4)
_N = zmod_module(4, 2)


def _fields(declared):
    return [f if isinstance(f, tuple) else (f, dataclasses.MISSING) for f in declared]


def _twin(cls, declared):
    fields = []
    for name, default in _fields(declared):
        if default is FACTORY:
            fields.append((name, object, dataclasses.field(default_factory=dict)))
        else:
            fields.append((name, object, dataclasses.field(default=default)))
    namespace = {}
    if cls is Morphism:
        fields += [(name, bool, dataclasses.field(init=False, compare=False))
                   for name in ("injective", "surjective")]

        def __post_init__(self):
            image = len(set(self.map))
            object.__setattr__(self, "injective", image == self.source.size)
            object.__setattr__(self, "surjective", image == self.target.size)
        namespace["__post_init__"] = __post_init__
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True,
                                      namespace=namespace)


def _value(cls, name, variant):
    """A sample field value; equal values are equal but not identical objects."""
    if cls is Morphism:
        return {"source": _M, "target": _M if variant else _N,
                "map": tuple([0, 1, 0, 1] if variant == 0 else [0, 1, 2, 3])}[name]
    if name == "maps" and cls in (DirectedSystem, InverseSystem):
        return ((identity_morphism(_M),) if variant == 0 else (zero_morphism(_M, _M),))
    return (name, variant)


def _samples(cls, declared):
    """Kwargs of a base instance, a copy of it, and one variant per field."""
    names = [name for name, _ in _fields(declared)]
    base = {n: _value(cls, n, 0) for n in names}
    out = [base, {n: _value(cls, n, 0) for n in names}]
    for n in names:
        out.append({**base, n: _value(cls, n, 1)})
    return out


@pytest.mark.parametrize("cls, declared", DECLARATIONS,
                         ids=[c.__name__ for c, _ in DECLARATIONS])
def test_record_matches_dataclass_twin(cls, declared):
    twin = _twin(cls, declared)

    def params(c):
        return [(p.name, p.kind, None if repr(p.default) == "<factory>" else p.default)
                for p in inspect.signature(c).parameters.values()]
    assert params(cls) == params(twin)

    kwargs = _samples(cls, declared)
    ours = [cls(**kw) for kw in kwargs]
    twins = [twin(**kw) for kw in kwargs]
    for a, ta in zip(ours, twins):
        for b, tb in zip(ours, twins):
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)
            if a == b:
                assert hash(a) == hash(b)
        assert hash(a) == hash(HASH_KEYS[cls](a) if cls in HASH_KEYS else ta)
        if cls not in CUSTOM_REPR:
            assert repr(a) == repr(ta)
        assert a != ta and a != object()

    a = ours[0]
    name = _fields(declared)[0][0]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        setattr(a, "extra", None)
    with pytest.raises(AttributeError):
        delattr(a, name)


@pytest.mark.parametrize("cls, declared", DECLARATIONS,
                         ids=[c.__name__ for c, _ in DECLARATIONS])
def test_bad_arguments_raise_like_the_twin(cls, declared):
    twin = _twin(cls, declared)
    kwargs = _samples(cls, declared)[0]
    first = next(iter(kwargs))
    required = [name for name, default in _fields(declared) if default is dataclasses.MISSING]
    calls = [((), {**kwargs, "extra": 1}),              # unexpected
             ((kwargs[first],), kwargs),                # doubled
             ((*kwargs.values(), None), {})]            # one too many
    if required:                                        # missing
        calls.append(((), {n: v for n, v in kwargs.items() if n != required[-1]}))
    for args, kw in calls:
        for c in (cls, twin):
            with pytest.raises(TypeError):
                c(*args, **kw)
    # positional calls, with and without the defaulted fields
    short = [kwargs[n] for n in required]
    assert cls(*kwargs.values()) == cls(**kwargs)
    if cls not in CUSTOM_REPR:
        assert repr(cls(*short)) == repr(twin(*short))
        assert repr(cls(*kwargs.values())) == repr(twin(*kwargs.values()))


def test_subclass_without_annotations_inherits_fields():
    class Base(Record):
        a: int
        b: str = "x"
        _memo: int = 0          # not a field

    class Sub(Base):
        def double(self):
            return 2 * self.a

    class More(Base):
        c: float = 0.5

    assert Sub._fields == ("a", "b") and More._fields == ("a", "b", "c")
    s = Sub(1)
    assert (s.a, s.b, s.double()) == (1, "x", 2) and repr(s).endswith("Sub(a=1, b='x')")
    assert s == Sub(a=1) and s != Base(1) and hash(s) == hash(Sub(1, "x"))
    assert str(inspect.signature(Sub)) == "(a: 'int', b: 'str' = 'x')"
    assert str(inspect.signature(More)) == "(a: 'int', b: 'str' = 'x', c: 'float' = 0.5)"
    assert More(2, c=1.5).c == 1.5
    assert DirectedSystem._fields == InverseSystem._fields == ("nodes", "order", "maps")
    with pytest.raises(TypeError):
        class Bad(Base):
            c: int              # no default after a field with one


def test_morphism_equality_ignores_derived_flags():
    f, g = Morphism(_M, _N, (0, 1, 0, 1)), Morphism(_M, _N, (0, 1, 0, 1))
    twin = _twin(Morphism, ["source", "target", "map"])
    tf = twin(_M, _N, (0, 1, 0, 1))
    assert (f.injective, f.surjective) == (tf.injective, tf.surjective) == (False, True)
    g.__dict__["injective"] = True
    g.__dict__["surjective"] = False
    assert f == g and hash(f) == hash(g)


def test_equal_semirings_are_one_object():
    assert counting_semiring(1, 1) is bool_semiring()
    assert counting_semiring(3, 1) is sat_semiring(3)
    assert counting_semiring(0, 4) is zmod_semiring(4)


def test_semimodules_hash_their_labels():
    # the trivial module and a one-element Hom module differ only in the label
    for S in (bool_semiring(), sat_semiring(3), zmod_semiring(4)):
        T = trivial_module(S)
        H = hom_module(T, T).module
        assert (T.labels, H.labels) == (("0",), ("h0",))
        assert T != H and hash(T) != hash(H)


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "semiflat" or name.startswith("semiflat."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_cache_keys_compare_only_equal_records(monkeypatch):
    # Two distinct records of one class are compared when their hashes
    # match, so a comparison that returns False is a hash collision between
    # unequal cache keys.  Two semirings are compared only when
    # build_semiring looks up the first one built with equal values.
    unequal, semirings = Counter(), Counter()
    eq = Record.__eq__
    intern = structures.build_semiring.__code__

    def counted(self, other):
        result = eq(self, other)
        if self is not other and other.__class__ is self.__class__:
            if not result:
                unequal[type(self).__name__] += 1
            caller = sys._getframe(1).f_code
            if isinstance(self, Semiring) and caller is not intern:
                semirings[caller.co_name] += 1
        return result

    _clear_caches()
    monkeypatch.setattr(Record, "__eq__", counted)
    B = bool_semiring()
    suite._componentwise_items(B, suite._pool_modules(B))
    assert unequal == {} and semirings == {}


def test_every_package_cache_is_reused():
    # a cache is kept only where the suites or the size-4 search hit it;
    # the semiring constructors need none, as build_semiring interns
    _clear_caches()
    suite.run_suites()
    search_counterexamples(SearchConfig((bool_semiring(), sat_semiring(3), zmod_semiring(4)),
                                        max_size=4))
    hits = {f"{obj.__module__}.{obj.__qualname__}": obj.cache_info().hits
            for name, module in list(sys.modules.items())
            if name == "semiflat" or name.startswith("semiflat.")
            for obj in vars(module).values()
            if hasattr(obj, "cache_info") and obj.__module__.startswith("semiflat.")}
    assert [name for name, count in hits.items() if count == 0] == []
    assert len(hits) == 29


def test_workspace_maps_are_fresh_per_instance():
    a, b = Workspace(), Workspace()
    for name in ("semirings", "semimodules", "morphisms", "systems", "diagrams"):
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)


def test_package_import_loads_no_dataclass_machinery():
    code = ("import sys; import semiflat.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
    importing = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.MULTILINE)
    sources = sorted((SRC / "semiflat").rglob("*.py"))
    assert sources
    assert [p.name for p in sources if importing.search(p.read_text(encoding="utf-8"))] == []
