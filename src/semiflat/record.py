"""The base class of the package's record types.

A record class declares each field once, as a class annotation in order,
with its default as the class value where it has one::

    class FlatnessVerdict(Record):
        holds: bool
        witness: tuple | None = None

A subclass inherits its base's fields and appends its own; names that
start with ``_`` are not fields.  From these declarations the base class
supplies what ``@dataclass(frozen=True)`` would generate: a constructor
taking the fields by position or keyword (``TypeError`` for a missing,
unexpected or doubled argument), equality on the class and the fields, a
hash of the fields (cached on first use), the repr ``Name(field=value,
...)``, and attribute assignment and deletion that raise
``AttributeError``.  ``inspect.signature`` of a record class is built only
when asked for, so importing the package loads no ``inspect``.

Fields live in the instance ``__dict__``.  A class that does more than
store its arguments writes its own ``__init__`` and fills ``self.__dict__``
itself: ``Morphism`` adds its derived ``injective`` and ``surjective``
flags, ``Workspace`` a fresh dict for each omitted map.  Derived memos may
sit in the ``__dict__`` outside ``_fields``: the cached ``_hash``, and a
morphism's ``_profile`` (``homology.morphism_profile``).  Equality, hashing
and the repr read the fields only, so a memo changes none of them, and it
lives exactly as long as its record.

Records are plain classes because ``@dataclass`` compiles its generated
methods with ``exec`` at every import of the package, and importing
``dataclasses`` loads ``inspect``, ``ast`` and ``dis``.  The README's
design notes give the measured cost.
"""
from __future__ import annotations

from operator import itemgetter


class _LazySignature:
    """The signature of a class on the generic constructor, built when read."""

    def __get__(self, instance, owner):
        if instance is not None or owner.__init__ is not Record.__init__:
            return None     # inspect falls back to the callable itself
        import inspect
        notes = {}
        for klass in reversed(owner.__mro__):
            notes.update(vars(klass).get("__annotations__", {}))
        P = inspect.Parameter
        return inspect.Signature([P(f, P.POSITIONAL_OR_KEYWORD, annotation=notes[f],
                                    default=owner._defaults.get(f, P.empty))
                                  for f in owner._fields])


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    __signature__ = _LazySignature()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        declared = [n for n in own.get("__annotations__", {}) if not n.startswith("_")]
        fields = cls._fields + tuple(n for n in declared if n not in cls._fields)
        cls._fields = fields
        cls._defaults = {**cls._defaults, **{n: own[n] for n in declared if n in own}}
        if any(f not in cls._defaults for f in fields[len(fields) - len(cls._defaults):]):
            raise TypeError(f"{cls.__qualname__}: a field without a default follows a default")
        get = itemgetter(*fields)
        # the field values as a tuple, read from an instance __dict__
        cls._values = staticmethod(get if len(fields) > 1 else lambda d: (get(d),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Each field's value, in order, for a call that is not one argument per field."""
        fields, call = self._fields, f"{type(self).__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(f"{call} takes {len(fields) + 1} positional arguments but "
                            f"{len(args) + 1} were given")
        values = {**self._defaults, **dict(zip(fields, args))}
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if name in fields[:len(args)]:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
            values[name] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{call} missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return [values[f] for f in fields]

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self.__dict__) == other._values(other.__dict__)

    def __hash__(self):
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash(self._hash_key())
        return h

    def _hash_key(self) -> tuple:
        """The hashed values: all fields, unless a class hashes fewer."""
        return self._values(self.__dict__)

    def __repr__(self):
        d = self.__dict__
        fields = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
