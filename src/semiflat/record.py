"""The base class of the package's record types.

A record class lists its fields in ``_fields`` and assigns them in its own
``__init__`` through ``self.__dict__``.  The base class supplies what
``@dataclass(frozen=True)`` would generate from that list: equality on the
class and the fields, a hash of the fields (cached on first use), the repr
``Name(field=value, ...)``, and attribute assignment and deletion that
raise ``AttributeError``.  A class declared with ``frozen=False`` assigns
freely and is unhashable, like a plain ``@dataclass``.

Derived memos may sit in an instance ``__dict__`` outside ``_fields``: the
cached ``_hash``, and a morphism's ``_profile`` (``homology.morphism_profile``).
Equality, hashing and the repr read the fields only, so a memo changes none
of them, and it lives exactly as long as its record.

Records are plain classes because ``@dataclass`` compiles its generated
methods with ``exec`` at every import of the package, and importing
``dataclasses`` loads ``inspect``, ``ast`` and ``dis``.  The README's
design notes give the measured cost.
"""
from __future__ import annotations

from operator import itemgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        get = itemgetter(*cls._fields)
        # the field values as a tuple, read from an instance __dict__
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda d: (get(d),))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

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
