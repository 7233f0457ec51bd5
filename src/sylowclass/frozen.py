"""The one base of the package's value types.

The group types, the closed-form answers and Sylow terms, the parsed table
rows, and the reports of the verify campaign and of the tables'
consistency check are all Frozen values: each is built once and never
assigned after.

A value class names its fields once, in _fields.  Its __init__ runs its
checks and stores the fields with self._store(field, ...); a class with no
checks and no defaults needs no __init__, as _store is its __init__.  After
that no attribute can be assigned or deleted (FrozenError, an
AttributeError).  Two values are equal when they have the same type and
equal fields, and a value hashes as the tuple of its fields, as a frozen
dataclass does.  A class with no __repr__ of its own prints as
Name(field=value, ...).

A value keeps __dict__, so a cached_property can keep a derived value
beside the fields, as a Sylow term's text, a Product's hash and a classify
answer's report row are kept; it is the one way to keep one.  Equality,
hashing and the repr read only the fields, and pickles and copies carry
the __dict__ unless a class says otherwise.

Each class's _store, __eq__ and __hash__ are compiled from its field names,
in one exec when the class is created: attribute loads in compiled code are
faster than an operator.attrgetter or a loop over the names, and the memos
hash and compare their group keys on every lookup.  A class that defines
__eq__ or __hash__ keeps its own.
"""

from __future__ import annotations

_setattr = object.__setattr__


class FrozenError(AttributeError):
    """A field of a frozen value was assigned or deleted."""


class Frozen:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = ", ".join(cls._fields)
        mine = "".join(f"self.{name}," for name in cls._fields)
        theirs = "".join(f"other.{name}," for name in cls._fields)
        stores = "".join(f"    _setattr(self, {name!r}, {name})\n" for name in cls._fields)
        namespace: dict = {}
        exec(f"def _store(self, {names}):\n"
             f"{stores}"
             f"    pass\n"
             f"def __eq__(self, other):\n"
             f"    if other.__class__ is self.__class__:\n"
             f"        return ({mine}) == ({theirs})\n"
             f"    return NotImplemented\n"
             f"def __hash__(self):\n"
             f"    return hash(({mine}))\n", {"_setattr": _setattr}, namespace)
        for name, method in namespace.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            if name not in cls.__dict__:
                setattr(cls, name, method)
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._store

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
