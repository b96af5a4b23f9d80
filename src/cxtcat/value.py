"""Immutable value classes, without code generated per class.

Every structure of the package is a finite value that never changes once
built.  A class becomes one by deriving from ``Value`` and declaring its
fields as class annotations, in order; a trailing field may carry a default
as its class attribute.  ``__init_subclass__`` reads the annotations once
into ``_fields`` and the names that equality and hashing read into
``_compared``; the class keyword ``uncompared`` names the fields left out
of both, such as a decoding table derived from the compared ones::

    class SemLattice(Value, uncompared=("intents",)):
        context: FormalContext
        semilattice: JoinSemilattice
        intents: dict[str, frozenset[str]]

``__eq__``, ``__hash__``, ``__repr__``, ``__setattr__`` and ``__delattr__``
are written once here and shared.  They behave as those of a frozen
dataclass:

- two values are equal when they are of the same class and their tuples of
  compared fields are equal (so a field compares by identity first);
- the hash is ``hash`` of that tuple;
- ``repr`` lists every field as ``Class(name=value, ...)``;
- assigning or deleting any attribute raises ``AttributeError``.  Builders
  and caches write the instance ``__dict__`` directly, as
  ``functools.cached_property`` does.

A class that defines its own ``__eq__``, ``__hash__``, ``__repr__``,
``__setattr__`` or ``__delattr__`` keeps it.  A class without its own
``__init__`` gets one that takes the fields by position only, stores them
and then calls ``self.__post_init__()``, the class's validator (a no-op
unless the class defines one), by attribute lookup.  A subclass of a value
class that declares no fields of its own keeps those of its base.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class Value:
    """Base of the value classes; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, *, uncompared: tuple[str, ...] = (), **kw):
        super().__init_subclass__(**kw)
        if "__annotations__" not in cls.__dict__:
            return  # a subclass declaring no fields keeps those of its base
        fields = tuple(cls.__annotations__)
        if not set(uncompared) <= set(fields):
            raise TypeError(f"{cls.__name__}: uncompared {uncompared} are not all fields")
        given = [cls.__dict__.get(f, _MISSING) for f in fields]
        defaults = tuple(v for v in given if v is not _MISSING)
        if _MISSING in given[len(fields) - len(defaults):]:
            raise TypeError(f"{cls.__name__}: a field without a default follows one with it")
        cls._fields = fields
        cls._compared = tuple(f for f in fields if f not in uncompared)
        cls._key = _key(cls._compared)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _init(fields, defaults)

    def __post_init__(self):
        pass

    def __eq__(self, other):
        # A value equals itself: its compared tuple holds the same objects.
        if self is other:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _key(names: tuple[str, ...]):
    """The function from a value to the tuple of its ``names`` fields.  An
    ``attrgetter`` of several names returns that tuple and, being no
    descriptor, is stored as it is; for one name a function wraps the
    value in a tuple and is stored as a ``staticmethod``."""
    get = attrgetter(*names)
    if len(names) > 1:
        return get
    return staticmethod(lambda self: (get(self),))


def _init(fields: tuple[str, ...], defaults: tuple):
    """An ``__init__`` taking ``fields`` by position, the last
    ``len(defaults)`` of them optional."""
    least = len(fields) - len(defaults)
    takes = f"{least} to {len(fields)}" if defaults else str(len(fields))

    def __init__(self, *args):
        if not least <= len(args) <= len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {takes} positional arguments "
                f"but {len(args)} were given"
            )
        self.__dict__.update(zip(fields, args + defaults[len(args) - least:]))
        self.__post_init__()

    return __init__
