"""Immutable value records with hand-written methods.

A value class's fields are its ``__init__`` parameters, in order.  The
``__init__`` checks its arguments first, then stores each field once, with
one ``object.__setattr__`` line; a field cannot be assigned or deleted
afterwards.  ``LagrangianTriple`` alone checks after storing, in a
``__post_init__`` hook of its own, because the benchmark's tracer counts its
check by wrapping that method.  Stored one per line, fields cost no more to
build or read than the decorator-made classes they replace; a loop over the
fields would slow every build.
``==`` and ``hash`` read the tuple of the fields not named in
``_uncompared``, so identical members short-circuit.
``functools.cached_property`` caches sit in the instance dict beside the
fields, and ``==``, ``hash`` and `replace` never read them.  The standard
library's record decorator would cost every command the import of
``inspect``, ``ast`` and ``dis``, and each class an ``exec`` of its
generated methods.
"""

from __future__ import annotations


class Value:
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._compared = tuple(name for name in cls._fields if name not in cls._uncompared)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


def replace(record: Value, **changes) -> Value:
    """A copy of the record with the given fields changed, built by its
    constructor, so it is validated again."""
    for name in record._fields:
        changes.setdefault(name, getattr(record, name))
    return type(record)(**changes)
