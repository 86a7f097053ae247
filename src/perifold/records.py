"""Value semantics for the package's plain record classes.

A record class names its constructor's parameters, in order, in `_fields`
and writes its own `__init__`.  `Record` gives it what `dataclasses` would
generate: `==` compares the fields as a tuple (`NotImplemented` against any
other class), and the repr names each field.  Fields in `_uncompared`
follow the others in the constructor and the repr, and stay out of `==`
and the hash.  A record is unhashable unless its class is declared with
`frozen=True`; then it hashes as the tuple of its compared fields and
refuses assignment, so its `__init__` sets fields with
`object.__setattr__`.

Writing these methods once here, rather than decorating each class, keeps
`dataclasses` and the `inspect` and `ast` modules it imports out of the
package's import.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the compared fields as a tuple, also when there is one
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))
        if frozen:
            cls.__hash__ = Record._hash
            cls.__setattr__ = Record._refuse_assignment
            cls.__delattr__ = Record._refuse_deletion

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields + self._uncompared)
        return f"{type(self).__qualname__}({shown})"

    def _hash(self) -> int:
        return hash(self._values(self))

    def _refuse_assignment(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _refuse_deletion(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
