"""Value classes without ``dataclasses``, whose import (it loads ``inspect``)
and generated methods cost every node and launcher process milliseconds.

A subclass lists its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``, which sets them with :func:`set_fields`, or
one by one with :data:`set_field` where a value is built per message.
The base compares, hashes, prints and copies values field by field, as
``@dataclass`` and ``@dataclass(frozen=True)`` do.
"""

set_field = object.__setattr__


def set_fields(value, *fields) -> None:
    for name, field in zip(value.__slots__, fields):
        set_field(value, name, field)


class Value:
    """A mutable value: equal when its fields are, and unhashable."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Frozen(Value):
    """An immutable value, hashable by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
