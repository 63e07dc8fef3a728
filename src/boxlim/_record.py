"""Frozen value records: the shared base of the library's small exact values.

A record names its fields in ``__slots__`` and stores them in its own
``__init__`` with ``setfield``; the base gives equality (same class, equal
fields), the hash of the field tuple, the ``Name(field=value, ...)`` repr,
read-only fields, and a ``__reduce__`` that rebuilds the record through its
``__init__``, so that copy, deepcopy and pickle work.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(
            get if len(cls.__slots__) > 1 else lambda obj: (get(obj),)
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._values(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
