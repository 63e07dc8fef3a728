"""Frozen value records: the shared base of the library's small exact values.

A record names its fields in ``__slots__``.  A record type that defines no
``__init__`` of its own gets one, compiled once when the class is created:
one parameter per field in slot order, named as the slot, with trailing
defaults from the class tuple ``_defaults``; it stores each argument as it
is.  A type that converts or validates its inputs writes its own
``__init__`` and stores each field with ``setfield``.  The base gives
equality (same class, equal fields), the hash of the field tuple, the
``Name(field=value, ...)`` repr, read-only fields, and a ``__reduce__`` that
rebuilds the record through its ``__init__``, so that copy, deepcopy and
pickle work.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


def compile_function(name: str, params, body: str, namespace: dict,
                     defaults: tuple = ()):
    """The function ``def name(params): body``, compiled once from source in
    ``namespace``, with ``defaults`` for its trailing parameters.  Each
    parameter is a real one, so a call binds its arguments as fast as a
    hand-written function does."""
    exec(f"def {name}({', '.join(params)}):\n    {body}", namespace)
    function = namespace[name]
    function.__defaults__ = defaults or None
    return function


class Record:
    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__slots__
        get = attrgetter(*slots)
        cls._values = staticmethod(
            get if len(slots) > 1 else lambda obj: (get(obj),)
        )
        if "__init__" not in cls.__dict__:
            init = compile_function(
                "__init__", ("self", *slots),
                "\n    ".join(f"setfield(self, {s!r}, {s})" for s in slots),
                {"__name__": cls.__module__, "setfield": setfield}, cls._defaults,
            )
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

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
