"""Immutable record types built from one shared set of methods.

Methods generated per class at import, compiled with ``exec`` and with
``inspect`` imported to do so, cost about a millisecond per class; for a
command line whose commands run a few milliseconds, that dominates start-up.
:class:`Frozen` gives every record of this package the same behaviour from
methods that all of them share.
"""

from __future__ import annotations


class Fresh:
    """A field default made anew for each instance by calling ``make``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _frozen_error(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError  # paid for only on this error path

    return FrozenInstanceError(message)


class Frozen:
    """Base of an immutable record.

    A subclass's fields are the names it annotates, in order, and a class
    attribute of the same name is that field's default.  The constructor
    binds positional and keyword arguments to the fields, raising TypeError
    for a missing, unknown or repeated argument or for too many positional
    ones, stores them in ``__dict__`` in field order and then calls
    ``__post_init__``.  Instances are equal when they are of the same class
    and their fields are equal, hash as the tuple of their field values,
    print as ``QualName(field=value, ...)``, and refuse assignment and
    deletion with the standard library's ``FrozenInstanceError``, which
    callers may catch.  All state is in ``__dict__``, so :mod:`copy` and
    :mod:`pickle` restore an instance by filling its dict, not by assignment.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            given = f"{len(fields)} positional arguments but {len(args)} were given"
            raise TypeError(f"{type(self).__qualname__}() takes {given}")
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in self._defaults:
                default = self._defaults[name]
                values[name] = default.make() if type(default) is Fresh else default
            else:
                raise TypeError(f"{type(self).__qualname__}() missing required argument: {name!r}")
        for name in kwargs:
            problem = "got multiple values for" if name in values else "got an unexpected keyword"
            raise TypeError(f"{type(self).__qualname__}() {problem} argument {name!r}")
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if type(other) is type(self):
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in self.__dict__.items()])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen_error(f"cannot delete field {name!r}")
