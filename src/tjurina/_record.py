"""Immutable value records without code generation.

A record class lists its fields in ``__slots__``, in constructor order, and
sets them in its own ``__init__`` through ``_set``.  The base gives what a
frozen dataclass gives: equality within the same class over the compared
fields, the hash of their tuple, the ``Name(field=value, ...)`` repr, and
an ``AttributeError`` on assignment or deletion.  Fields named in
``_hidden`` take no part in equality, hash or repr.
"""

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        shown = tuple(f for f in cls.__slots__ if f not in cls._hidden)
        key = attrgetter(*shown)

        # closures over one C getter, not generic methods that look the
        # fields up: MonomialOrder is hashed on every groebner._words lookup,
        # and the getter of one name returns the value, not a 1-tuple
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = ((lambda self: hash((key(self),))) if len(shown) == 1
                        else lambda self: hash(key(self)))
        cls._shown = shown
        cls.__match_args__ = cls.__slots__

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
