"""Immutable value records, written out by hand.

Record is the base of the package's value types.  A subclass lists its
field names in _fields and fills them once, in its own __init__, with
_set().  Record gives it:

  - frozen fields: __setattr__ and __delattr__ raise AttributeError;
  - equality only with an instance of the very same class, by the tuple
    of field values, and the hash of that tuple;
  - the repr ClassName(field=value, ...).

A subclass that compares by identity sets __eq__ = object.__eq__ and
__hash__ = object.__hash__.  Instances keep a __dict__, so
functools.cached_property works on them.

as_int is the one integer check of every input a record takes: it
rejects bools and anything int() would truncate.  parse_rational is the
one rational parser of config and label maps.
"""

from __future__ import annotations

from fractions import Fraction


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        # One object.__setattr__ per field, as a dataclass does: touching
        # self.__dict__ would make CPython build a full dict per instance
        # instead of sharing the class's key table (248 against 104 bytes
        # for three fields on CPython 3.11).
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return self._format(self._fields)

    def _format(self, names: tuple[str, ...]) -> str:
        inside = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inside})"


def as_int(value, what: str) -> int:
    """value as an int: an integer (numpy's too), an integral number or a
    numeral string; never a bool (numpy's neither).  Otherwise ValueError
    naming value."""
    if type(value) is int:
        return value
    if not (isinstance(value, bool) or getattr(value, "dtype", None) == bool):
        try:
            n = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if isinstance(value, str) or n == value:
                return n
    raise ValueError(f"{what}: expected an integer, got {value!r}")


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from a "p/q" string (or int/Fraction)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None
