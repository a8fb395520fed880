"""Immutable records, the base of the package's value classes.

A subclass lists its fields as class annotations, in order, and a class
attribute of the same name is that field's default.  Records are built by
position or keyword, checked by an optional ``__post_init__``, compared and
hashed by their field values, printed as ``Name(field=value, ...)`` and
cannot be changed after construction, as frozen dataclasses are.  Every
method lives on this base class, so defining a record generates no code:
building the package's records with ``dataclasses`` took about a
millisecond per class on every fresh import of the package.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _names: frozenset[str] = frozenset()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._names = frozenset(cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        values = dict(zip(cls._fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs):
            raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
        if values.keys() != cls._names:
            values = {**cls._defaults, **values}
            if values.keys() != cls._names:
                missing = sorted(cls._names - values.keys())
                unknown = sorted(values.keys() - cls._names)
                raise TypeError(f"{cls.__name__}() missing fields {missing}, "
                                f"unknown fields {unknown}")
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self):
        """Validation hook, run after every construction."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__[name] for name in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def asdict(self) -> dict:
        """The fields and their values, in field order (not recursive)."""
        return {name: self.__dict__[name] for name in self._fields}

    def replace(self, **changes):
        """A copy with some fields changed, checked like a new record."""
        return type(self)(**{**self.__dict__, **changes})
