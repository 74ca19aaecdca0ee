"""The base of the value classes, which makes them without generating code.

A subclass's annotations add its fields, in order; a class attribute of
the same name is a default, made anew per instance by ``Fresh(factory)``.
Instances are frozen (``frozen=False``: mutable and unhashable), compare
and hash by their fields (``eq=False``: by identity) and print as
``Name(field=value, ...)``. The fields live in the instance ``__dict__``,
which is what pickle and ``copy`` save and restore.
"""

from __future__ import annotations


class Fresh:
    def __init__(self, factory):
        self.factory = factory


class Value:
    def __init_subclass__(cls, frozen: bool = True, eq: bool = True):
        own = vars(cls).get("__annotations__", {})
        cls._fields = fields = (*getattr(cls, "_fields", ()), *own)
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        clash = len(args) > len(fields) or kwargs.keys() & fields[: len(args)]
        if clash or values.keys() != set(fields):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(fields)}; got "
                f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword"
            )
        for name, value in values.items():
            vars(self)[name] = value.factory() if isinstance(value, Fresh) else value
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__
