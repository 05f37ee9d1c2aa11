"""The immutable base of the value types whose ``__init__`` checks its arguments
and then writes them into the instance dict, the one write a record takes."""

from operator import attrgetter

__all__ = ["Record"]


class Record:
    """An immutable record whose fields are its class's annotated names, in order.

    Records of one class with equal fields are equal and hash alike; the repr is
    ``Name(field=value, ...)``; assignment and deletion raise AttributeError;
    copy and pickle rebuild a record through its ``__init__`` from its fields."""

    def __init_subclass__(cls):
        fields = cls._fields = tuple(cls.__annotations__)
        get = attrgetter(*fields)  # of one name, it returns the bare value
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values
