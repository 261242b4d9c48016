"""Plain value classes: field-wise equality, hash and repr without ``dataclasses``.

A ``Record`` lists its fields, in constructor order, as ``__slots__`` (plus
``"__dict__"`` where a ``cached_property`` needs one) and writes its own
``__init__``.  Records of one class with equal fields are equal, and print as
``Name(field=value, ...)``.  A ``frozen=True`` record hashes by its fields and
refuses assignment: its ``__init__`` sets fields through ``set_field(s)``.
"""

from operator import attrgetter

set_field = object.__setattr__


def set_fields(record, *values):
    for name, value in zip(record._fields, values):
        set_field(record, name, value)


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False):
        super().__init_subclass__()
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        key = attrgetter(*cls._fields)  # the tuple of fields, or the one field

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None  # as dataclass
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, f) for f in self._fields)
