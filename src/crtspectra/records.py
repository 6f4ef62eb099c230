"""Plain record classes with a dataclass's behaviour.

Importing dataclasses loads inspect as well, about 13 ms of a cold start,
so the records that bm, verify, bench and report build derive from these
two bases instead. A record's fields are its class's __slots__, in order.
"""


class Record:
    """Built from its fields by position or keyword, then checked by the
    class's __post_init__ if it has one. Equal when the classes and every
    field are; the repr names each field. Mutable and unhashable, as a
    plain @dataclass is."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if (len(args) + len(kwargs) != len(names)
                or values.keys() != set(names)):
            raise TypeError(f"{type(self).__qualname__} takes the fields"
                            f" {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record that refuses assignment and deletion and hashes by its
    fields, as a frozen dataclass does."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
