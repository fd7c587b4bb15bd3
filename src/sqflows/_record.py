"""The immutable base of the library's records.

A record class names its fields in ``_fields``, in constructor order, the
fields that equality and hashing ignore in ``_uncompared``, and those its
repr leaves out in ``_hidden``.  Its own ``__init__`` stores the fields with
``self.__dict__.update``; after that no attribute can be set or deleted,
though ``functools.cached_property`` still fills ``__dict__``.  Two
records are equal when they are of one class and their compared fields are
equal; the hash is that of the tuple of compared values, and the repr reads
``Name(field=value, ...)``.
"""

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        compared = [name for name in cls._fields if name not in cls._uncompared]
        get = attrgetter(*compared)
        # the tuple of compared values, one field or more
        cls._key = staticmethod(get if len(compared) > 1 else lambda record: (get(record),))
        cls._shown = tuple(name for name in cls._fields if name not in cls._hidden)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
