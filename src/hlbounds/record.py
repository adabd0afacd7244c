"""The base of the package's validated, immutable records.

A record lists its fields in ``__slots__``, the constructor's fields first
in their order and any derived fields after them.  Its ``__init__`` stores
the constructor's fields with ``_store`` and then calls
``self.__post_init__()``, which validates them and sets the derived ones, so
a hook placed on the class's ``__post_init__`` sees every construction.
Assignment and deletion raise AttributeError, and equality, hash and repr
read every field in slot order, as a frozen dataclass's do.  (A frozen
dataclass generates and compiles about six methods per class at import;
these are written once.)
"""


class Record:
    __slots__ = ()

    def _store(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore a slots object's fields through here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"
