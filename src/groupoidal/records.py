"""Value records: field-wise equality, hash and repr read off `__slots__`.

The package's report and value classes list their fields in `__slots__`,
write their constructors out, and inherit these methods, so importing the
package generates no code: the standard library's record decorator spent
about a millisecond per class doing so, a tenth of the command line's
start-up in all.
"""


class Record:
    """A mutable record.

    Two records are equal when they are of the same class and their slots,
    in order, are equal; like any mutable value a record is unhashable.
    The repr shows every slot but those named in `repr_hidden`.
    """

    __slots__ = ()
    repr_hidden: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                          if name not in self.repr_hidden)
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    """An immutable record, hashed by its slots.

    Assignment and deletion raise AttributeError; constructors set the
    slots with `object.__setattr__`.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
