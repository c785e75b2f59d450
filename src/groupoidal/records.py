"""Value records: one constructor, field-wise equality, hash and repr,
all read off `__slots__`.

A record's fields are its `__slots__`, in order, and its constructor
takes them as arguments: positionally in slot order or by name, with the
class's `defaults` filling the fields left out.  The package's report and
value classes declare their slots and inherit the rest, so importing the
package generates no code: the standard library's record decorator spent
about a millisecond per class doing so, a tenth of the command line's
start-up in all.  Only a class that checks or normalises its fields
writes its own constructor.
"""


class Record:
    """A mutable record.

    Two records are equal when they are of the same class and their slots,
    in order, are equal; like any mutable value a record is unhashable.
    The repr shows every slot but those named in `repr_hidden`.
    """

    __slots__ = ()
    defaults: dict = {}
    repr_hidden: tuple = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} fields "
                            f"but {len(args)} were given")
        # object.__setattr__ also sets the fields of a FrozenRecord
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self.defaults:
                value = self.defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() is missing field {name!r}")
            object.__setattr__(self, name, value)
        for name in kwargs:
            raise TypeError(f"{type(self).__name__}() got field {name!r} twice" if name in names
                            else f"{type(self).__name__}() has no field {name!r}")

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
