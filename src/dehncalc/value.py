"""The one base of the package's immutable shapes and records.

A class's fields are the parameters of its own ``__init__``, read once
from the code object when the class is made, and that ``__init__`` is
its one normalising hook: it writes each field, in declared order, into
the instance ``__dict__``.  (One ``self.__dict__.update(...)`` makes a
dict whose fields read fast; item writes are quicker to make and slower
to read, which suits records that are read once.)  The base gives the
rest: ``==`` between instances of one class, ``hash`` of the tuple of
fields, a ``Name(field=value, ...)`` repr, and assignment and deletion
that raise ``AttributeError``.  Copy and pickle are the defaults, which
restore the ``__dict__``.  A field may hold a list that its owner
extends in place.
"""


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = getattr(cls.__init__, "__code__", None)
        cls._fields = code.co_varnames[1:code.co_argcount] if code else ()

    def __eq__(self, other):
        # One C comparison: the __dict__ holds the fields, and anything
        # else __init__ stores there is derived from them and equal
        # whenever they are.
        if type(other) is type(self):
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; "
                             f"cannot change {name!r}")

    __delattr__ = __setattr__
