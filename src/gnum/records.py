"""Records: immutable classes declared by their annotated fields.

A subclass of ``Record`` is what ``dataclasses.dataclass(frozen=True)``
makes of a class.  ``__init__`` takes the annotated fields, its bases'
first, with the class-level values as their defaults, and calls
``__post_init__`` if the class has one.  ``==`` compares the tuples of
fields (``rec._values()``, named by ``_fields``) of two records of one
type, ``hash`` hashes it, the repr is ``Name(field=value, ...)``, and
assigning or deleting an attribute raises ``FrozenInstanceError``.  A
method the class defines wins.

A dataclass writes six methods as source text for each class and
compiles them in every process.  A record shares the compiled methods of
``Record``, and takes ``__init__``, ``__eq__`` and ``_values`` from a
template per number of fields, compiled once per process and renamed to
the class's fields, so its keywords, defaults and ``inspect.signature``
are those of the dataclass.
"""

from dataclasses import FrozenInstanceError
from functools import lru_cache
from types import FunctionType

_set = object.__setattr__


@lru_cache(maxsize=None)
def _templates(n: int, post: bool):
    """(__init__, __eq__, _values) of the fields ``_0`` .. ``_{n-1}``;
    ``post``: ``__init__`` ends by calling ``__post_init__``."""
    names = [f"_{i}" for i in range(n)]
    sets = "".join(f"\n    _set(self, {a!r}, {a})" for a in names)
    mine, theirs = ("".join(f"{who}.{a}, " for a in names)
                    for who in ("self", "other"))
    space = {"_set": _set}
    exec(f"def __init__(self, {', '.join(names)}):{sets}\n"
         f"    {'self.__post_init__()' if post else 'pass'}\n"
         "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         "    return NotImplemented\n"
         f"def _values(self):\n    return ({mine})\n", space)
    return space["__init__"], space["__eq__"], space["_values"]


def _renamed(template, cls, defaults=None):
    """``template`` with each ``_i`` read as the field ``cls._fields[i]``."""
    name = dict(zip([f"_{i}" for i in range(len(cls._fields))],
                    cls._fields)).get
    code = template.__code__
    code = code.replace(**{k: tuple(name(x, x) for x in getattr(code, k))
                           for k in ("co_varnames", "co_names", "co_consts")})
    fn = FunctionType(code, template.__globals__, template.__name__, defaults)
    fn.__module__ = cls.__module__
    fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    return fn


class Record:
    """Base class of records (see the module docstring)."""

    __slots__ = ()

    def __init_subclass__(cls):
        declared = {}
        for c in reversed(cls.__mro__):
            declared.update(c.__dict__.get("__annotations__", {}))
        cls._fields = names = tuple(declared)
        # the defaults of the fields from the first one with a default on;
        # a field without one among them raises AttributeError
        first = sum(not hasattr(cls, n) for n in names)
        init, eq, values = _templates(len(names),
                                      hasattr(cls, "__post_init__"))
        init = _renamed(init, cls, tuple(
            getattr(cls, n) for n in names[first:]) or None)
        init.__annotations__ = {**declared, "return": None}
        for fn in (init, _renamed(eq, cls), _renamed(values, cls)):
            if fn.__name__ not in cls.__dict__:
                setattr(cls, fn.__name__, fn)

    def __repr__(self):
        pairs = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy with the fields ``changes`` given new values; a name that
        is no field reaches ``__init__`` as a keyword, which refuses it."""
        values = [*map(changes.pop, self._fields, self._values())]
        return type(self)(*values, **changes)
