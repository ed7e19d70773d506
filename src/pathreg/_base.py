"""Frozen value records and lazily imported modules, shared by pathreg's
modules.

``record`` makes a class a frozen value record, as the standard library's
``dataclass(frozen=True)`` does, without importing that module (which
loads ``inspect`` and with it ``ast``, ``dis`` and ``tokenize``) and
without compiling source text for each method of each class.  Those two
took about 20 ms of a cold ``pathreg analyze``.

A record's fields are the annotations of its class body, after the fields
of its record base classes, except those annotated ``ClassVar``; a field's
default is the value assigned to it in the class body, or the ``default``
of a ``field(default=..., metadata=...)`` assigned there, and a field
without one is required.  A record class gets

* ``__init__``, taking the fields in order, by position or by name, and
  then calling ``__post_init__`` when the class has one (a
  ``__post_init__`` that normalises a field sets it with
  ``object.__setattr__``);
* equality of the field values between instances of one class, and the
  hash of the field values, as a frozen dataclass has;
* the dataclass repr, ``Name(field=value, ...)``;
* assignment and deletion of attributes that raise ``AttributeError``.

``fields(cls)`` lists a record's fields, and ``replace(obj, **changes)``
builds a changed copy through ``__init__``, so its checks run again.
"""

from __future__ import annotations

import sys
from types import MappingProxyType

__all__ = ["MISSING", "Field", "field", "fields", "record", "replace", "LazyModule"]

_set = object.__setattr__


MISSING = object()  # the default of a required field


class Field:
    """One field of a record: its ``name``, its annotation as written
    (``type``; a string under postponed evaluation), its ``default``
    (``MISSING`` when the field is required) and its ``metadata``."""

    __slots__ = ("name", "type", "default", "metadata")

    def __init__(self, default=MISSING, metadata=None):
        self.name = self.type = None
        self.default = default
        self.metadata = MappingProxyType(dict(metadata or {}))


def field(*, default=MISSING, metadata=None) -> Field:
    """Declare a field with metadata, or a required one with metadata."""
    return Field(default, metadata)


def fields(cls) -> tuple[Field, ...]:
    """The fields of a record class or instance, in ``__init__`` order."""
    return cls.__record_fields__


def replace(obj, **changes):
    """A new record of ``obj``'s class with ``changes`` applied to its
    fields; ``__init__`` and ``__post_init__`` check it as a new one."""
    for f in fields(obj):
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return type(obj)(**changes)


def record(cls):
    """Make ``cls`` a frozen record, as the module docstring describes."""
    own = {}
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        if str(annotation).startswith(("ClassVar", "typing.ClassVar")):
            continue
        f = cls.__dict__.get(name, MISSING)
        if not isinstance(f, Field):
            f = Field(f)
        f.name, f.type = name, annotation
        own[name] = f
        # the class attribute is the default, as on a dataclass
        if f.default is not MISSING:
            setattr(cls, name, f.default)
        elif name in cls.__dict__:
            delattr(cls, name)
    inherited = {
        f.name: f for base in reversed(cls.__mro__[1:]) for f in getattr(base, "__record_fields__", ())
    }
    all_fields = tuple({**inherited, **own}.values())
    names = tuple(f.name for f in all_fields)
    defaults = tuple(f.default for f in all_fields if f.default is not MISSING)
    if any(f.default is MISSING for f in all_fields[len(all_fields) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: a required field follows a field with a default")

    if len(names) >= len(_METHODS):
        raise TypeError(f"{cls.__qualname__}: a record has at most {len(_METHODS) - 1} fields")
    methods = _METHODS[len(names)](hasattr(cls, "__post_init__"))
    for method in methods:
        _rename(method, names, cls)
    methods[0].__defaults__ = defaults or None

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    cls.__record_fields__ = all_fields
    cls.__init__, cls.__eq__, cls.__hash__ = methods
    cls.__repr__, cls.__setattr__, cls.__delattr__ = __repr__, _refuse_assign, _refuse_delete
    return cls


def _refuse_assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


# The methods of a record of k fields are those a frozen dataclass would
# generate, written out below once for each k with the placeholders f0, f1,
# ... for the fields.  ``_rename`` puts the field names in place of the
# placeholders in a copy of each method's code: as parameters, so Python
# itself binds positional and keyword arguments and defaults and names a
# missing or unexpected one; as attribute names; and as string constants.
# So a record's methods run the same instructions as written-out ones, at
# the same cost.
_PLACEHOLDERS = ("f0", "f1", "f2", "f3", "f4", "f5", "f6")


def _rename(method, names: tuple[str, ...], cls) -> None:
    rename = dict(zip(_PLACEHOLDERS, names))
    code = method.__code__
    method.__code__ = code.replace(
        co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
        co_names=tuple(rename.get(n, n) for n in code.co_names),
        co_consts=tuple(rename.get(c, c) if isinstance(c, str) else c for c in code.co_consts),
    )
    method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"


def _methods0(post_init: bool):
    def __init__(self):
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())

    return __init__, __eq__, __hash__


def _methods1(post_init: bool):
    def __init__(self, f0):
        _set(self, "f0", f0)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.f0,) == (other.f0,)
        return NotImplemented

    def __hash__(self):
        return hash((self.f0,))

    return __init__, __eq__, __hash__


def _methods2(post_init: bool):
    def __init__(self, f0, f1):
        _set(self, "f0", f0)
        _set(self, "f1", f1)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1) == (other.f0, other.f1)
        return NotImplemented

    def __hash__(self):
        return hash((self.f0, self.f1))

    return __init__, __eq__, __hash__


def _methods3(post_init: bool):
    def __init__(self, f0, f1, f2):
        _set(self, "f0", f0)
        _set(self, "f1", f1)
        _set(self, "f2", f2)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1, self.f2) == (other.f0, other.f1, other.f2)
        return NotImplemented

    def __hash__(self):
        return hash((self.f0, self.f1, self.f2))

    return __init__, __eq__, __hash__


def _methods4(post_init: bool):
    def __init__(self, f0, f1, f2, f3):
        _set(self, "f0", f0)
        _set(self, "f1", f1)
        _set(self, "f2", f2)
        _set(self, "f3", f3)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1, self.f2, self.f3) == (other.f0, other.f1, other.f2, other.f3)
        return NotImplemented

    def __hash__(self):
        return hash((self.f0, self.f1, self.f2, self.f3))

    return __init__, __eq__, __hash__


def _methods5(post_init: bool):
    def __init__(self, f0, f1, f2, f3, f4):
        _set(self, "f0", f0)
        _set(self, "f1", f1)
        _set(self, "f2", f2)
        _set(self, "f3", f3)
        _set(self, "f4", f4)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1, self.f2, self.f3, self.f4) == (
                other.f0, other.f1, other.f2, other.f3, other.f4)
        return NotImplemented

    def __hash__(self):
        return hash((self.f0, self.f1, self.f2, self.f3, self.f4))

    return __init__, __eq__, __hash__


def _methods6(post_init: bool):
    def __init__(self, f0, f1, f2, f3, f4, f5):
        _set(self, "f0", f0)
        _set(self, "f1", f1)
        _set(self, "f2", f2)
        _set(self, "f3", f3)
        _set(self, "f4", f4)
        _set(self, "f5", f5)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1, self.f2, self.f3, self.f4, self.f5) == (
                other.f0, other.f1, other.f2, other.f3, other.f4, other.f5)
        return NotImplemented

    def __hash__(self):
        return hash((self.f0, self.f1, self.f2, self.f3, self.f4, self.f5))

    return __init__, __eq__, __hash__


def _methods7(post_init: bool):
    def __init__(self, f0, f1, f2, f3, f4, f5, f6):
        _set(self, "f0", f0)
        _set(self, "f1", f1)
        _set(self, "f2", f2)
        _set(self, "f3", f3)
        _set(self, "f4", f4)
        _set(self, "f5", f5)
        _set(self, "f6", f6)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.f0, self.f1, self.f2, self.f3, self.f4, self.f5, self.f6) == (
                other.f0, other.f1, other.f2, other.f3, other.f4, other.f5, other.f6)
        return NotImplemented

    def __hash__(self):
        return hash((self.f0, self.f1, self.f2, self.f3, self.f4, self.f5, self.f6))

    return __init__, __eq__, __hash__


_METHODS = (_methods0, _methods1, _methods2, _methods3, _methods4, _methods5, _methods6, _methods7)


class LazyModule:
    """A module imported on the first attribute taken from it.  That access
    binds the module itself as ``alias`` in the namespace ``scope``, so the
    calls after it look the module up directly.  A pathreg module that only
    builds and reads kernel expressions (parsing, inference, printing)
    thus never loads numpy or ``specfun``."""

    def __init__(self, scope: dict, alias: str, module: str):
        self._scope, self._alias, self._module = scope, alias, module

    def __getattr__(self, name: str):
        __import__(self._module)
        module = sys.modules[self._module]
        self._scope[self._alias] = module
        return getattr(module, name)
