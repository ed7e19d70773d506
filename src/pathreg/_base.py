"""Frozen value records and lazily imported modules, shared by pathreg's
modules.

``record`` makes a class a frozen value record, as the standard library's
``dataclass(frozen=True)`` does, without importing that module (which
loads ``inspect`` and with it ``ast``, ``dis`` and ``tokenize``) and
without compiling source text for each method of each class: the methods'
code is compiled once per field count, whatever the count, and each class
takes a copy renamed to its fields.  Those two took about 20 ms of a cold
``pathreg analyze``.

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

import functools
import sys
from types import CodeType, MappingProxyType

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

    methods = _methods(len(names), hasattr(cls, "__post_init__"))
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
# generate, written by ``_template`` with the placeholders f0, f1, ... for
# the fields and compiled once per field count.  ``_rename`` puts the field names
# in place of the placeholders in a copy of each method's code: as
# parameters, so Python itself binds positional and keyword arguments and
# defaults and names a missing or unexpected one; as attribute names; and as
# string constants.  So a record's methods run the same instructions as
# written-out ones, at the same cost.
@functools.cache
def _template(k: int, post_init: bool) -> CodeType:
    """The code defining ``__init__``, ``__eq__`` and ``__hash__`` over the
    placeholders f0 ... f(k-1), calling ``__post_init__`` if ``post_init``."""
    ps = [f"f{i}" for i in range(k)]
    mine = "".join(f"self.{p}, " for p in ps)
    theirs = "".join(f"other.{p}, " for p in ps)
    source = "\n".join([
        f"def __init__(self, {', '.join(ps)}):",
        *(f"    _set(self, {p!r}, {p})" for p in ps),
        "    self.__post_init__()" if post_init else "    pass",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
    ])
    return compile(source, f"<record of {k} fields>", "exec")


def _methods(k: int, post_init: bool):
    """New ``__init__``, ``__eq__`` and ``__hash__`` functions of k fields."""
    scope = {"__name__": __name__, "_set": _set}
    exec(_template(k, post_init), scope)
    return scope["__init__"], scope["__eq__"], scope["__hash__"]


def _rename(method, names: tuple[str, ...], cls) -> None:
    rename = {f"f{i}": name for i, name in enumerate(names)}
    code = method.__code__
    method.__code__ = code.replace(
        co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
        co_names=tuple(rename.get(n, n) for n in code.co_names),
        co_consts=tuple(rename.get(c, c) if isinstance(c, str) else c for c in code.co_consts),
    )
    method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"


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
