"""Textual DSL for kernel expressions: parser and canonical printer.

Grammar (whitespace-insensitive)::

    expr   := term ('+' term)*
    term   := [number '*'] factor ('*' factor)*
    factor := call | '(' expr ')'
    call   := name '(' kwargs? ')'
            | 'tensor(' expr (',' expr)+ ')'
            | 'warp(' expr ',' call ')'
    kwargs := name '=' (number | name) (',' name '=' (number | name))*

Leaf names are those of the classes in ``kernels.LEAVES`` (matern,
wendland, se, rq, periodic, wiener, linear, poly, feature), the call that
ends a warp names one of ``kernels.WARPS`` (affine, abs_power), and the
parameters of either are its class's fields.  A leading ``number '*'`` on
a term is a conic weight and must be positive and finite; numeric
literals are not kernels on their own.  ``parse_kernel`` and ``print_kernel`` round-trip: parsing
the printed form reproduces a structurally equal tree.
"""

from __future__ import annotations

import math
import re

from ._base import MISSING, record
from .kernels import (
    LEAVES,
    WARPS,
    Conic,
    Kernel,
    Leaf,
    ParameterError,
    Product,
    TensorProduct,
    Warp,
    leaf_params,
)

__all__ = ["ParseError", "parse_kernel", "print_kernel"]


class ParseError(Exception):
    """Syntax or validation error, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[+*(),=])
    """,
    re.VERBOSE,
)


@record
class _Token:
    kind: str  # 'number' | 'name' | 'sym' | 'end'
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


_LEAVES = {cls.name: cls for cls in LEAVES}
_WARPS = {cls.name: cls for cls in WARPS}


def _build_leaf(cls, kwargs: dict[str, tuple], name_pos: int):
    # parameters are the fields of a leaf or warp family under their DSL
    # names; str fields take identifiers, int fields integers, the others
    # numbers
    name = cls.name
    params = leaf_params(cls)
    for key, (_value, pos, kind) in kwargs.items():
        if key not in params:
            raise ParseError(f"unknown parameter {key!r} for {name}", pos)
        want_name = params[key].type == "str"
        if want_name != (kind == "name"):
            expected = "an identifier" if want_name else "a number"
            raise ParseError(f"parameter {key!r} of {name} expects {expected}", pos)
    for key, f in params.items():
        if f.default is MISSING and key not in kwargs:
            raise ParseError(f"{name} requires parameter {key!r}", name_pos)
    args = {}
    for key, f in params.items():
        if key in kwargs:
            value, pos, _kind = kwargs[key]
            args[f.name] = _coerce_int(value, key, pos) if f.type == "int" else value
    try:
        return cls(**args)
    except ParameterError as exc:
        # a rejected parameter is reported at its value, other errors at the name
        offset = kwargs[exc.param][1] if exc.param in kwargs else name_pos
        raise ParseError(str(exc), offset) from exc


def _coerce_int(value: float, key: str, pos: int) -> int:
    if not math.isfinite(value) or value != int(value):
        raise ParseError(f"parameter {key!r} must be an integer", pos)
    return int(value)


def _check_dims(children: list[Kernel], positions: list[int], what: str) -> None:
    # a sum's terms and a product's factors share one input dimension; the
    # first child that differs is reported at its offset
    first = children[0].dim
    for child, pos in zip(children[1:], positions[1:]):
        if child.dim != first:
            raise ParseError(
                f"{what} of input dimension {child.dim} where the first has {first}", pos
            )


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r}", tok.pos)

    def parse(self) -> Kernel:
        expr = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return expr

    def parse_expr(self) -> Kernel:
        positions = [self.peek().pos]
        terms = [self.parse_term()]
        while self.peek().kind == "sym" and self.peek().text == "+":
            self.advance()
            positions.append(self.peek().pos)
            terms.append(self.parse_term())
        if len(terms) == 1 and terms[0][0] is None:
            return terms[0][1]
        _check_dims([k for _, k in terms], positions, "term")
        weights = tuple(1.0 if w is None else w for w, _ in terms)
        return Conic(tuple(k for _, k in terms), weights)

    def parse_term(self) -> tuple:
        weight = None
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            weight = float(tok.text)
            if weight <= 0.0:
                raise ParseError("conic weight must be positive", tok.pos)
            if weight == math.inf:
                raise ParseError("conic weight must be finite", tok.pos)
            self.expect("*")
        positions = [self.peek().pos]
        factors = [self.parse_factor()]
        while self.peek().kind == "sym" and self.peek().text == "*":
            self.advance()
            positions.append(self.peek().pos)
            factors.append(self.parse_factor())
        _check_dims(factors, positions, "factor")
        kernel = factors[0] if len(factors) == 1 else Product(tuple(factors))
        return (weight, kernel)

    def parse_factor(self) -> Kernel:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "number":
            raise ParseError(
                "a numeric literal is only allowed as a leading conic weight", tok.pos
            )
        if tok.kind == "name":
            return self.parse_call()
        raise ParseError(f"expected a kernel expression, got {tok.text!r}", tok.pos)

    def parse_call(self) -> Kernel:
        name_tok = self.advance()
        if name_tok.text == "tensor":
            self.expect("(")
            factors = [self.parse_expr()]
            while self.peek().text == ",":
                self.advance()
                factors.append(self.parse_expr())
            self.expect(")")
            if len(factors) < 2:
                raise ParseError("tensor(...) needs at least two factors", name_tok.pos)
            return TensorProduct(tuple(factors))
        if name_tok.text == "warp":
            self.expect("(")
            child = self.parse_expr()
            self.expect(",")
            fam_tok = self.advance()
            if fam_tok.kind != "name":
                raise ParseError("expected a warp family name", fam_tok.pos)
            family = self.parse_params(fam_tok, _WARPS, "warp family")
            self.expect(")")
            return Warp(child, family)
        return self.parse_params(name_tok, _LEAVES, "kernel name")

    def parse_params(self, name_tok: _Token, classes: dict, what: str):
        # a leaf or a warp family: its class by name, then its fields
        if name_tok.text not in classes:
            raise ParseError(f"unknown {what} {name_tok.text!r}", name_tok.pos)
        self.expect("(")
        kwargs = {}
        if self.peek().text != ")":
            kwargs = self.parse_kwargs()
        self.expect(")")
        return _build_leaf(classes[name_tok.text], kwargs, name_tok.pos)

    def parse_kwargs(self) -> dict[str, tuple]:
        kwargs = {}
        while True:
            key_tok = self.peek()
            if key_tok.kind != "name":
                raise ParseError("expected a parameter name", key_tok.pos)
            self.advance()
            self.expect("=")
            val_tok = self.peek()
            if val_tok.kind == "number":
                value = float(val_tok.text)
            elif val_tok.kind == "name":
                value = val_tok.text
            else:
                raise ParseError("expected a parameter value", val_tok.pos)
            self.advance()
            if key_tok.text in kwargs:
                raise ParseError(f"duplicate parameter {key_tok.text!r}", key_tok.pos)
            kwargs[key_tok.text] = (value, val_tok.pos, val_tok.kind)
            if self.peek().text != ",":
                return kwargs
            self.advance()


def parse_kernel(text: str) -> Kernel:
    """Parse a kernel DSL string into an expression tree."""
    return _Parser(text).parse()


def _fmt(value: float) -> str:
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _print_factor(expr: Kernel) -> str:
    # parenthesise sums and products when they appear as factors so the
    # printed form re-parses to the same tree shape
    if isinstance(expr, (Conic, Product)):
        return f"({print_kernel(expr)})"
    return print_kernel(expr)


def _print_params(obj) -> str:
    # a leaf or a warp family: required parameters always, the others when
    # off their defaults
    parts = []
    for key, f in leaf_params(type(obj)).items():
        value = getattr(obj, f.name)
        if f.default is MISSING or value != f.default:
            parts.append(f"{key}={_fmt(value) if f.type == 'float' else value}")
    return f"{obj.name}({', '.join(parts)})"


def print_kernel(expr: Kernel) -> str:
    """Canonical textual form; parse_kernel(print_kernel(e)) equals e."""
    if isinstance(expr, Leaf):
        return _print_params(expr)
    if isinstance(expr, Conic):
        terms = []
        single = len(expr.terms) == 1
        for child, w in zip(expr.terms, expr.weights):
            body = _print_factor(child)
            if w != 1.0 or single:
                terms.append(f"{_fmt(w)}*{body}")
            else:
                terms.append(body)
        return " + ".join(terms)
    if isinstance(expr, Product):
        return " * ".join(_print_factor(c) for c in expr.factors)
    if isinstance(expr, TensorProduct):
        return f"tensor({', '.join(print_kernel(c) for c in expr.factors)})"
    if isinstance(expr, Warp):
        return f"warp({print_kernel(expr.child)}, {_print_params(expr.family)})"
    raise TypeError(f"not a kernel expression: {expr!r}")
