"""Restricted arithmetic expression language for problem-definition files.

Grammar (binding from loosest to tightest; ``^`` is right-associative,
everything else left-associative, unary minus sits between ``*``/``/``
and ``^``)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

Identifiers are the variables ``x y t u p q`` (``p``/``q`` are the two
gradient components), the constant ``pi``, the unary functions
``sin cos exp log sqrt abs tanh`` and the binary ``min max``.  Numbers
are plain decimals with an optional exponent; one that overflows to
infinity (``1e999``) is a syntax error.

Trees are immutable; :func:`evaluate` is side-effect free and accepts
scalar or numpy-array bindings (arrays must share a common broadcast
shape).  Any NaN or infinity produced during evaluation raises
:class:`~kernrec.errors.DomainFaultError` naming the offending
sub-expression instead of propagating silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import (
    ArityError,
    DomainFaultError,
    ExprSyntaxError,
    UnboundVariableError,
    UnknownIdentifierError,
)

VARIABLES = frozenset({"x", "y", "t", "u", "p", "q"})
FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "tanh": 1,
    "min": 2,
    "max": 2,
}
CONSTANTS = {"pi": np.pi}

# Deepest nesting the parser accepts, counted both ways: factors open on
# its own stack (parentheses, call arguments, exponents) and the height
# of the tree it builds (operator chains such as 1+1+...+1 are left-deep).
# Tree walks recurse, so a bound keeps them clear of the recursion limit.
MAX_DEPTH = 100


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expression", ...]


Expression = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^(),]))"
)


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace before reporting
            stripped = pos
            while stripped < n and source[stripped].isspace():
                stripped += 1
            if stripped == n:
                break
            raise ExprSyntaxError(
                f"unexpected character {source[stripped]!r}",
                _byte_offset(source, stripped),
            )
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("eof", "", n))
    return tokens


def _describe(tok: _Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0
        self.depth = 0  # factors open on the call stack
        self.heights: dict[int, int] = {}  # id(node) -> height, for inner nodes

    def bounded(self, level: int, tok: _Token) -> int:
        if level > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels",
                _byte_offset(self.source, tok.pos),
            )
        return level

    def node(self, tok: _Token, node: Expression, *children: Expression) -> Expression:
        """Record the height of a new inner node; ``tok`` locates an error."""
        height = 1 + max(self.heights.get(id(c), 1) for c in children)
        self.heights[id(node)] = self.bounded(height, tok)
        return node

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {what}, found {_describe(tok)}",
                _byte_offset(self.source, tok.pos),
            )
        return self.advance()

    def parse(self) -> Expression:
        tree = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.text!r}",
                _byte_offset(self.source, tok.pos),
            )
        return tree

    def expr(self) -> Expression:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            node = self.node(op, BinOp(op.kind, node, right), node, right)
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            right = self.factor()
            node = self.node(op, BinOp(op.kind, node, right), node, right)
        return node

    def factor(self) -> Expression:
        tok = self.peek()
        self.depth = self.bounded(self.depth + 1, tok)
        if tok.kind == "-":
            self.advance()
            operand = self.power()
            node = self.node(tok, Neg(operand), operand)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Expression:
        base = self.atom()
        if self.peek().kind == "^":
            op = self.advance()
            exponent = self.factor()
            return self.node(op, BinOp("^", base, exponent), base, exponent)
        return base

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not np.isfinite(value):
                raise ExprSyntaxError(
                    f"number {tok.text!r} is out of range",
                    _byte_offset(self.source, tok.pos),
                )
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "(":
                return self.call(name, tok)
            if name in VARIABLES:
                return Var(name)
            if name in CONSTANTS:
                return Num(CONSTANTS[name])
            raise UnknownIdentifierError(name, _byte_offset(self.source, tok.pos))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        raise ExprSyntaxError(
            f"expected expression, found {_describe(tok)}",
            _byte_offset(self.source, tok.pos),
        )

    def call(self, name: str, tok: _Token) -> Expression:
        if name not in FUNCTIONS:
            raise UnknownIdentifierError(name, _byte_offset(self.source, tok.pos))
        self.expect("(", "'('")
        args = [self.expr()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.expr())
        close = self.expect(")", "')' or ','")
        arity = FUNCTIONS[name]
        if len(args) != arity:
            raise ArityError(name, arity, len(args), _byte_offset(self.source, close.pos))
        return self.node(tok, Call(name, tuple(args)), *args)


def parse(source: str) -> Expression:
    """Parse ``source`` into an expression tree.

    Raises :class:`ExprSyntaxError`, :class:`UnknownIdentifierError` or
    :class:`ArityError`, each carrying the byte offset of the problem.
    Nesting beyond ``MAX_DEPTH`` levels is a syntax error.
    """
    return _Parser(source).parse()


def variables(e: Expression) -> frozenset[str]:
    """Set of variable names occurring in the tree."""
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, Neg):
        return variables(e.operand)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Call):
        out: frozenset[str] = frozenset()
        for a in e.args:
            out |= variables(a)
        return out
    return frozenset()


# numpy ufuncs backing each function name
_UFUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "min": np.minimum,
    "max": np.maximum,
}


def _check_finite(out, node: Expression, what: str):
    if not np.all(np.isfinite(out)):
        raise DomainFaultError(what, pretty(node))
    return out


def _eval(e: Expression, env: Mapping[str, object]):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, BinOp):
        left = _eval(e.left, env)
        right = _eval(e.right, env)
        with np.errstate(all="ignore"):
            if e.op == "+":
                return _check_finite(np.add(left, right), e, "overflow")
            if e.op == "-":
                return _check_finite(np.subtract(left, right), e, "overflow")
            if e.op == "*":
                return _check_finite(np.multiply(left, right), e, "overflow")
            if e.op == "/":
                if np.any(right == 0):
                    raise DomainFaultError("division by zero", pretty(e))
                return _check_finite(np.divide(left, right), e, "overflow")
            # right-associative power
            return _check_finite(np.power(left, right, dtype=float), e, "invalid power")
    if isinstance(e, Call):
        args = [_eval(a, env) for a in e.args]
        if e.func == "log" and np.any(np.asarray(args[0]) <= 0):
            raise DomainFaultError("log of non-positive value", pretty(e))
        if e.func == "sqrt" and np.any(np.asarray(args[0]) < 0):
            raise DomainFaultError("sqrt of negative value", pretty(e))
        with np.errstate(all="ignore"):
            return _check_finite(_UFUNCS[e.func](*args), e, "domain fault")
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expression, env: Mapping[str, object]):
    """Evaluate the tree in IEEE double precision.

    ``env`` must bind every variable occurring in ``e``; values may be
    floats or numpy arrays.  Returns a float for scalar bindings, else
    an array.  Domain faults raise instead of returning NaN/inf.
    """
    for name in variables(e):
        if name not in env:
            raise UnboundVariableError(name)
    out = _eval(e, env)
    if np.ndim(out) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def pretty(e: Expression) -> str:
    """Render the tree with minimal parentheses.

    Re-parsing the result yields a structurally identical tree.
    """
    return _print_expr(e)


def _print_expr(e: Expression) -> str:
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        return f"{_print_expr(e.left)} {e.op} {_print_term(e.right)}"
    return _print_term(e)


def _print_term(e: Expression) -> str:
    if isinstance(e, BinOp) and e.op in ("*", "/"):
        return f"{_print_term(e.left)}{e.op}{_print_factor(e.right)}"
    return _print_factor(e)


def _print_factor(e: Expression) -> str:
    if isinstance(e, Neg):
        return f"-{_print_power(e.operand)}"
    return _print_power(e)


def _print_power(e: Expression) -> str:
    if isinstance(e, BinOp) and e.op == "^":
        return f"{_print_atom(e.left)}^{_print_factor(e.right)}"
    return _print_atom(e)


def _print_atom(e: Expression) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({', '.join(_print_expr(a) for a in e.args)})"
    return f"({_print_expr(e)})"
