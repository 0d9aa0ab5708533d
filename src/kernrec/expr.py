"""Restricted arithmetic expression language for problem-definition files.

Grammar; the table ``_LEVELS`` holds the operator levels, which both the
parser and :func:`pretty` read.  ``^`` is right-associative, the other
binary operators are left-associative::

    sum     := product (("+" | "-") product)*
    product := factor (("*" | "/") factor)*
    factor  := ("-")? power
    power   := atom ("^" factor)?
    atom    := NUMBER | IDENT | IDENT "(" sum ("," sum)* ")" | "(" sum ")"

Identifiers are the variables ``x y t u p q`` (``p``/``q`` are the two
gradient components; ``y`` and ``q`` exist on a rectangle only), the
constant ``pi``, the unary functions ``sin cos exp log sqrt abs tanh``
and the binary ``min max``.  Numbers are plain decimals of the ASCII
digits 0-9 with an optional exponent; one that overflows to infinity
(``1e999``) is a syntax error.

Trees are immutable NamedTuple nodes; :func:`evaluate` is side-effect
free and accepts scalar or numpy-array bindings (arrays must share a
common broadcast shape).  Any NaN or infinity produced during
evaluation raises :class:`~kernrec.errors.DomainFaultError` naming the
offending sub-expression instead of propagating silently.

A tree evaluated many times goes through :func:`compile` first: it
becomes nested numpy closures, with constants and the sub-trees over
the bound variables evaluated once.  A compiled evaluation runs with
numpy's overflow, divide-by-zero and invalid-value flags raising and
checks that its result is finite; on a flag or a non-finite result it
re-runs the interpreter, which checks every node and names the fault.
Values and errors are the interpreter's, bit for bit.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, NamedTuple, Union

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


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Expression"


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


class Call(NamedTuple):
    func: str
    args: tuple["Expression", ...]


Expression = Union[Num, Var, Neg, BinOp, Call]

# Operator levels, loosest first: ``+ -``, ``* /``, unary minus, ``^``, atoms.
# The parser's chains and `pretty` both read them.
_SUM, _PRODUCT, _NEG, _POWER, _ATOM = range(5)
_LEVELS = {"+": _SUM, "-": _SUM, "*": _PRODUCT, "/": _PRODUCT, "^": _POWER}

# one token per match; finditer skips the whitespace between them
_TOKEN_RE = re.compile(
    r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^(),])"
    r"|(?P<bad>\S)"
)


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


class _Token(NamedTuple):
    kind: str  # "num", "ident", "eof" or the operator itself
    text: str
    pos: int  # character index into the source


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise ExprSyntaxError(
                f"unexpected character {text!r}", _byte_offset(source, m.start())
            )
        tokens.append(_Token(text if kind == "op" else kind, text, m.start()))
    tokens.append(_Token("eof", "", len(source)))
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

    def error(self, message: str, tok: _Token) -> ExprSyntaxError:
        return ExprSyntaxError(message, _byte_offset(self.source, tok.pos))

    def bounded(self, level: int, tok: _Token) -> int:
        if level > MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels", tok)
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
            raise self.error(f"expected {what}, found {_describe(tok)}", tok)
        return self.advance()

    def parse(self) -> Expression:
        tree = self.chain()
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input {tok.text!r}", tok)
        return tree

    def chain(self, level: int = _SUM) -> Expression:
        """A left-associative chain of the binary operators at ``level``."""
        if level == _NEG:
            return self.factor()
        node = self.chain(level + 1)
        while _LEVELS.get(self.peek().kind) == level:
            op = self.advance()
            right = self.chain(level + 1)
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
                raise self.error(f"number {tok.text!r} is out of range", tok)
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
            node = self.chain()
            self.expect(")", "')'")
            return node
        raise self.error(f"expected expression, found {_describe(tok)}", tok)

    def call(self, name: str, tok: _Token) -> Expression:
        if name not in FUNCTIONS:
            raise UnknownIdentifierError(name, _byte_offset(self.source, tok.pos))
        self.expect("(", "'('")
        args = [self.chain()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.chain())
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


def _children(e: Expression) -> tuple[Expression, ...]:
    """The operands of a node, left to right; none for a leaf."""
    if isinstance(e, Neg):
        return (e.operand,)
    if isinstance(e, BinOp):
        return (e.left, e.right)
    return e.args if isinstance(e, Call) else ()


def variables(e: Expression) -> frozenset[str]:
    """Set of variable names occurring in the tree."""
    if isinstance(e, Var):
        return frozenset({e.name})
    return frozenset().union(*map(variables, _children(e)))


# numpy ufuncs backing each function name and binary operator
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


def _power(left, right):
    return np.power(left, right, dtype=float)


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": _power}


def _check_finite(out, node: Expression, what: str):
    if not np.all(np.isfinite(out)):
        raise DomainFaultError(what, pretty(node))
    return out


def _eval(e: Expression, env: Mapping[str, object]):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    args = [_eval(c, env) for c in _children(e)]
    if isinstance(e, Neg):
        return -args[0]
    if isinstance(e, BinOp):
        if e.op == "/" and np.any(args[1] == 0):
            raise DomainFaultError("division by zero", pretty(e))
        what = "invalid power" if e.op == "^" else "overflow"
        with np.errstate(all="ignore"):
            return _check_finite(_BINARY[e.op](*args), e, what)
    if isinstance(e, Call):
        if e.func == "log" and np.any(np.asarray(args[0]) <= 0):
            raise DomainFaultError("log of non-positive value", pretty(e))
        if e.func == "sqrt" and np.any(np.asarray(args[0]) < 0):
            raise DomainFaultError("sqrt of negative value", pretty(e))
        with np.errstate(all="ignore"):
            return _check_finite(_UFUNCS[e.func](*args), e, "domain fault")
    raise TypeError(f"not an expression node: {e!r}")


def _finite(value) -> bool:
    if isinstance(value, float):  # numpy float64 scalars included
        return math.isfinite(value)
    return bool(np.isfinite(value).all())


class Compiled:
    """An expression turned into numpy closures once, some variables bound.

    Made by :func:`compile` and evaluated by :func:`evaluate`, which
    then needs bindings for the ``free`` variables only.
    """

    __slots__ = ("tree", "fixed", "free", "_closure")

    def __init__(self, tree: Expression, fixed: Mapping[str, object]):
        self.tree = tree
        self.fixed = dict(fixed)
        self.free = variables(tree) - self.fixed.keys()
        closure = _closure(tree, self.fixed)
        # each call runs with numpy's overflow, divide-by-zero and
        # invalid-value flags raising
        self._closure = None if closure is None else np.errstate(
            over="raise", divide="raise", invalid="raise", under="ignore"
        )(closure)

    def value(self, env: Mapping[str, object], finite: frozenset[str] = frozenset()):
        # From finite inputs every operation either yields a finite value
        # or raises an IEEE flag, so a run without flags and with a finite
        # result is exactly what the interpreter returns.  Anything else is
        # left to the interpreter, which names the faulting sub-expression.
        # The bindings named in ``finite`` the caller has checked already.
        closure_ok = self._closure is not None
        for name in self.free:
            if name not in env:
                raise UnboundVariableError(name)
            if closure_ok and name not in finite:
                closure_ok = _finite(env[name])
        if closure_ok:
            try:
                out = self._closure(env)
            except FloatingPointError:
                pass
            else:
                if _finite(out):
                    return out
        return _eval(self.tree, {**env, **self.fixed})


def _closure(e: Expression, fixed: Mapping[str, object]):
    """``env -> value`` for ``e``; None when a bound sub-tree is not finite.

    Sub-trees over bound variables and constants only are evaluated here,
    once, by the interpreter itself, so each folded value is the one an
    evaluation would compute.  The others apply the interpreter's numpy
    operations in the interpreter's order.
    """
    if variables(e) <= fixed.keys():
        try:
            value = _eval(e, fixed)
        except DomainFaultError:
            return None  # every evaluation faults here; the interpreter says where
        if not _finite(value):
            return None
        if isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
        return lambda env: value
    if isinstance(e, Var):
        name = e.name
        return lambda env: env[name]
    if isinstance(e, Neg):
        operand = _closure(e.operand, fixed)
        return None if operand is None else lambda env: -operand(env)
    fn = _BINARY[e.op] if isinstance(e, BinOp) else _UFUNCS[e.func]
    args = [_closure(c, fixed) for c in _children(e)]
    if any(a is None for a in args):
        return None
    if len(args) == 1:
        (a,) = args
        return lambda env: fn(a(env))
    a, b = args
    return lambda env: fn(a(env), b(env))


def compile(tree: Expression, fixed: Mapping[str, object] | None = None) -> Compiled:
    """Prepare ``tree`` for repeated evaluation with ``fixed`` bound.

    Constants and the sub-trees that depend only on ``fixed`` (such as
    ``cos(pi*x)`` with the node coordinates bound) are evaluated once
    here.  Evaluating the result gives the interpreter's values bit for
    bit and raises the interpreter's :class:`DomainFaultError`.
    """
    return Compiled(tree, fixed or {})


def evaluate(
    e: Expression | Compiled, env: Mapping[str, object], finite: frozenset[str] = frozenset()
):
    """Evaluate the tree in IEEE double precision.

    ``env`` must bind every variable occurring in ``e``, or for a
    :class:`Compiled` expression every variable it left free; values may
    be floats or numpy arrays.  Returns a float for scalar bindings, else
    an array.  Domain faults raise instead of returning NaN/inf.

    ``finite`` names bindings that the caller has already checked to be
    finite; a :class:`Compiled` expression does not check them again.
    """
    if isinstance(e, Compiled):
        out = e.value(env, finite)
    else:
        for name in variables(e):
            if name not in env:
                raise UnboundVariableError(name)
        out = _eval(e, env)
    if np.ndim(out) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def sample(e: Expression | Compiled, env: Mapping[str, object], shape: tuple) -> np.ndarray:
    """``evaluate(e, env)`` broadcast to ``shape``, in a new float array."""
    return np.broadcast_to(evaluate(e, env), shape).copy()


def pretty(e: Expression) -> str:
    """Render the tree with minimal parentheses.

    Re-parsing the result yields a structurally identical tree.
    """
    return _show(e, _SUM)


def _show(e: Expression, need: int) -> str:
    """``e`` as text in a context that binds at level ``need``; a node of
    a looser level goes in parentheses."""
    if isinstance(e, BinOp):
        level = _LEVELS[e.op]
        if level == _POWER:  # right-associative; the exponent is a factor
            text = f"{_show(e.left, _ATOM)}^{_show(e.right, _NEG)}"
        else:
            op = f" {e.op} " if level == _SUM else e.op
            text = f"{_show(e.left, level)}{op}{_show(e.right, level + 1)}"
    elif isinstance(e, Neg):
        level, text = _NEG, f"-{_show(e.operand, _POWER)}"
    elif isinstance(e, Call):
        return f"{e.func}({', '.join(_show(a, _SUM) for a in e.args)})"
    else:
        return e.name if isinstance(e, Var) else repr(e.value)
    return text if level >= need else f"({text})"
