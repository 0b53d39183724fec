"""Exact analytic expressions over chart coordinates R1..Rn.

Small immutable expression trees with exact evaluation (scalars or numpy
arrays) and exact differentiation.  The grammar is deliberately tiny:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | coord | func '(' expr ')' | '(' expr ')' | '-' base
    coord  := 'R' integer
    func   in {sin, cos, sinh, cosh, exp, log, sqrt, arccos, arcsin}

Only constant folding and 0/1 elimination are performed; correctness is by
evaluation, not by canonical form.  Evaluation outside a function's real
domain raises DomainError instead of producing NaN, and so does a constant
(literal or folded) outside the float range.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Coord", "Bin", "Pow", "Neg", "Call",
    "ExprError", "ParseError", "DomainError",
    "parse_expr", "as_expr", "evaluate", "diff", "to_text", "coords_used",
    "ZERO", "ONE",
]


class ExprError(Exception):
    """Base error for the expression layer."""


class ParseError(ExprError):
    """Syntax or symbol error; ``offset`` is the 1-based byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation left the real domain (division by zero, sqrt of negative, ...)."""


class Expr:
    """Immutable expression node.  Arithmetic operators build new trees."""

    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __pow__(self, n):
        return powi(self, n)

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Coord(Expr):
    index: int  # 1-based


@dataclass(frozen=True)
class Bin(Expr):
    """a op b, with ``op`` one of "+", "-", "*", "/"."""

    op: str
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)

_BIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv}

_FUNCS = {
    "sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "arccos": np.arccos, "arcsin": np.arcsin,
}


def _wrap(x) -> Expr:
    if isinstance(x, Expr):
        return x
    raise TypeError(f"cannot use {type(x).__name__} in an expression")


def const(v: float) -> Expr:
    v = float(v)
    if not math.isfinite(v):
        raise DomainError(f"constant {v!r} is outside the float range")
    return Const(v)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# Smart constructors: constant folding and 0/1 elimination only.

def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Bin("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Bin("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return const(a.value / b.value)
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return Bin("/", a, b)


def powi(base: Expr, n: int) -> Expr:
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return base
    if _is_const(base):
        if base.value == 0.0 and n < 0:
            return Pow(base, n)  # defer the error to evaluation
        try:
            return const(base.value ** n)
        except OverflowError:
            return const(math.inf)
    return Pow(base, n)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def call(func: str, arg: Expr) -> Expr:
    if func not in _FUNCS:
        raise ExprError(f"unknown function {func!r}")
    if _is_const(arg):
        try:
            with np.errstate(over="ignore"):
                value = evaluate(Call(func, arg), ())
        except DomainError:
            return Call(func, arg)  # the error belongs to evaluation
        return const(value)
    return Call(func, arg)


# Evaluation ----------------------------------------------------------------

def evaluate(e: Expr, point):
    """Evaluate ``e`` at ``point`` (sequence of scalars or numpy arrays).

    Raises DomainError on division by zero or arguments outside a function's
    real domain.  Deterministic: same tree and point give the same bits.
    A node that several parents share by reference is evaluated once per
    call: its value is kept until its last parent has read it, so a tree
    without shared nodes holds no more values than a plain walk does.
    """
    uses = {}
    _count_uses(e, uses)
    return _evaluate(e, point, {k: n for k, n in uses.items() if n > 1}, {})


def _children(e: Expr) -> tuple:
    if isinstance(e, Bin):
        return e.a, e.b
    if isinstance(e, Neg):
        return (e.a,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Call):
        return (e.arg,)
    return ()


def _count_uses(e: Expr, uses: dict) -> None:
    """uses[id(node)] = how many parent slots hold each inner node below e."""
    for c in _children(e):
        if isinstance(c, (Const, Coord)):
            continue
        k = id(c)
        uses[k] = uses.get(k, 0) + 1
        if uses[k] == 1:
            _count_uses(c, uses)


def _evaluate(e: Expr, point, shared: dict, memo: dict):
    """The value of e; ``shared`` maps id(node) to its number of uses, and
    ``memo`` holds (value, uses left) of the shared nodes in flight."""
    k = id(e)
    if k in memo:
        value, left = memo[k]
        if left == 1:
            del memo[k]
        else:
            memo[k] = value, left - 1
        return value
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        if e.index > len(point):
            raise ExprError(
                f"point has {len(point)} coordinates, expression uses R{e.index}")
        return point[e.index - 1]
    if isinstance(e, Bin):
        a = _evaluate(e.a, point, shared, memo)
        b = _evaluate(e.b, point, shared, memo)
        if e.op == "/" and np.any(b == 0):
            raise DomainError("division by zero")
        value = _BIN_OPS[e.op](a, b)
    elif isinstance(e, Pow):
        base = _evaluate(e.base, point, shared, memo)
        if e.exponent < 0 and np.any(base == 0):
            raise DomainError("zero raised to a negative power")
        value = base ** e.exponent
    elif isinstance(e, Neg):
        value = -_evaluate(e.a, point, shared, memo)
    elif isinstance(e, Call):
        arg = _evaluate(e.arg, point, shared, memo)
        if e.func == "sqrt" and np.any(arg < 0):
            raise DomainError("sqrt of a negative value")
        if e.func == "log" and np.any(arg <= 0):
            raise DomainError("log of a non-positive value")
        if e.func in ("arccos", "arcsin") and np.any(np.abs(arg) > 1):
            raise DomainError(f"{e.func} argument outside [-1, 1]")
        value = _FUNCS[e.func](arg)
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    if k in shared:
        memo[k] = value, shared[k] - 1
    return value


# Differentiation -----------------------------------------------------------

def diff(e: Expr, k: int) -> Expr:
    """Exact derivative of ``e`` with respect to coordinate R{k} (1-based).

    A node that several parents share by reference is differentiated once
    per call, and its derivative is shared by the results of those parents.
    """
    return _diff(e, k, {})


def _diff(e: Expr, k: int, memo: dict) -> Expr:
    """The derivative of e; ``memo`` maps id(node) to the derivatives taken
    so far in this call."""
    key = id(e)
    if key not in memo:
        memo[key] = _diff_root(e, k, memo)
    return memo[key]


def _diff_root(e: Expr, k: int, memo: dict) -> Expr:
    """The derivative rule at the root of e, applied to its children's."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.index == k else ZERO
    if isinstance(e, Bin):
        da, db = _diff(e.a, k, memo), _diff(e.b, k, memo)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.b), mul(e.a, db))
        return sub(div(da, e.b), div(mul(e.a, db), mul(e.b, e.b)))
    if isinstance(e, Pow):
        return mul(mul(const(e.exponent), powi(e.base, e.exponent - 1)),
                   _diff(e.base, k, memo))
    if isinstance(e, Neg):
        return neg(_diff(e.a, k, memo))
    if isinstance(e, Call):
        da = _diff(e.arg, k, memo)
        a = e.arg
        if e.func == "sin":
            outer = call("cos", a)
        elif e.func == "cos":
            outer = neg(call("sin", a))
        elif e.func == "sinh":
            outer = call("cosh", a)
        elif e.func == "cosh":
            outer = call("sinh", a)
        elif e.func == "exp":
            outer = call("exp", a)
        elif e.func == "log":
            return div(da, a)
        elif e.func == "sqrt":
            return div(da, mul(const(2.0), call("sqrt", a)))
        elif e.func == "arcsin":
            return div(da, call("sqrt", sub(ONE, mul(a, a))))
        elif e.func == "arccos":
            return neg(div(da, call("sqrt", sub(ONE, mul(a, a)))))
        else:  # pragma: no cover
            raise ExprError(f"no derivative rule for {e.func}")
        return mul(outer, da)
    raise TypeError(f"not an Expr node: {e!r}")


def coords_used(e: Expr) -> set[int]:
    """Set of coordinate indices appearing in the tree (1-based)."""
    if isinstance(e, Coord):
        return {e.index}
    return set().union(*(coords_used(c) for c in _children(e)))


# Printing ------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5
_PREC_BIN = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL}


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return _PREC_NEG if e.value < 0 else _PREC_ATOM
    if isinstance(e, (Coord, Call)):
        return _PREC_ATOM
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_BIN[e.op]


def to_text(e: Expr) -> str:
    """Render to the input grammar; print -> parse -> print is a fixed point."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Coord):
        return f"R{e.index}"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    if isinstance(e, Pow):
        base = to_text(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Neg):
        inner = to_text(e.a)
        # "-R1^2" would parse as (-R1)^2: unary minus binds to the base.
        if _prec(e.a) < _PREC_NEG or isinstance(e.a, Pow):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Bin):
        prec = _PREC_BIN[e.op]
        left = to_text(e.a)
        if _prec(e.a) < prec:
            left = f"({left})"
        right = to_text(e.b)
        if _prec(e.b) <= prec:
            right = f"({right})"
        op = f" {e.op} " if prec == _PREC_ADD else e.op
        return f"{left}{op}{right}"
    raise TypeError(f"not an Expr node: {e!r}")


# Parsing -------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0  # 0-based; reported offsets are 1-based

    def error(self, message: str, pos: int | None = None):
        raise ParseError(message, (self.pos if pos is None else pos) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                e = add(e, self.term())
            elif ch == "-":
                self.pos += 1
                e = sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                e = mul(e, self.factor())
            elif ch == "/":
                self.pos += 1
                e = div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        if self.peek() == "^":
            self.pos += 1
            return powi(e, self.integer())
        return e

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
            self.error("expected an integer exponent")
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def base(self) -> Expr:
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "-":
            self.pos += 1
            return neg(self.base())
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            return self.symbol()
        self.error(f"unexpected character {ch!r}")

    def number(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent, leave for the caller
        try:
            return const(float(self.text[start:self.pos]))
        except ValueError:
            self.error("malformed number", start)

    def symbol(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        name = self.text[start:self.pos]
        digits_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        digits = self.text[digits_start:self.pos]
        if name == "R":
            if not digits:
                self.error("coordinate needs an index, e.g. R1", start)
            index = int(digits)
            if index < 1 or index > self.n:
                self.error(f"coordinate R{index} exceeds dimension {self.n}", start)
            return Coord(index)
        if digits:
            self.error(f"unknown symbol {name + digits!r}", start)
        if name in _FUNCS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return call(name, arg)
        self.error(f"unknown symbol {name!r}", start)


def parse_expr(text: str, n: int) -> Expr:
    """Parse ``text`` over coordinates R1..R{n}.

    Raises ParseError (with 1-based byte offset) on malformed input, unknown
    symbols, or coordinate indices above ``n``.
    """
    return _Parser(text, n).parse()


def as_expr(v, n: int) -> Expr:
    """An Expr as is, a string parsed over R1..R{n}, or a number as a constant
    (DomainError for an integer outside the float range)."""
    if isinstance(v, Expr):
        return v
    if isinstance(v, str):
        return parse_expr(v, n)
    try:
        v = float(v)
    except OverflowError:
        raise DomainError("number outside the float range") from None
    return parse_expr(repr(v), n)
