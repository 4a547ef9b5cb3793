"""Arithmetic expression language for metric components, fields and potentials.

Expressions are small immutable ASTs built from constants, coordinate
variables, the four arithmetic operations, integer powers, unary negation
and the functions of ``FUNCTIONS`` (sin, cos, exp, log).  They support exact
symbolic partial derivatives, and ``emit`` prints them as Python source for
generated code: scalar code over math functions (``_SCALAR_NS``) or numpy code
over arrays of points (``compile_batch``).

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := number | name | name '(' expr ')' | '(' expr ')'

``name`` is a coordinate from the frame, the reserved constant ``pi``, the
parameter ``t`` (time-dependent frames only), or one of the four function
names when followed by '('.  Unary minus binds looser than '^', so ``-x^2``
reads as ``-(x^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TIME_NAME = "t"
TIME_INDEX = -1


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    pass


class EvaluationDomainError(ExprError):
    """Raised when evaluation hits a singular point (1/0, log of <= 0, ...)."""


@dataclass(frozen=True)
class CoordinateFrame:
    """Ordered coordinate names, optionally extended by the parameter ``t``."""

    names: tuple[str, ...]
    time_dependent: bool = False

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("frame needs at least one coordinate")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate coordinate names in {self.names}")
        for name in self.names:
            if not name.isidentifier():
                raise ValueError(f"coordinate name {name!r} is not an identifier")
            if name in FUNCTIONS or name == "pi":
                raise ValueError(f"coordinate name {name!r} is reserved")
        if self.time_dependent and TIME_NAME in self.names:
            raise ValueError("coordinate 't' clashes with the time parameter")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        """Index of a coordinate, or TIME_INDEX for the parameter."""
        if name in self.names:
            return self.names.index(name)
        if self.time_dependent and name == TIME_NAME:
            return TIME_INDEX
        raise KeyError(name)


# --- AST nodes -------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str
    index: int  # position in the frame, or TIME_INDEX


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Fun(Expr):
    name: str
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


# Smart constructors: fold constants and drop additive/multiplicative units so
# that derivative trees and assembled tensor expressions stay small.  They
# never change the value of an expression at any point where it is defined.

def add(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def mul(a: Expr, b: Expr) -> Expr:
    if is_zero(a) or is_zero(b):
        return ZERO
    if is_one(a):
        return b
    if is_one(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return ZERO
    if is_one(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def power(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and not (base.value == 0.0 and exponent < 0):
        return Const(base.value ** exponent)
    return Pow(base, exponent)


# --- elementary functions --------------------------------------------------

def _log(x: float) -> float:
    if x <= 0.0:
        raise EvaluationDomainError(f"log of non-positive value {x!r}")
    return math.log(x)


@dataclass(frozen=True)
class Function:
    """One elementary function: its scalar and numpy forms, and its
    derivative ``derive(node, d_arg)`` given that of its argument."""

    scalar: Callable[[float], float]
    array: Callable
    derive: Callable[[Fun, Expr], Expr]


FUNCTIONS = {
    "sin": Function(math.sin, np.sin, lambda e, d: mul(Fun("cos", e.arg), d)),
    "cos": Function(math.cos, np.cos, lambda e, d: mul(neg(Fun("sin", e.arg)), d)),
    "exp": Function(math.exp, np.exp, lambda e, d: mul(e, d)),
    "log": Function(_log, np.log, lambda e, d: div(d, e.arg)),
}


# --- parsing ---------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, frame: CoordinateFrame):
        self.text = text
        self.frame = frame
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("empty expression")
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            if self.take("+"):
                e = Add(e, self.term())
            elif self.take("-"):
                e = Add(e, _negate(self.term()))
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            if self.take("*"):
                e = Mul(e, self.factor())
            elif self.take("/"):
                e = Div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        if self.take("-"):
            return _negate(self.factor())
        e = self.base()
        if self.take("^"):
            return Pow(e, self.integer())
        return e

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer exponent")
        return int(self.text[start:self.pos])

    def base(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("unexpected end of expression")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            e = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        self.error(f"unexpected character {ch!r}")

    def number(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
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
                self.pos = mark  # 'e' belongs to a following identifier, not an exponent
        try:
            return Const(float(self.text[start:self.pos]))
        except ValueError:
            self.pos = start
            self.error(f"bad number literal {self.text[start:self.pos + 1]!r}")

    def identifier(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if name in FUNCTIONS:
            if not self.take("("):
                self.pos = start
                self.error(f"function {name!r} needs an argument in parentheses")
            arg = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return Fun(name, arg)
        if name == "pi":
            return Const(math.pi)
        try:
            index = self.frame.index_of(name)
        except KeyError:
            self.pos = start
            raise UnknownIdentifierError(f"unknown identifier {name!r}", start) from None
        return Var(name, index)


def _negate(e: Expr) -> Expr:
    # Fold negation of literals so "-2" and Const(-2) round-trip identically.
    if isinstance(e, Const):
        return Const(-e.value)
    return Neg(e)


def parse(text: str, frame: CoordinateFrame) -> Expr:
    """Parse ``text`` against ``frame``; raises ParseError / UnknownIdentifierError."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, frame).parse()


# --- evaluation ------------------------------------------------------------

def evaluate(e: Expr, point, t: float = 0.0) -> float:
    """Evaluate at a coordinate tuple (and parameter value ``t``).

    Raises EvaluationDomainError on division by zero, log of a non-positive
    number, or overflow.
    """
    try:
        v = _eval(e, point, t)
    except ZeroDivisionError:
        raise EvaluationDomainError("division by zero") from None
    except OverflowError:
        raise EvaluationDomainError("overflow") from None
    if not math.isfinite(v):
        raise EvaluationDomainError(f"non-finite value {v!r}")
    return v


def _eval(e: Expr, point, t: float) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return t if e.index == TIME_INDEX else point[e.index]
    if isinstance(e, Add):
        return _eval(e.a, point, t) + _eval(e.b, point, t)
    if isinstance(e, Mul):
        return _eval(e.a, point, t) * _eval(e.b, point, t)
    if isinstance(e, Div):
        return _eval(e.a, point, t) / _eval(e.b, point, t)
    if isinstance(e, Neg):
        return -_eval(e.a, point, t)
    if isinstance(e, Pow):
        return _eval(e.base, point, t) ** e.exponent
    if isinstance(e, Fun):
        return FUNCTIONS[e.name].scalar(_eval(e.arg, point, t))
    raise TypeError(f"not an expression node: {e!r}")


# --- differentiation -------------------------------------------------------

def derive(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to the named variable."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return add(derive(e.a, var), derive(e.b, var))
    if isinstance(e, Mul):
        return add(mul(derive(e.a, var), e.b), mul(e.a, derive(e.b, var)))
    if isinstance(e, Div):
        num = sub(mul(derive(e.a, var), e.b), mul(e.a, derive(e.b, var)))
        return div(num, power(e.b, 2))
    if isinstance(e, Neg):
        return neg(derive(e.a, var))
    if isinstance(e, Pow):
        return mul(mul(Const(float(e.exponent)), power(e.base, e.exponent - 1)),
                   derive(e.base, var))
    if isinstance(e, Fun):
        return FUNCTIONS[e.name].derive(e, derive(e.arg, var))
    raise TypeError(f"not an expression node: {e!r}")


def references_time(e: Expr) -> bool:
    """True if the expression mentions the parameter variable ``t``."""
    if isinstance(e, Var):
        return e.index == TIME_INDEX
    if isinstance(e, (Const,)):
        return False
    if isinstance(e, (Add, Mul, Div)):
        return references_time(e.a) or references_time(e.b)
    if isinstance(e, Neg):
        return references_time(e.a)
    if isinstance(e, Pow):
        return references_time(e.base)
    if isinstance(e, Fun):
        return references_time(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


# --- printing --------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW = 1, 2, 3, 4


def _prec(e: Expr) -> int:
    if isinstance(e, (Add,)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_UNARY
    if isinstance(e, Const) and e.value < 0:
        return _PREC_UNARY
    if isinstance(e, Pow):
        return _PREC_POW
    return 5


def to_text(e: Expr) -> str:
    """Canonical text form; ``parse(to_text(e))`` rebuilds an equal AST."""
    if isinstance(e, Const):
        v = e.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        left = _wrap(e.a, _PREC_ADD)
        if isinstance(e.b, Neg):
            return f"{left} - {_wrap(e.b.a, _PREC_MUL)}"
        if isinstance(e.b, Const) and e.b.value < 0:
            return f"{left} - {to_text(Const(-e.b.value))}"
        return f"{left} + {_wrap(e.b, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.a, _PREC_MUL)}*{_wrap(e.b, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.a, _PREC_MUL)}/{_wrap(e.b, _PREC_MUL + 1)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.a, _PREC_UNARY)}"
    if isinstance(e, Pow):
        base = to_text(e.base)
        if _prec(e.base) < 5:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Fun):
        return f"{e.name}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expr, minimum: int) -> str:
    text = to_text(e)
    return f"({text})" if _prec(e) < minimum else text


# --- compilation -----------------------------------------------------------

def emit(e: Expr, rename=None) -> str:
    """Emit fully parenthesised Python source for an expression.

    ``rename`` maps a Var node to the local name used in generated code;
    the default uses the variable's own name.
    """
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return rename(e) if rename is not None else e.name
    if isinstance(e, Add):
        return f"({emit(e.a, rename)} + {emit(e.b, rename)})"
    if isinstance(e, Mul):
        return f"({emit(e.a, rename)} * {emit(e.b, rename)})"
    if isinstance(e, Div):
        return f"({emit(e.a, rename)} / {emit(e.b, rename)})"
    if isinstance(e, Neg):
        return f"(-{emit(e.a, rename)})"
    if isinstance(e, Pow):
        return f"({emit(e.base, rename)} ** {e.exponent})"
    if isinstance(e, Fun):
        return f"{e.name}({emit(e.arg, rename)})"
    raise TypeError(f"not an expression node: {e!r}")


# Namespace of generated scalar code; log raises a ValueError at x <= 0.
_SCALAR_NS = {name: f.scalar for name, f in FUNCTIONS.items()}


def compile_source(source: str, name: str, namespace: dict):
    """exec generated source and return the named function."""
    ns = dict(namespace)
    code = compile(source, f"<generated {name}>", "exec")
    exec(code, ns)
    return ns[name]


_BATCH_NS = dict(
    {name: f.array for name, f in FUNCTIONS.items()}, asarray=np.asarray,
    broadcast=lambda a, m: a if a.shape == (m,) else np.broadcast_to(a, (m,)))


def compile_batch(e: Expr, frame: CoordinateFrame):
    """Compile to ``f(qs, ts) -> array`` over numpy arrays of points.

    ``qs`` has shape (m, n); ``ts`` shape (m,).  Constant expressions are
    broadcast to shape (m,).
    """
    def rename(v: Var) -> str:
        return "ts" if v.index == TIME_INDEX else f"qs[:, {v.index}]"

    body = emit(e, rename)
    source = (
        "def _f(qs, ts):\n"
        f"    res = {body}\n"
        "    return broadcast(asarray(res, dtype=float), qs.shape[0])\n"
    )
    return compile_source(source, "_f", _BATCH_NS)
