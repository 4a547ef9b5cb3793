"""Arithmetic expression language for metric components, fields and potentials.

Expressions are small immutable ASTs built from constants, coordinate
variables, the four arithmetic operations, integer powers, unary negation
and the functions of ``FUNCTIONS`` (sin, cos, exp, log), each node a
``__slots__`` object with its parts in the slots its class tuple ``_fields``
names.  Every pass over a tree but equality is a loop over one memoised
post-order walk, ``_postorder``, that visits each distinct node once: exact
symbolic partial derivatives (``derive``), the canonical text (``to_text``)
and the passes below.  No walk recurses except the parser.  ``emit_block``, the one printer
of generated code, turns a list of trees into straight-line Python with one
local per shared subexpression: scalar code over math functions
(``_SCALAR_NS``) for the stepper, or numpy code over arrays of points
(``compile_batch``).  The stepper first passes its trees through
``simplify``, an exact rewrite that folds constants, drops units and cancels
negations without changing a bit of any result.

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
import operator
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

TIME_NAME = "t"
TIME_INDEX = -1
_set = object.__setattr__  # fills the slots of a node, which refuses assignment


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
            if not (isinstance(name, str) and name.isidentifier()):
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

class Expr:
    """An immutable node, its parts in the slots ``_fields`` names.  Equality
    is structural (Const(0.0) == Const(-0.0), as for floats); neither it nor
    the hash, cached from the children's at construction, recurses, so any
    tree deeper than the recursion limit compares and hashes."""

    __slots__ = ("_hash",)
    _fields = ()

    def __init__(self, *parts):
        fields = self._fields
        if len(parts) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} parts")
        for name, x in zip(fields, parts):
            _set(self, name, x)
        _set(self, "_hash", hash((type(self), *parts)))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild a node from its parts
        return type(self), tuple(_parts(self))

    def __repr__(self):
        parts = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({parts})"

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(_parts(a), _parts(b)):
                if isinstance(x, Expr):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


def _parts(e: Expr) -> list:
    """The fields of a node in declaration order."""
    return [getattr(e, name) for name in e._fields]


def _postorder(roots):
    """Each distinct node under ``roots`` once, children first, in the order
    a depth-first walk from each root in turn, last child first, finishes
    them.  The memo holds each node, not only its id, so no id is reused
    during the walk and callers may key their own tables by ``id``."""
    done = {}  # id(node) -> node
    stack = [*roots][::-1]  # the first root on top
    while stack:
        e = stack[-1]
        if id(e) not in done:
            pending = [x for x in _parts(e) if isinstance(x, Expr) and id(x) not in done]
            if pending:
                stack += pending
                continue
            done[id(e)] = e
            yield e
        stack.pop()


class Const(Expr):
    __slots__ = _fields = ("value",)


class Var(Expr):
    __slots__ = _fields = ("name", "index")  # index: position in the frame, or TIME_INDEX


class Add(Expr):
    __slots__ = _fields = ("a", "b")


class Mul(Expr):
    __slots__ = _fields = ("a", "b")


class Div(Expr):
    __slots__ = _fields = ("a", "b")


class Neg(Expr):
    __slots__ = _fields = ("a",)


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")  # exponent: an int


class Fun(Expr):
    __slots__ = _fields = ("name", "arg")


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
        try:
            return Const(base.value ** exponent)
        except OverflowError:  # the IEEE result: infinity, negative for odd powers
            return Const(math.copysign(math.inf, base.value) if exponent % 2 else math.inf)
    return Pow(base, exponent)


# --- elementary functions --------------------------------------------------

def _log(x: float) -> float:
    if x <= 0.0:
        raise EvaluationDomainError(f"log of non-positive value {x!r}")
    return math.log(x)


class Function(NamedTuple):
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

# Deepest expression the parser accepts; each operator, function call and
# pair of parentheses adds a level.  Only the parser recurses, two frames per
# parenthesised level, and this keeps it inside the recursion limit.
MAX_DEPTH = 350


_SPACE = re.compile(r"\s*")
_NUMBER = re.compile(r"[\d.]+(?:[eE][+-]?\d+)?")
_INTEGER = re.compile(r"-?\d+")
_NAME = re.compile(r"[^\W\d]\w*")


class _Parser:
    """Recursive descent that recurses only into parenthesised groups and
    function arguments, two frames per level.  Every parsed node carries its
    depth, and one deeper than MAX_DEPTH is a ParseError."""

    def __init__(self, text: str, frame: CoordinateFrame):
        self.text = text
        self.frame = frame
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def peek(self) -> str:
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def take(self, chars: str) -> str:
        """Consume and return the next character if it is one of ``chars``."""
        ch = self.peek()
        if ch and ch in chars:
            self.pos += 1
            return ch
        return ""

    def match(self, pattern) -> str:
        """Consume and return the text ``pattern`` matches next, or ''."""
        self.peek()
        m = pattern.match(self.text, self.pos)
        if m is None:
            return ""
        self.pos = m.end()
        return m.group()

    def parse(self) -> Expr:
        if not self.peek():
            self.error("empty expression")
        e, _ = self.expr(0)
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return e

    def node(self, cls, *parts):
        """``cls`` of the given parts; each (node, depth) part is a child."""
        depth = 1 + max(p[1] for p in parts if isinstance(p, tuple))
        if depth > MAX_DEPTH:
            self.error(f"expression is nested more than {MAX_DEPTH} levels deep")
        return cls(*(p[0] if isinstance(p, tuple) else p for p in parts)), depth

    def negate(self, part):
        # Fold negation of literals so "-2" and Const(-2) round-trip identically.
        if isinstance(part[0], Const):
            return Const(-part[0].value), part[1]
        return self.node(Neg, part)

    def expr(self, nesting: int):
        """expr := term (('+'|'-') term)*;  term := factor (('*'|'/') factor)*.

        ``nesting`` counts the enclosing groups.  Returns (node, depth).
        """
        total = None
        sign = "+"
        while sign:
            term = self.factor(nesting)
            while op := self.take("*/"):
                term = self.node(Mul if op == "*" else Div, term, self.factor(nesting))
            if sign == "-":
                term = self.negate(term)
            total = term if total is None else self.node(Add, total, term)
            sign = self.take("+-")
        return total

    def factor(self, nesting: int):
        """factor := '-' factor | base ('^' integer)?
        base   := number | name | name '(' expr ')' | '(' expr ')'"""
        negations = 0
        while self.take("-"):
            negations += 1
        ch = self.peek()
        start = self.pos
        name = self.match(_NAME)
        if name in FUNCTIONS or ch == "(":
            if not self.take("("):
                self.pos = start
                self.error(f"function {name!r} needs an argument in parentheses")
            if nesting >= MAX_DEPTH:
                self.error(f"expression is nested more than {MAX_DEPTH} levels deep")
            inner = self.expr(nesting + 1)
            if not self.take(")"):
                self.error("expected ')'")
            if name:
                e = self.node(Fun, name, inner)
            else:  # the parentheses add a level but no node
                e = self.node(lambda a: a, inner)
        elif name == "pi":
            e = Const(math.pi), 1
        elif name:
            try:
                e = Var(name, self.frame.index_of(name)), 1
            except KeyError:
                raise UnknownIdentifierError(f"unknown identifier {name!r}", start) from None
        elif number := self.match(_NUMBER):
            try:
                e = Const(float(number)), 1
            except ValueError:
                self.pos = start
                self.error(f"bad number literal {number!r}")
        else:
            self.error(f"unexpected character {ch!r}" if ch else "unexpected end of expression")
        if self.take("^"):
            exponent = self.match(_INTEGER)
            if not exponent:
                self.error("expected an integer exponent")
            e = self.node(Pow, e, int(exponent))
        for _ in range(negations):
            e = self.negate(e)
        return e


def parse(text: str, frame: CoordinateFrame) -> Expr:
    """Parse ``text`` against ``frame``; raises ParseError / UnknownIdentifierError."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, frame).parse()


# --- differentiation -------------------------------------------------------

def derive(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to the named variable; a
    subtree reached by several paths is derived once."""
    d = {}  # id(node) -> its derivative
    for node in _postorder([e]):
        if isinstance(node, (Const, Var)):
            r = ONE if isinstance(node, Var) and node.name == var else ZERO
        elif isinstance(node, Add):
            r = add(d[id(node.a)], d[id(node.b)])
        elif isinstance(node, (Mul, Div)):  # from p = a'b and q = ab'
            p, q = mul(d[id(node.a)], node.b), mul(node.a, d[id(node.b)])
            r = add(p, q) if isinstance(node, Mul) else div(sub(p, q), power(node.b, 2))
        elif isinstance(node, Neg):
            r = neg(d[id(node.a)])
        elif isinstance(node, Pow):
            r = mul(mul(Const(float(node.exponent)), power(node.base, node.exponent - 1)),
                    d[id(node.base)])
        else:
            r = FUNCTIONS[node.name].derive(node, d[id(node.arg)])
        d[id(node)] = r
    return d[id(e)]


def references_time(e: Expr) -> bool:
    """True if the expression mentions the parameter variable ``t``."""
    return any(isinstance(x, Var) and x.index == TIME_INDEX for x in _postorder([e]))


# --- printing --------------------------------------------------------------

# How tightly each printed form binds; a child that binds looser than its
# parent asks for is printed in parentheses.
_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _shown(entry, minimum: int) -> tuple:
    """(before, text, after): the printed entry (negations, text, precedence)
    of a node as a parent that binds at ``minimum`` shows it, in pieces that
    the parent joins at once, so no parenthesised copy of the text is made."""
    negations, text, prec = entry
    if negations:  # a '-' each, before text that binds at least as tightly
        text = "-" * negations + (f"({text})" if prec < _PREC_UNARY else text)
        prec = _PREC_UNARY
    return ("(", text, ")") if prec < minimum else ("", text, "")


def to_text(e: Expr) -> str:
    """Canonical text form; ``parse(to_text(e))`` rebuilds an equal AST.
    Each node's text is built once and dropped when its last parent has read
    it, so shared subtrees that print many times take memory of the order of
    the text.  A negation, or a negative constant, keeps its operand's text,
    so that ``a + -b`` prints ``a - b``."""
    order = list(_postorder([e]))
    readers = Counter(id(x) for node in order for x in _parts(node) if isinstance(x, Expr))
    entries = {}  # id(node) -> (negations, text, precedence)

    def take(x, minimum=None, strip=0):  # x's entry less ``strip`` negations
        readers[id(x)] -= 1  # the last reader drops it
        negations, text, prec = entries[id(x)] if readers[id(x)] else entries.pop(id(x))
        entry = negations - strip, text, prec
        return entry if minimum is None else _shown(entry, minimum)

    for node in order:
        if isinstance(node, Const):
            v = abs(node.value)
            text = ("1e999" if v == math.inf  # float("1e999") is inf: parse reads it back
                    else str(int(v)) if v == int(v) and v < 1e16 else repr(v))
            entry = int(node.value < 0), text, _PREC_ATOM
        elif isinstance(node, Var):
            entry = 0, node.name, _PREC_ATOM
        elif isinstance(node, Neg):
            entry = take(node.a, strip=-1)  # one negation more
        elif isinstance(node, Add):
            minus = isinstance(node.b, Neg) or isinstance(node.b, Const) and node.b.value < 0
            right = _PREC_MUL if minus else _PREC_ADD + 1
            entry = 0, "".join((*take(node.a, _PREC_ADD), " - " if minus else " + ",
                                *take(node.b, right, strip=minus))), _PREC_ADD
        elif isinstance(node, Pow):
            entry = 0, "".join((*take(node.base, _PREC_ATOM), f"^{node.exponent}")), _PREC_POW
        elif isinstance(node, Fun):
            entry = 0, "".join((f"{node.name}(", *take(node.arg, 0), ")")), _PREC_ATOM
        else:
            entry = 0, "".join((*take(node.a, _PREC_MUL), "*" if isinstance(node, Mul) else "/",
                                *take(node.b, _PREC_MUL + 1))), _PREC_MUL
        entries[id(node)] = entry
    return "".join(_shown(entries[id(e)], 0))


# --- exact simplification of scalar code -----------------------------------

def simplify(exprs) -> list:
    """The trees of ``exprs`` rewritten so that the scalar code ``emit_block``
    prints for them does less arithmetic and gives the same result bit for
    bit in IEEE double at every input, signed zeros, infinities and nan
    included, and raises where the original code raises.  Constants fold,
    the units 1.0, -1.0 and -0.0 drop out, and negations move out of
    products and quotients, cancelling in pairs.  ``x + 0.0`` and ``0.0*x``
    stay: they differ from x at x = -0.0 and x = inf.  The batch evaluator
    keeps its trees, since numpy's functions need not round as Python's do.
    """
    done = {}  # id(node) -> rewritten node
    for e in _postorder(exprs):
        done[id(e)] = _rewrite(e, [done[id(x)] if isinstance(x, Expr) else x
                                   for x in _parts(e)])
    return [done[id(root)] for root in exprs]


# The Python operation of each node over constant operands.
_OPS = {Add: operator.add, Mul: operator.mul, Div: operator.truediv,
        Neg: operator.neg, Pow: operator.pow}


def _fold(e: Expr, parts: list):
    """The constant value of a node over constant children, or None when the
    operation raises (overflow, x/0, log(-1), sin(inf)): the node then stays,
    so that it still raises at run time.  Generated code runs the same Python
    operation on the same floats, so a fold is exact."""
    values = [x.value if isinstance(x, Const) else x for x in parts]
    try:
        if isinstance(e, Fun):
            return Const(FUNCTIONS[values[0]].scalar(values[1]))
        return Const(_OPS[type(e)](*values))
    except (ArithmeticError, ValueError):
        return None


def _is_const(e: Expr, value: float) -> bool:
    """e is the literal ``value``, the sign of a zero included."""
    return (isinstance(e, Const) and e.value == value
            and math.copysign(1.0, e.value) == math.copysign(1.0, value))


def _rebuilt(e: Expr, parts: list) -> Expr:
    """A node of e's type over ``parts``: e itself when they are its own."""
    return e if all(x is y for x, y in zip(_parts(e), parts)) else type(e)(*parts)


def _rewrite(e: Expr, parts: list) -> Expr:
    """One node over its rewritten children."""
    kids = [x for x in parts if isinstance(x, Expr)]
    if kids and all(isinstance(x, Const) for x in kids):
        folded = _fold(e, parts)
        if folded is not None:
            return folded
    if isinstance(e, Neg):
        return neg(parts[0])  # folds into a constant; -(-x) is x, a sign flip twice
    if not isinstance(e, (Add, Mul, Div)):
        return _rebuilt(e, parts)
    a, b = parts
    if isinstance(e, Add):
        # x + -0.0 is x, at x = -0.0 and nan too; x + 0.0 is not: -0.0 + 0.0 is 0.0
        if _is_const(b, -0.0):
            return a
        return b if _is_const(a, -0.0) else _rebuilt(e, parts)
    # (-a)*b, a*(-b), (-a)/b and a/(-b) are -(a op b): rounding is symmetric
    flip = isinstance(a, Neg) is not isinstance(b, Neg)
    a, b = (x.a if isinstance(x, Neg) else x for x in (a, b))
    unit, other = (a, b) if isinstance(e, Mul) and isinstance(a, Const) else (b, a)
    if _is_const(unit, 1.0):  # 1.0*x, x*1.0 and x/1.0 are x, at inf, nan and -0.0 too
        core = other
    elif _is_const(unit, -1.0):  # -1.0*x, x*-1.0 and x/-1.0 are -x
        core = neg(other)
    else:  # 0.0*x stays (nan at x = inf), and so does x/0.0, which raises
        core = _rebuilt(e, [a, b])
    return neg(core) if flip else core


# --- code generation -------------------------------------------------------

# Parentheses in one printed expression before a node gets its own local;
# CPython refuses source nested 200 deep.
_INLINE_DEPTH = 50

_FORMATS = {Add: "({} + {})", Mul: "({} * {})", Div: "({} / {})", Neg: "(-{})"}


def emit_block(exprs, rename, prefix: str = "_e"):
    """Straight-line Python source for a list of expressions.

    Returns ``(lines, results)``: assignment lines, and one Python expression
    per input that reads its value after the lines.  ``rename`` maps a Var to
    its text.  Each distinct operator node used more than once, and each node
    printed ``_INLINE_DEPTH`` parentheses deep, gets one local
    ``{prefix}{k}``; constants and variables stay inline.  Each node is
    printed once, as its tree says, so the code computes the trees bit for
    bit.  Locals are numbered in the order of ``_postorder``.
    """
    slot_of = {}  # id(node) -> slot
    slots = {}    # structural key -> slot, numbered children first
    nodes, kids = [], []
    for e in _postorder(exprs):
        parts = _parts(e)
        # the key keeps the sign of a zero constant apart: x + 0.0 and
        # x + -0.0 differ at x = -0.0, although Const(0.0) == Const(-0.0)
        key = (type(e), *(slot_of[id(x)] if isinstance(x, Expr) else
                          (x, math.copysign(1.0, x)) if isinstance(x, float) else x
                          for x in parts))
        slot = slots.setdefault(key, len(nodes))
        if slot == len(nodes):
            nodes.append(e)
            kids.append([slot_of[id(x)] for x in parts if isinstance(x, Expr)])
        slot_of[id(e)] = slot
    roots = [slot_of[id(e)] for e in exprs]
    uses = Counter([*roots, *(k for ks in kids for k in ks)])

    lines, text, depth = [], [], []
    for slot, (e, ks) in enumerate(zip(nodes, kids)):
        if not ks:  # constants and variables stay inline
            text.append(repr(e.value) if isinstance(e, Const) else rename(e))
            depth.append(0)
            continue
        args = [text[k] for k in ks]
        if isinstance(e, Pow):
            base = args[0]
            # a negative literal base needs parentheses: -2.0 ** 2 is -(2.0 ** 2)
            src = f"({f'({base})' if base.startswith('-') else base} ** {e.exponent})"
        elif isinstance(e, Fun):
            src = f"{e.name}({args[0]})"
        else:
            src = _FORMATS[type(e)].format(*args)
        d = 1 + max(depth[k] for k in ks)
        if uses[slot] > 1 or d >= _INLINE_DEPTH:
            name = f"{prefix}{len(lines)}"
            lines.append(f"{name} = {src}")
            src, d = name, 0
        text.append(src)
        depth.append(d)
    return lines, [text[r] for r in roots]


# Namespace of generated scalar code; log raises a ValueError at x <= 0, and a
# non-finite constant (a literal such as 1e999) prints as inf or nan.
_SCALAR_NS = dict({name: f.scalar for name, f in FUNCTIONS.items()}, inf=math.inf, nan=math.nan)


def compile_source(source: str, name: str, namespace: dict):
    """exec generated source and return the named function."""
    ns = dict(namespace)
    code = compile(source, f"<generated {name}>", "exec")
    exec(code, ns)
    return ns[name]


_BATCH_NS = dict(_SCALAR_NS, **{name: f.array for name, f in FUNCTIONS.items()}, empty=np.empty)


def compile_batch(exprs, frame: CoordinateFrame):
    """Compile to ``f(qs, ts) -> (m, k)`` over numpy arrays of points.

    ``qs`` has shape (m, n) and ``ts`` shape (m,); column j holds
    ``exprs[j]``, so constant expressions are broadcast to every point.
    """
    def rename(v: Var) -> str:
        return "ts" if v.index == TIME_INDEX else f"qs[:, {v.index}]"

    lines, results = emit_block(exprs, rename)
    source = "".join(
        ["def _f(qs, ts):\n", *(f"    {line}\n" for line in lines),
         f"    out = empty((len(qs), {len(results)}))\n",
         *(f"    out[:, {j}] = {r}\n" for j, r in enumerate(results)),
         "    return out\n"])
    return compile_source(source, "_f", _BATCH_NS)
