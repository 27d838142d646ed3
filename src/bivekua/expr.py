"""A small expression language for scalar functions of (x, y).

Grammar (a strict superset of the documented EBNF; unary minus is accepted
so that derivative trees round-trip through their textual form):

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' int)?
    base   := number | 'i' | 'x' | 'y' | ident '(' expr ')' | '(' expr ')'

Functions: exp, log, sin, cos, sinh, cosh, sqrt, abs2.  Coefficients are
real except for the literal ``i``.  ``abs2(v)`` is |v|^2 with real-argument
semantics: its derivative is 2*v*v', which matches |.|^2 only when v is
real-valued; the squared-distance expressions it exists for are real.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import Union

import numpy as np


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    """Malformed source; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class EvaluationError(ExprError):
    """Singular evaluation (log of 0, division by 0) at a concrete point."""

    def __init__(self, message: str, point=None):
        super().__init__(message if point is None else f"{message} at {point}")
        self.point = point


FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt", "abs2")


class Record:
    """The ==, hash and repr a dataclass generates, over the fields a
    subclass annotates, without the 0.3-0.6 ms a class of generating them."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


# The nodes are records for their structural ==, hash and repr, with a plain
# __init__: a formula builds many (the pairs and the hat kernel of an order
# -3 power take about 1,500 nodes), and a frozen dataclass's __init__ costs
# about three times as much.
# A node's fields are never assigned after __init__, which keeps the hash
# valid (simplify only marks a node it returns, see _mark).


class Num(Record):
    value: complex  # real literal or the imaginary unit (and folded products)

    def __init__(self, value: complex):
        # normalize away -0.0 so negation round-trips structurally
        v = complex(value)
        self.value = complex(v.real + 0.0, v.imag + 0.0)


class Var(Record):
    name: str  # one of the variables the expression was parsed over

    def __init__(self, name: str):
        self.name = name


class BinOp(Record):
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        self.op, self.left, self.right = op, left, right


class Pow(Record):
    base: "Expr"
    exponent: int

    def __init__(self, base: "Expr", exponent: int):
        self.base, self.exponent = base, exponent


class Call(Record):
    func: str
    arg: "Expr"

    def __init__(self, func: str, arg: "Expr"):
        self.func, self.arg = func, arg


Expr = Union[Num, Var, BinOp, Pow, Call]


# ---------------------------------------------------------------------------
# Tokenizer / parser


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        if ch.isdigit() or ch == ".":
            start = pos
            while pos < n and (src[pos].isdigit() or src[pos] == "."):
                pos += 1
            if pos < n and src[pos] in "eE":
                mark = pos
                pos += 1
                if pos < n and src[pos] in "+-":
                    pos += 1
                if pos < n and src[pos].isdigit():
                    while pos < n and src[pos].isdigit():
                        pos += 1
                else:
                    pos = mark  # the e belongs to an identifier, not here
            text = src[start:pos]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number {text!r}", start)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} is out of range", start)
            tokens.append(("num", text, start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (src[pos].isalnum() or src[pos] == "_"):
                pos += 1
            tokens.append(("ident", src[start:pos], start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


# Deepest nesting of parentheses, calls and unary minus that parse accepts;
# deeper input would exhaust the interpreter's recursion limit in the parser.
MAX_DEPTH = 100
# Deepest tree that parse builds, counting each nesting level and each
# operator of a chain as one level: simplify, diff and compile_expr recurse
# once per level and exhaust the default recursion limit (1000) near 1000.
MAX_TREE_DEPTH = 700


class _Parser:
    def __init__(self, src: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = variables
        self.depth = 0
        self.levels = 0  # tree levels above the token being parsed

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.advance()

    def descend(self, offset: int) -> None:
        self.levels += 1
        if self.levels > MAX_TREE_DEPTH:
            raise ExprSyntaxError(f"expression deeper than {MAX_TREE_DEPTH} levels", offset)

    def parse_expr(self) -> Expr:
        levels = self.levels
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text == "-":
            self.advance()
            negate = True
        node = self.parse_term()
        if negate:
            node = _negate(node)
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                self.descend(off)
                rhs = self.parse_term()
                node = BinOp(text, node, rhs)
            else:
                self.levels = levels
                return node

    def parse_term(self) -> Expr:
        levels = self.levels
        node = self.parse_factor()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                self.descend(off)
                rhs = self.parse_factor()
                node = BinOp(text, node, rhs)
            else:
                self.levels = levels
                return node

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, off = self.peek()
            sign = 1
            if kind == "op" and text == "-":
                self.advance()
                sign = -1
                kind, text, off = self.peek()
            if kind != "num" or "." in text or "e" in text or "E" in text:
                raise ExprSyntaxError("exponent must be an integer", off)
            self.advance()
            node = Pow(node, sign * int(text))
        return node

    def parse_base(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", self.peek()[2])
        self.descend(self.peek()[2])
        node = self._parse_base(*self.advance())
        self.depth -= 1
        self.levels -= 1
        return node

    def _parse_base(self, kind: str, text: str, off: int) -> Expr:
        if kind == "num":
            return Num(complex(float(text)))
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            # unary minus inside a factor chain, e.g. "2*-x^2" = 2*(-(x^2))
            return _negate(self.parse_factor())
        if kind == "ident":
            if text == "i":
                return Num(1j)
            if text in self.variables:
                return Var(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(text, arg)
            raise UnknownIdentifierError(text, off)
        raise ExprSyntaxError(f"unexpected token {text!r}", off)


def parse(src: str, variables: tuple[str, ...] = ("x", "y")) -> Expr:
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(src, variables)
    node = parser.parse_expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {text!r}", off)
    return node


def _negate(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(-e.value)
    return BinOp("-", Num(0j), e)


# ---------------------------------------------------------------------------
# Differentiation and light simplification
#
# Trees share subtrees (``binop(op, e, e)`` uses ``e`` twice), and each pass
# below visits every distinct node once.  ``simplify`` marks each BinOp, Pow
# and Call node it returns and returns a marked node as it is; ``diff``
# memoises by node identity for the length of one call, so a shared subtree
# is processed once and its result is shared in turn.


def _is_num(e: Expr, value=None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def _node(e: Expr, *kids: Expr) -> Expr:
    """A BinOp, Pow or Call like e over kids; e itself when they are its own
    children."""
    if isinstance(e, BinOp):
        left, right = kids
        return e if left is e.left and right is e.right else BinOp(e.op, left, right)
    (kid,) = kids
    if isinstance(e, Pow):
        return e if kid is e.base else Pow(kid, e.exponent)
    return e if kid is e.arg else Call(e.func, kid)


def _mark(e: Expr) -> Expr:
    e._simplified = True
    return e


def _fold(e: Expr) -> Expr:
    """simplify of a BinOp, Pow or Call whose children are simplified."""
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Num(1 + 0j)
        if e.exponent == 1:
            return e.base
        if isinstance(e.base, Num):
            return _constant(e, operator.pow, e.base.value, e.exponent)
        return _mark(e)
    if isinstance(e, Call):
        return _mark(e)
    left, right = e.left, e.right
    op = e.op
    if isinstance(left, Num) and isinstance(right, Num):
        return _constant(e, _ARITHMETIC[op], left.value, right.value)
    if op == "+":
        if _is_num(left, 0):
            return right
        if _is_num(right, 0):
            return left
    elif op == "-":
        if _is_num(right, 0):
            return left
    elif op == "*":
        if _is_num(left, 0) or _is_num(right, 0):
            return Num(0j)
        if _is_num(left, 1):
            return right
        if _is_num(right, 1):
            return left
    elif op == "/":
        if _is_num(left, 0):
            return Num(0j)
        if _is_num(right, 1):
            return left
    return _mark(e)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _constant(e: Expr, op, a: complex, b) -> Expr:
    """op(a, b) as a Num, or e unfolded when that is no finite double (0 to a
    negative power, c/0, an overflow), so that its evaluation raises."""
    try:
        v = op(a, b)
    except (ZeroDivisionError, OverflowError):
        return _mark(e)
    return Num(v) if cmath.isfinite(v) else _mark(e)


def _simplify(e: Expr, memo: dict) -> Expr:
    if isinstance(e, (Num, Var)) or "_simplified" in e.__dict__:
        return e
    out = memo.get(id(e))
    if out is None:
        if isinstance(e, BinOp):
            node = _node(e, _simplify(e.left, memo), _simplify(e.right, memo))
        elif isinstance(e, Pow):
            node = _node(e, _simplify(e.base, memo))
        else:
            node = _node(e, _simplify(e.arg, memo))
        out = memo[id(e)] = _fold(node)
    return out


def simplify(e: Expr) -> Expr:
    """Constant folding and 0/1 identities; not a canonicalizer."""
    return _simplify(e, {})


ZERO = Num(0j)
_ONE = Num(1 + 0j)


def binop(op: str, left: Expr, right: Expr) -> Expr:
    """One simplified binary operation: simplify(BinOp(op, left, right))."""
    return simplify(BinOp(op, left, right))


def neg(e: Expr) -> Expr:
    """0 - e, simplified."""
    return binop("-", ZERO, e)


def diff(e: Expr, var: str) -> Expr:
    """d e / d var, simplified."""
    return _diff(e, var, {}, {})


def _op(op: str, left: Expr, right: Expr) -> Expr:
    return _fold(BinOp(op, left, right))


def _diff(e: Expr, var: str, memo: dict, simple: dict) -> Expr:
    """The derivative, built from simplified nodes, so that it equals
    simplify of the textbook rule's tree; ``simple`` is simplify's memo."""
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else ZERO
    out = memo.get(id(e))
    if out is not None:
        return out
    if isinstance(e, BinOp):
        dl, dr = _diff(e.left, var, memo, simple), _diff(e.right, var, memo, simple)
        if e.op in "+-":
            out = _op(e.op, dl, dr)
        else:
            left, right = _simplify(e.left, simple), _simplify(e.right, simple)
            if e.op == "*":
                out = _op("+", _op("*", dl, right), _op("*", left, dr))
            else:  # quotient rule
                num = _op("-", _op("*", dl, right), _op("*", left, dr))
                out = _op("/", num, _fold(Pow(right, 2)))
    elif isinstance(e, Pow):
        db = _diff(e.base, var, memo, simple)
        base = _simplify(e.base, simple)
        scaled = _op("*", Num(complex(e.exponent)), _fold(Pow(base, e.exponent - 1)))
        out = _op("*", scaled, db)
    elif isinstance(e, Call):
        da = _diff(e.arg, var, memo, simple)
        a = _simplify(e.arg, simple)
        outer: Expr
        if e.func == "exp":
            outer = _simplify(e, simple)
        elif e.func == "log":
            outer = _op("/", _ONE, a)
        elif e.func == "sin":
            outer = _fold(Call("cos", a))
        elif e.func == "cos":
            outer = _op("-", ZERO, _fold(Call("sin", a)))
        elif e.func == "sinh":
            outer = _fold(Call("cosh", a))
        elif e.func == "cosh":
            outer = _fold(Call("sinh", a))
        elif e.func == "sqrt":
            outer = _op("/", Num(0.5 + 0j), _fold(Call("sqrt", a)))
        elif e.func == "abs2":
            outer = _op("*", Num(2 + 0j), a)  # real-argument semantics
        else:  # pragma: no cover
            raise ExprError(f"no derivative rule for {e.func}")
        out = _op("*", outer, da)
    else:  # pragma: no cover
        raise ExprError(f"unknown node {e!r}")
    memo[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# Compilation


def _straight_line(e: Union[Expr, tuple]) -> tuple[list[tuple], list[int]]:
    """The distinct subexpressions of e, or of a tuple of expressions, as
    (keys, roots): keys[k] is (type, payload, *indices of its children in
    keys), children first, and roots the index of e, or of each expression
    of the tuple.  Nodes are keyed on structure, looked up through node
    identity, so each distinct subexpression appears once."""
    number: dict[int, int] = {}  # id(node) -> index of its structure
    index: dict[tuple, int] = {}  # structure -> index, in the order of keys

    def visit(n: Expr) -> int:
        k = number.get(id(n))
        if k is None:
            if isinstance(n, BinOp):
                key = (BinOp, n.op, visit(n.left), visit(n.right))
            elif isinstance(n, Pow):
                key = (Pow, n.exponent, visit(n.base))
            elif isinstance(n, Call):
                key = (Call, n.func, visit(n.arg))
            elif isinstance(n, Num):
                key = (Num, n.value)
            else:
                key = (Var, n.name)
            k = number[id(n)] = index.setdefault(key, len(index))
        return k

    roots = [visit(r) for r in (e if isinstance(e, tuple) else (e,))]
    return list(index), roots


def _abs2(v):
    return v * v  # real-argument semantics; see module docstring


def _message(exc: Exception) -> str:
    """The text of the EvaluationError for ``exc``, a fault of Python's
    arithmetic or a cmath function, in plain text: an OverflowError of a
    float power carries an errno tuple, (34, 'Numerical result out of
    range'), as its text."""
    if isinstance(exc, ZeroDivisionError):
        return "division by zero"
    if isinstance(exc, OverflowError) and len(exc.args) > 1:
        return "result outside the double range"
    return str(exc)


def _of_complex(ufunc):
    """ufunc on complex values: like cmath's functions, it takes a real
    argument as complex with a +0 imaginary part, so real and complex values
    flow through a program as they do through cmath code."""
    return lambda v: ufunc(np.asarray(v, dtype=complex))


# The function table a program runs on (``jets.TABLE`` runs it on Taylor
# jets): numpy's, on numbers and on arrays that broadcast together.
NUMPY = {
    **{f"_{name}": _of_complex(getattr(np, name)) for name in FUNCTIONS if name != "abs2"},
    "_abs2": _abs2,
}


class Program:
    """A compiled expression, or tuple of them (``compile_expr``): a list of
    steps ``(dest, fn, a, b)``, one for each distinct subexpression,
    children first, run on a fresh list of registers that holds the point's
    coordinates, the constants and ``Pow`` exponents, and the values
    computed so far.  A register takes a new value once no later step reads
    its old one."""

    __slots__ = ("arity", "template", "steps", "out", "many", "located")

    def __init__(self, arity: int, template: list, steps: list, out: list, many: bool, located: bool = True):
        self.arity, self.template, self.steps, self.out, self.many = arity, template, steps, out, many
        self.located = located

    def __call__(self, *point):
        """The values at the point, one number or array per variable.  On
        numpy, the first node, in node order, where a step faults as Python's
        arithmetic or a cmath function faults at one point raises
        EvaluationError with the node's point (``checked``); on jets, the
        jets raise their own faults."""
        if not self.located:
            return self.run(point)
        values, faults = self.checked(*point)
        bad = [] if faults is None else np.flatnonzero(faults != "")
        if len(bad):
            raise EvaluationError(faults.flat[bad[0]], node(point, bad[0]))
        return values

    def checked(self, *point) -> tuple:
        """The values at the point, and None when numpy meets no fault and
        every value is finite.  Else the values and faults of a second run
        that locates the faults (``faults.locate``)."""
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                values = self.run(point)
                if finite(*(values if self.many else [values])):
                    return values, None
            except (FloatingPointError, ZeroDivisionError, OverflowError):
                pass
        from . import faults  # on a fault only: at module level, every start would compile it

        return faults.locate(self, point)

    def run(self, point: tuple):
        """The values at the point, its faults left to numpy's error state."""
        r = self.registers(point)
        for dest, fn, a, b in self.steps:
            r[dest] = fn(r[a]) if b is None else fn(r[a], r[b])
        return self.values(r)

    def registers(self, point: tuple) -> list:
        """Fresh registers: the point's coordinates, then the constants."""
        if len(point) != self.arity:
            raise TypeError(f"the program takes {self.arity} arguments, not {len(point)}")
        return [*point, *self.template]

    def values(self, r: list):
        """The results in the registers r."""
        return tuple([r[i] for i in self.out]) if self.many else r[self.out[0]]


def finite(*values) -> bool:
    """Every entry of the values is finite.  A non-finite entry makes the
    sum non-finite; an overflow of the sum alone only reads as not finite."""
    return cmath.isfinite(sum(np.sum(v) for v in values))


def node(point: tuple, k: int) -> tuple[float, ...]:
    """The coordinates of node k, in node order, of the columns of
    ``point`` broadcast together."""
    shape = np.broadcast_shapes(*map(np.shape, point))
    return tuple(float(np.broadcast_to(c, shape).flat[k]) for c in point)


def compile_expr(e: Union[Expr, tuple], variables: tuple[str, ...] = ("x", "y"), table: dict = NUMPY) -> Program:
    """Compile to a ``Program`` over the given variables; a tuple of
    expressions to one that returns the tuple of their values.

    The steps' functions come from ``table``: ``NUMPY`` by default, on
    numbers and arrays that broadcast together, whose faults the program
    locates at their nodes (``Program.__call__``); ``jets.TABLE``, on
    Taylor jets, whose faults the jets raise.
    """
    keys, roots = _straight_line(e)
    # the step that reads each value last, after which its register is free
    last = {c: k for k, key in enumerate(keys) for c in key[2:]}
    last.update(dict.fromkeys(roots, len(keys)))  # the results outlive the steps
    arity = len(variables)
    template: list = []  # the registers after the point's
    place: list[int] = []  # the register of keys[k]
    free, steps = [], []
    for k, key in enumerate(keys):
        kind, payload = key[0], key[1]
        for c in key[2:]:
            if last.get(c) == k:
                del last[c]  # a value read twice by one step is freed once
                free.append(place[c])
        if kind is Var:
            dest = variables.index(payload)
        elif kind is Num:
            dest = arity + len(template)
            template.append(payload)
        else:
            if not free:
                free.append(arity + len(template))
                template.append(None)
            dest, a = free.pop(), place[key[2]]
            if kind is BinOp:
                steps.append((dest, _ARITHMETIC[payload], a, place[key[3]]))
            elif kind is Pow:
                steps.append((dest, operator.pow, a, arity + len(template)))
                template.append(payload)
            else:
                steps.append((dest, table[f"_{payload}"], a, None))
        place.append(dest)
    return Program(arity, template, steps, [place[r] for r in roots], isinstance(e, tuple), table is NUMPY)
