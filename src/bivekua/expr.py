"""A small expression language for scalar functions of (x, y).

Grammar (a strict superset of the documented EBNF; unary minus is accepted
so that derivative trees round-trip through their textual form):

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' int)?
    base   := number | 'i' | 'x' | 'y' | ident '(' expr ')' | '(' expr ')'

Functions: exp, log, sin, cos, sinh, cosh, sqrt, abs2.  Coefficients are
real except for the literal ``i``.  ``abs2(v)`` is |v|^2 with real-argument
semantics: its derivative is 2*v*v', which matches |.|^2 only when v is
real-valued; the squared-distance expressions it exists for are real.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union


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


@dataclass(frozen=True)
class Num:
    value: complex  # real literal or the imaginary unit (and folded products)

    def __post_init__(self):
        # normalize away -0.0 so negation round-trips structurally
        v = complex(self.value)
        object.__setattr__(self, "value", complex(v.real + 0.0, v.imag + 0.0))


@dataclass(frozen=True)
class Var:
    name: str  # one of the variables the expression was parsed over


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


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
            # unary minus inside a factor chain, e.g. "2*-x"
            return _negate(self.parse_base())
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
# and Call node it returns and returns a marked node as it is; ``diff`` and
# ``substitute`` memoise by node identity for the length of one call, so a
# shared subtree is processed once and its result is shared in turn.


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
    object.__setattr__(e, "_simplified", True)
    return e


def _fold(e: Expr) -> Expr:
    """simplify of a BinOp, Pow or Call whose children are simplified."""
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Num(1 + 0j)
        if e.exponent == 1:
            return e.base
        if isinstance(e.base, Num):
            return Num(e.base.value**e.exponent)
        return _mark(e)
    if isinstance(e, Call):
        return _mark(e)
    left, right = e.left, e.right
    op = e.op
    if isinstance(left, Num) and isinstance(right, Num):
        if op == "+":
            return Num(left.value + right.value)
        if op == "-":
            return Num(left.value - right.value)
        if op == "*":
            return Num(left.value * right.value)
        if op == "/" and right.value != 0:
            return Num(left.value / right.value)
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


def _substitute(e: Expr, binding: dict[str, Expr], memo: dict) -> Expr:
    if isinstance(e, Var):
        return binding.get(e.name, e)
    if isinstance(e, Num):
        return e
    out = memo.get(id(e))
    if out is None:
        if isinstance(e, BinOp):
            left = _substitute(e.left, binding, memo)
            out = _node(e, left, _substitute(e.right, binding, memo))
        elif isinstance(e, Pow):
            out = _node(e, _substitute(e.base, binding, memo))
        else:
            out = _node(e, _substitute(e.arg, binding, memo))
        memo[id(e)] = out
    return out


def substitute(e: Expr, binding: dict[str, Expr]) -> Expr:
    """Replace every variable named in ``binding`` by its expression."""
    return _substitute(e, binding, {})


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
# Pretty-printing (parseable output) and compilation


def _fmt_num(value: complex) -> str:
    if value.imag == 0:
        re = value.real
        if re == int(re) and abs(re) < 1e15:
            body = str(int(abs(re)))
        else:
            body = repr(abs(re))
        return ("-" if re < 0 else "") + body
    if value.real == 0:
        if value.imag == 1:
            return "i"
        if value.imag == -1:
            return "-i"
        return f"{_fmt_num(complex(value.imag))}*i"
    return f"({_fmt_num(complex(value.real))}+{_fmt_num(complex(value.imag))}*i)"


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "pow": 3, "atom": 4}


def _pp(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        text = _fmt_num(e.value)
        return text, (1 if text.startswith("-") or "+" in text[1:] else 4)
    if isinstance(e, Var):
        return e.name, 4
    if isinstance(e, Call):
        return f"{e.func}({_pp(e.arg)[0]})", 4
    if isinstance(e, Pow):
        base, prec = _pp(e.base)
        if prec < 4:
            base = f"({base})"
        exp = str(e.exponent) if e.exponent >= 0 else f"-{-e.exponent}"
        return f"{base}^{exp}", 3
    left, lp = _pp(e.left)
    right, rp = _pp(e.right)
    my = _PREC[e.op]
    if lp < my:
        left = f"({left})"
    # parenthesize equal precedence on the right so reparsing (which is
    # left-associative) rebuilds the identical tree
    if rp <= my:
        right = f"({right})"
    return f"{left} {e.op} {right}", my


def pretty(e: Expr) -> str:
    return _pp(e)[0]


# Deepest inline nesting in generated code; Python's parser refuses more
# than 200 nested parentheses, so a deeper subexpression gets a local.
_MAX_NESTING = 50


def _straight_line(e: Expr) -> tuple[list[str], str]:
    """Python code for e as (assignments, result): each distinct
    subexpression appears once, bound to a local when the walk reaches it
    more than once (or it nests too deep) and written inline otherwise.
    Nodes are keyed on structure, looked up through node identity."""
    number: dict[int, int] = {}  # id(node) -> index of its structure
    index: dict[tuple, int] = {}  # structure -> index
    keys: list[tuple] = []  # (type, payload, *child indices), children first
    shared: set[int] = set()  # structures reached more than once

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
            k = index.get(key)
            if k is None:
                k = index[key] = len(keys)
                keys.append(key)
            else:
                shared.add(k)
            number[id(n)] = k
        else:
            shared.add(k)
        return k

    root = visit(e)
    lines: list[str] = []
    text: list[str] = []
    depth: list[int] = []  # parentheses nested in text[k]
    for k, key in enumerate(keys):
        kind, payload = key[0], key[1]
        if kind is BinOp:
            left, right = key[2], key[3]
            code = f"({text[left]} {payload} {text[right]})"
            nesting = 1 + max(depth[left], depth[right])
        elif kind is Pow:
            code, nesting = f"({text[key[2]]})**({payload})", 1 + depth[key[2]]
        elif kind is Call:
            code, nesting = f"_{payload}({text[key[2]]})", 1 + depth[key[2]]
        else:
            code, nesting = (repr(payload) if kind is Num else payload), 0
        if nesting and (k in shared or nesting > _MAX_NESTING):
            lines.append(f"_t{k} = {code}")
            code, nesting = f"_t{k}", 0
        text.append(code)
        depth.append(nesting)
    return lines, text[root]


def _safe_log(v):
    if v == 0:
        raise EvaluationError("log of 0")
    return cmath.log(v)


def _abs2(v):
    return v * v  # real-argument semantics; see module docstring


def _error(exc: Exception, point: tuple) -> EvaluationError:
    """The EvaluationError for ``exc``, raised by compiled code at ``point``."""
    message = "division by zero" if isinstance(exc, ZeroDivisionError) else str(exc)
    return EvaluationError(message, point)


_ENV = {
    "_exp": cmath.exp,
    "_log": _safe_log,
    "_sin": cmath.sin,
    "_cos": cmath.cos,
    "_sinh": cmath.sinh,
    "_cosh": cmath.cosh,
    "_sqrt": cmath.sqrt,
    "_abs2": _abs2,
    "_errors": (ZeroDivisionError, EvaluationError, ValueError, OverflowError),
    "_error": _error,
    "__builtins__": {},
}


def compile_expr(e: Expr, variables: tuple[str, ...] = ("x", "y")):
    """Compile to a fast positional callable over the given variables.

    The generated code computes each repeated subexpression once.  Division
    by zero and log(0) surface as EvaluationError carrying the evaluation
    point rather than NaN/Inf.
    """
    lines, result = _straight_line(e)
    body = "".join(f"        {line}\n" for line in lines)
    point = f"({''.join(f'{v}, ' for v in variables)})"
    source = (
        f"def _f({', '.join(variables)}):\n"
        f"    try:\n{body}        return {result}\n"
        f"    except _errors as exc:\n"
        f"        raise _error(exc, {point}) from None\n"
    )
    env = dict(_ENV)
    exec(source, env)  # noqa: S102 - closed environment
    return env["_f"]
