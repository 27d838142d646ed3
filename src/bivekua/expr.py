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
# deeper input would exhaust the interpreter's recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, src: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = variables
        self.depth = 0

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

    def parse_expr(self) -> Expr:
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text == "-":
            self.advance()
            negate = True
        node = self.parse_term()
        if negate:
            node = _negate(node)
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_term()
                node = BinOp(text, node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = BinOp(text, node, rhs)
            else:
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
        node = self._parse_base(*self.advance())
        self.depth -= 1
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


def _is_num(e: Expr, value=None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def simplify(e: Expr) -> Expr:
    """Constant folding and 0/1 identities; not a canonicalizer."""
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Pow):
        base = simplify(e.base)
        if e.exponent == 0:
            return Num(1 + 0j)
        if e.exponent == 1:
            return base
        if isinstance(base, Num):
            return Num(base.value**e.exponent)
        return Pow(base, e.exponent)
    if isinstance(e, Call):
        return Call(e.func, simplify(e.arg))
    left, right = simplify(e.left), simplify(e.right)
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
    return BinOp(op, left, right)


ZERO = Num(0j)


def binop(op: str, left: Expr, right: Expr) -> Expr:
    """One simplified binary operation: simplify(BinOp(op, left, right))."""
    return simplify(BinOp(op, left, right))


def neg(e: Expr) -> Expr:
    """0 - e, simplified."""
    return binop("-", ZERO, e)


def substitute(e: Expr, binding: dict[str, Expr]) -> Expr:
    """Replace every variable named in ``binding`` by its expression."""
    if isinstance(e, Var):
        return binding.get(e.name, e)
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, binding), substitute(e.right, binding))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, binding), e.exponent)
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, binding))
    return e


def diff(e: Expr, var: str) -> Expr:
    return simplify(_diff(e, var))


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Num):
        return Num(0j)
    if isinstance(e, Var):
        return Num(1 + 0j) if e.name == var else Num(0j)
    if isinstance(e, BinOp):
        dl, dr = _diff(e.left, var), _diff(e.right, var)
        if e.op in "+-":
            return BinOp(e.op, dl, dr)
        if e.op == "*":
            return BinOp(
                "+", BinOp("*", dl, e.right), BinOp("*", e.left, dr)
            )
        # quotient rule
        num = BinOp("-", BinOp("*", dl, e.right), BinOp("*", e.left, dr))
        return BinOp("/", num, Pow(e.right, 2))
    if isinstance(e, Pow):
        db = _diff(e.base, var)
        scaled = BinOp("*", Num(complex(e.exponent)), Pow(e.base, e.exponent - 1))
        return BinOp("*", scaled, db)
    if isinstance(e, Call):
        da = _diff(e.arg, var)
        a = e.arg
        outer: Expr
        if e.func == "exp":
            outer = Call("exp", a)
        elif e.func == "log":
            outer = BinOp("/", Num(1 + 0j), a)
        elif e.func == "sin":
            outer = Call("cos", a)
        elif e.func == "cos":
            outer = _negate(Call("sin", a))
        elif e.func == "sinh":
            outer = Call("cosh", a)
        elif e.func == "cosh":
            outer = Call("sinh", a)
        elif e.func == "sqrt":
            outer = BinOp("/", Num(0.5 + 0j), Call("sqrt", a))
        elif e.func == "abs2":
            outer = BinOp("*", Num(2 + 0j), a)  # real-argument semantics
        else:  # pragma: no cover
            raise ExprError(f"no derivative rule for {e.func}")
        return BinOp("*", outer, da)
    raise ExprError(f"unknown node {e!r}")  # pragma: no cover


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


def _codegen(e: Expr) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Pow):
        return f"({_codegen(e.base)})**({e.exponent})"
    if isinstance(e, Call):
        return f"_{e.func}({_codegen(e.arg)})"
    return f"({_codegen(e.left)} {e.op} {_codegen(e.right)})"


def _safe_log(v):
    if v == 0:
        raise EvaluationError("log of 0")
    return cmath.log(v)


def _abs2(v):
    return v * v  # real-argument semantics; see module docstring


_ENV = {
    "_exp": cmath.exp,
    "_log": _safe_log,
    "_sin": cmath.sin,
    "_cos": cmath.cos,
    "_sinh": cmath.sinh,
    "_cosh": cmath.cosh,
    "_sqrt": cmath.sqrt,
    "_abs2": _abs2,
    "__builtins__": {},
}


def compile_expr(e: Expr, variables: tuple[str, ...] = ("x", "y")):
    """Compile to a fast positional callable over the given variables.

    Division by zero and log(0) surface as EvaluationError carrying the
    evaluation point rather than NaN/Inf.
    """
    source = f"lambda {', '.join(variables)}: {_codegen(e)}"
    raw = eval(source, dict(_ENV))  # noqa: S307 - closed environment

    def call(*args):
        try:
            return raw(*args)
        except ZeroDivisionError:
            raise EvaluationError("division by zero", args) from None
        except EvaluationError as exc:
            raise EvaluationError(str(exc), args) from None
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(str(exc), args) from None

    return call
