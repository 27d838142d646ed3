import math
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bivekua.expr import (
    FUNCTIONS,
    NUMPY,
    BinOp,
    Call,
    EvaluationError,
    Expr,
    ExprSyntaxError,
    Num,
    Pow,
    UnknownIdentifierError,
    Var,
    binop,
    compile_expr,
    diff,
    parse,
    simplify,
)
import oracles
from oracles import evaluate


# Parseable printing, which the round-trip tests below use.


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


def test_parse_variable():
    assert parse("x") == Var("x")


def test_parse_structure():
    tree = parse("exp(2*x)*cos(y)")
    assert tree == BinOp(
        "*",
        Call("exp", BinOp("*", Num(2 + 0j), Var("x"))),
        Call("cos", Var("y")),
    )


@pytest.mark.parametrize(
    "src, offset, message",
    [
        ("x +", 3, "unexpected token ''"),
        ("1.2.3", 0, "bad number '1.2.3'"),
        ("x $ y", 2, "unexpected character '$'"),
        ("(x + 1", 6, "expected ')'"),
        ("x y", 2, "trailing input 'y'"),
    ],
    ids=["end", "number", "character", "paren", "trailing"],
)
def test_parse_error_offset(src, offset, message):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src)
    assert exc.value.offset == offset
    assert str(exc.value) == f"{message} (at offset {offset})"


def test_unary_minus_in_factor_chain():
    assert compile_expr(parse("2*-x"))(2, 0) == -4


@pytest.mark.parametrize(
    "src, value",
    [("2*-x^2", -18), ("x*-y^2", -12), ("2/-x^2", -2 / 9), ("-x^2", -9)],
)
def test_unary_minus_binds_looser_than_power(src, value):
    # the minus negates the whole factor, power included, as in Python
    assert compile_expr(parse(src))(3, 2) == value


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("foo + x")


def test_empty_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_power_requires_integer():
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5")


def test_diff_examples():
    assert pretty(diff(parse("x^2"), "x")) == "2 * x"
    assert pretty(diff(parse("exp(2*x)"), "x")) == "exp(2 * x) * 2"
    assert pretty(diff(parse("log(x)"), "x")) == "1 / x"


def test_compile_examples():
    f = compile_expr(parse("x"))
    assert f(2.0, 3.0) == 2.0
    g = compile_expr(parse("1/x"))
    with pytest.raises(EvaluationError):
        g(0.0, 0.0)
    dfx = compile_expr(diff(parse("x"), "x"))
    assert dfx(5.0, -1.0) == 1.0


def test_log_of_zero():
    f = compile_expr(parse("log(x)"))
    with pytest.raises(EvaluationError):
        f(0.0, 1.0)


SOURCES = [
    "x",
    "x + y",
    "x - y - 1",
    "exp(2*x)*cos(y)",
    "x^2 / (1 + y^2)",
    "sqrt(abs2(x - 1) + abs2(y))",
    "sinh(x)*cosh(y) - sin(x*y)",
    "log(x + 2) * x^-2",
    "-x + 3",
    "i*x + y",
]


@pytest.mark.parametrize("src", SOURCES)
def test_pretty_parse_roundtrip(src):
    tree = simplify(parse(src))
    again = simplify(parse(pretty(tree)))
    assert again == tree


@pytest.mark.parametrize("src", SOURCES)
def test_diff_roundtrips_and_prints(src):
    for var in ("x", "y"):
        d = diff(parse(src), var)
        assert simplify(parse(pretty(d))) == simplify(d)


def _random_points(n, lo=0.3, hi=2.0, seed=7):
    rng = random.Random(seed)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


@pytest.mark.parametrize("src", SOURCES)
def test_diff_matches_central_difference(src):
    f = compile_expr(parse(src))
    for var_index, var in enumerate(("x", "y")):
        df = compile_expr(diff(parse(src), var))
        h = 1e-5
        for x, y in _random_points(10):
            args = [x, y]
            lo, hi = list(args), list(args)
            lo[var_index] -= h
            hi[var_index] += h
            fd = (f(*hi) - f(*lo)) / (2 * h)
            assert abs(df(x, y) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_diff_is_linear():
    e1, e2 = parse("sin(x*y)"), parse("exp(x)")
    combo = parse("3*sin(x*y) + exp(x)")
    d_combo = compile_expr(diff(combo, "x"))
    d1 = compile_expr(diff(e1, "x"))
    d2 = compile_expr(diff(e2, "x"))
    for x, y in _random_points(100, lo=-1.5, hi=1.5, seed=11):
        lhs = d_combo(x, y)
        rhs = 3 * d1(x, y) + d2(x, y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_simplify_identities():
    assert simplify(parse("0*x + y*1")) == Var("y")
    assert simplify(parse("x^0")) == Num(1 + 0j)
    assert simplify(BinOp("-", Var("x"), Num(0j))) == Var("x")


def test_zero_to_a_negative_power_stays_unfolded():
    # as c/0 does: the fold would divide by zero, the evaluation raises
    zero_inv = Pow(Num(0j), -1)
    assert simplify(parse("(1 - 1)^-1")) == zero_inv
    assert diff(parse("(0.5 - 0.5)^-1*x"), "x") == zero_inv
    assert simplify(parse("(1 - 1)^2")) == Num(0j)
    with pytest.raises(EvaluationError, match="division by zero"):
        compile_expr(simplify(parse("(1 - 1)^-1*x")))(1.0, 2.0)


def test_constant_past_the_double_range_stays_unfolded():
    # as c/0 does: the fold would overflow or leave inf, the evaluation raises
    for src in ("(1e200)^2", "1e200*1e200", "1e308 + 1e308", "(1e200 + 1e200*i)^2", "1e200/1e-200"):
        assert isinstance(simplify(parse(src)), (BinOp, Pow))
    assert simplify(parse("(1e100)^2")) == Num(1e200)


def test_imaginary_literal():
    f = compile_expr(parse("i*x"))
    assert f(2.0, 0.0) == 2j


def test_extra_variables():
    tree = parse("x*xi + y*eta", variables=("x", "y", "xi", "eta"))
    f = compile_expr(tree, variables=("x", "y", "xi", "eta"))
    assert f(1.0, 2.0, 3.0, 4.0) == 11.0


def test_scientific_notation():
    f = compile_expr(parse("1e-2 * x"))
    assert math.isclose(f(3.0, 0.0).real, 0.03)


def test_non_finite_literal_rejected():
    with pytest.raises(ExprSyntaxError) as info:
        parse("2 + 1e400*x")
    assert info.value.offset == 4


def test_deep_nesting_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("(" * 5000 + "x" + ")" * 5000)


def test_long_flat_chain_rejected():
    # 1200 levels: simplify, diff and compile_expr would exhaust the
    # recursion limit on this tree
    with pytest.raises(ExprSyntaxError):
        parse(" + ".join(["x*y"] * 1200))


def _distinct_nodes(e):
    """Node objects reachable from e, each counted once."""
    seen = {}
    todo = [e]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            todo.extend(getattr(n, f) for f in ("left", "right", "base", "arg") if hasattr(n, f))
    return len(seen)


def _doubled(e, times=12):
    for _ in range(times):
        e = binop("+", e, e)
    return e


def test_simplify_returns_simplified_nodes_as_they_are():
    t = binop("*", parse("sin(x)"), binop("+", Var("x"), parse("y^2")))
    assert simplify(t) is t
    d = diff(t, "x")
    assert simplify(d) is d


def test_diff_keeps_sharing():
    e = _doubled(binop("*", Var("x"), Var("y")))
    d = diff(e, "x")
    assert _distinct_nodes(d) <= 2 * 12
    assert compile_expr(d)(0.5, 1.0) == 4096
    assert compile_expr(e)(0.5, 2.0) == 4096


def test_compiled_repeats_match_tree_walk():
    u = parse("sin(x*y) + exp(x)/(1 + y^2)")
    v = parse("sqrt(abs2(x - 1) + abs2(y)) * log(x + 2)")
    e = binop("*", binop("+", u, v), binop("-", u, binop("*", v, u)))
    e = binop("+", e, binop("/", diff(e, "x"), binop("+", Num(3 + 0j), diff(e, "y"))))
    f = compile_expr(e)
    for x, y in _random_points(50, lo=-0.9, hi=1.9, seed=5):
        assert f(x, y) == evaluate(e, {"x": x, "y": y}, oracles.NUMPY)


def test_singular_shared_subterm_carries_point():
    s = binop("/", Num(1 + 0j), binop("-", Var("x"), Var("x")))
    e = binop("+", s, binop("*", s, Var("y")))
    with pytest.raises(EvaluationError) as info:
        compile_expr(e)(1.5, 2.0)
    assert info.value.point == (1.5, 2.0)


# Every function, and integer powers, of a real and of a complex argument;
# both arguments vanish at some points, where the cmath code raises.
_ARGS = ("x*y - 0.5", "x - i*y")
_BOUND = [
    (e, compile_expr(e))
    for e in map(parse, [
        *(f"{name}({arg})" for name in FUNCTIONS for arg in _ARGS),
        *(f"({arg})^{k}" for k in (-7, -3, -2, -1, 0, 2, 3, 5) for arg in _ARGS),
    ])
]
_coordinate = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-3, 3))


def _first_fault(e, points):
    """The cmath oracle's values of e at the points, in order, or the
    EvaluationError text and point of its first fault."""
    values = []
    for x, y in points:
        try:
            values.append(evaluate(e, {"x": x, "y": y}))
        except oracles.FAULTS as exc:
            return None, (oracles.fault_message(exc), (x, y))
    return values, None


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=6))
def test_numpy_table_matches_cmath(points):
    # the program gives the cmath oracle's value at every entry, and raises
    # its first fault, with its point
    xs, ys = np.array(points).T
    for e, program in _BOUND:
        want, fault = _first_fault(e, points)
        if fault is not None:
            with pytest.raises(EvaluationError) as info:
                program(xs, ys)
            assert (str(info.value), info.value.point) == (f"{fault[0]} at {fault[1]}", fault[1])
            continue
        got = np.broadcast_to(program(xs, ys), xs.shape).tolist()
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-14 * abs(b)


def test_long_chain_compiles():
    e = parse(" + ".join(["x*y"] * 600))
    assert compile_expr(e)(1.0, 2.0) == 1200
    assert compile_expr(diff(e, "x"))(1.0, 2.0) == 1200


# Small trees over every node kind: + - * /, integer powers, every function,
# and subtrees reached twice through one node object (a shared node) or
# through two equal ones.
_leaves = st.one_of(
    st.sampled_from([Var("x"), Var("y")]),
    st.sampled_from([0j, 0.5 + 0j, -1.5 + 0j, 2 + 0j, 1j, -0.25 - 2j]).map(Num),
)
_ops = st.sampled_from("+-*/")


def _extend(kids):
    return st.one_of(
        st.builds(BinOp, _ops, kids, kids),
        st.builds(Pow, kids, st.integers(-3, 3)),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        st.builds(lambda op, kid: BinOp(op, kid, kid), _ops, kids),
        st.builds(lambda op, a, b: BinOp(op, BinOp("*", a, b), Call("exp", a)), _ops, kids, kids),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=10)
# coordinates at which arguments, divisors and bases vanish
_VALUES = (-1.5, -0.5, 0.0, 0.5, 2.0)


def _assert_program_is_the_oracle(e):
    """compile_expr(e), e a tree or a tuple of them, faults as the cmath
    oracle does node by node: at each point, and at all the points at once,
    it raises the oracle's first fault, at the first point where that
    faults, with that point.  Elsewhere it gives the oracle's value of each
    tree on numpy bit for bit: at each point, and at all of them at once."""
    trees = e if isinstance(e, tuple) else (e,)

    def bits(values):
        return [np.asarray(v, dtype=complex).tobytes() for v in values]

    def parts(value):
        return value if isinstance(e, tuple) else (value,)

    def fault(point):
        try:
            for t in trees:
                evaluate(t, point)
        except oracles.FAULTS as exc:
            return f"{oracles.fault_message(exc)} at {(point['x'], point['y'])}", (point["x"], point["y"])
        return None

    program = compile_expr(e)
    points = [{"x": x, "y": y} for x in _VALUES for y in _VALUES]
    faults = [fault(p) for p in points]
    for p, found in zip(points, faults):
        if found is None:
            with np.errstate(all="ignore"):
                want = [evaluate(t, p, oracles.NUMPY) for t in trees]
            assert bits(parts(program(p["x"], p["y"]))) == bits(want)
        else:
            with pytest.raises(EvaluationError) as info:
                program(p["x"], p["y"])
            assert (str(info.value), info.value.point) == found
    xs, ys = (np.array(c) for c in zip(*[(p["x"], p["y"]) for p in points]))
    first = next((found for found in faults if found is not None), None)
    if first is None:
        with np.errstate(all="ignore"):
            want = [evaluate(t, {"x": xs, "y": ys}, oracles.NUMPY) for t in trees]
        assert bits(parts(program(xs, ys))) == bits(want)
    else:
        with pytest.raises(EvaluationError) as info:
            program(xs, ys)
        assert (str(info.value), info.value.point) == first


@settings(max_examples=150)
@given(st.lists(_trees, min_size=1, max_size=3))
def test_program_is_the_node_by_node_oracle(trees):
    _assert_program_is_the_oracle(trees[0])
    _assert_program_is_the_oracle(tuple(trees))


def test_deep_chain_is_the_node_by_node_oracle():
    # 300 nested operations, built without the parser's depth limit: a
    # program runs a chain of any depth the tree walk reaches
    e = Var("x")
    for k in range(300):
        e = binop("*+"[k % 2], e, Var("y") if k % 3 else Call("sin", Var("x")))
    _assert_program_is_the_oracle(e)


def test_each_distinct_subexpression_runs_once_per_call():
    calls = []

    def counting_exp(v):
        calls.append(v)
        return NUMPY["_exp"](v)

    # the two parts share exp(x) by structure, not by node object
    program = compile_expr((parse("exp(x) + y"), parse("y * exp(x)")), table={**NUMPY, "_exp": counting_exp})
    program(np.array([0.5, 1.0]), np.array([2.0, 3.0]))
    assert len(calls) == 1


def test_nodes_compare_hash_and_print_as_dataclasses():
    # expr.Record gives the nodes what @dataclass(unsafe_hash=True) generated
    x, one = Var("x"), Num(1)
    e = BinOp("+", x, Pow(Call("exp", x), 2))
    assert e == BinOp("+", Var("x"), Pow(Call("exp", Var("x")), 2)) and e != BinOp("-", x, one)
    assert hash(e) == hash(("+", x, Pow(Call("exp", x), 2))) and hash(one) == hash((1 + 0j,))
    assert repr(e) == "BinOp(op='+', left=Var(name='x'), right=Pow(base=Call(func='exp', arg=Var(name='x')), exponent=2))"
    assert (one == Var("x"), one.__eq__(x)) == (False, NotImplemented)
    assert simplify(e).__dict__.get("_simplified") and simplify(e) == e  # the mark is not a field
