import cmath
import math
import operator
import random

import pytest

from bivekua.expr import (
    BinOp,
    Call,
    EvaluationError,
    ExprSyntaxError,
    Num,
    Pow,
    UnknownIdentifierError,
    Var,
    binop,
    compile_expr,
    diff,
    parse,
    pretty,
    simplify,
    substitute,
)


def test_parse_variable():
    assert parse("x") == Var("x")


def test_parse_structure():
    tree = parse("exp(2*x)*cos(y)")
    assert tree == BinOp(
        "*",
        Call("exp", BinOp("*", Num(2 + 0j), Var("x"))),
        Call("cos", Var("y")),
    )


def test_parse_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x +")
    assert exc.value.offset == 3


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


def test_substitute_keeps_sharing():
    e = _doubled(binop("*", Var("x"), Var("y")))
    s = substitute(e, {"x": Num(3 + 0j)})
    assert _distinct_nodes(s) <= 2 * 12
    assert compile_expr(s)(0.0, 1.0) == 3 * 4096


def _walk(e, env):
    """Test-only evaluator: walks the tree, every repeat included."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Pow):
        return _walk(e.base, env) ** e.exponent
    if isinstance(e, Call):
        v = _walk(e.arg, env)
        return v * v if e.func == "abs2" else getattr(cmath, e.func)(v)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    return ops[e.op](_walk(e.left, env), _walk(e.right, env))


def test_compiled_repeats_match_tree_walk():
    u = parse("sin(x*y) + exp(x)/(1 + y^2)")
    v = parse("sqrt(abs2(x - 1) + abs2(y)) * log(x + 2)")
    e = binop("*", binop("+", u, v), binop("-", u, binop("*", v, u)))
    e = binop("+", e, binop("/", diff(e, "x"), binop("+", Num(3 + 0j), diff(e, "y"))))
    f = compile_expr(e)
    for x, y in _random_points(50, lo=-0.9, hi=1.9, seed=5):
        assert f(x, y) == _walk(e, {"x": x, "y": y})


def test_singular_shared_subterm_carries_point():
    s = binop("/", Num(1 + 0j), binop("-", Var("x"), Var("x")))
    e = binop("+", s, binop("*", s, Var("y")))
    with pytest.raises(EvaluationError) as info:
        compile_expr(e)(1.5, 2.0)
    assert info.value.point == (1.5, 2.0)


def test_long_chain_compiles():
    e = parse(" + ".join(["x*y"] * 600))
    assert compile_expr(e)(1.0, 2.0) == 1200
    assert compile_expr(diff(e, "x"))(1.0, 2.0) == 1200
