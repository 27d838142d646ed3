import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bivekua import expr as ex
from bivekua.jets import TABLE, Jet, size

DEGREE = 3


def _monomials(degree):
    return [(s - b, b) for s in range(degree + 1) for b in range(s + 1)]


def _jet_of(src, xs, ys, degree=DEGREE):
    program = ex.compile_expr(ex.parse(src), ("x", "y"), table=TABLE)
    out = program(Jet.variable(xs, 0, degree), Jet.variable(ys, 1, degree))
    return out.c if isinstance(out, Jet) else Jet.variable(xs, 0, degree).constant(out).c


def _partials_over_factorials(src, xs, ys, degree=DEGREE):
    """The partials of ``src`` up to total degree ``degree`` over a! b!, by
    ``ex.diff`` compiled to numpy, in the jets' graded order."""
    tree, out = ex.parse(src), []
    for a, b in _monomials(degree):
        d = tree
        for var, count in (("x", a), ("y", b)):
            for _ in range(count):
                d = ex.diff(d, var)
        values = ex.compile_expr(d, ("x", "y"), table=ex.NUMPY)(xs, ys)
        out.append(np.broadcast_to(values, xs.shape) / (math.factorial(a) * math.factorial(b)))
    return np.array(out)


# Random expressions over x, y and constants: every function, +, -, *, /
# and integer powers, negative ones too.
_leaves = st.sampled_from(["x", "y", "0.5", "1.5", "2", "i"])


def _extend(inner):
    return st.one_of(
        st.tuples(st.sampled_from(ex.FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


_expressions = st.recursive(_leaves, _extend, max_leaves=6)
_coordinate = st.floats(0.3, 1.7)


@settings(max_examples=150)
@given(_expressions, st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=3))
def test_jet_coefficients_are_the_partials_over_factorials(src, points):
    # every coefficient up to degree 3 of the jet program is the partial of
    # the symbolic derivative program over a! b!, to 1e-12 relative to the
    # largest coefficient of its degree at its point (or to 1): a partial
    # that cancels to 0, as those in x of x/x do, is 0 only to the rounding
    # of the others
    xs, ys = (np.array(c) for c in zip(*points))
    with np.errstate(all="ignore"):
        try:
            want = _partials_over_factorials(src, xs, ys)
        except ZeroDivisionError:  # a constant 0 to a negative power, kept by simplify
            assume(False)
    assume(np.all(np.isfinite(want)) and np.max(np.abs(want)) < 1e8)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            got = _jet_of(src, xs, ys)
        except (FloatingPointError, ZeroDivisionError, ex.EvaluationError):
            assume(False)
    assert got.shape == (size(DEGREE),) + xs.shape
    degrees = np.array([a + b for a, b in _monomials(DEGREE)])
    scale = np.array([np.abs(want[degrees == degrees[k]]).max(axis=0) for k in range(len(degrees))])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(scale, 1))


def test_jets_of_the_variables():
    c = _jet_of("x*y", np.array([2.0]), np.array([3.0]), degree=2)
    # x y = (2 + dx)(3 + dy) = 6 + 3 dx + 2 dy + dx dy
    assert c[:, 0].tolist() == [6, 3, 2, 0, 1, 0]


def test_series_of_one_point_are_those_of_many():
    # in the extended precision the Bers chain uses, a point's coefficients
    # are the same bits alone as in a batch
    src = "exp(x)*log(x + y)/sqrt(x*y) + sin(y)^-2 - cosh(x - y)*sinh(x)"
    xs, ys = (np.array(c, dtype=np.longdouble) for c in ([0.4, 0.9, 1.3], [1.1, 0.7, 0.5]))
    many = _jet_of(src, xs, ys)
    for k in range(3):
        assert np.array_equal(_jet_of(src, xs[k : k + 1], ys[k : k + 1])[:, 0], many[:, k])


@pytest.mark.parametrize("src, message", [("1/(x - y)", "division by zero"), ("log(x - y)", "log of 0"), ("(x - y)^-2", "division by zero")])
def test_singular_jet_raises(src, message):
    with pytest.raises(ex.EvaluationError, match=message):
        _jet_of(src, np.array([0.5, 1.0]), np.array([0.2, 1.0]))
