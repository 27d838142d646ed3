import random

import pytest

from bivekua.bicomplex import Bicomplex, PlanePoint, isclose
from bivekua.calculus import RegionGrid
from bivekua.fields import Field
from bivekua.pairs import (
    DegeneratePairError,
    GeneratingSequence,
    MissingSequenceError,
    adjoint_pair,
    fg_derivative,
    is_successor,
    make_pair,
    separable_pair,
    vekua_residual,
)

ANALYTIC = make_pair(Field.from_exprs("1", "0"), Field.from_exprs("0", "1"))
MAIN_X = make_pair(Field.from_exprs("x", "0"), Field.from_exprs("0", "1/x"))
REGION_X = RegionGrid(1, 2, -1, 1)


def rand_points(n, x0=1.1, x1=1.9, y0=-0.9, y1=0.9, seed=3):
    rng = random.Random(seed)
    return [PlanePoint(rng.uniform(x0, x1), rng.uniform(y0, y1)) for _ in range(n)]


def test_analytic_pair_coefficients_vanish():
    z = PlanePoint(0.7, -0.3)
    for coef in (ANALYTIC.a, ANALYTIC.b, ANALYTIC.A, ANALYTIC.B):
        assert coef(z).norm <= 1e-14


def test_main_pair_coefficients():
    for z in rand_points(10):
        assert MAIN_X.a(z).norm <= 1e-13
        assert MAIN_X.A(z).norm <= 1e-13
        assert isclose(MAIN_X.b(z), Bicomplex(1 / (2 * z.x), 0))
        assert isclose(MAIN_X.B(z), Bicomplex(1 / (2 * z.x), 0))


def test_degenerate_pair():
    with pytest.raises(DegeneratePairError):
        make_pair(
            Field.from_exprs("1", "0"),
            Field.from_exprs("1", "0"),
            RegionGrid(0, 1, 0, 1),
        )


def test_defining_identities():
    # F and G satisfy the Vekua equation of their own pair exactly.
    for pair in (ANALYTIC, MAIN_X):
        for z in rand_points(10):
            assert vekua_residual(pair.F, pair, z) <= 1e-8
            assert vekua_residual(pair.G, pair, z) <= 1e-8


def test_fg_derivative_of_generators_vanishes():
    for pair in (ANALYTIC, MAIN_X):
        for z in rand_points(5):
            assert fg_derivative(pair.F, pair, z).norm <= 1e-10
            assert fg_derivative(pair.G, pair, z).norm <= 1e-10


def test_fg_derivative_analytic_reduces_to_complex_derivative():
    w = Field.from_exprs("x^2 - y^2", "2*x*y")  # z^2
    z = PlanePoint(1.3, 0.4)
    assert isclose(fg_derivative(w, ANALYTIC, z), Bicomplex(2 * z.x, 2 * z.y))


def test_vekua_residual_nonsolution():
    w = Field.from_exprs("x", "-y")  # conj_j(z)
    assert abs(vekua_residual(w, ANALYTIC, PlanePoint(0.5, 0.5)) - 1.0) <= 1e-10


def test_adjoint_of_analytic_pair():
    adj = adjoint_pair(ANALYTIC)
    z = PlanePoint(0.4, 0.9)
    assert isclose(adj.F(z), Bicomplex(0, -1))
    assert isclose(adj.G(z), Bicomplex(1, 0))


def test_adjoint_involution():
    for pair in (ANALYTIC, MAIN_X):
        double = adjoint_pair(adjoint_pair(pair))
        for z in rand_points(100):
            assert (double.F(z) - pair.F(z)).norm <= 1e-12 * max(1, pair.F(z).norm)
            assert (double.G(z) - pair.G(z)).norm <= 1e-12 * max(1, pair.G(z).norm)


def test_adjoint_coefficient_identities():
    # a* = -a, b* = -conj_j(B), A* = -A, B* = -conj_j(b)
    for pair in (ANALYTIC, MAIN_X):
        adj = adjoint_pair(pair)
        for z in rand_points(20):
            assert (adj.a(z) + pair.a(z)).norm <= 1e-10
            assert (adj.b(z) + pair.B(z).conj()).norm <= 1e-10
            assert (adj.A(z) + pair.A(z)).norm <= 1e-10
            assert (adj.B(z) + pair.b(z).conj()).norm <= 1e-10


def test_adjoint_b_value_for_main_pair():
    adj = adjoint_pair(MAIN_X)
    z = PlanePoint(1.5, 0.25)
    assert isclose(adj.b(z), Bicomplex(-1 / (2 * z.x), 0))


def test_is_successor_examples():
    assert is_successor(ANALYTIC, ANALYTIC, RegionGrid(0.1, 1, 0.1, 1))
    assert not is_successor(MAIN_X, MAIN_X, REGION_X)
    succ = separable_pair("x", "1", 1)
    assert is_successor(succ, MAIN_X, REGION_X)


def test_separable_examples():
    p0 = separable_pair("x", "1", 0)
    z = PlanePoint(1.5, 0.5)
    assert isclose(p0.F(z), Bicomplex(1.5, 0))
    assert isclose(p0.G(z), Bicomplex(0, 1 / 1.5))
    p1 = separable_pair("x", "1", 1)
    assert isclose(p1.F(z), Bicomplex(1 / 1.5, 0))
    assert isclose(p1.G(z), Bicomplex(0, 1.5))
    p2 = separable_pair("x", "1", 2)
    assert isclose(p2.F(z), p0.F(z))
    assert isclose(p2.G(z), p0.G(z))


def test_separable_sequence_successors():
    seq = GeneratingSequence.separable("x", "1")
    for m in range(-2, 3):
        assert is_successor(seq.pair_at(m + 1), seq.pair_at(m), REGION_X)


def test_separable_sequence_nontrivial_psi():
    seq = GeneratingSequence.separable("exp(x)", "cos(y) + 2")
    region = RegionGrid(-0.5, 0.5, -1, 1)
    for m in (0, 1):
        assert is_successor(seq.pair_at(m + 1), seq.pair_at(m), region)


def test_adjoint_successor_property():
    # adjoint of a predecessor is a successor of the adjoint
    seq = GeneratingSequence.separable("x", "1")
    pred, base = seq.pair_at(-1), seq.pair_at(0)
    assert is_successor(adjoint_pair(pred), adjoint_pair(base), REGION_X)


def test_sequence_window():
    seq = GeneratingSequence(lambda m: ANALYTIC, lo=-1, hi=1)
    seq.pair_at(0)
    with pytest.raises(MissingSequenceError):
        seq.pair_at(2)
