import cmath
import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest

from bivekua import expr as ex
from bivekua.bicomplex import Bicomplex, BicomplexError, PlanePoint
from bivekua.calculus import PathThroughSingularityError, RegionGrid
from bivekua.expr import EvaluationError
from bivekua.fields import (
    BicomplexArray,
    Field,
    Kernel,
    MissingPartialError,
    StepError,
    SymBC,
    d_z,
    d_zbar,
    differences,
)
from bivekua.pairs import adjoint_fields, make_pair, separable_pair, vekua_residual
from oracles import detour_path, isclose

ROOT = Path(__file__).resolve().parent.parent


def at(s: SymBC, x: float, y: float) -> Bicomplex:
    """s at (x, y), as its field's call."""
    return Field.from_sym(s)(PlanePoint(x, y))


def test_symbc_eval():
    f = SymBC.make("x^2 + y", "x*y")
    assert isclose(at(f, 2.0, 3.0), Bicomplex(7, 6))


RING_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "neg": lambda a, b: -a,
    "conj": lambda a, b: a.conj(),
    "inv": lambda a, b: a.inv(),
    "scale": lambda a, b: a.scale(1.5 - 2j),
    "mul_j": lambda a, b: a.mul_j(),
}


@pytest.mark.parametrize("name", list(RING_OPS))
def test_symbc_ring_matches_bicomplex(name):
    op = RING_OPS[name]
    a = SymBC.make("x + i*y", "y")
    b = SymBC.make("y", "2*x - i")
    z = (1.5, -0.75)
    assert isclose(at(op(a, b), *z), op(at(a, *z), at(b, *z)))


@pytest.mark.parametrize("name", [name for name in RING_OPS if name not in ("-", "neg", "conj", "inv", "mul_j")])
def test_array_ring_matches_bicomplex_at_each_node(name):
    op = RING_OPS[name]
    rng = random.Random(name)

    def draw() -> Bicomplex:
        parts = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(4)]
        return Bicomplex(complex(*parts[:2]), complex(*parts[2:]))

    a, b = [draw() for _ in range(50)], [draw() for _ in range(50)]

    def on_nodes(values) -> BicomplexArray:
        return BicomplexArray(np.array([v.sc for v in values]), np.array([v.vec for v in values]))

    got = op(on_nodes(a), on_nodes(b))
    for k, (u, v) in enumerate(zip(a, b)):
        assert Bicomplex(got.sc[k], got.vec[k]) == op(u, v)


def test_symbc_inv():
    w = SymBC.make("x + 1", "y")
    winv = w.inv()
    z = (1.2, 0.4)
    assert isclose(at(w, *z) * at(winv, *z), Bicomplex(1, 0), tol=1e-12)


@pytest.mark.parametrize("w", [Bicomplex(0, 0), Bicomplex(1, 1j), Bicomplex(2j, -2)])
def test_constant_symbc_inv_raises_as_bicomplex_inv(w):
    # sc^2 + vec^2 folds to the constant 0, which must not fold sc/0 to 0
    with pytest.raises(BicomplexError) as numeric:
        w.inv()
    with pytest.raises(BicomplexError) as symbolic:
        SymBC.make(w.sc, w.vec).inv()
    assert type(symbolic.value) is type(numeric.value)
    with pytest.raises(type(numeric.value)):
        Field.constant(w).bc_inv()


def test_constant_symbc_inv_whose_norm_square_underflows():
    # 1e-200^2 folds to 0, yet 1e-200 is invertible
    assert at(SymBC.make(1e-200).inv(), 0.0, 0.0) == Bicomplex(1e-200, 0).inv()


def test_symbc_dzbar_of_z_is_zero():
    # z = x + j y is holomorphic: d_zbar z = 0, d_z z = 1
    z = SymBC.make("x", "y")
    assert isclose(at(d_zbar(z.diff("x"), z.diff("y")), 0.3, 0.7), Bicomplex(0, 0))
    assert isclose(at(d_z(z.diff("x"), z.diff("y")), 0.3, 0.7), Bicomplex(1, 0))


def test_symbc_dzbar_of_conj():
    zbar = SymBC.make("x", "y").conj()
    assert isclose(at(d_zbar(zbar.diff("x"), zbar.diff("y")), 0.3, 0.7), Bicomplex(1, 0))
    assert isclose(at(d_z(zbar.diff("x"), zbar.diff("y")), 0.3, 0.7), Bicomplex(0, 0))


def test_field_partials_match_fd():
    f = Field.from_exprs("exp(x)*cos(y)", "sin(x*y)")
    z = PlanePoint(0.4, -0.3)
    h = 1e-6
    fd_x = (f(PlanePoint(z.x + h, z.y)) - f(PlanePoint(z.x - h, z.y))).scale(
        1 / (2 * h)
    )
    assert (f.dx(z) - fd_x).norm < 1e-8


def _biquadratic(x, y) -> BicomplexArray:
    # (1 + 2x - 3x^2)(2 - y + 4y^2) + j i (x^2 - y): degree 2 in x and in y
    return BicomplexArray((1 + 2 * x - 3 * x**2) * (2 - y + 4 * y**2) + 0j, 1j * (x**2 - y))


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_differences_are_exact_on_polynomials_they_differentiate_exactly(degree):
    # every central difference differentiates a polynomial of degree two in
    # each variable exactly; at dyadic nodes and step only the last scaling
    # by 1/(2^e h^(a+b) a! b!) rounds, so each Taylor coefficient is right
    # to rounding, and each beyond the polynomial's degrees is 0
    xs, ys, h = np.array([0.5, -0.25, 1.75]), np.array([0.125, 1.5, -0.75]), 2.0**-6
    taylor_x = [1 + 2 * xs - 3 * xs**2, 2 - 6 * xs, -3 + 0 * xs, 0 * xs]
    taylor_y = [2 - ys + 4 * ys**2, -1 + 8 * ys, 4 + 0 * ys, 0 * ys]
    vec = {(0, 0): xs**2 - ys, (1, 0): 2 * xs, (0, 1): -1 + 0 * ys, (2, 0): 1 + 0 * xs}
    table = differences(_biquadratic, (xs, ys), h, degree)
    monomials = [(s - b, b) for s in range(degree + 1) for b in range(s + 1)]
    assert len(table) == len(monomials)
    for (a, b), got in zip(monomials, table):
        np.testing.assert_allclose(got.sc, taylor_x[a] * taylor_y[b], rtol=1e-15, atol=0)
        np.testing.assert_allclose(got.vec, 1j * vec.get((a, b), 0 * xs), rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "h, degree, xs",
    [
        (1e-3, 1, np.array([0.5, 1e20])),  # x + h rounds back to x at 1e20
        (1e-110, 3, np.array([0.0, 0.5e-100])),  # moves every node, but h^3 underflows to 0
    ],
)
def test_differences_refuse_a_step_too_small_with_a_typed_error(h, degree, xs):
    # a StepError, never a ZeroDivisionError or an OverflowError, before
    # any value is evaluated
    calls = []
    with pytest.raises(StepError, match="too small to move every node"):
        differences(lambda *c: calls.append(c) or _biquadratic(*c[-2:]), (xs, 0 * xs), h, degree)
    assert calls == []


def test_differences_take_a_step_whose_power_is_finite():
    # the same step as above at degree 2: 1/h^2 is finite, so the table is taken
    xs = np.array([0.0, 0.5e-100])
    assert len(differences(_biquadratic, (xs, 0 * xs), 1e-110, 2)) == 6


def test_kernel_diff_z():
    k = Kernel.make("(x - xi)^3")
    zeta, z = PlanePoint(1.0, 0.0), PlanePoint(2.5, 0.0)
    dk = k.diff("x")
    assert math.isclose(dk(zeta, z).sc.real, 3 * (z.x - zeta.x) ** 2)


def test_building_fields_and_pairs_compiles_nothing(compiles):
    # a field compiles on its first evaluation, not when it is built
    w = Field.from_sym(SymBC.make("exp(x)*cos(y)", "x*y"))
    f = Field.from_exprs("x")
    pairs = [separable_pair("exp(x)", "cos(y) + 2", m) for m in (0, 1)]
    pairs.append(make_pair(f, f.bc_inv().mul_j()))
    w.dx, pairs[0].a.dy
    assert compiles == []
    pairs[1].A(PlanePoint(0.5, 0.25))
    assert len(compiles) == 1


def test_joint_program_is_the_part_programs_bit_for_bit():
    # one (sc, vec) program per SymBC: each part's value is the one its own
    # program gives, on numbers (one node at a time) and on arrays
    pair = separable_pair("exp(x)", "cos(y) + 2", 1)
    syms = [pair.a.sym, pair.B.sym, *(w.sym for w in adjoint_fields(pair)), SymBC.make("x*y", "x*y + 1")]
    rng = np.random.default_rng(7)
    xs, ys = rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.0, 1.0, 40)
    for s in syms:
        sc, vec = (ex.compile_expr(e, s.variables) for e in (s.sc, s.vec))
        for x, y in zip(xs.tolist(), ys.tolist()):
            v = s.program()(x, y)
            assert (complex(v[0]), complex(v[1])) == (sc(x, y), vec(x, y))
        joint = s.program()(xs, ys)
        assert np.array_equal(joint[0], sc(xs, ys)) and np.array_equal(joint[1], vec(xs, ys))


def test_kernel_call_is_its_face_bit_for_bit():
    # a closed form's call is its face at one pair, here in a batch of two:
    # at x - xi = 1.7383439417747188 numpy's log and cmath's differ in the
    # last bit
    assert np.log(complex(1.7383439417747188)) != cmath.log(1.7383439417747188)
    k = Kernel.make("log(x - xi)", "x*eta")
    zeta, z = PlanePoint(0.0, 0.5), PlanePoint(1.7383439417747188, -0.25)
    face = k.on(np.array([zeta.x, 1.0]), np.array([zeta.y, 0.5]), np.array([z.x, 2.5]), np.array([z.y, 0.0]))
    assert k(zeta, z) == Bicomplex(face.sc[0], face.vec[0])


def test_joint_program_division_by_zero_carries_the_point():
    # the sc part is finite and the vec part divides by zero
    w = Field.from_exprs("x + y", "1/(x - y)")
    with pytest.raises(EvaluationError) as info:
        w(PlanePoint(1.5, 1.5))
    assert "division by zero" in str(info.value)
    assert info.value.point == (1.5, 1.5)


def test_constant_trees_are_not_compiled(compiles):
    w = Field.from_exprs("x")
    z = PlanePoint(2.0, 3.0)
    assert (w(z), w.dx(z), w.dy(z)) == (Bicomplex(2, 0), Bicomplex(1, 0), Bicomplex(0, 0))
    # only (x, 0): both constant partials need no code
    assert len(compiles) == 1


def test_singular_kernel_carries_point():
    # a call, and the cmath fallback of a face on arrays, of a field of one
    # point and of a kernel of two
    k = Kernel.make("1/(x - xi)")
    zeta, z = PlanePoint(1.0, 2.0), PlanePoint(1.0, 5.0)
    for evaluate in (k, k.diff("x")):
        with pytest.raises(EvaluationError) as info:
            evaluate(zeta, z)
        assert info.value.point == (1.0, 2.0, 1.0, 5.0)
        with pytest.raises(EvaluationError) as info:
            evaluate.on(zeta.x, zeta.y, np.array([2.0, z.x]), np.array([0.0, z.y]))
        assert info.value.point == (1.0, 2.0, 1.0, 5.0)
    w = Field.from_exprs("1/(x - 1)")
    for evaluate in (w, w.dx):
        with pytest.raises(EvaluationError) as info:
            evaluate(z)
        assert info.value.point == (1.0, 5.0)
        with pytest.raises(EvaluationError) as info:
            evaluate.on(np.array([2.0, z.x]), np.array([0.0, z.y]))
        assert info.value.point == (1.0, 5.0)


def _symbolic_workload_fields() -> list[str]:
    """The field and potential expressions of the benchmark's symbolic
    workload (bench/workloads.py), seed 1."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [cfg for _, _, cfg in workloads.generate("symbolic", 1)]
    return [cfg["field"]["sc"] for cfg in configs if "field" in cfg] + [cfg["q"] for cfg in configs if "q" in cfg]


@pytest.mark.parametrize("sc", [*_symbolic_workload_fields(), "exp(x)*cos(y)", "x"])
def test_field_partials_are_its_separate_faces_bit_for_bit(sc, compiles):
    # one program of the value and both partials gives each as its own
    # face does, and its partials in x and y are compiled with it, once
    w = Field.from_exprs(sc, f"0.5*{sc}")
    xs, ys = RegionGrid(-1.5, 1.5, -1.0, 1.0).sample_columns(7)
    got = w.partials(xs, ys)
    assert len(compiles) == 1
    assert w.partials(xs, ys) and len(compiles) == 1
    for value, want in zip(got, (w.on(xs, ys), w.dx.on(xs, ys), w.dy.on(xs, ys))):
        for part, wanted in zip(value, want):
            assert part.shape == xs.shape and part.tobytes() == np.asarray(wanted, dtype=complex).tobytes()


def test_field_without_partials_refuses_them_before_evaluating():
    # a callable field built without partials names the partial it lacks,
    # directly and through the residual of the pair (1, j), and is never called
    calls = []
    w = Field(lambda z: calls.append(z) or Bicomplex(z.x, 0))
    with pytest.raises(MissingPartialError, match="'x'"):
        w.partials(np.array([0.5]), np.array([0.5]))
    pair = make_pair(Field.from_exprs("1"), Field.from_exprs("0", "1"))
    with pytest.raises(MissingPartialError, match="'x'"):
        vekua_residual(w, pair, PlanePoint(0.5, 0.5))
    assert calls == []


def test_division_and_degenerate_detour():
    a, b = Bicomplex(1 + 2j, -0.5j), Bicomplex(0.3, 1.7 - 1j)
    assert a / b == a * b.inv()
    p = PlanePoint(1.0, 0.5)
    with pytest.raises(PathThroughSingularityError, match="degenerate path"):
        detour_path(p, p, PlanePoint(2.0, 0.0))
