import math
import random

import numpy as np
import pytest

from bivekua import expr as ex
from bivekua.bicomplex import Bicomplex, BicomplexError, PlanePoint, isclose
from bivekua.calculus import Path, PathThroughSingularityError
from bivekua.expr import EvaluationError
from bivekua.fields import BicomplexArray, Field, Kernel, SymBC, d_zbar
from bivekua.pairs import adjoint_fields, make_pair, separable_pair
from bivekua.schroedinger import x_main_family


def test_symbc_eval():
    f = SymBC.make("x^2 + y", "x*y")
    assert isclose(f(2.0, 3.0), Bicomplex(7, 6))


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
    assert isclose(op(a, b)(*z), op(a(*z), b(*z)))


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
    assert isclose(w(*z) * winv(*z), Bicomplex(1, 0), tol=1e-12)


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
    assert SymBC.make(1e-200).inv()(0.0, 0.0) == Bicomplex(1e-200, 0).inv()


def test_symbc_dzbar_of_z_is_zero():
    # z = x + j y is holomorphic: d_zbar z = 0, d_z z = 1
    z = SymBC.make("x", "y")
    assert isclose(d_zbar(z.diff("x"), z.diff("y"))(0.3, 0.7), Bicomplex(0, 0))
    assert isclose(z.d_z()(0.3, 0.7), Bicomplex(1, 0))


def test_symbc_dzbar_of_conj():
    zbar = SymBC.make("x", "y").conj()
    assert isclose(d_zbar(zbar.diff("x"), zbar.diff("y"))(0.3, 0.7), Bicomplex(1, 0))
    assert isclose(zbar.d_z()(0.3, 0.7), Bicomplex(0, 0))


def test_field_partials_match_fd():
    f = Field.from_exprs("exp(x)*cos(y)", "sin(x*y)")
    z = PlanePoint(0.4, -0.3)
    h = 1e-6
    fd_x = (f(PlanePoint(z.x + h, z.y)) - f(PlanePoint(z.x - h, z.y))).scale(
        1 / (2 * h)
    )
    assert (f.dx(z) - fd_x).norm < 1e-8


def test_kernel_swap():
    k = Kernel.make("x - xi", "y - eta")
    zeta, z = PlanePoint(1.0, 2.0), PlanePoint(3.0, 5.0)
    assert isclose(k.swap_arguments()(zeta, z), k(z, zeta))


def test_kernel_freeze():
    k = Kernel.make("(x - xi)^2", "y*eta")
    zeta, z = PlanePoint(1.0, 2.0), PlanePoint(3.0, 5.0)
    fz = k.field_in_z(zeta)
    fzeta = k.field_in_zeta(z)
    assert isclose(fz(z), k(zeta, z))
    assert isclose(fzeta(PlanePoint(zeta.x, zeta.y)), k(zeta, z))
    # exact partial in z
    assert math.isclose(fz.dx(z).sc.real, 2 * (z.x - zeta.x))


def test_kernel_diff_z():
    k = Kernel.make("(x - xi)^3")
    zeta, z = PlanePoint(1.0, 0.0), PlanePoint(2.5, 0.0)
    dk = k.diff_z("x")
    assert math.isclose(dk(zeta, z).sc.real, 3 * (z.x - zeta.x) ** 2)


def test_freezing_compiles_each_kernel_once(compiles):
    k = x_main_family().coef1
    z = PlanePoint(2.5, -0.3)
    for i in range(10):
        w = k.field_in_z(PlanePoint(1.0 + 0.1 * i, 0.2))
        w(z), w.dx(z), w.dy(z)
    # the kernel and its two partial kernels, one (sc, vec) program each
    assert len(compiles) <= 3


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
    # program gives, on numbers (cmath) and on arrays (numpy)
    pair = separable_pair("exp(x)", "cos(y) + 2", 1)
    syms = [pair.a.sym, pair.B.sym, *(w.sym for w in adjoint_fields(pair)), SymBC.make("x*y", "x*y + 1")]
    rng = np.random.default_rng(7)
    xs, ys = rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.0, 1.0, 40)
    for s in syms:
        sc, vec = (ex.compile_expr(e, s.variables) for e in (s.sc, s.vec))
        for x, y in zip(xs.tolist(), ys.tolist()):
            v = s.compiled()(x, y)
            assert (v.sc, v.vec) == (sc(x, y), vec(x, y))
        sc, vec = (ex.compile_expr(e, s.variables, arrays=True) for e in (s.sc, s.vec))
        joint = s.compiled_arrays()(xs, ys)
        assert np.array_equal(joint[0], sc(xs, ys)) and np.array_equal(joint[1], vec(xs, ys))


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


def test_frozen_partials_are_the_partial_kernels():
    k = Kernel.make("(x - xi)/((x - xi)^2 + (y - eta)^2) + log(x*xi)", "y*eta^2 - x*exp(eta)")
    zeta, z = PlanePoint(1.3, -0.4), PlanePoint(2.2, 0.7)
    in_z, in_zeta = k.field_in_z(zeta), k.field_in_zeta(z)
    assert in_z(z) == in_zeta(zeta) == k(zeta, z)
    assert in_z.dx(z) == k.diff_z("x")(zeta, z)
    assert in_z.dy(z) == k.diff_z("y")(zeta, z)
    assert in_zeta.dx(zeta) == k.diff_z("xi")(zeta, z)
    assert in_zeta.dy(zeta) == k.diff_z("eta")(zeta, z)


def test_singular_frozen_kernel_carries_point():
    k = Kernel.make("1/(x - xi)")
    w = k.field_in_z(PlanePoint(1.0, 2.0))
    for evaluate in (w, w.dx):
        with pytest.raises(EvaluationError) as info:
            evaluate(PlanePoint(1.0, 5.0))
        assert info.value.point == (1.0, 2.0, 1.0, 5.0)


def test_division_and_degenerate_detour():
    a, b = Bicomplex(1 + 2j, -0.5j), Bicomplex(0.3, 1.7 - 1j)
    assert a / b == a * b.inv()
    p = PlanePoint(1.0, 0.5)
    with pytest.raises(PathThroughSingularityError, match="degenerate path"):
        Path.detour(p, p, PlanePoint(2.0, 0.0))
