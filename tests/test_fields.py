import math

import pytest

from bivekua.bicomplex import Bicomplex, PlanePoint, isclose
from bivekua.expr import EvaluationError
from bivekua.fields import Field, Kernel, SymBC
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


def test_symbc_inv():
    w = SymBC.make("x + 1", "y")
    winv = w.inv()
    z = (1.2, 0.4)
    assert isclose(w(*z) * winv(*z), Bicomplex(1, 0), tol=1e-12)


def test_symbc_dzbar_of_z_is_zero():
    # z = x + j y is holomorphic: d_zbar z = 0, d_z z = 1
    z = SymBC.make("x", "y")
    assert isclose(z.d_zbar()(0.3, 0.7), Bicomplex(0, 0))
    assert isclose(z.d_z()(0.3, 0.7), Bicomplex(1, 0))


def test_symbc_dzbar_of_conj():
    zbar = SymBC.make("x", "y").conj()
    assert isclose(zbar.d_zbar()(0.3, 0.7), Bicomplex(1, 0))
    assert isclose(zbar.d_z()(0.3, 0.7), Bicomplex(0, 0))


def test_field_partials_match_fd():
    f = Field.from_exprs("exp(x)*cos(y)", "sin(x*y)")
    z = PlanePoint(0.4, -0.3)
    h = 1e-6
    fd_x = (f(PlanePoint(z.x + h, z.y)) - f(PlanePoint(z.x - h, z.y))).scale(
        1 / (2 * h)
    )
    assert (f.dx(z) - fd_x).norm < 1e-8


def test_field_algebra_keeps_symbolic():
    a = Field.from_exprs("x", "y")
    b = Field.from_exprs("1", "0")
    c = (a * b) + a.conj()
    assert c.has_exact_partials
    z = PlanePoint(2.0, 5.0)
    assert isclose(c(z), a(z) * b(z) + a(z).conj())


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
    k = x_main_family().sym1
    z = PlanePoint(2.5, -0.3)
    for i in range(10):
        w = k.field_in_z(PlanePoint(1.0 + 0.1 * i, 0.2))
        w(z), w.dx(z), w.dy(z)
    # the kernel and its two partial kernels, sc and vec each
    assert len(compiles) <= 6


def test_constant_trees_are_not_compiled(compiles):
    w = Field.from_exprs("x")
    z = PlanePoint(2.0, 3.0)
    assert (w(z), w.dx(z), w.dy(z)) == (Bicomplex(2, 0), Bicomplex(1, 0), Bicomplex(0, 0))
    # only the sc "x": the vec 0 and both constant partials need no code
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
