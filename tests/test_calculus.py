import math

import numpy as np
import pytest

from bivekua.bicomplex import Bicomplex, P_PLUS, PlanePoint, isclose
from bivekua.calculus import (
    CalculusError,
    EmptyRegionError,
    Path,
    PathThroughSingularityError,
    RegionGrid,
    abar_antiderivative,
    analytic_part,
    compatibility_residual,
    idempotent_factor_check,
    similarity_split,
    teodorescu,
    tf_transform,
    wirtinger,
)
from bivekua.bicomplex import InvalidValueError, ZeroDivisorError
from bivekua.expr import EvaluationError
from bivekua.fields import Field, Kernel, partials, partials_on


def unit_disk(h=0.05):
    return RegionGrid(
        -1, 1, -1, 1, h, include=lambda p: math.hypot(p.x, p.y) < 1
    )


Z_FIELD = Field.from_exprs("x", "y")
ZBAR_FIELD = Field.from_exprs("x", "-y")


def test_wirtinger_holomorphic_identity():
    g = wirtinger(Z_FIELD, PlanePoint(0.7, -0.2))
    assert isclose(g.dz, Bicomplex(1, 0))
    assert isclose(g.dzbar, Bicomplex(0, 0))


def test_wirtinger_antiholomorphic():
    g = wirtinger(ZBAR_FIELD, PlanePoint(0.7, -0.2))
    assert isclose(g.dz, Bicomplex(0, 0))
    assert isclose(g.dzbar, Bicomplex(1, 0))


def test_wirtinger_x_squared():
    g = wirtinger(Field.from_exprs("x^2", "0"), PlanePoint(1, 0))
    assert isclose(g.dz, Bicomplex(1, 0))
    assert isclose(g.dzbar, Bicomplex(1, 0))


def test_wirtinger_finite_difference_fallback():
    f = Field(lambda z: Bicomplex(z.x**2, 0))
    g = wirtinger(f, PlanePoint(1, 0))
    assert (g.dz - Bicomplex(1, 0)).norm < 1e-6
    assert (g.dzbar - Bicomplex(1, 0)).norm < 1e-6


def test_factorization_constant():
    assert idempotent_factor_check(Field.constant(Bicomplex(2, 3j)), PlanePoint(0.4, 0.1)) == 0


def test_factorization_analytic():
    assert idempotent_factor_check(Z_FIELD, PlanePoint(0.5, 0.5)) <= 1e-10


def test_factorization_xy_fd():
    f = Field(lambda z: Bicomplex(z.x * z.y, 0))
    res = []
    for h in (1e-2, 5e-3):
        res.append(idempotent_factor_check(f, PlanePoint(0.3, 0.8), h))
    # the factorization is an identity: residual stays at FD noise level
    assert all(r < 1e-8 for r in res)


def test_teodorescu_zero():
    assert teodorescu(Field.constant(Bicomplex(0, 0)), unit_disk(0.1), PlanePoint(0.3, 0.1)).is_zero


def test_teodorescu_of_one_is_zbar_conj():
    # For the unit disk, T(1)(z) = x - j y at interior points.
    z = PlanePoint(0.325, 0.225)
    val = teodorescu(Field.constant(Bicomplex(1, 0)), unit_disk(0.05), z)
    assert (val - Bicomplex(z.x, -z.y)).norm < 2e-2


def test_teodorescu_dzbar_reproduces_interior():
    region = unit_disk(0.05)
    one = Field.constant(Bicomplex(1, 0))
    t = Field(lambda z: teodorescu(one, region, z))
    g = wirtinger(t, PlanePoint(0.325, 0.225), h=0.01)
    assert (g.dzbar - Bicomplex(1, 0)).norm < 0.05


def test_teodorescu_analytic_outside():
    region = unit_disk(0.05)
    one = Field.constant(Bicomplex(1, 0))
    z = PlanePoint(3.0, 0.0)
    val = teodorescu(one, region, z)
    assert (val - Bicomplex(1 / 3, 0)).norm < 1e-2
    t = Field(lambda p: teodorescu(one, region, p))
    g = wirtinger(t, z, h=0.01)
    assert g.dzbar.norm < 1e-3


def test_empty_region():
    region = RegionGrid(0, 1, 0, 1, 0.5, include=lambda p: False)
    with pytest.raises(EmptyRegionError):
        region.cells()


def test_region_without_cell_size_samples_but_has_no_cells():
    region = RegionGrid(0, 1, 0, 1)
    assert len(region.sample_points(2)) == 4
    with pytest.raises(CalculusError, match="no cell size"):
        region.cells()


def test_analytic_part_trivial():
    zero = Field.constant(Bicomplex(0, 0))
    h = analytic_part(Z_FIELD, zero, zero, unit_disk(0.2))
    z = PlanePoint(0.3, -0.1)
    assert isclose(h(z), Z_FIELD(z))


def test_analytic_part_not_pseudoanalytic_witness():
    zero = Field.constant(Bicomplex(0, 0))
    h = analytic_part(ZBAR_FIELD, zero, zero, unit_disk(0.2))
    g = wirtinger(h, PlanePoint(0.31, 0.11), h=1e-3)
    assert abs(g.dzbar.norm - 1.0) < 1e-6


def test_abar_constant():
    path = Path.polyline([PlanePoint(0, 0), PlanePoint(1, 0)])
    assert abs(abar_antiderivative(Field.constant(Bicomplex(1, 0)), path) - 2) < 1e-12
    assert abs(abar_antiderivative(Field.constant(Bicomplex(0, 0)), path)) == 0


def test_abar_exact_line_integral():
    w = Field.from_exprs("x", "y")  # u=x, v=y satisfies u_y = v_x
    path = Path.polyline([PlanePoint(0, 0), PlanePoint(1, 1)])
    assert abs(abar_antiderivative(w, path) - 2) < 1e-12


def test_abar_path_independence():
    w = Field.from_exprs("x", "y")
    p1 = Path.polyline([PlanePoint(0, 0), PlanePoint(1, 1)])
    p2 = Path.polyline([PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(1, 1)])
    assert abs(abar_antiderivative(w, p1) - abar_antiderivative(w, p2)) < 1e-12


def test_compatibility_examples():
    assert compatibility_residual(Field.constant(Bicomplex(2, 1)), PlanePoint(0, 0)) == 0
    assert compatibility_residual(Field.from_exprs("x", "y"), PlanePoint(0.2, 0.4)) <= 1e-12
    assert abs(compatibility_residual(Field.from_exprs("y", "0"), PlanePoint(0.2, 0.4)) - 1) <= 1e-10


def test_tf_transform_of_f_is_zero():
    f = Field.from_exprs("x + 2", "0")
    path = Path.polyline([PlanePoint(0, 0), PlanePoint(1, 1)])
    assert abs(tf_transform(f, f, path)) < 1e-12


def test_tf_transform_harmonic_conjugate():
    one = Field.from_exprs("1", "0")
    u = Field.from_exprs("x", "0")
    for target in (PlanePoint(1, 1), PlanePoint(0.5, -2)):
        path = Path.polyline([PlanePoint(0, 0), target])
        v = tf_transform(one, u, path)
        assert abs(v.sc - target.y) < 1e-12
        assert v.vec == 0


def test_tf_transform_acts_componentwise():
    f = Field.from_exprs("exp(x)*cos(y) + 2")
    u1, u2 = "x^2 - y", "x*y + sin(x)"
    path = Path.detour(PlanePoint(0.2, -0.4), PlanePoint(1.5, 0.6), PlanePoint(0.9, 0.15))
    both = tf_transform(f, Field.from_exprs(u1, u2), path)
    one, two = (tf_transform(f, Field.from_exprs(u), path) for u in (u1, u2))
    assert both == Bicomplex(one.sc, two.sc)


def test_tf_transform_path_dependence_witness():
    f = Field.from_exprs("x", "0")
    u = Field.from_exprs("x^2 + y^2", "0")  # not a solution of the f-equation
    a, b = PlanePoint(1, 0), PlanePoint(2, 1)
    direct = tf_transform(f, u, Path.polyline([a, b]))
    around = tf_transform(f, u, Path.polyline([a, PlanePoint(2, 0), b]))
    assert abs(direct - around) > 1e-3


def test_similarity_analytic():
    zero = Field.constant(Bicomplex(0, 0))
    psi, s = similarity_split(Z_FIELD, zero, zero, unit_disk(0.2))
    z = PlanePoint(0.31, -0.17)
    assert s(z).is_zero
    assert isclose(psi(z), Z_FIELD(z))


def test_similarity_zero_divisor():
    w = Field.constant(P_PLUS)
    zero = Field.constant(Bicomplex(0, 0))
    psi, s = similarity_split(w, zero, zero, unit_disk(0.2))
    with pytest.raises(ZeroDivisorError):
        s(PlanePoint(0.3, 0.1))


def test_similarity_main_vekua_converges():
    # W = x solves the main Vekua equation for f = x; Psi should be
    # nearly analytic, improving under grid refinement.
    w = Field.from_exprs("x", "0")
    zero = Field.constant(Bicomplex(0, 0))
    b = Field.from_exprs("1/(2*x)", "0")
    residuals = []
    for h in (0.1, 0.05):
        region = RegionGrid(1, 2, -0.5, 0.5, h)
        psi, s = similarity_split(w, zero, b, region)
        g = wirtinger(psi, PlanePoint(1.525, 0.025), h=0.012)
        residuals.append(g.dzbar.norm)
        es = s(PlanePoint(1.525, 0.025))
        from bivekua.bicomplex import bc_exp

        assert (bc_exp(es) * bc_exp(-es) - Bicomplex(1, 0)).norm <= 1e-10
    assert residuals[1] < residuals[0]


def test_circle_path_closes():
    c = Path.circle(PlanePoint(0, 0), 1.0, nodes=64)
    assert c.start == c.end
    # ∮ dz = 0 and ∮ dz/z = 2πi
    total = sum(c.dz.tolist())
    assert abs(total) < 1e-12
    val = c.integrate(lambda xs, ys, dz: dz / (xs + 1j * ys))
    assert abs(val - 2j * math.pi) < 1e-12


def test_detour_avoids_point():
    avoid = PlanePoint(0.5, 0.0)
    path = Path.detour(PlanePoint(0, 0), PlanePoint(1, 0), avoid, radius=0.2)
    assert path.start == PlanePoint(0, 0)
    assert path.end == PlanePoint(1, 0)
    assert np.all(np.hypot(path.xs - avoid.x, path.ys - avoid.y) > 0.19)


def test_detour_endpoint_on_singularity():
    with pytest.raises(PathThroughSingularityError):
        Path.detour(PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(1, 0))


def test_detour_winding_consistency():
    # ∫ dz/(z - avoid) along both detour sides differ by 2πi (full loop)
    avoid = PlanePoint(0.5, 0.0)
    a, b = PlanePoint(0, 0), PlanePoint(1, 0)
    up = Path.detour(a, b, avoid, radius=0.2, side=+1)
    dn = Path.detour(a, b, avoid, radius=0.2, side=-1)
    c = avoid.as_complex
    iu = up.integrate(lambda xs, ys, dz: dz / (xs + 1j * ys - c))
    idn = dn.integrate(lambda xs, ys, dz: dz / (xs + 1j * ys - c))
    assert abs((iu - idn) - (-2j * math.pi)) < 1e-10 or abs(
        (iu - idn) - (2j * math.pi)
    ) < 1e-10


def test_path_node_count_is_the_length_of_nodes():
    a, b, avoid = PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(0.5, 0.0)
    # four segments of 0.25, 16 nodes each
    assert len(Path.polyline([a, b]).nodes) == 64
    assert len(Path.arc(avoid, 0.3, 0.0, 2.0, nodes_per_segment=8).nodes) == 10 * 8
    assert len(Path.circle(avoid, 0.3, nodes=16).nodes) == 16
    detour = Path.detour(a, b, avoid, radius=0.2)
    assert len(detour.nodes) == detour.xs.size == detour.dz.size > 64
    assert np.array_equal(detour.nodes, detour.xs + 1j * detour.ys)


@pytest.mark.parametrize("src", ["log(x)", "1/x", "y/(x*y)"])
def test_array_fault_raises_the_scalar_error_at_its_node(src):
    # three Gauss nodes on one segment: the middle one is x = 0
    path = Path.polyline([PlanePoint(-0.125, 0.5), PlanePoint(0.125, 0.5)], nodes_per_segment=3)
    assert path.xs[1] == 0.0
    w = Field.from_exprs(src)
    with pytest.raises(EvaluationError) as scalar:
        w(PlanePoint(0.0, 0.5))
    with pytest.raises(EvaluationError) as walk:
        abar_antiderivative(w, path)
    assert walk.value.point == scalar.value.point == (0.0, 0.5)
    assert str(walk.value) == str(scalar.value)


def test_kernel_fault_on_a_path_raises_at_its_node():
    k = Kernel.make("1/(x - xi)")
    path = Path.polyline([PlanePoint(-0.125, 0.5), PlanePoint(0.125, 0.5)], nodes_per_segment=3)
    with pytest.raises(EvaluationError) as walk:
        tf_transform(Field.from_exprs("1"), k.field_in_zeta(PlanePoint(0.0, 2.0)), path)
    assert walk.value.point == (0.0, 0.5, 0.0, 2.0)


def test_non_finite_values_on_a_path_are_refused():
    path = Path.polyline([PlanePoint(0, 0), PlanePoint(1, 0)])
    # a finite product in numpy overflows; the scalar call makes it a value
    # that Bicomplex refuses
    with pytest.raises(InvalidValueError, match="non-finite component"):
        abar_antiderivative(Field.from_exprs("1e200*x*1e200"), path)
    # finite node values whose sum overflows, first at the second node
    with pytest.raises(InvalidValueError) as info:
        path.integrate(lambda xs, ys, dz: np.full(xs.shape, 1e308 + 0j))
    assert f"node {PlanePoint(float(path.xs[1]), 0.0)}" in str(info.value)


def test_array_partials_match_scalar_partials():
    exact = Field.from_exprs("exp(x)*cos(y) + i*x", "x*y^2")
    plain = Field(lambda p: exact(p))
    path = Path.detour(PlanePoint(0.2, -0.4), PlanePoint(1.5, 0.6), PlanePoint(0.9, 0.15))
    points = [PlanePoint(x, y) for x, y in zip(path.xs.tolist(), path.ys.tolist())]
    for w in (exact, plain):
        arrays = partials_on(w, path.xs, path.ys)
        for k, p in enumerate(points):
            for (sc, vec), want in zip(arrays, partials(w, p)):
                assert abs(sc[k] - want.sc) <= 1e-15 * max(1.0, abs(want.sc))
                assert abs(vec[k] - want.vec) <= 1e-15 * max(1.0, abs(want.vec))


def test_path_nodes_are_float_and_complex_arrays():
    a, b, avoid = PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(0.5, 0.0)
    paths = [
        Path.polyline([a, b]),
        Path.polyline([a, PlanePoint(0.5, 0.4), b], grade_toward=avoid),
        Path.arc(avoid, 0.3, 0.0, 2.0),
        Path.circle(avoid, 0.3, nodes=16),
        Path.detour(a, b, avoid, radius=0.2),  # around avoid
        Path.detour(a, PlanePoint(1, 1), avoid, radius=0.2),  # straight past it
    ]
    paths.append(Path.join(paths[:2]))
    for path in paths:
        assert len(path.nodes) > 0
        dtypes = (path.xs.dtype, path.ys.dtype, path.dz.dtype)
        assert dtypes == (np.float64, np.float64, np.complex128)
        assert path.xs.shape == path.ys.shape == path.dz.shape == (len(path.nodes),)
