import math

import numpy as np
import pytest

from bivekua import calculus
from bivekua.bicomplex import Bicomplex, PlanePoint
from bivekua.calculus import (
    Path,
    PathThroughSingularityError,
    detour_walks,
    tf_transform,
)
from bivekua.bicomplex import InvalidValueError
from bivekua.expr import EvaluationError
from bivekua.fields import Field, Kernel, d_z, d_zbar, partials
from oracles import abar_antiderivative, detour_path, isclose, kernel_in_zeta


Z_FIELD = Field.from_exprs("x", "y")
ZBAR_FIELD = Field.from_exprs("x", "-y")


def _wirtinger(w: Field, z: PlanePoint) -> tuple[Bicomplex, Bicomplex]:
    """d_z W and d_zbar W at z, from the exact partials of W."""
    _, fx, fy = partials(w, z)
    return d_z(fx, fy), d_zbar(fx, fy)


def test_wirtinger_holomorphic_identity():
    dz, dzbar = _wirtinger(Z_FIELD, PlanePoint(0.7, -0.2))
    assert isclose(dz, Bicomplex(1, 0))
    assert isclose(dzbar, Bicomplex(0, 0))


def test_wirtinger_antiholomorphic():
    dz, dzbar = _wirtinger(ZBAR_FIELD, PlanePoint(0.7, -0.2))
    assert isclose(dz, Bicomplex(0, 0))
    assert isclose(dzbar, Bicomplex(1, 0))


def test_wirtinger_x_squared():
    dz, dzbar = _wirtinger(Field.from_exprs("x^2", "0"), PlanePoint(1, 0))
    assert isclose(dz, Bicomplex(1, 0))
    assert isclose(dzbar, Bicomplex(1, 0))


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
    path = detour_path(PlanePoint(0.2, -0.4), PlanePoint(1.5, 0.6), PlanePoint(0.9, 0.15))
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
    path = detour_path(PlanePoint(0, 0), PlanePoint(1, 0), avoid, radius=0.2)
    assert path.start == PlanePoint(0, 0)
    assert path.end == PlanePoint(1, 0)
    assert np.all(np.hypot(path.xs - avoid.x, path.ys - avoid.y) > 0.19)


def test_detour_endpoint_on_singularity():
    with pytest.raises(PathThroughSingularityError):
        detour_path(PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(1, 0))


def test_detour_winding_consistency():
    # ∫ dz/(z - avoid) along both detour sides differ by 2πi (full loop)
    avoid = PlanePoint(0.5, 0.0)
    a, b = PlanePoint(0, 0), PlanePoint(1, 0)
    up = detour_path(a, b, avoid, radius=0.2, side=+1)
    dn = detour_path(a, b, avoid, radius=0.2, side=-1)
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
    assert len(Path.circle(avoid, 0.3, nodes=16).nodes) == 16
    detour = detour_path(a, b, avoid, radius=0.2)
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
        tf_transform(Field.from_exprs("1"), kernel_in_zeta(k, PlanePoint(0.0, 2.0)), path)
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
    w = Field.from_exprs("exp(x)*cos(y) + i*x", "x*y^2")
    path = detour_path(PlanePoint(0.2, -0.4), PlanePoint(1.5, 0.6), PlanePoint(0.9, 0.15))
    points = [PlanePoint(x, y) for x, y in zip(path.xs.tolist(), path.ys.tolist())]
    arrays = w.partials(path.xs, path.ys)
    for k, p in enumerate(points):
        for (sc, vec), want in zip(arrays, partials(w, p)):
            assert abs(sc[k] - want.sc) <= 1e-15 * max(1.0, abs(want.sc))
            assert abs(vec[k] - want.vec) <= 1e-15 * max(1.0, abs(want.vec))


def test_polyline_of_one_repeated_point_is_empty():
    p = PlanePoint(0.3, -0.2)
    for points in ([p], [p, p]):
        path = Path.polyline(points)
        assert path.xs.size == 0
        assert path.integrate(lambda xs, ys, dz: np.ones(xs.shape, dtype=complex)) == 0j


def test_detour_walks_are_the_detours_path_by_path(monkeypatch):
    a, b = PlanePoint(0, 0), PlanePoint(1, 0)
    cases = [
        (a, b, PlanePoint(0.5, 2.0)),  # far off: the straight, graded path
        (a, b, PlanePoint(0.5, 0.0)),  # on the segment: an arc around it
        (PlanePoint(0.2, -0.4), PlanePoint(1.5, 0.6), PlanePoint(0.9, 0.15)),
        (PlanePoint(2.0, 0.1), PlanePoint(0.5, 0.0), PlanePoint(1.2, 0.06)),
    ]
    columns = [np.array([c[i].as_complex for c in cases]) for i in range(3)]
    for side in (1.0, -1.0):
        for budget in (10**6, 100):
            monkeypatch.setattr(calculus, "NODE_BUDGET", budget)
            jobs = list(detour_walks(*columns, side=side))
            assert len(jobs) == (1 if budget > 100 else len(cases))
            xs, ys, dz = (np.concatenate([getattr(w, k) for w in jobs]) for k in ("xs", "ys", "dz"))
            sizes = np.concatenate([w.sizes for w in jobs])
            cuts = np.cumsum(sizes)[:-1]
            for (start, end, avoid), x, y, d in zip(cases, *(np.split(v, cuts) for v in (xs, ys, dz))):
                path = detour_path(start, end, avoid, side=side)
                assert np.array_equal(x, path.xs) and np.array_equal(y, path.ys)
                assert np.array_equal(d, path.dz)


def _refined(a: complex, b: complex, toward, depth: int = 0) -> list:
    """The pieces of [a, b] by the recursive halving polylines used before
    the level-wise bisection: the reference it must match bit for bit."""
    limit = 0.25
    if toward is not None:
        limit = min(limit, max(0.5 * abs((a + b) / 2 - toward), 1e-6))
    if abs(b - a) <= limit or depth >= 40:
        return [(a, b)]
    mid = (a + b) / 2
    return _refined(a, mid, toward, depth + 1) + _refined(mid, b, toward, depth + 1)


@pytest.mark.parametrize("seed", range(5))
def test_polyline_pieces_are_the_recursive_halving(seed):
    rng = np.random.default_rng(seed)
    points = [PlanePoint(*rng.uniform(-2, 2, 2)) for _ in range(4)]
    toward = PlanePoint(*rng.uniform(-1, 1, 2)) if seed % 2 else None
    pieces = [
        piece
        for p, q in zip(points, points[1:])
        for piece in _refined(p.as_complex, q.as_complex, toward and toward.as_complex)
    ]
    a = np.array([p for p, _ in pieces])
    d = np.array([q for _, q in pieces]) - a
    if toward is not None:
        # graded toward a point, as the legs of a detour are
        ends = np.array([p.as_complex for p in points])
        starts, stops, _ = calculus._bisect(ends[:-1], ends[1:], np.full(3, toward.as_complex))
        assert np.array_equal(starts, a) and np.array_equal(stops, np.array([q for _, q in pieces]))
        return
    t, w = (np.polynomial.legendre.leggauss(16)[i] for i in (0, 1))
    path = Path.polyline(points)
    assert np.array_equal(path.nodes, (a[:, None] + (t + 1) / 2 * d[:, None]).ravel())
    assert np.array_equal(path.dz, (w / 2 * d[:, None]).ravel())


def test_gauss_legendre_is_numpys_rule_bit_for_bit():
    for n in range(1, 65):
        t, w = calculus._gauss_legendre(n)
        x, v = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(t, (x + 1) / 2) and np.array_equal(w, v / 2), n


def test_walk_sums_are_the_path_integrals():
    cases = [(PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(0.5, 0.0)),
             (PlanePoint(0.2, -0.4), PlanePoint(1.5, 0.6), PlanePoint(3.0, 3.0))]
    (walks,) = detour_walks(*(np.array([c[i].as_complex for c in cases]) for i in range(3)))
    one_form = lambda xs, ys, dz: (xs * ys * dz, np.exp(xs) * dz)  # noqa: E731
    totals = walks.integrate(one_form)
    for k, case in enumerate(cases):
        alone = detour_path(*case).integrate(one_form)
        assert (totals[0][k], totals[1][k]) == alone
    # a non-finite sum is named at the first node of the walk that has one:
    # finite values on the second walk only, whose sum overflows first at
    # its second node
    second = np.arange(walks.xs.size) >= walks.sizes[0]
    with pytest.raises(InvalidValueError) as info:
        walks.integrate(lambda xs, ys, dz: np.where(second, 1e308, 0) + 0j)
    node = PlanePoint(float(walks.xs[walks.sizes[0] + 1]), float(walks.ys[walks.sizes[0] + 1]))
    assert f"node {node}" in str(info.value)


def test_path_nodes_are_float_and_complex_arrays():
    a, b, avoid = PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(0.5, 0.0)
    paths = [
        Path.polyline([a, b]),
        Path.polyline([a, PlanePoint(0.5, 0.4), b]),
        Path.circle(avoid, 0.3, nodes=16),
        detour_path(a, b, avoid, radius=0.2),  # around avoid
        detour_path(a, PlanePoint(1, 1), avoid, radius=0.2),  # straight past it
    ]
    for path in paths:
        assert len(path.nodes) > 0
        dtypes = (path.xs.dtype, path.ys.dtype, path.dz.dtype)
        assert dtypes == (np.float64, np.float64, np.complex128)
        assert path.xs.shape == path.ys.shape == path.dz.shape == (len(path.nodes),)
