import math
import random

import numpy as np
import pytest

from bivekua import calculus, fields, powers
from bivekua.bicomplex import Bicomplex, PlanePoint
from bivekua.calculus import PathThroughSingularityError, RegionGrid, detour_walks, tf_transform
from bivekua.expr import EvaluationError
from bivekua.fields import Field, Kernel
from bivekua.pairs import GeneratingSequence, vekua_residual, vekua_residual_of
from bivekua.powers import (
    SingularPointError,
    asymptotics_check,
    coefficients_at,
    hat_sequence,
    negative_powers,
    adjoint_kernel_transfer,
    power_residual_scan,
    reproducing_deviations,
    ContourSpec,
)
from bivekua.schroedinger import (
    MainVekuaProblem,
    conjugate_pair_build,
    darboux_fundamental,
    darboux_potential,
    laplace_fundamental,
    potential_from_f,
    schroedinger_residual,
    successor_kernel_coef1,
    successor_kernel_coefj,
    x_darboux_fundamental,
    x_main_family,
    x_negative_power,
    x_successor_family,
)
from oracles import (
    detour_path,
    is_successor,
    isclose,
    kernel_in_zeta,
    scalar_vekua_residual,
    x_problem,
)

F_X = Field.from_exprs("x")
F_EXP = Field.from_exprs("exp(x)*cos(y)")
ZETA0 = PlanePoint(0.5, 0.0)
REGION_X = RegionGrid(1, 2, -1, 1)


def pipeline_successor(f, side=1.0):
    return successor_kernel_coefj(successor_kernel_coef1(laplace_fundamental(), f), f, ZETA0, side)


def columns(pairs):
    """The (xi, eta, x, y) arrays of a list of (zeta, z) pairs."""
    return tuple(np.array(c) for c in zip(*((a.x, a.y, b.x, b.y) for a, b in pairs)))


def rand_pairs(m, lo=1.0, hi=3.0, seed=13, min_dist=0.2):
    rng = random.Random(seed)
    out = []
    while len(out) < m:
        zeta = PlanePoint(rng.uniform(lo, hi), rng.uniform(-1, 1))
        z = PlanePoint(rng.uniform(lo, hi), rng.uniform(-1, 1))
        if zeta.dist(z) > min_dist:
            out.append((zeta, z))
    return out


# -- potentials --------------------------------------------------------------


def test_potential_examples():
    z = PlanePoint(1.7, 0.4)
    assert potential_from_f(F_X)(z).norm <= 1e-14
    assert potential_from_f(Field.constant(Bicomplex(1, 0)))(z).norm <= 1e-14
    assert isclose(potential_from_f(Field.from_exprs("exp(x)"))(z), Bicomplex(1, 0))


def test_darboux_potential_examples():
    z = PlanePoint(1.7, 0.4)
    assert isclose(darboux_potential(F_X)(z), Bicomplex(2 / z.x**2, 0))
    assert darboux_potential(Field.constant(Bicomplex(1, 0)))(z).norm <= 1e-14
    assert isclose(darboux_potential(Field.from_exprs("exp(x)"))(z), Bicomplex(1, 0))


def test_schroedinger_residual_examples():
    z = PlanePoint(1.5, 0.5)
    assert schroedinger_residual(F_X, potential_from_f(F_X), z) <= 1e-14
    # log|z - zeta| is harmonic away from the center
    u = Field.from_exprs("0.5*log(x^2 + y^2)")
    zero = Field.constant(Bicomplex(0, 0))
    assert schroedinger_residual(u, zero, z) <= 1e-12
    assert schroedinger_residual(u, zero, z, h=1e-3) <= 1e-5


@pytest.mark.parametrize("h", [1e-300, 1e-200])
def test_schroedinger_residual_step_whose_square_underflows_is_a_step_error(h):
    # h moves (0, 0), but h^2 is 0: a typed error, not a ZeroDivisionError
    u = Field.from_exprs("exp(x)*(cos(y) + 2)")
    q = Field.from_exprs("2/(cos(y) + 2)")
    for z in (PlanePoint(0, 0), (np.zeros(3), np.zeros(3))):
        with pytest.raises(fields.StepError, match="too small to move every node"):
            schroedinger_residual(u, q, z, h)


# -- problem bundle ----------------------------------------------------------


def test_x_problem_pairs():
    prob = x_problem(REGION_X)
    z = PlanePoint(1.5, 0.25)
    assert isclose(prob.pair.F(z), Bicomplex(1.5, 0))
    assert isclose(prob.pair.G(z), Bicomplex(0, 1 / 1.5))
    assert isclose(prob.q1(z), Bicomplex(2 / 1.5**2, 0))
    # the successor pair of the problem is a successor of (f, j/f)
    assert is_successor(prob.successor, prob.pair, REGION_X)


# -- fundamental solutions ---------------------------------------------------


def test_laplace_fundamental():
    S = laplace_fundamental()
    zeta, z = PlanePoint(1, 0), PlanePoint(2, 1)
    assert abs(S(zeta, z).sc - 0.5 * math.log(2)) <= 1e-14
    assert S(zeta, z).vec == 0
    with pytest.raises(EvaluationError, match="log of 0"):
        S(z, z)


# -- successor kernels from the pipeline -------------------------------------


def test_coef1_matches_closed_form():
    k1 = successor_kernel_coef1(laplace_fundamental(), F_X)
    cat = x_successor_family()
    for zeta, z in rand_pairs(50):
        assert (k1(zeta, z) - cat.coef1(zeta, z)).norm <= 1e-13


def test_coef1_spot_value():
    # At zeta=(1,0), z=(2,0) the log term vanishes and the kernel is 1.
    k1 = successor_kernel_coef1(laplace_fundamental(), F_X)
    assert isclose(k1(PlanePoint(1, 0), PlanePoint(2, 0)), Bicomplex(1, 0))


def test_coef1_trivial_f():
    k1 = successor_kernel_coef1(
        laplace_fundamental(), Field.constant(Bicomplex(1, 0))
    )
    zeta, z = PlanePoint(0.2, -0.1), PlanePoint(1.1, 0.7)
    d = complex(z.x - zeta.x, z.y - zeta.y)
    assert (k1(zeta, z) - Bicomplex((1 / d).real, (1 / d).imag)).norm <= 1e-13


def test_coefj_matches_anchored_closed_form():
    zeta0 = PlanePoint(0.5, 0.0)
    fam = successor_kernel_coefj(
        successor_kernel_coef1(laplace_fundamental(), F_X), F_X, zeta0
    )
    cat = x_successor_family()
    for zeta, z in rand_pairs(10, seed=3):
        # the pipeline output vanishes at zeta0; the closed form does not,
        # and the two differ by that anchored multiple of a regular solution
        anchored = cat.coefj(zeta, z) - cat.coefj(zeta0, z).scale(zeta0.x / zeta.x)
        assert (fam.coefj(zeta, z) - anchored).norm <= 1e-10


def test_coefj_compiles_per_family_not_per_point(compiles):
    def compiles_for(points):
        start = len(compiles)
        f = Field.from_exprs("x")
        k1 = successor_kernel_coef1(laplace_fundamental(), f)
        fam = successor_kernel_coefj(k1, f, PlanePoint(0.5, 0.0))
        for zeta, z in points:
            fam.coefj(zeta, z)
        return len(compiles) - start

    points = rand_pairs(5, seed=3)
    assert compiles_for(points) <= compiles_for(points[:1])


def test_main_coefficients_share_one_successor_coefj():
    k1 = successor_kernel_coef1(laplace_fundamental(), F_X)
    successor = successor_kernel_coefj(k1, F_X, PlanePoint(0.5, 0.0))
    coefj, calls = successor.coefj, []

    def counted(zeta, z):
        calls.append((zeta, z))
        return coefj(zeta, z)

    successor.coefj = counted
    main = adjoint_kernel_transfer(successor)
    zeta, z = PlanePoint(2.4, 0.1), PlanePoint(1.5, 0.05)
    z1, zj = coefficients_at(main, np.array([zeta.x]), np.array([zeta.y]), z.x, z.y)
    assert calls == [(z, zeta)]
    # the recombination of the successor values, each computed once
    a, b = k1(z, zeta), coefj(z, zeta)
    assert (z1.sc[0], z1.vec[0], zj.sc[0], zj.vec[0]) == (-a.sc, b.sc, a.vec, -b.vec)


# -- pair faces: many walks as one array job ----------------------------------


@pytest.mark.parametrize("f", [F_X, F_EXP], ids=["x", "exp(x)cos(y)"])
def test_coefj_face_is_the_per_walk_transform_bit_for_bit(f, monkeypatch):
    fam = pipeline_successor(f)
    pairs = rand_pairs(10, seed=11) + [(ZETA0, PlanePoint(1.5, 0.05))]
    # a budget that cuts the batch into several array jobs
    monkeypatch.setattr(calculus, "NODE_BUDGET", 500)
    ends = np.array([a.as_complex for a, _ in pairs[:-1]])
    avoid = np.array([b.as_complex for _, b in pairs[:-1]])
    assert len(list(detour_walks(ZETA0.as_complex, ends, avoid))) >= 2
    sc, vec = fam.coefj.on(*columns(pairs))
    minus = fam.coefj.integrand
    for k, (zeta, z) in enumerate(pairs):
        one = fam.coefj(zeta, z)
        assert (sc[k], vec[k]) == (one.sc, one.vec)
        if zeta == ZETA0:
            assert one == Bicomplex(0, 0)
        else:
            assert one == tf_transform(f, kernel_in_zeta(minus, z), detour_path(ZETA0, zeta, z))


def test_walk_jobs_hold_at_most_the_node_budget(walk_jobs, monkeypatch):
    # 2-form values, 6-form z-partials and 1-form Darboux walks, each batch
    # cut into several jobs: a job of more than one path never holds more
    # nodes than the budget, whatever its 1-forms, and the z-partials are the
    # same bit for bit with every path in its own job
    fam = pipeline_successor(F_EXP)
    at = columns(rand_pairs(40, seed=7))
    z_partials = fam.coefj.partials("z", *at)
    fam.coefj.on(*at)
    darboux_fundamental(x_successor_family(), F_X, lambda zeta: PlanePoint(zeta.x + 1, zeta.y)).on(*at)
    for forms in (1, 2, 6):
        jobs = [(paths, nodes) for paths, nodes, k in walk_jobs if k == forms]
        assert len(jobs) >= 2, forms
        assert all(paths == 1 or nodes <= calculus.NODE_BUDGET for paths, nodes in jobs)
    monkeypatch.setattr(calculus, "NODE_BUDGET", 1)
    walk_jobs.clear()
    for got, want in zip(fam.coefj.partials("z", *at), z_partials):
        assert np.array_equal(got.sc, want.sc) and np.array_equal(got.vec, want.vec)
    assert len(walk_jobs) == 40 and all(paths == 1 for paths, _, _ in walk_jobs)


def test_coefj_face_with_one_point_for_every_pair():
    fam = pipeline_successor(F_EXP)
    zeta = PlanePoint(1.0, 0.1)
    xs, ys = np.array([1.6875, 2.0625, 2.4375]), np.array([-0.75, 0.25, 0.75])
    # the center shared (a Darboux walk's nodes), then the argument shared
    # (an eval-kernel grid of the main slot)
    sc, vec = fam.coefj.on(zeta.x, zeta.y, xs, ys)
    for k, z in enumerate(PlanePoint(x, y) for x, y in zip(xs.tolist(), ys.tolist())):
        assert (sc[k], vec[k]) == (fam.coefj(zeta, z).sc, fam.coefj(zeta, z).vec)
    sc, vec = fam.coefj.on(xs, ys, zeta.x, zeta.y)
    for k, c in enumerate(PlanePoint(x, y) for x, y in zip(xs.tolist(), ys.tolist())):
        assert (sc[k], vec[k]) == (fam.coefj(c, zeta).sc, fam.coefj(c, zeta).vec)


def test_coefj_face_raises_the_faulty_walks_own_error():
    # a kernel singular at one node of the second walk only
    pairs = rand_pairs(3, seed=5)
    zeta, z = pairs[1]
    path = detour_path(ZETA0, zeta, z)
    bad = PlanePoint(float(path.xs[7]), float(path.ys[7]))
    k1 = Kernel.make(f"log((xi - {bad.x!r})^2 + (eta - {bad.y!r})^2) + x")
    fam = successor_kernel_coefj(k1, F_X, ZETA0)
    assert fam.coefj(*pairs[0]) is not None
    with pytest.raises(EvaluationError) as alone:
        fam.coefj(zeta, z)
    with pytest.raises(EvaluationError) as batch:
        fam.coefj.on(*columns(pairs))
    minus = fam.coefj.integrand
    with pytest.raises(EvaluationError) as per_walk:
        tf_transform(F_X, kernel_in_zeta(minus, z), path)
    assert batch.value.point == alone.value.point == per_walk.value.point == (bad.x, bad.y, z.x, z.y)
    assert str(batch.value) == str(per_walk.value)


def test_coefj_face_refuses_pairs_in_pair_order():
    fam = pipeline_successor(F_X)
    good, diagonal = rand_pairs(1)[0], (PlanePoint(2.0, 0.5), PlanePoint(2.0, 0.5))
    with pytest.raises(SingularPointError, match="diagonal"):
        fam.coefj.on(*columns([good, diagonal]))
    # a walk whose start is the excluded point, before the diagonal pair
    through = (PlanePoint(2, 0), ZETA0)
    with pytest.raises(PathThroughSingularityError):
        fam.coefj.on(*columns([good, through, diagonal]))


@pytest.mark.parametrize(
    "successor", [lambda: pipeline_successor(F_X), x_successor_family], ids=["pipeline", "closed-form"]
)
def test_main_faces_are_their_calls_bit_for_bit(successor):
    # the transfer swaps the successor's values, a closed form's too, so a
    # main slot's call is its face at one pair
    main = adjoint_kernel_transfer(successor())
    z0 = PlanePoint(2.05, 0.05)
    taus = [PlanePoint(2 + 0.3 * math.cos(t), 0.3 * math.sin(t)) for t in (0.1, 1.9, 4.0)]
    xs, ys = np.array([t.x for t in taus]), np.array([t.y for t in taus])
    z1, zj = coefficients_at(main, xs, ys, z0.x, z0.y)
    grid = main.coef1.on(z0.x, z0.y, xs, ys)
    for k, tau in enumerate(taus):
        a, b = main.coef1(tau, z0), main.coefj(tau, z0)
        assert (z1.sc[k], z1.vec[k], zj.sc[k], zj.vec[k]) == (a.sc, a.vec, b.sc, b.vec)
        assert (grid.sc[k], grid.vec[k]) == (main.coef1(z0, tau).sc, main.coef1(z0, tau).vec)


@pytest.mark.parametrize("catalog", [True, False], ids=["x", "pipeline exp(x)cos(y)"])
def test_darboux_face_is_its_calls_bit_for_bit(catalog):
    f = F_X if catalog else F_EXP
    kj = x_successor_family() if catalog else pipeline_successor(F_EXP)
    S1 = darboux_fundamental(kj, f, lambda zeta: PlanePoint(zeta.x + 1, zeta.y))
    zeta = PlanePoint(1.0, 0.1)
    # the last point is the base point, where the path is empty
    points = [PlanePoint(1.6, -0.1), PlanePoint(2.0, 0.3), PlanePoint(2.0, 0.1)]
    sc, vec = S1.on(zeta.x, zeta.y, np.array([p.x for p in points]), np.array([p.y for p in points]))
    for k, p in enumerate(points):
        assert Bicomplex(sc[k], vec[k]) == S1(zeta, p)
    with pytest.raises(SingularPointError):
        S1.on(zeta.x, zeta.y, np.array([1.6, zeta.x]), np.array([0.2, zeta.y]))


def test_coefj_path_independence():
    # univalued kernel: both detour sides give the same value
    zeta0 = PlanePoint(0.5, 0.0)
    k1 = successor_kernel_coef1(laplace_fundamental(), F_X)
    up = successor_kernel_coefj(k1, F_X, zeta0, side=+1)
    dn = successor_kernel_coefj(k1, F_X, zeta0, side=-1)
    zeta = PlanePoint(2.4, 0.1)
    z = PlanePoint(1.5, 0.05)  # close to the straight path
    assert (up.coefj(zeta, z) - dn.coefj(zeta, z)).norm <= 1e-9


def test_coefj_endpoint_on_singularity():
    zeta0 = PlanePoint(0.5, 0.0)
    fam = successor_kernel_coefj(
        successor_kernel_coef1(laplace_fundamental(), F_X), F_X, zeta0
    )
    with pytest.raises(PathThroughSingularityError):
        fam.coefj(PlanePoint(2, 0), zeta0)


# -- main kernels ------------------------------------------------------------


def test_main_transfer_of_closed_forms():
    mt = adjoint_kernel_transfer(x_successor_family())
    cat = x_main_family()
    for zeta, z in rand_pairs(50, seed=7):
        assert (mt.coef1(zeta, z) - cat.coef1(zeta, z)).norm <= 1e-10
        assert (mt.coefj(zeta, z) - cat.coefj(zeta, z)).norm <= 1e-10


def test_main_family_spot_values():
    cat = x_main_family()
    zeta, z = PlanePoint(1, 0), PlanePoint(2, 0)
    assert isclose(cat.coef1(zeta, z), Bicomplex(1, 0))
    assert isclose(cat.coefj(zeta, z), Bicomplex(0, 1))


def test_main_family_reproduces():
    prob = x_problem()
    contour = ContourSpec.circle(PlanePoint(3, 0), 1.0)
    assert max(reproducing_deviations(x_main_family(), prob.pair, contour)) <= 1e-6


def test_main_family_residual_scan():
    prob = x_problem()
    rep = power_residual_scan(
        x_main_family(), prob.pair, RegionGrid(1, 2, -1, 1), PlanePoint(1.5, 0)
    )
    assert rep.max_residual <= 1e-8


def test_transferred_main_family_residual_scan_is_exact(central_differences):
    # the transfer of closed-form kernels takes its partials in z from their
    # exact center partials
    rep = power_residual_scan(
        adjoint_kernel_transfer(x_main_family()), x_problem().successor, REGION_X, PlanePoint(1.5, 0)
    )
    assert central_differences == []
    assert rep.max_residual <= 1e-12


def pipeline_power(n):
    """The order -n power of the pipeline main family of f = x."""
    seq = hat_sequence(GeneratingSequence.separable("x", "1"))
    return negative_powers(adjoint_kernel_transfer(pipeline_successor(F_X)), seq, n)


def test_pipeline_power_partials_take_only_the_stencils_of_its_values(central_differences):
    # the partials in z of the order -2 pipeline power are the chain of the
    # hat's exact partials: one more table of central differences in z, as
    # for its values, with no stencil in zeta
    fam = pipeline_power(2)
    zeta, xs, ys = PlanePoint(1.8, 0.1), np.array([1.6, 2.2, 2.45]), np.array([-0.3, 0.4, 0.05])
    coefficients_at(fam, zeta.x, zeta.y, xs, ys)
    values = len(central_differences)
    parts = powers.partials_at(fam, "z", zeta.x, zeta.y, xs, ys)
    assert 0 < len(central_differences) - values <= values
    # the value rows are the values bit for bit
    for (value, *_), want in zip(parts, coefficients_at(fam, zeta.x, zeta.y, xs, ys)):
        assert (value.sc.tolist(), value.vec.tolist()) == (want.sc.tolist(), want.vec.tolist())


def test_pipeline_power_partials_solve_the_main_equation():
    # over the residual scan of the pipeline order -2 power at f = x, with
    # the pair (f, j/f), the chain's partials leave a residual near rounding
    region, zeta = RegionGrid(1.5, 2.5, -0.5, 0.5), PlanePoint(1.8, 0.1)
    xs, ys = region.sample_columns(10)
    keep = np.hypot(xs - zeta.x, ys - zeta.y) > 0.1
    xs, ys = xs[keep], ys[keep]
    pair = x_problem().pair
    for slot in powers.partials_at(pipeline_power(2), "z", zeta.x, zeta.y, xs, ys):
        assert vekua_residual_of(pair, xs, ys, *slot).max() <= 1e-10


@pytest.mark.parametrize("f", [F_X, F_EXP], ids=["x", "exp(x)cos(y)"])
def test_successor_coefj_partials_are_its_differences(f):
    # exact partials in zeta (the walk's end) and in z (the walks of the
    # integrand's partials), against central differences of the face
    coefj = pipeline_successor(f).coefj
    zetas = [PlanePoint(1.6, -0.3), PlanePoint(2.2, 0.4), ZETA0]
    zs = [PlanePoint(1.2, 0.3), PlanePoint(1.9, -0.2), PlanePoint(1.5, 0.1)]
    xi, eta, x, y = columns(list(zip(zetas, zs)))
    # the stencil moves the last two columns: zeta's for "zeta"
    faces = {
        "zeta": (lambda x, y, xi, eta: coefj.on(xi, eta, x, y), (x, y, xi, eta)),
        "z": (coefj.on, (xi, eta, x, y)),
    }
    for arg, (face, at) in faces.items():
        value, *got = coefj.partials(arg, xi, eta, x, y)
        assert [c.tolist() for c in value] == [c.tolist() for c in coefj.on(xi, eta, x, y)]
        for d, want in zip(got, fields.differences(face, at, 1e-5, 1)[1:3]):
            assert (d - want).norm.max() <= 1e-8


def test_successor_family_residual_scan():
    prob = x_problem(REGION_X)
    rep = power_residual_scan(
        x_successor_family(),
        prob.successor,
        RegionGrid(1, 2, -1, 1),
        PlanePoint(1.5, 0),
    )
    assert rep.max_residual <= 1e-8


def test_all_four_kernels_asymptotics():
    radii = [10.0 ** (-k) for k in range(1, 7)]
    for fam in (x_successor_family(), x_main_family()):
        rep = asymptotics_check(fam, PlanePoint(1.5, 0.2), radii)
        assert rep.passed


# -- negative powers ---------------------------------------------------------


def test_negative_powers_match_closed_forms():
    seq = hat_sequence(GeneratingSequence.separable("x", "1"))
    k2 = negative_powers(x_main_family(), seq, 2)
    cat = x_negative_power(2)
    for zeta, z in rand_pairs(20, seed=2):
        assert (k2.coef1(zeta, z) - cat.coef1(zeta, z)).norm <= 1e-12
        assert (k2.coefj(zeta, z) - cat.coefj(zeta, z)).norm <= 1e-12


def test_negative_power_catalog_solves_equation():
    prob = x_problem()
    zeta = PlanePoint(1.4, 0.3)
    probes = (PlanePoint(2.2, 0.5), PlanePoint(1.7, -0.8))
    for n in (2, 3, 4, 5):
        cat = x_negative_power(n)
        f1 = Field(lambda z, c=cat: c.coef1(zeta, z))
        fj = Field(lambda z, c=cat: c.coefj(zeta, z))
        for p in probes:
            assert scalar_vekua_residual(f1, prob.pair, p, 1e-5) <= 1e-7
            assert scalar_vekua_residual(fj, prob.pair, p, 1e-5) <= 1e-7


def test_negative_power_catalog_rejects_low_order():
    with pytest.raises(ValueError):
        x_negative_power(1)


# -- Darboux fundamental solution ---------------------------------------------


def test_darboux_fundamental_matches_closed_form():
    S1 = darboux_fundamental(
        x_successor_family(), F_X, lambda zeta: PlanePoint(zeta.x + 1, zeta.y)
    )
    cat = x_darboux_fundamental()
    for zeta, z in rand_pairs(10, seed=5, min_dist=0.3):
        assert (S1(zeta, z) - cat(zeta, z)).norm <= 1e-9


def test_darboux_fundamental_spot_value():
    cat = x_darboux_fundamental()
    assert abs(cat(PlanePoint(1, 0), PlanePoint(1, 1)).sc - (-0.5)) <= 1e-14


def test_darboux_fundamental_residual_convergence():
    cat = x_darboux_fundamental()
    zeta = PlanePoint(1, 0)
    q1 = Field.from_exprs("2/x^2")
    u = Field(lambda z: cat(zeta, z))
    z = PlanePoint(2, 1)
    res = [schroedinger_residual(u, q1, z, h) for h in (1e-2, 5e-3, 2.5e-3)]
    orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
    assert all(o >= 1.9 for o in orders)


def test_darboux_fundamental_regular_part_bounded():
    # C2 surrogate: R stays bounded as z approaches the center
    S1 = darboux_fundamental(
        x_successor_family(), F_X, lambda zeta: PlanePoint(zeta.x + 1, zeta.y)
    )
    zeta = PlanePoint(1.5, 0.2)
    values = [
        abs(S1.on(zeta.x, zeta.y, zeta.x + r, zeta.y + r).sc[0] - math.log(math.hypot(r, r)))
        for r in (1e-1, 1e-2, 1e-3)
    ]
    assert max(values) <= 1.0


# -- conjugate construction ---------------------------------------------------


def test_conjugate_of_f_is_f():
    W = conjugate_pair_build(F_X, F_X, PlanePoint(1, 0))
    z = PlanePoint(1.6, 0.4)
    assert (W(z) - Bicomplex(z.x, 0)).norm <= 1e-12


def test_conjugate_partials_share_one_gradient(monkeypatch):
    # the d/dx and d/dy fields of W read one set of partials of u and f
    calls = []
    partials = Field.partials
    monkeypatch.setattr(Field, "partials", lambda w, *columns: calls.append(columns) or partials(w, *columns))
    W = conjugate_pair_build(F_X, Field.from_exprs("x*y"), PlanePoint(1, 0))
    z = PlanePoint(1.5, 0.3)
    W.dx(z), W.dy(z)
    assert [c for c in calls if np.ndim(c[0]) == 0] == [(z.x, z.y)] * 2


def test_conjugate_analytic_case():
    one = Field.constant(Bicomplex(1, 0))
    u = Field.from_exprs("x")
    W = conjugate_pair_build(one, u, PlanePoint(0, 0))
    z = PlanePoint(0.7, -0.4)
    assert (W(z) - Bicomplex(z.x, z.y)).norm <= 1e-12


@pytest.mark.parametrize("f_expr,u_expr", [("x", "x^2 - y^2"), ("exp(x)", "cosh(x)")])
def test_conjugate_solves_main_vekua(f_expr, u_expr):
    f = Field.from_exprs(f_expr)
    u = Field.from_exprs(u_expr)
    prob = MainVekuaProblem.from_f(f)
    W = conjugate_pair_build(f, u, PlanePoint(1, 0))
    for z in (PlanePoint(1.5, 0.3), PlanePoint(1.8, -0.6)):
        assert vekua_residual(W, prob.pair, z) <= 1e-10


def test_conjugate_bridge_clauses():
    # Sc W solves the q-equation and Vec W the q1-equation, at second order
    f = Field.from_exprs("x")
    u = Field.from_exprs("x^2 - y^2")
    prob = MainVekuaProblem.from_f(f)
    W = conjugate_pair_build(f, u, PlanePoint(1, 0))
    sc = Field(lambda z: Bicomplex(W(z).sc, 0))
    vec = Field(lambda z: Bicomplex(W(z).vec, 0))
    z = PlanePoint(1.6, 0.5)
    for part, q in ((sc, prob.q), (vec, prob.q1)):
        res = [schroedinger_residual(part, q, z, h) for h in (1e-2, 5e-3)]
        noise = 1e-9
        assert res[1] <= res[0] / 3 + noise
