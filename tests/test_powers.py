import math
import random

import numpy as np
import pytest

from bivekua import expr, jets, powers

from bivekua.bicomplex import J, Bicomplex, PlanePoint, from_cj
from bivekua.calculus import RegionGrid
from bivekua.expr import EvaluationError
from bivekua.fields import KERNEL_VARS, Field, Kernel
from bivekua.pairs import GeneratingSequence, make_pair, separable_pair
from bivekua.powers import (
    ContourSpec,
    KernelFamily,
    SingularPointError,
    adjoint_kernel_transfer,
    analytic_kernel,
    asymptotics_check,
    coefficients_at,
    counterexample_kernel,
    first_cauchy,
    formal_contour_integral,
    hat_sequence,
    negative_powers,
    power_residual_scan,
    reproducing_deviations,
    reproducing_example_kernel,
)
from bivekua.schroedinger import x_main_family, x_negative_power
from oracles import isclose

ONE = Field.constant(Bicomplex(1, 0))
JF = Field.constant(Bicomplex(0, 1))
ANALYTIC_PAIR = make_pair(Field.from_exprs("1", "0"), Field.from_exprs("0", "1"))
UNIT = ContourSpec.circle(PlanePoint(0, 0), 1.0)


def node_points(path) -> list[PlanePoint]:
    return [PlanePoint(x, y) for x, y in zip(path.xs.tolist(), path.ys.tolist())]
RADII = [10.0 ** (-k) for k in range(1, 7)]


def as_callable_only(k: KernelFamily) -> KernelFamily:
    c1, cj = k.coef1, k.coefj
    return KernelFamily(
        order=k.order,
        coef1=lambda zeta, z: c1(zeta, z),
        coefj=lambda zeta, z: cj(zeta, z),
    )


def expected_pow(zeta: PlanePoint, z: PlanePoint, n: int) -> Bicomplex:
    d = complex(z.x - zeta.x, z.y - zeta.y)
    v = 1 / d**n
    return Bicomplex(v.real, v.imag)


def rand_pairs(m, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < m:
        zeta = PlanePoint(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z = PlanePoint(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if zeta.dist(z) > 0.2:
            out.append((zeta, z))
    return out


def test_contour_integrals_match_the_node_by_node_sums():
    # both formulas against their 1-forms formed node by node in Bicomplex
    # arithmetic: the second with Z(alpha) = Sc(alpha) Z(1) + Vec(alpha) Z(j)
    # for alpha = j W dtau, the first with W Zhat dtau for each coefficient
    fam = x_main_family()
    hat = adjoint_kernel_transfer(fam)
    w = Field.from_exprs("x^2 - y^2 + 3", "2*x*y - x")
    contour = ContourSpec.circle(PlanePoint(3.1, 0.2), 1.0, nodes=64)
    nodes = list(zip(node_points(contour.path), contour.path.dz.tolist()))
    for z0 in contour.interior + contour.exterior:
        second = first_1 = first_j = Bicomplex(0, 0)
        for tau, dz in nodes:
            alpha = J * w(tau) * from_cj(dz)
            second = second + (
                fam.coef1(tau, z0).scale(alpha.sc) + fam.coefj(tau, z0).scale(alpha.vec)
            )
            first_1 = first_1 + w(tau) * hat.coef1(z0, tau) * from_cj(dz)
            first_j = first_j + w(tau) * hat.coefj(z0, tau) * from_cj(dz)
        for got, want in (
            (formal_contour_integral(fam, w, contour, z0), second),
            (first_cauchy(w, hat, contour, z0), Bicomplex(first_1.vec, -first_j.vec)),
        ):
            assert (got - want).norm <= 1e-15 * max(1.0, want.norm)


@pytest.mark.parametrize("callable_only", [False, True])
def test_formal_contour_integral_probe_on_contour_raises(callable_only):
    fam = as_callable_only(analytic_kernel()) if callable_only else analytic_kernel()
    node = node_points(UNIT.path)[3]
    with pytest.raises(SingularPointError):
        formal_contour_integral(fam, ONE, UNIT, node)


def test_kernel_fault_at_a_contour_node_raises_at_that_node():
    # node 0 of the circle is (1, 0): the kernel divides by zero there, in
    # the center for the second formula and in the argument for the first
    contour = ContourSpec.circle(PlanePoint(0, 0), 1.0, nodes=8)
    tau, z0 = node_points(contour.path)[0], PlanePoint(0.1, 0.2)
    assert tau == PlanePoint(1.0, 0.0)
    analytic = analytic_kernel()
    second = KernelFamily(-1, Kernel.make("1/(xi - 1)"), analytic.coefj)
    first = KernelFamily(-1, Kernel.make("1/(x - 1)"), analytic.coefj)
    runs = [
        (lambda: formal_contour_integral(second, ONE, contour, z0), lambda: second.coef1(tau, z0)),
        (lambda: first_cauchy(ONE, first, contour, z0), lambda: first.coef1(z0, tau)),
    ]
    for walk, scalar in runs:
        with pytest.raises(EvaluationError) as on_nodes:
            walk()
        with pytest.raises(EvaluationError) as at_node:
            scalar()
        assert str(on_nodes.value) == str(at_node.value)
        assert on_nodes.value.point == at_node.value.point


def test_counterexample_integral_is_pi():
    # The kernel solves the equation in z but the contour integral of the
    # constant 1 returns pi instead of 2*pi: pointwise asymptotics alone do
    # not imply the reproducing property.
    val = formal_contour_integral(counterexample_kernel(), ONE, UNIT, PlanePoint(0, 0))
    assert (val - Bicomplex(math.pi, 0)).norm <= 1e-10


def test_counterexample_fails_reproducing_suite():
    assert max(reproducing_deviations(counterexample_kernel(), ANALYTIC_PAIR, UNIT)) > 1e-6


def test_analytic_kernel_reproduces():
    assert max(reproducing_deviations(analytic_kernel(), ANALYTIC_PAIR, UNIT)) <= 1e-8


def test_reproducing_example_dichotomy():
    k = reproducing_example_kernel()
    for w in (ONE, JF):
        for z0 in UNIT.interior:
            got = formal_contour_integral(k, w, UNIT, z0)
            assert (got - w(z0).scale(2 * math.pi)).norm <= 1e-8
        for z0 in UNIT.exterior:
            assert formal_contour_integral(k, w, UNIT, z0).norm <= 1e-8


def test_reproducing_example_nonconstant_solution():
    w = Field.from_exprs("x^2 - y^2", "2*x*y")  # z^2 is analytic
    k = reproducing_example_kernel()
    z0 = PlanePoint(0.3, -0.2)
    got = formal_contour_integral(k, w, UNIT, z0)
    assert (got - w(z0).scale(2 * math.pi)).norm <= 1e-8


def test_second_cauchy_offcenter_circle():
    k = analytic_kernel()
    contour = ContourSpec.circle(PlanePoint(3, 0), 1.0)
    w = Field.from_exprs("x", "y")
    for z0 in contour.interior:
        got = formal_contour_integral(k, w, contour, z0)
        assert (got - w(z0).scale(2 * math.pi)).norm <= 1e-8
    for z0 in contour.exterior:
        assert formal_contour_integral(k, w, contour, z0).norm <= 1e-8


def test_first_cauchy_formula():
    hat = adjoint_kernel_transfer(analytic_kernel())
    w = Field.from_exprs("x^2 - y^2", "2*x*y")
    z0 = PlanePoint(0.4, 0.1)
    got = first_cauchy(w, hat, UNIT, z0)
    assert (got - w(z0).scale(2 * math.pi)).norm <= 1e-8
    assert first_cauchy(w, hat, UNIT, PlanePoint(2.5, 1.0)).norm <= 1e-8


def test_first_cauchy_is_the_two_walk_sum():
    # one walk gives exactly Vec ∫ W Zhat(1) dtau - j Vec ∫ W Zhat(j) dtau,
    # each integral summed over the nodes in order as a walk of its own
    hat = adjoint_kernel_transfer(as_callable_only(reproducing_example_kernel()))
    w = Field.from_exprs("x^2 - y^2 + 3", "2*x*y - x")
    contour = ContourSpec.circle(PlanePoint(0.2, -0.1), 0.8, nodes=64)
    nodes = list(zip(node_points(contour.path), contour.path.dz.tolist()))
    for z0 in (PlanePoint(0.4, 0.1), PlanePoint(2.5, 1.0)):
        i1 = ij = Bicomplex(0, 0)
        for tau, dz in nodes:
            i1 = i1 + w(tau) * hat.coef1(z0, tau) * from_cj(dz)
        for tau, dz in nodes:
            ij = ij + w(tau) * hat.coefj(z0, tau) * from_cj(dz)
        assert first_cauchy(w, hat, contour, z0) == Bicomplex(i1.vec, -ij.vec)


def test_first_cauchy_asks_for_both_coefficients_at_each_node():
    hat = adjoint_kernel_transfer(analytic_kernel())
    calls = []

    def counted(name, coef):
        return lambda z0, tau: calls.append((name, tau)) or coef(z0, tau)

    fam = KernelFamily(-1, counted("1", hat.coef1), counted("j", hat.coefj))
    contour = ContourSpec.circle(PlanePoint(0, 0), 1.0, nodes=8)
    first_cauchy(ONE, fam, contour, PlanePoint(0.1, 0.2))
    # coefficients_at calls the two plain slots back to back at each node
    assert calls == [(slot, tau) for tau in node_points(contour.path) for slot in "1j"]


def test_first_cauchy_probe_on_contour_raises():
    hat = adjoint_kernel_transfer(analytic_kernel())
    node = node_points(UNIT.path)[0]
    with pytest.raises(SingularPointError):
        first_cauchy(ONE, hat, UNIT, node)


def test_transfer_of_analytic_is_analytic():
    t = adjoint_kernel_transfer(analytic_kernel())
    for zeta, z in rand_pairs(20):
        assert isclose(t.coef1(zeta, z), expected_pow(zeta, z, 1))
        assert isclose(t.coefj(zeta, z), Bicomplex(0, 1) * expected_pow(zeta, z, 1))


def test_transfer_involution_symbolic_and_callable():
    for base in (analytic_kernel(), counterexample_kernel(), reproducing_example_kernel()):
        for fam in (base, as_callable_only(base)):
            double = adjoint_kernel_transfer(adjoint_kernel_transfer(fam))
            for zeta, z in rand_pairs(10):
                assert (double.coef1(zeta, z) - base.coef1(zeta, z)).norm <= 1e-12
                assert (double.coefj(zeta, z) - base.coefj(zeta, z)).norm <= 1e-12


def test_transfer_of_reproducing_example():
    # The adjoint family of the corrected kernel is the analytic kernel plus
    # the regular analytic solution z on the first coefficient.
    t = adjoint_kernel_transfer(reproducing_example_kernel())
    for zeta, z in rand_pairs(20):
        want1 = expected_pow(zeta, z, 1) + Bicomplex(z.x, z.y)
        assert (t.coef1(zeta, z) - want1).norm <= 1e-12
        wantj = Bicomplex(0, 1) * expected_pow(zeta, z, 1)
        assert (t.coefj(zeta, z) - wantj).norm <= 1e-12


def test_asymptotics_analytic_kernel():
    rep = asymptotics_check(analytic_kernel(), PlanePoint(0.3, -0.1), RADII)
    assert rep.passed and rep.monotone
    assert max(rep.errors_1[-1], rep.errors_j[-1]) <= 1e-12
    assert max(rep.ratio_dev) <= 1e-12


def test_asymptotics_corrected_kernels_log_bounded():
    for fam in (counterexample_kernel(), reproducing_example_kernel()):
        rep = asymptotics_check(fam, PlanePoint(0.2, 0.4), RADII)
        assert rep.passed
        assert rep.fitted_constant < 1.0


def test_asymptotics_rejects_wrong_strength():
    # 2/(z - zeta) has the wrong residue; (z-zeta) Z(1) -> 2, not 1.
    from bivekua.fields import Kernel

    r2 = "(x - xi)^2 + (y - eta)^2"
    k1 = Kernel.make(f"2*(x - xi)/({r2})", f"-2*(y - eta)/({r2})")
    kj = Kernel.make(f"(y - eta)/({r2})", f"(x - xi)/({r2})")
    rep = asymptotics_check(KernelFamily(-1, k1, kj), PlanePoint(0, 0), RADII)
    assert not rep.passed


CONST_SEQ = hat_sequence(GeneratingSequence.separable("1", "1"))


def test_negative_powers_identity_order_one():
    base = analytic_kernel()
    assert negative_powers(base, CONST_SEQ, 1) is base


def test_negative_powers_rejects_bad_order():
    with pytest.raises(ValueError):
        negative_powers(analytic_kernel(), CONST_SEQ, 0)


def test_negative_powers_analytic_symbolic():
    base = analytic_kernel()
    for n in (2, 3, 4):
        k = negative_powers(base, CONST_SEQ, n)
        assert k.order == -n
        for zeta, z in rand_pairs(10, seed=n):
            e = expected_pow(zeta, z, n)
            assert (k.coef1(zeta, z) - e).norm <= 1e-12 * e.norm
            assert (k.coefj(zeta, z) - Bicomplex(0, 1) * e).norm <= 1e-12 * e.norm


def test_negative_powers_fd_chain():
    base = as_callable_only(analytic_kernel())
    k = negative_powers(base, CONST_SEQ, 2)
    for zeta, z in rand_pairs(10, seed=11):
        e = expected_pow(zeta, z, 2)
        assert (k.coef1(zeta, z) - e).norm <= 1e-5 * max(1.0, e.norm)
        assert (k.coefj(zeta, z) - Bicomplex(0, 1) * e).norm <= 1e-5 * max(1.0, e.norm)


def test_negative_powers_fd_chain_shares_derivatives_between_slots():
    # both slots at one (zeta, z), evaluated together, read the two
    # derivatives of the adjoint-side kernel at (z, zeta) once: the second
    # slot costs no evaluation of the base kernel
    base = as_callable_only(analytic_kernel())
    calls = []
    c1, cj = base.coef1, base.coefj
    counted = KernelFamily(
        -1,
        lambda zeta, z: calls.append(1) or c1(zeta, z),
        lambda zeta, z: calls.append(1) or cj(zeta, z),
    )
    k = negative_powers(counted, CONST_SEQ, 2)
    zeta, z = PlanePoint(0.3, -0.2), PlanePoint(-0.4, 0.5)
    v1 = k.coef1(zeta, z)
    one_slot = len(calls)
    calls.clear()
    z1, zj = coefficients_at(k, zeta.x, zeta.y, z.x, z.y)
    assert one_slot > 0 and len(calls) == one_slot
    vj = Bicomplex(zj.sc[0], zj.vec[0])
    assert Bicomplex(z1.sc[0], z1.vec[0]) == v1 and vj == k.coefj(zeta, z)
    e = expected_pow(zeta, z, 2)
    assert (v1 - e).norm <= 1e-5 * max(1.0, e.norm)
    assert (vj - Bicomplex(0, 1) * e).norm <= 1e-5 * max(1.0, e.norm)


def test_criterion_5_loops_run_each_pair_once():
    # acceptance criterion 5 asks for Z(1) and then Z(j) at each of its 50
    # pairs; the two calls share one run of the nested differences, which
    # evaluates both base slots at 5^(n-1) stencil points per pair:
    # 50 x 2 x (25 + 125) base calls for n = 3 and 4
    base = x_main_family()
    calls = []
    counted = KernelFamily(
        -1, *(lambda zeta, z, c=c: calls.append(1) or c(zeta, z) for c in (base.coef1, base.coefj))
    )
    seq = hat_sequence(GeneratingSequence.separable("x", "1"))
    rng = random.Random(5)
    pairs = []
    while len(pairs) < 50:
        zeta = PlanePoint(rng.uniform(1, 3), rng.uniform(-1, 1))
        z = PlanePoint(rng.uniform(1, 3), rng.uniform(-1, 1))
        if zeta.dist(z) > 0.3:
            pairs.append((zeta, z))
    for n in (3, 4):
        fam = negative_powers(counted, seq, n)
        for zeta, z in pairs:
            fam.coef1(zeta, z), fam.coefj(zeta, z)
    assert len(calls) == 15_000


def test_slot_calls_share_a_run_only_at_the_same_points():
    # a pair of equal points that are other objects runs the source again,
    # so a point with -0.0 never reads the run of the same point with 0.0
    base = as_callable_only(analytic_kernel())
    calls = []
    c1, cj = base.coef1, base.coefj
    counted = KernelFamily(
        -1, lambda zeta, z: calls.append(1) or c1(zeta, z), lambda zeta, z: calls.append(1) or cj(zeta, z)
    )
    k = negative_powers(counted, CONST_SEQ, 2)
    zeta, z = PlanePoint(0.3, 0.0), PlanePoint(-0.4, 0.5)
    k.coef1(zeta, z)
    once = len(calls)
    k.coefj(zeta, z)
    assert len(calls) == once
    k.coefj(PlanePoint(0.3, 0.0), z)
    assert len(calls) == 2 * once
    plus, minus = k.coef1(zeta, z), k.coef1(PlanePoint(0.3, -0.0), z)
    assert plus == minus and len(calls) == 4 * once


def test_negative_powers_jet_chain_shares_one_run_between_slots(monkeypatch):
    # both slots of a batch of pairs come from one run of the hat kernels'
    # jet program, as one slot alone does; a single pair gives the batch's
    # values bit for bit
    runs = []
    compile_expr = expr.compile_expr

    def counted(e, variables=("x", "y"), table=expr.CMATH):
        program = compile_expr(e, variables, table)
        if table is not jets.TABLE or variables != KERNEL_VARS:
            return program
        return lambda *args: runs.append(1) or program(*args)

    monkeypatch.setattr(expr, "compile_expr", counted)
    seq = hat_sequence(GeneratingSequence.separable("x", "1"))
    k = negative_powers(x_main_family(), seq, 4)
    pairs = [(zeta, z) for zeta, z in rand_pairs(40, seed=4) if zeta.x > 0.1 and z.x > 0.1][:5]
    xi, eta, x, y = (np.array(c) for c in zip(*((a.x, a.y, b.x, b.y) for a, b in pairs)))
    z1, zj = coefficients_at(k, xi, eta, x, y)
    assert len(runs) == 1
    runs.clear()
    one = Bicomplex(*(c[0] for c in k.coef1.on(xi, eta, x, y)))
    assert len(runs) == 1 and one == Bicomplex(z1.sc[0], z1.vec[0])
    oracle = x_negative_power(4)
    for i, (zeta, z) in enumerate(pairs):
        runs.clear()
        a, b = coefficients_at(k, zeta.x, zeta.y, z.x, z.y)
        assert len(runs) == 1
        assert (a.sc[0], a.vec[0], b.sc[0], b.vec[0]) == (z1.sc[i], z1.vec[i], zj.sc[i], zj.vec[i])
        assert k.coefj(zeta, z) == Bicomplex(zj.sc[i], zj.vec[i])
        assert (Bicomplex(a.sc[0], a.vec[0]) - oracle.coef1(zeta, z)).norm <= 1e-10
        assert (Bicomplex(b.sc[0], b.vec[0]) - oracle.coefj(zeta, z)).norm <= 1e-10


@pytest.mark.parametrize("n", [5, 6, 7])
def test_negative_powers_jet_chain_matches_catalog_at_high_orders(n):
    # the exact chain stays exact at orders the symbolic one could not reach:
    # f = x, its main kernels and the separable pairs of (x, 1)
    seq = hat_sequence(GeneratingSequence.separable("x", "1"))
    k, oracle = negative_powers(x_main_family(), seq, n), x_negative_power(n)
    rng = random.Random(n)
    pairs = []
    while len(pairs) < 20:
        zeta, z = (PlanePoint(rng.uniform(1, 3), rng.uniform(-1, 1)) for _ in range(2))
        if zeta.dist(z) > 0.2:
            pairs.append((zeta, z))
    xi, eta, x, y = (np.array(c) for c in zip(*((a.x, a.y, b.x, b.y) for a, b in pairs)))
    z1, zj = coefficients_at(k, xi, eta, x, y)
    for i, (zeta, z) in enumerate(pairs):
        assert (Bicomplex(z1.sc[i], z1.vec[i]) - oracle.coef1(zeta, z)).norm <= 1e-10
        assert (Bicomplex(zj.sc[i], zj.vec[i]) - oracle.coefj(zeta, z)).norm <= 1e-10


def test_hat_sequence_builds_one_member_per_distinct_pair(monkeypatch):
    # the separable sequence of (x, 1) has period two: the order -7 chain
    # builds two hat pairs and compiles their jet programs once each, where
    # a sequence of fresh pairs costs six, and the values are the same bit
    # for bit
    built, jet_programs = [], []
    make, compile_expr = powers.make_pair, expr.compile_expr

    def counted(e, variables=("x", "y"), table=expr.CMATH):
        if table is jets.TABLE:
            jet_programs.append(variables)
        return compile_expr(e, variables, table)

    monkeypatch.setattr(powers, "make_pair", lambda *args: built.append(1) or make(*args))
    monkeypatch.setattr(expr, "compile_expr", counted)
    pairs = [(PlanePoint(1.2 + 0.3 * i, 0.1 * i), PlanePoint(2.6 - 0.2 * i, 0.5 - 0.2 * i)) for i in range(4)]
    xi, eta, x, y = (np.array(c) for c in zip(*((a.x, a.y, b.x, b.y) for a, b in pairs)))

    def run(seq) -> tuple[int, int, list[bytes]]:
        built.clear()
        jet_programs.clear()
        z1, zj = coefficients_at(negative_powers(x_main_family(), hat_sequence(seq), 7), xi, eta, x, y)
        return len(built), len(jet_programs), [v.tobytes() for v in (z1.sc, z1.vec, zj.sc, zj.vec)]

    shared = run(GeneratingSequence.separable("x", "1"))
    fresh = run(GeneratingSequence(lambda m: separable_pair("x", "1", m % 2)))
    assert shared[:2] == (2, 3) and fresh[:2] == (6, 7)
    assert shared[2] == fresh[2]


def test_negative_powers_jet_chain_fault_raises_at_its_pair():
    # the chain at a diagonal pair divides by zero; in a batch, the first
    # faulty pair raises its own error
    k = negative_powers(analytic_kernel(), CONST_SEQ, 3)
    good, bad = PlanePoint(0.3, 0.1), PlanePoint(0.5, -0.2)
    with pytest.raises(EvaluationError) as alone:
        k.coef1(bad, bad)
    with pytest.raises(EvaluationError) as batch:
        coefficients_at(k, np.array([good.x, bad.x]), np.array([good.y, bad.y]), bad.x, bad.y)
    assert alone.value.point == batch.value.point == (bad.x, bad.y, bad.x, bad.y)
    assert str(alone.value) == str(batch.value)


def test_residual_scan_analytic():
    region = RegionGrid(-1, 1, -1, 1)
    rep = power_residual_scan(
        analytic_kernel(), ANALYTIC_PAIR, region, PlanePoint(0.05, 0.02)
    )
    assert rep.max_residual <= 1e-8


def test_residual_scan_flags_nonsolution():
    from bivekua.fields import Kernel

    # conj_j(z - zeta) is not analytic in z: the scan must report O(1) residual.
    k1 = Kernel.make("x - xi", "-(y - eta)")
    kj = Kernel.make("y - eta", "x - xi")
    fam = KernelFamily(-1, k1, kj)
    region = RegionGrid(-1, 1, -1, 1)
    rep = power_residual_scan(fam, ANALYTIC_PAIR, region, PlanePoint(0, 0))
    assert rep.max_residual_1 > 0.5
