import math
import random

import pytest

from bivekua.bicomplex import Bicomplex, PlanePoint, from_cj, isclose
from bivekua.calculus import RegionGrid
from bivekua.fields import Field
from bivekua.pairs import GeneratingSequence, MissingSequenceError, make_pair
from bivekua.powers import (
    ContourSpec,
    KernelFamily,
    SingularPointError,
    adjoint_kernel_transfer,
    analytic_kernel,
    asymptotics_check,
    counterexample_kernel,
    first_cauchy,
    formal_contour_integral,
    hat_sequence,
    kernel_eval,
    negative_powers,
    power_residual_scan,
    reproducing_check,
    reproducing_example_kernel,
)

ONE = Field.constant(Bicomplex(1, 0))
JF = Field.constant(Bicomplex(0, 1))
ANALYTIC_PAIR = make_pair(Field.from_exprs("1", "0"), Field.from_exprs("0", "1"))
UNIT = ContourSpec.circle(PlanePoint(0, 0), 1.0)
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


def test_kernel_eval_linearity():
    k = analytic_kernel()
    zeta, z = PlanePoint(0.1, 0.2), PlanePoint(0.9, -0.5)
    alpha = Bicomplex(2, 3 - 1j)
    direct = kernel_eval(k, alpha, zeta, z)
    parts = k.coef1(zeta, z).scale(alpha.sc) + k.coefj(zeta, z).scale(alpha.vec)
    assert isclose(direct, parts)


def test_kernel_eval_diagonal_raises():
    with pytest.raises(SingularPointError):
        kernel_eval(analytic_kernel(), Bicomplex(1, 0), PlanePoint(1, 1), PlanePoint(1, 1))


def test_counterexample_integral_is_pi():
    # The kernel solves the equation in z but the contour integral of the
    # constant 1 returns pi instead of 2*pi: pointwise asymptotics alone do
    # not imply the reproducing property.
    val = formal_contour_integral(counterexample_kernel(), ONE, UNIT, PlanePoint(0, 0))
    assert (val - Bicomplex(math.pi, 0)).norm <= 1e-10


def test_counterexample_fails_reproducing_suite():
    assert not reproducing_check(counterexample_kernel(), ANALYTIC_PAIR, [UNIT])


def test_analytic_kernel_reproduces():
    assert reproducing_check(analytic_kernel(), ANALYTIC_PAIR, [UNIT], tol=1e-8)


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
    for z0 in (PlanePoint(0.4, 0.1), PlanePoint(2.5, 1.0)):
        i1 = ij = Bicomplex(0, 0)
        for tau, dz in contour.path.nodes:
            i1 = i1 + w(tau) * hat.coef1(z0, tau) * from_cj(dz)
        for tau, dz in contour.path.nodes:
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
    # a one-entry memo keyed by the point pair (adjoint_kernel_transfer's)
    # serves both slots only when they are asked for back to back
    assert calls == [(slot, tau) for tau, _ in contour.path.nodes for slot in "1j"]


def test_first_cauchy_probe_on_contour_raises():
    hat = adjoint_kernel_transfer(analytic_kernel())
    node = UNIT.path.nodes[0][0]
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
    rep = asymptotics_check(KernelFamily.from_kernels(k1, kj), PlanePoint(0, 0), RADII)
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
    # both slots at one (zeta, z) read the two derivatives of the
    # adjoint-side kernel at (z, zeta) once: the second slot costs no
    # evaluation of the base kernel
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
    vj = k.coefj(zeta, z)
    assert one_slot > 0 and len(calls) == one_slot
    e = expected_pow(zeta, z, 2)
    assert (v1 - e).norm <= 1e-5 * max(1.0, e.norm)
    assert (vj - Bicomplex(0, 1) * e).norm <= 1e-5 * max(1.0, e.norm)


def test_negative_powers_window_enforced():
    seq = GeneratingSequence(lambda m: ANALYTIC_PAIR, lo=0, hi=0)
    negative_powers(analytic_kernel(), seq, 2)  # needs pairs 0..0 only
    with pytest.raises(MissingSequenceError):
        negative_powers(analytic_kernel(), seq, 3)


def test_residual_scan_analytic():
    region = RegionGrid(-1, 1, -1, 1, 0.1)
    rep = power_residual_scan(
        analytic_kernel(), ANALYTIC_PAIR, region, PlanePoint(0.05, 0.02)
    )
    assert rep.max_residual <= 1e-8


def test_residual_scan_flags_nonsolution():
    from bivekua.fields import Kernel

    # conj_j(z - zeta) is not analytic in z: the scan must report O(1) residual.
    k1 = Kernel.make("x - xi", "-(y - eta)")
    kj = Kernel.make("y - eta", "x - xi")
    fam = KernelFamily.from_kernels(k1, kj)
    region = RegionGrid(-1, 1, -1, 1, 0.1)
    rep = power_residual_scan(fam, ANALYTIC_PAIR, region, PlanePoint(0, 0))
    assert rep.max_residual_1 > 0.5
