"""Formal powers and Cauchy kernels: asymptotics checks, both Cauchy
integral formulas by contour quadrature, the base/adjoint kernel transfer,
the reproducing-kernel certification, and the negative-power algorithm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import expr as ex
from .bicomplex import Bicomplex, J, PlanePoint, from_cj
from .calculus import Path
from .fields import (
    KERNEL_VARS,
    BicomplexArray,
    Field,
    Kernel,
    PairFace,
    SymBC,
    Values,
    kernel_in_z,
    pairwise,
)
from .pairs import (
    GeneratingPair,
    GeneratingSequence,
    MissingSequenceError,
    adjoint_fields,
    fg_derivative,
    make_pair,
    pair_operator,
    vekua_residual,
)


class PowersError(Exception):
    pass


class SingularPointError(PowersError):
    """Kernel evaluated at z = zeta, or a probe on the contour."""


KernelEval = Callable[[PlanePoint, PlanePoint], Bicomplex]


@dataclass
class KernelFamily:
    """Formal powers Z^(order)(alpha, zeta, z) of one order, represented by
    the two coefficient kernels for alpha = 1 and alpha = j.

    A coefficient is a closed-form ``Kernel`` over (xi, eta, x, y), whose
    exact partials the residual and derivative machinery use, or a plain
    evaluator (zeta, z) -> Bicomplex."""

    order: int
    coef1: KernelEval
    coefj: KernelEval


def coefficients_on(
    k: KernelFamily,
    xs: np.ndarray,
    ys: np.ndarray,
    zeta: Optional[PlanePoint] = None,
    z: Optional[PlanePoint] = None,
) -> tuple[BicomplexArray, BicomplexArray]:
    """Z(1) and Z(j) of the family at every node (xs[k], ys[k]): the node is
    the argument z when the center ``zeta`` is given, else the center, with
    the argument ``z`` given.  ``coefficients_at`` those pairs, with a
    ``Kernel`` slot evaluated on all nodes at once as numpy code."""
    xi, eta, x, y = (zeta.x, zeta.y, xs, ys) if zeta is not None else (xs, ys, z.x, z.y)
    return coefficients_at(k, xi, eta, x, y, arrays=True)


def coefficients_at(
    k: KernelFamily, xi, eta, x, y, arrays: bool = False
) -> tuple[BicomplexArray, BicomplexArray]:
    """Z(1) and Z(j) at every pair ((xi[k], eta[k]), (x[k], y[k])), a number
    standing for every pair, as the slots' calls give them: a slot with a
    pair face by it, both slots of one ``adjoint_kernel_transfer`` from one
    evaluation of the family they swap, and any other slot called pair by
    pair, both slots at one pair back to back.  With ``arrays`` a ``Kernel``
    slot runs as numpy code, which differs from its call in last bits."""
    c1, cj = k.coef1, k.coefj
    if isinstance(c1, _Swapped) and isinstance(cj, _Swapped) and c1.family is cj.family:
        swapped = coefficients_at(c1.family, x, y, xi, eta)
        return c1.recombined(*swapped), cj.recombined(*swapped)

    def face(c) -> bool:
        return isinstance(c, PairFace) or (arrays and isinstance(c, Kernel))

    called = [c for c in (c1, cj) if not face(c)]
    looped = iter(pairwise(called, xi, eta, x, y) if called else ())
    z1, zj = (BicomplexArray(*(c.on(xi, eta, x, y) if face(c) else next(looped))) for c in (c1, cj))
    return z1, zj


class _Swapped(PairFace):
    """Slot ``slot`` (0: alpha = 1, 1: alpha = j) of the argument swap of
    ``family`` (``adjoint_kernel_transfer``)."""

    def __init__(self, family: KernelFamily, slot: int):
        self.family, self.slot = family, slot

    def recombined(self, a, b):
        """This slot from Z(1) = a and Z(j) = b at the swapped pair(s)."""
        return type(a)(-a.sc, b.sc) if self.slot == 0 else type(a)(a.vec, -b.vec)

    def __call__(self, zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        c1, cj = self.family.coef1, self.family.coefj
        if isinstance(c1, _Swapped) or isinstance(cj, _Swapped):
            # the face, where swapped slots share one evaluation of theirs
            return super().__call__(zeta, z)
        return self.recombined(c1(z, zeta), cj(z, zeta))

    def on(self, xi, eta, x, y) -> Values:
        value = self.recombined(*coefficients_at(self.family, x, y, xi, eta))
        return value.sc, value.vec


# ---------------------------------------------------------------------------
# Contours


@dataclass
class ContourSpec:
    path: Path
    interior: list[PlanePoint] = dc_field(default_factory=list)
    exterior: list[PlanePoint] = dc_field(default_factory=list)

    @staticmethod
    def circle(
        center: PlanePoint, radius: float, nodes: int = 512
    ) -> "ContourSpec":
        """Circle with default probes: 5 interior points at 0.3-0.7 radii,
        3 exterior points at 1.5-3 radii."""

        def ring(count: int, r0: float, dr: float, phase: float) -> list[PlanePoint]:
            out = []
            for i in range(count):
                r = (r0 + dr * i) * radius
                th = 2 * math.pi * i / count + phase
                out.append(PlanePoint(center.x + r * math.cos(th), center.y + r * math.sin(th)))
            return out

        interior = ring(5, 0.3, 0.1, 0.37)
        exterior = ring(3, 1.5, 0.75, 0.81)
        return ContourSpec(Path.circle(center, radius, nodes), interior, exterior)


# ---------------------------------------------------------------------------
# Asymptotics


@dataclass
class AsymptoticsReport:
    radii: list[float]
    errors_1: list[float]  # |(z-zeta) Z(1) - 1|, max over probe angles
    errors_j: list[float]
    ratio_dev: list[float]  # | |conj_j(Z)/Z| - 1 | for alpha = 1
    fitted_constant: float  # max |Z - alpha/(z-zeta)| / |log r|
    monotone: bool
    passed: bool


def asymptotics_check(
    k: KernelFamily,
    zeta: PlanePoint,
    radii: list[float],
) -> AsymptoticsReport:
    """Certify the Cauchy-kernel asymptotics at the center zeta:
    (z-zeta) Z(alpha) -> alpha, |conj_j(Z)/Z| -> 1, and log-bounded
    deviation from the analytic kernel; at the last radius the deviation
    must be at most 1e-4 |log r|."""
    angles = [0.3, 1.7, 2.9, 4.4]
    errors_1, errors_j, ratio_dev = [], [], []
    fitted = 0.0
    for r in radii:
        e1 = ej = rd = 0.0
        for th in angles:
            z = PlanePoint(zeta.x + r * math.cos(th), zeta.y + r * math.sin(th))
            dz = from_cj(complex(z.x - zeta.x, z.y - zeta.y))
            z1 = k.coef1(zeta, z)
            zj = k.coefj(zeta, z)
            e1 = max(e1, (dz * z1 - Bicomplex(1, 0)).norm)
            ej = max(ej, (dz * zj - Bicomplex(0, 1)).norm)
            rd = max(rd, abs((z1.conj() * z1.inv()).norm - 1.0))
            diff1 = (z1 - dz.inv()).norm
            diffj = (zj - J * dz.inv()).norm
            fitted = max(fitted, max(diff1, diffj) / abs(math.log(r)))
        errors_1.append(e1)
        errors_j.append(ej)
        ratio_dev.append(rd)
    seq = [max(a, b) for a, b in zip(errors_1, errors_j)]
    monotone = all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(seq, seq[1:]))
    final_ok = seq[-1] <= 1e-4 * abs(math.log(radii[-1]))
    return AsymptoticsReport(
        list(radii), errors_1, errors_j, ratio_dev, fitted, monotone,
        monotone and final_ok,
    )


# ---------------------------------------------------------------------------
# Cauchy integral formulas


def _contour_integral(
    contour: ContourSpec, z0: PlanePoint, one_form: Callable[..., tuple]
) -> tuple:
    """The integrals of the 1-forms one_form(xs, ys, dz) gives, one walk
    over the contour, refusing a probe z0 on a node."""
    path = contour.path
    if np.any((path.xs == z0.x) & (path.ys == z0.y)):
        raise SingularPointError("probe lies on the contour")
    return path.integrate(one_form)


def first_cauchy(
    w: Field, adjoint_kernels: KernelFamily, contour: ContourSpec, z0: PlanePoint
) -> Bicomplex:
    """Vec ∫ W Zhat(1, z0, tau) dtau - j Vec ∫ W Zhat(j, z0, tau) dtau:
    2*pi*W(z0) inside the contour, 0 outside.  One walk integrates both
    coefficients, so each node asks the family for both at one point pair."""

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray) -> tuple:
        wv, dzj = BicomplexArray(*w.on(xs, ys)), BicomplexArray(dz.real, dz.imag)
        z1, zj = coefficients_on(adjoint_kernels, xs, ys, zeta=z0)
        return (wv * z1 * dzj).vec, (wv * zj * dzj).vec

    i1, ij = _contour_integral(contour, z0, one_form)
    return Bicomplex(i1, -ij)


_J = BicomplexArray(J.sc, J.vec)


def formal_contour_integral(
    k: KernelFamily, w: Union[Field, Sequence[Field]], contour: ContourSpec, z0: PlanePoint
) -> Union[Bicomplex, list[Bicomplex]]:
    """∫ Z^(n)(j W(tau) dtau, tau, z0), with Z(alpha) = Sc(alpha) Z(1) +
    Vec(alpha) Z(j): the kernel center runs along the contour while the
    argument stays at z0.

    Given a sequence of fields, one walk integrates each of them over the
    same kernel values and the list of their integrals is returned."""
    fields = [w] if isinstance(w, Field) else list(w)

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray) -> tuple:
        z1, zj = coefficients_on(k, xs, ys, z=z0)
        dzj = BicomplexArray(dz.real, dz.imag)
        out = []
        for field in fields:
            alpha = _J * BicomplexArray(*field.on(xs, ys)) * dzj
            value = z1.scale(alpha.sc) + zj.scale(alpha.vec)
            out += [value.sc, value.vec]
        return tuple(out)

    totals = _contour_integral(contour, z0, one_form)
    values = [Bicomplex(sc, vec) for sc, vec in zip(totals[::2], totals[1::2])]
    return values[0] if isinstance(w, Field) else values


def cauchy_deviations(
    evaluate: Callable[[PlanePoint], list[Bicomplex]],
    fields: Sequence[Field],
    interior: list[PlanePoint],
    exterior: list[PlanePoint],
) -> tuple[float, float]:
    """How far a Cauchy integral formula is from reproducing each W of
    ``fields``, where evaluate(z0) gives the formula's value for each:
    max |value - 2 pi W(z0)| over the interior probes and max |value| over
    the exterior ones, each the max over the fields (0 without probes)."""
    two_pi = 2 * math.pi
    dev_in = max(
        (
            (v - w(z0).scale(two_pi)).norm
            for z0 in interior
            for w, v in zip(fields, evaluate(z0))
        ),
        default=0.0,
    )
    dev_out = max((v.norm for z0 in exterior for v in evaluate(z0)), default=0.0)
    return dev_in, dev_out


def reproducing_deviations(
    k: KernelFamily, pair: GeneratingPair, contour: ContourSpec
) -> tuple[float, float]:
    """How far the second Cauchy formula is from reproducing F and G:
    ``cauchy_deviations`` at the contour's probes, one walk per probe for
    both."""
    fields = (pair.F, pair.G)
    return cauchy_deviations(
        lambda z0: formal_contour_integral(k, fields, contour, z0),
        fields, contour.interior, contour.exterior,
    )


# ---------------------------------------------------------------------------
# Base <-> adjoint kernel transfer


def adjoint_kernel_transfer(k: KernelFamily) -> KernelFamily:
    """Swap arguments and recombine components:
    Zhat(1, zeta, z) = -Sc Z(1, z, zeta) + j Sc Z(j, z, zeta)
    Zhat(j, zeta, z) =  Vec Z(1, z, zeta) - j Vec Z(j, z, zeta)
    Applying the transfer twice recovers the original family."""
    if isinstance(k.coef1, Kernel) and isinstance(k.coefj, Kernel):
        s1 = k.coef1.swap_arguments().sym
        sj = k.coefj.swap_arguments().sym
        new1 = SymBC(KERNEL_VARS, ex.neg(s1.sc), sj.sc)
        newj = SymBC(KERNEL_VARS, s1.vec, ex.neg(sj.vec))
        return KernelFamily(k.order, Kernel(new1), Kernel(newj))

    return KernelFamily(k.order, _Swapped(k, 0), _Swapped(k, 1))


# ---------------------------------------------------------------------------
# Negative powers (Bers-derivative chain)


def hat_sequence(seq: GeneratingSequence) -> GeneratingSequence:
    """Sequence m -> (j F*_{-m-1}, j G*_{-m-1}) whose members govern the
    derivative chain on the adjoint side."""

    @functools.cache
    def get(m: int) -> GeneratingPair:
        Fs, Gs = adjoint_fields(seq.pair_at(-m - 1))
        return make_pair(Fs.mul_j(), Gs.mul_j())

    lo = -seq.hi - 1 if math.isfinite(seq.hi) else -math.inf
    hi = -seq.lo - 1 if math.isfinite(seq.lo) else math.inf
    return GeneratingSequence(get, lo, hi)


def _lift(sym: SymBC) -> SymBC:
    """View a (x, y) symbolic value inside the 4-variable kernel space."""
    return SymBC(KERNEL_VARS, sym.sc, sym.vec)


def negative_powers(
    base_kernel: KernelFamily, adjoint_seq: GeneratingSequence, n: int
) -> KernelFamily:
    """Formal powers of order -n from the order -1 Cauchy kernel.

    The adjoint-side kernel is differentiated n-1 times in the sense of the
    pairs of ``adjoint_seq`` (exact when closed forms are available, nested
    central differences otherwise), scaled by 1/(n-1)!, and carried back
    by the base/adjoint transfer."""
    if n < 1:
        raise ValueError("order must satisfy n >= 1")
    if n == 1:
        return base_kernel
    if not (adjoint_seq.lo <= 0 and adjoint_seq.hi >= n - 2):
        raise MissingSequenceError(
            f"need pairs 0..{n - 2} of the adjoint sequence"
        )
    hat = adjoint_kernel_transfer(base_kernel)
    scale = 1 / math.factorial(n - 1)

    # the transfer gives closed forms in both slots or in neither
    if isinstance(hat.coef1, Kernel):
        # exact Bers derivatives in the z = (x, y) variables
        s1, sj = hat.coef1.sym, hat.coefj.sym
        for m in range(n - 1):
            pair = adjoint_seq.pair_at(m)
            A, B = _lift(pair.A.sym), _lift(pair.B.sym)
            s1, sj = (pair_operator(s.d_z(), A, B, s) for s in (s1, sj))
        # closed forms through the transfer, so the powers keep exact partials
        return adjoint_kernel_transfer(KernelFamily(
            -n, Kernel(s1.scale(complex(scale))), Kernel(sj.scale(complex(scale)))
        ))
    else:

        def fd_step(fn, pair: GeneratingPair, h: float):
            """Bers derivative in z of a kernel evaluator, differences at step h."""
            return lambda zeta, z: fg_derivative(Field(lambda p: fn(zeta, p)), pair, z, h)

        f1, fj = hat.coef1, hat.coefj
        for m in range(n - 1):
            pair = adjoint_seq.pair_at(m)
            h = 1e-3 * 2.0 ** (-m)
            f1, fj = fd_step(f1, pair, h), fd_step(fj, pair, h)
        d1 = lambda zeta, z: f1(zeta, z).scale(scale)  # noqa: E731
        dj = lambda zeta, z: fj(zeta, z).scale(scale)  # noqa: E731

    # bare evaluators: the transfer swaps and recombines values, no tree
    return adjoint_kernel_transfer(KernelFamily(order=-n, coef1=d1, coefj=dj))


# ---------------------------------------------------------------------------
# Residual scan and the stock kernel families


@dataclass
class ResidualReport:
    max_residual_1: float
    max_residual_j: float

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_1, self.max_residual_j)


def power_residual_scan(
    k: KernelFamily,
    pair: GeneratingPair,
    region,
    zeta: PlanePoint,
) -> ResidualReport:
    """Max Vekua residual of both coefficients over a 10-by-10 sample grid
    of the region, punctured within 0.1 of the kernel center; a closed-form
    coefficient is differentiated exactly."""

    f1, fj = kernel_in_z(k.coef1, zeta), kernel_in_z(k.coefj, zeta)
    r1 = rj = 0.0
    for p in region.sample_points(10):
        if p.dist(zeta) <= 0.1:
            continue
        r1 = max(r1, vekua_residual(f1, pair, p))
        rj = max(rj, vekua_residual(fj, pair, p))
    return ResidualReport(r1, rj)


# Building blocks of the closed-form kernels over (xi, eta, x, y).
RHO2 = "(x - xi)^2 + (y - eta)^2"
LOG_RHO = f"0.5*log({RHO2})"


def analytic_kernel() -> KernelFamily:
    """The classical Cauchy kernels 1/(z - zeta) and j/(z - zeta)."""
    k1 = Kernel.make(f"(x - xi)/({RHO2})", f"-(y - eta)/({RHO2})")
    kj = Kernel.make(f"(y - eta)/({RHO2})", f"(x - xi)/({RHO2})")
    return KernelFamily(-1, k1, kj)


def counterexample_kernel() -> KernelFamily:
    """1/(z - zeta) + xi and j/(z - zeta): solves the analytic equation in z
    but fails the reproducing property (the contour integral gives pi)."""
    k1 = Kernel.make(f"(x - xi)/({RHO2}) + xi", f"-(y - eta)/({RHO2})")
    kj = Kernel.make(f"(y - eta)/({RHO2})", f"(x - xi)/({RHO2})")
    return KernelFamily(-1, k1, kj)


def reproducing_example_kernel() -> KernelFamily:
    """1/(z - zeta) - xi and j/(z - zeta) + eta: a non-classical kernel that
    reproduces every analytic function.  The two center-dependent corrections
    are chosen so their boundary contributions cancel by Green's theorem:
    for any closed contour the correction part of the reproducing integral is
    a multiple of the enclosed area with opposite signs from the two terms."""
    k1 = Kernel.make(f"(x - xi)/({RHO2}) - xi", f"-(y - eta)/({RHO2})")
    kj = Kernel.make(f"(y - eta)/({RHO2}) + eta", f"(x - xi)/({RHO2})")
    return KernelFamily(-1, k1, kj)
