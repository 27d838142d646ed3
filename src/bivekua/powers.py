"""Formal powers and Cauchy kernels: asymptotics checks, both Cauchy
integral formulas by contour quadrature, the base/adjoint kernel transfer,
the reproducing-kernel certification, and the negative-power algorithm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

from . import expr as ex
from .bicomplex import Bicomplex, J, PlanePoint, from_cj
from .calculus import Path
from .fields import KERNEL_VARS, Field, Kernel, SymBC
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
    the two coefficient evaluators for alpha = 1 and alpha = j.

    sym1/symj carry closed forms over (xi, eta, x, y) when available; they
    provide exact partials to the residual and derivative machinery."""

    order: int
    coef1: KernelEval
    coefj: KernelEval
    sym1: Optional[Kernel] = None
    symj: Optional[Kernel] = None

    @staticmethod
    def from_kernels(k1: Kernel, kj: Kernel, order: int = -1) -> "KernelFamily":
        return KernelFamily(
            order=order,
            coef1=k1.__call__,
            coefj=kj.__call__,
            sym1=k1,
            symj=kj,
        )

    def coef1_field(self, zeta: PlanePoint) -> Field:
        if self.sym1 is not None:
            return self.sym1.field_in_z(zeta)
        return Field(lambda z: self.coef1(zeta, z))

    def coefj_field(self, zeta: PlanePoint) -> Field:
        if self.symj is not None:
            return self.symj.field_in_z(zeta)
        return Field(lambda z: self.coefj(zeta, z))


def kernel_eval(
    k: KernelFamily, alpha: Bicomplex, zeta: PlanePoint, z: PlanePoint
) -> Bicomplex:
    """Sc(alpha) Z(1, zeta, z) + Vec(alpha) Z(j, zeta, z)."""
    if zeta.dist(z) == 0:
        raise SingularPointError(f"kernel evaluated on the diagonal at {z}")
    out = Bicomplex(0, 0)
    if alpha.sc != 0:
        out = out + k.coef1(zeta, z).scale(alpha.sc)
    if alpha.vec != 0:
        out = out + k.coefj(zeta, z).scale(alpha.vec)
    return out


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
    contour: ContourSpec, z0: PlanePoint, one_form: Callable[[PlanePoint, complex], Bicomplex]
) -> Bicomplex:
    """∫ one_form over the contour, refusing a probe z0 on a node."""

    def checked(tau: PlanePoint, dz: complex) -> Bicomplex:
        if tau.dist(z0) == 0:
            raise SingularPointError("probe lies on the contour")
        return one_form(tau, dz)

    return contour.path.integrate(checked, Bicomplex(0, 0))


def first_cauchy(
    w: Field, adjoint_kernels: KernelFamily, contour: ContourSpec, z0: PlanePoint
) -> Bicomplex:
    """Vec ∫ W Zhat(1, z0, tau) dtau - j Vec ∫ W Zhat(j, z0, tau) dtau:
    2*pi*W(z0) inside the contour, 0 outside.  One walk integrates both
    coefficients, so each node asks the family for both at one point pair."""

    def one_form(tau: PlanePoint, dz: complex) -> Bicomplex:
        wv, dzj = w(tau), from_cj(dz)
        return Bicomplex(
            (wv * adjoint_kernels.coef1(z0, tau) * dzj).vec,
            (wv * adjoint_kernels.coefj(z0, tau) * dzj).vec,
        )

    total = _contour_integral(contour, z0, one_form)
    return Bicomplex(total.sc, -total.vec)


def formal_contour_integral(
    k: KernelFamily, w: Field, contour: ContourSpec, z0: PlanePoint
) -> Bicomplex:
    """∫ Z^(n)(j W(tau) dtau, tau, z0): the kernel center runs along the
    contour while the argument stays at z0."""
    return _contour_integral(
        contour, z0, lambda tau, dz: kernel_eval(k, J * w(tau) * from_cj(dz), tau, z0)
    )


def cauchy_deviations(
    evaluate: Callable[[PlanePoint], Bicomplex],
    w: Field,
    interior: list[PlanePoint],
    exterior: list[PlanePoint],
) -> tuple[float, float]:
    """How far a Cauchy integral formula ``evaluate`` is from reproducing W:
    max |evaluate(z0) - 2 pi W(z0)| over the interior probes and
    max |evaluate(z0)| over the exterior ones (0 when there are none)."""
    two_pi = 2 * math.pi
    dev_in = max(((evaluate(z0) - w(z0).scale(two_pi)).norm for z0 in interior), default=0.0)
    dev_out = max((evaluate(z0).norm for z0 in exterior), default=0.0)
    return dev_in, dev_out


def reproducing_check(
    k: KernelFamily,
    pair: GeneratingPair,
    contours: list[ContourSpec],
    tol: float = 1e-6,
) -> bool:
    """True iff the second Cauchy formula reproduces F and G at interior
    probes (value 2*pi*W) and annihilates them at exterior probes."""
    for contour in contours:
        for w in (pair.F, pair.G):
            devs = cauchy_deviations(
                lambda z0: formal_contour_integral(k, w, contour, z0),
                w, contour.interior, contour.exterior,
            )
            if max(devs) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# Base <-> adjoint kernel transfer


def adjoint_kernel_transfer(k: KernelFamily) -> KernelFamily:
    """Swap arguments and recombine components:
    Zhat(1, zeta, z) = -Sc Z(1, z, zeta) + j Sc Z(j, z, zeta)
    Zhat(j, zeta, z) =  Vec Z(1, z, zeta) - j Vec Z(j, z, zeta)
    Applying the transfer twice recovers the original family."""
    if k.sym1 is not None and k.symj is not None:
        s1 = k.sym1.swap_arguments().sym
        sj = k.symj.swap_arguments().sym
        new1 = SymBC(KERNEL_VARS, ex.neg(s1.sc), sj.sc)
        newj = SymBC(KERNEL_VARS, s1.vec, ex.neg(sj.vec))
        return KernelFamily.from_kernels(Kernel(new1), Kernel(newj), order=k.order)

    last: dict[tuple[PlanePoint, PlanePoint], tuple[Bicomplex, Bicomplex]] = {}

    def swapped(zeta: PlanePoint, z: PlanePoint) -> tuple[Bicomplex, Bicomplex]:
        # both slots read Z(1, z, zeta) and Z(j, z, zeta); kernel_eval asks
        # for both at one point pair, so the last pair is kept
        key = (zeta, z)
        if key not in last:
            last.clear()
            last[key] = (k.coef1(z, zeta), k.coefj(z, zeta))
        return last[key]

    def coef1(zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        a, b = swapped(zeta, z)
        return Bicomplex(-a.sc, b.sc)

    def coefj(zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        a, b = swapped(zeta, z)
        return Bicomplex(a.vec, -b.vec)

    return KernelFamily(order=k.order, coef1=coef1, coefj=coefj)


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

    symbolic = hat.sym1 is not None and all(
        adjoint_seq.pair_at(m).A.sym is not None for m in range(n - 1)
    )
    if symbolic:
        # exact Bers derivatives in the z = (x, y) variables
        s1, sj = hat.sym1.sym, hat.symj.sym
        for m in range(n - 1):
            pair = adjoint_seq.pair_at(m)
            A, B = _lift(pair.A.sym), _lift(pair.B.sym)
            s1, sj = (pair_operator(s.d_z(), A, B, s) for s in (s1, sj))
        # closed forms through the transfer, so the powers keep exact partials
        return adjoint_kernel_transfer(KernelFamily.from_kernels(
            Kernel(s1.scale(complex(scale))), Kernel(sj.scale(complex(scale))), order=-n
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
    """Max Vekua residual of both coefficient evaluators over a 10-by-10
    sample grid of the region, punctured within 0.1 of the kernel center."""
    f1 = k.coef1_field(zeta)
    fj = k.coefj_field(zeta)
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
    return KernelFamily.from_kernels(k1, kj)


def counterexample_kernel() -> KernelFamily:
    """1/(z - zeta) + xi and j/(z - zeta): solves the analytic equation in z
    but fails the reproducing property (the contour integral gives pi)."""
    k1 = Kernel.make(f"(x - xi)/({RHO2}) + xi", f"-(y - eta)/({RHO2})")
    kj = Kernel.make(f"(y - eta)/({RHO2})", f"(x - xi)/({RHO2})")
    return KernelFamily.from_kernels(k1, kj)


def reproducing_example_kernel() -> KernelFamily:
    """1/(z - zeta) - xi and j/(z - zeta) + eta: a non-classical kernel that
    reproduces every analytic function.  The two center-dependent corrections
    are chosen so their boundary contributions cancel by Green's theorem:
    for any closed contour the correction part of the reproducing integral is
    a multiple of the enclosed area with opposite signs from the two terms."""
    k1 = Kernel.make(f"(x - xi)/({RHO2}) - xi", f"-(y - eta)/({RHO2})")
    kj = Kernel.make(f"(y - eta)/({RHO2}) + eta", f"(x - xi)/({RHO2})")
    return KernelFamily.from_kernels(k1, kj)
