"""The Schrödinger bridge: potentials from a particular solution f, Cauchy
kernels built from fundamental solutions of the two-dimensional Schrödinger
equation, reproducing kernels for the associated main Vekua equation, and
Darboux-transformed fundamental solutions, together with the closed-form
reference family for f(z) = x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import expr as ex
from .bicomplex import Bicomplex, PlanePoint
from .calculus import Path, tf_transform
from .fields import KERNEL_VARS, Field, Kernel, SymBC, central_difference, default_step, partials
from .pairs import GeneratingPair, adjoint_pair, make_pair
from .powers import LOG_RHO, RHO2, KernelFamily, SingularPointError, adjoint_kernel_transfer


class SchroedingerError(Exception):
    pass


# ---------------------------------------------------------------------------
# Fundamental solutions


@dataclass
class FundamentalSolution:
    """S(zeta, z) = log|z - zeta| + R(zeta, z): a fundamental solution of
    the Schrödinger equation with potential q, singular at the center zeta.

    ``regular`` evaluates R; ``sym`` carries the closed form of the full S
    over (xi, eta, x, y) when available, giving exact partials downstream.
    """

    regular: Callable[[PlanePoint, PlanePoint], complex]
    sym: Optional[Kernel] = None

    def __call__(self, zeta: PlanePoint, z: PlanePoint) -> complex:
        if zeta.dist(z) == 0:
            raise SingularPointError(f"fundamental solution evaluated at {z}")
        if self.sym is not None:
            return self.sym(zeta, z).sc
        return math.log(zeta.dist(z)) + self.regular(zeta, z)

    @staticmethod
    def laplace() -> "FundamentalSolution":
        """log|z - zeta|: the fundamental solution for q = 0."""
        return FundamentalSolution(regular=lambda zeta, z: 0j, sym=Kernel.make(LOG_RHO))

    @staticmethod
    def from_closed_form(sc: Union[str, ex.Expr]) -> "FundamentalSolution":
        """Wrap a closed-form S(xi, eta, x, y)."""
        sym = Kernel.make(sc)

        def regular(zeta: PlanePoint, z: PlanePoint) -> complex:
            return sym(zeta, z).sc - math.log(zeta.dist(z))

        return FundamentalSolution(regular=regular, sym=sym)


# ---------------------------------------------------------------------------
# Potentials


def _laplacian(u: Field, z: PlanePoint, h: Optional[float] = None) -> Bicomplex:
    if u.sym is not None and h is None:
        return u.dx.dx(z) + u.dy.dy(z)
    if h is None:
        h = default_step(z)

    def second(axis: str) -> Bicomplex:
        # a difference of differences at step h/2: the 5-point stencil's
        # second difference with step h
        first = lambda p: central_difference(u, p, h / 2, axis)  # noqa: E731
        return central_difference(first, z, h / 2, axis)

    return second("x") + second("y")


# -- formulas on the shared ring interface (Bicomplex or SymBC values) -------


def _potential(f, lap):
    """q = (Laplacian f) / f."""
    return lap * f.inv()


def _darboux_potential(f, fx, fy, q):
    """q1 = 2((f_x)^2 + (f_y)^2) / f^2 - q."""
    return ((fx * fx + fy * fy) * (f * f).inv()).scale(2) - q


def potential_from_f(f: Field) -> Field:
    """The potential q = (Laplacian f)/f of the equation solved by f."""
    if f.sym is not None:
        lap = f.sym.diff("x").diff("x") + f.sym.diff("y").diff("y")
        return Field.from_sym(_potential(f.sym, lap))
    return Field(lambda z: _potential(f(z), _laplacian(f, z)))


def darboux_potential(f: Field) -> Field:
    """The transformed potential q1 = 2((f_x)^2 + (f_y)^2)/f^2 - q."""
    q = potential_from_f(f)
    if f.sym is not None:
        fx, fy = f.sym.diff("x"), f.sym.diff("y")
        return Field.from_sym(_darboux_potential(f.sym, fx, fy, q.sym))
    return Field(lambda z: _darboux_potential(*partials(f, z), q(z)))


def schroedinger_residual(
    u: Field, q: Field, z: PlanePoint, h: Optional[float] = None
) -> float:
    """|Laplacian u - q u| at z, exact when u is symbolic and no step is
    forced, else via the 5-point stencil with step h."""
    return (_laplacian(u, z, h) - q(z) * u(z)).norm


# ---------------------------------------------------------------------------
# Main Vekua problem bundle


@dataclass
class MainVekuaProblem:
    """A nonvanishing solution f of the q-equation together with the derived
    potentials and the generating pairs (f, j/f) and its successor."""

    f: Field
    q: Field
    q1: Field
    pair: GeneratingPair
    successor: GeneratingPair

    @staticmethod
    def from_f(f: Field, region=None) -> "MainVekuaProblem":
        pair = make_pair(f, f.bc_inv().mul_j(), region)
        return MainVekuaProblem(
            f=f,
            q=potential_from_f(f),
            q1=darboux_potential(f),
            pair=pair,
            successor=adjoint_pair(pair),
        )


# ---------------------------------------------------------------------------
# Kernel construction from a fundamental solution


def _missing_coefj(zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
    raise SchroedingerError(
        "coefficient-j evaluator not constructed; complete the family with "
        "successor_kernel_coefj"
    )


def successor_kernel_coef1(S: FundamentalSolution, f: Field) -> KernelFamily:
    """Coefficient-1 Cauchy kernel of the successor equation of the main
    Vekua equation of f: 2(d_z S - (d_z f / f) S), derivatives in z.

    The returned family is partial: only the coefficient-1 slot is filled.
    """
    if S.sym is not None and f.sym is not None:
        s = S.sym.sym.sc
        sx, sy = ex.diff(s, "x"), ex.diff(s, "y")
        fe = f.sym.sc
        ratio_x = ex.binop("/", ex.diff(fe, "x"), fe)
        ratio_y = ex.binop("/", ex.diff(fe, "y"), fe)
        sc = ex.binop("-", sx, ex.binop("*", ratio_x, s))
        vec = ex.binop("-", ex.binop("*", ratio_y, s), sy)
        k = Kernel(SymBC(KERNEL_VARS, sc, vec))
        return KernelFamily(order=-1, coef1=k.__call__, coefj=_missing_coefj, sym1=k)

    def coef1(zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        if zeta.dist(z) == 0:
            raise SingularPointError(f"kernel evaluated on the diagonal at {z}")
        h = 1e-5 * (1 + math.hypot(z.x, z.y))
        s_field = Field(lambda p: Bicomplex(S(zeta, p), 0))
        sval, s_x, s_y = (v.sc for v in partials(s_field, z, h))
        fv, fx, fy = partials(f, z)
        return Bicomplex(s_x - fx.sc / fv.sc * sval, fy.sc / fv.sc * sval - s_y)

    return KernelFamily(order=-1, coef1=coef1, coefj=_missing_coefj)


def successor_kernel_coefj(
    k1: KernelFamily, f: Field, zeta0: PlanePoint, side: float = 1.0
) -> KernelFamily:
    """Complete a successor family with the coefficient-j kernel: the
    conjugate-building transform of -Z(1, zeta, z), acting in the center
    variable zeta along a path from the base point zeta0 that detours
    around z.

    The result is anchored: it vanishes at zeta = zeta0.  Any two kernels
    with the same coefficient differ by a regular solution, so the anchored
    evaluator is a Cauchy kernel whenever the coefficient-1 input is.
    """
    if k1.sym1 is not None:
        # -Z(1) over (xi, eta, x, y); each value binds z
        s = k1.sym1.sym
        minus = Kernel(SymBC(KERNEL_VARS, ex.neg(s.sc), ex.neg(s.vec)))

    def coefj(zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        if zeta.dist(z) == 0:
            raise SingularPointError(f"kernel evaluated on the diagonal at {z}")
        if zeta.dist(zeta0) == 0:
            return Bicomplex(0, 0)
        path = Path.detour(zeta0, zeta, z, side=side)
        if k1.sym1 is not None:
            u = minus.field_in_zeta(z)
        else:
            u = Field(lambda p: -k1.coef1(p, z))
        return tf_transform(f, u, path)

    return KernelFamily(
        order=-1, coef1=k1.coef1, coefj=coefj, sym1=k1.sym1
    )


def main_kernels(successor: KernelFamily) -> KernelFamily:
    """Reproducing kernel family of the main Vekua equation from a complete
    successor family, via the argument-swap component recombination (the
    successor equation coincides with the adjoint one)."""
    return adjoint_kernel_transfer(successor)


def darboux_fundamental(
    kj: KernelFamily,
    f: Field,
    z0: Union[PlanePoint, Callable[[PlanePoint], PlanePoint]],
    side: float = 1.0,
) -> FundamentalSolution:
    """Fundamental solution of the Darboux-transformed equation:
    S1(zeta, z) = (1/f(z)) Vec ∫_{z0}^{z} f(tau) Z(j, zeta, tau) dtau.

    z0 may be a fixed point or a map zeta -> z0 (e.g. zeta + 1)."""
    base_of = z0 if callable(z0) else (lambda zeta: z0)

    def value(zeta: PlanePoint, z: PlanePoint) -> complex:
        if zeta.dist(z) == 0:
            raise SingularPointError(f"fundamental solution evaluated at {z}")
        path = Path.detour(base_of(zeta), z, zeta, side=side)

        def one_form(p: PlanePoint, dz: complex) -> complex:
            k = kj.coefj(zeta, p)
            return f(p).sc * (k.sc * dz.imag + k.vec * dz.real)

        return path.integrate(one_form) / f(z).sc

    def regular(zeta: PlanePoint, z: PlanePoint) -> complex:
        return value(zeta, z) - math.log(zeta.dist(z))

    return FundamentalSolution(regular=regular)


# ---------------------------------------------------------------------------
# Conjugate construction


def conjugate_pair_build(f: Field, u: Field, path_base: PlanePoint) -> Field:
    """W = u + j T_f(u): a solution of the main Vekua equation of f built
    from a solution u of the q-equation, with the transform integrated from
    path_base.  The returned field carries exact partials:
        (f v)_x = -(u_y f - u f_y),  (f v)_y = u_x f - u f_x.
    """
    cache: dict[tuple[float, float], complex] = {}

    def v_val(z: PlanePoint) -> complex:
        key = (z.x, z.y)
        if key not in cache:
            if z.dist(path_base) == 0:
                cache[key] = 0j
            else:
                cache[key] = tf_transform(f, u, Path.polyline([path_base, z])).sc
        return cache[key]

    def func(z: PlanePoint) -> Bicomplex:
        return Bicomplex(u(z).sc, v_val(z))

    def grads(z: PlanePoint) -> tuple[Bicomplex, Bicomplex]:
        uv, ux, uy = partials(u, z)
        fv, fx, fy = partials(f, z)
        v = v_val(z)
        gx = ux.sc * fv.sc - uv.sc * fx.sc
        gy = uy.sc * fv.sc - uv.sc * fy.sc
        vx = (-gy - v * fx.sc) / fv.sc
        vy = (gx - v * fy.sc) / fv.sc
        return Bicomplex(ux.sc, vx), Bicomplex(uy.sc, vy)

    dx = Field(lambda z: grads(z)[0])
    dy = Field(lambda z: grads(z)[1])
    return Field.with_partials(func, dx, dy)


# ---------------------------------------------------------------------------
# Closed-form reference family for f(z) = x
#
# The scalar coordinate f = x solves the Laplace equation; its successor and
# main-equation kernels, negative powers, and Darboux fundamental solution
# all have closed forms, used as oracles throughout the test suite.

def x_problem(region=None) -> MainVekuaProblem:
    return MainVekuaProblem.from_f(Field.from_exprs("x"), region)


def x_successor_family() -> KernelFamily:
    """Closed-form successor kernels for f = x (potential 0 side)."""
    k1 = Kernel.make(
        f"(x - xi)/({RHO2}) - ({LOG_RHO})/x",
        f"-(y - eta)/({RHO2})",
    )
    kj = Kernel.make(
        f"(y - eta)/({RHO2}) + ((y - eta)/(x*xi))*(({LOG_RHO}) - 1)",
        f"(x - xi)/({RHO2}) + ({LOG_RHO})/xi",
    )
    return KernelFamily.from_kernels(k1, kj, order=-1)


def x_main_family() -> KernelFamily:
    """Closed-form reproducing kernels for the main Vekua equation of f = x."""
    k1 = Kernel.make(
        f"(x - xi)/({RHO2}) + ({LOG_RHO})/xi",
        f"-(y - eta)/({RHO2}) - ((y - eta)/(x*xi))*(({LOG_RHO}) - 1)",
    )
    kj = Kernel.make(
        f"(y - eta)/({RHO2})",
        f"(x - xi)/({RHO2}) - ({LOG_RHO})/x",
    )
    return KernelFamily.from_kernels(k1, kj, order=-1)


def x_negative_power(n: int) -> KernelFamily:
    """Closed-form negative formal powers of order -n for the main Vekua
    equation of f = x (n >= 2)."""
    if n < 2:
        raise ValueError("closed forms start at order -2")

    def parts(zeta: PlanePoint, z: PlanePoint):
        d = complex(z.x - zeta.x, z.y - zeta.y)
        return d, z.x, zeta.x

    def coef1(zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        d, x, xi = parts(zeta, z)
        dn = 1 / d**n
        dn1 = 1 / d ** (n - 1)
        if n % 2 == 0:
            return Bicomplex(dn.real, dn.imag + dn1.imag / ((n - 1) * x))
        dn2 = 1 / d ** (n - 2)
        c = -dn1.imag + dn2.imag / ((n - 2) * xi)
        return Bicomplex(
            dn.real - dn1.real / ((n - 1) * xi),
            dn.imag - dn1.imag / ((n - 1) * xi) - c / ((n - 1) * x),
        )

    def coefj(zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        d, x, xi = parts(zeta, z)
        dn = 1 / d**n
        dn1 = 1 / d ** (n - 1)
        if n % 2 == 1:
            return Bicomplex(-dn.imag, dn.real + dn1.real / ((n - 1) * x))
        if n == 2:
            ell = math.log(abs(d))
            return Bicomplex(
                -dn.imag + dn1.imag / xi,
                dn.real - dn1.real / xi + (dn1.real + ell / xi) / x,
            )
        dn2 = 1 / d ** (n - 2)
        c = dn1.real - dn2.real / ((n - 2) * xi)
        return Bicomplex(
            -dn.imag + dn1.imag / ((n - 1) * xi),
            dn.real - dn1.real / ((n - 1) * xi) + c / ((n - 1) * x),
        )

    return KernelFamily(order=-n, coef1=coef1, coefj=coefj)


def x_darboux_fundamental() -> FundamentalSolution:
    """Closed-form fundamental solution of the q1 = 2/x^2 equation obtained
    from f = x with the path base point zeta + 1."""
    s1 = (
        f"({LOG_RHO}) + (({RHO2})/(2*x*xi))*({LOG_RHO})"
        f" - (({RHO2}) + 2*(y - eta)^2 - 1)/(4*x*xi)"
    )
    return FundamentalSolution.from_closed_form(s1)
