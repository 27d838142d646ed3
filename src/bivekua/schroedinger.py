"""The Schrödinger bridge: potentials from a particular solution f, Cauchy
kernels built from fundamental solutions of the two-dimensional Schrödinger
equation, reproducing kernels for the associated main Vekua equation, and
Darboux-transformed fundamental solutions, together with the closed-form
reference family for f(z) = x.

f, the potentials q and q1 and the fundamental solution S come from
expressions, so the successor Z(1) is a closed-form ``Kernel``; Z(j) and
the Darboux S1 are path integrals of closed-form integrands with exact
partials.  The one finite difference here is the 5-point Laplacian that
``schroedinger_residual`` takes at a given step h.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import expr as ex
from .bicomplex import Bicomplex, PlanePoint
from .calculus import CalculusError, Path, detour_integrals, tf_densities, tf_transform
from .fields import (
    KERNEL_VARS,
    Field,
    Kernel,
    PairFace,
    SymBC,
    Values,
    central_difference,
    in_pair_order,
    pairs_of,
    pairwise,
    partials,
    partials_on,
)
from .pairs import GeneratingPair, adjoint_pair, make_pair
from .powers import LOG_RHO, RHO2, KernelFamily, SingularPointError


# ---------------------------------------------------------------------------
# Fundamental solutions


def laplace_fundamental() -> Kernel:
    """log|z - zeta|: the fundamental solution for q = 0."""
    return Kernel.make(LOG_RHO)


# ---------------------------------------------------------------------------
# Potentials


def _laplacian(u: Field, z: PlanePoint, h: Optional[float] = None) -> Bicomplex:
    """Laplacian u at z: exact without a step, else the 5-point stencil."""
    if h is None:
        return u.dx.dx(z) + u.dy.dy(z)

    def second(axis: str) -> Bicomplex:
        # a difference of differences at step h/2: the 5-point stencil's
        # second difference with step h
        first = lambda p: central_difference(u, p, h / 2, axis)  # noqa: E731
        return central_difference(first, z, h / 2, axis)

    return second("x") + second("y")


def potential_from_f(f: Field) -> Field:
    """The potential q = (Laplacian f)/f of the equation solved by f."""
    lap = f.sym.diff("x").diff("x") + f.sym.diff("y").diff("y")
    return Field.from_sym(lap * f.sym.inv())


def darboux_potential(f: Field) -> Field:
    """The transformed potential q1 = 2((f_x)^2 + (f_y)^2)/f^2 - q."""
    fx, fy = f.sym.diff("x"), f.sym.diff("y")
    q = potential_from_f(f).sym
    return Field.from_sym(((fx * fx + fy * fy) * (f.sym * f.sym).inv()).scale(2) - q)


def schroedinger_residual(
    u: Field, q: Field, z: PlanePoint, h: Optional[float] = None
) -> float:
    """|Laplacian u - q u| at z, exact from the partials of u when no step
    is given, else via the 5-point stencil with step h."""
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


def successor_kernel_coef1(S: Kernel, f: Field) -> Kernel:
    """Coefficient-1 Cauchy kernel of the successor equation of the main
    Vekua equation of f: 2(d_z S - (d_z f / f) S), derivatives in z, in
    closed form from those of S and f.  ``successor_kernel_coefj``
    completes the family.
    """
    s = S.sym.sc
    sx, sy = ex.diff(s, "x"), ex.diff(s, "y")
    fe = f.sym.sc
    ratio_x = ex.binop("/", ex.diff(fe, "x"), fe)
    ratio_y = ex.binop("/", ex.diff(fe, "y"), fe)
    sc = ex.binop("-", sx, ex.binop("*", ratio_x, s))
    vec = ex.binop("-", ex.binop("*", ratio_y, s), sy)
    return Kernel(SymBC(KERNEL_VARS, sc, vec))


def successor_kernel_coefj(coef1: Kernel, f: Field, zeta0: PlanePoint, side: float = 1.0) -> KernelFamily:
    """The successor family of the coefficient-1 kernel ``coef1``, completed
    with the coefficient-j kernel ``SuccessorCoefj``: the conjugate-building
    transform of -Z(1, zeta, z), acting in the center variable zeta along a
    path from the base point zeta0 that detours around z.

    The result is anchored: it vanishes at zeta = zeta0.  Any two kernels
    with the same coefficient differ by a regular solution, so the anchored
    evaluator is a Cauchy kernel whenever the coefficient-1 input is.
    """
    s = coef1.sym
    minus = Kernel(SymBC(KERNEL_VARS, ex.neg(s.sc), ex.neg(s.vec)))  # -Z(1) over (xi, eta, x, y)
    return KernelFamily(order=-1, coef1=coef1, coefj=SuccessorCoefj(minus, f, zeta0, side))


def _per_walk(v, walk: list[int], n: int):
    """A coordinate of each walk's frozen point, of n pairs; a number stays
    one, as a single call freezes it."""
    return float(v) if np.ndim(v) == 0 else np.broadcast_to(v, (n,))[walk]


class SuccessorCoefj(PairFace):
    """The coefficient-j kernel of a successor family: at (zeta, z), T_f of
    u = -Z(1)(., z) (``integrand``) over the detour path from zeta0 to zeta
    around z, componentwise in u = u1 + j u2 (``calculus.tf_transform``).
    Its pair face runs the walks of all pairs as array jobs
    (``detour_integrals``), each evaluating the integrand and f, with their
    partials, on all its nodes at once."""

    def __init__(self, integrand: Kernel, f: Field, zeta0: PlanePoint, side: float = 1.0):
        self.integrand, self.f, self.zeta0, self.side = integrand, f, zeta0, side

    def on(self, xi, eta, x, y) -> Values:
        return in_pair_order(self._batch, xi, eta, x, y)

    def _batch(self, xi, eta, x, y) -> Values:
        pairs = pairs_of(xi, eta, x, y)
        for zeta, z in pairs:
            if zeta.dist(z) == 0:
                raise SingularPointError(f"kernel evaluated on the diagonal at {z}")
        sc, vec = np.zeros((2, len(pairs)), dtype=complex)
        walk = [k for k, (zeta, _) in enumerate(pairs) if zeta.dist(self.zeta0) != 0]
        if not walk:
            return sc, vec

        def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray, zx, zy) -> tuple:
            u = self.integrand.center_partials_on(xs, ys, zx, zy)
            return tf_densities(u, partials_on(self.f, xs, ys), dz)

        ends, avoid = (np.array([pairs[k][i].as_complex for k in walk]) for i in (0, 1))
        frozen = (_per_walk(x, walk, len(pairs)), _per_walk(y, walk, len(pairs)))
        t1, t2 = detour_integrals(self.zeta0.as_complex, ends, avoid, one_form, frozen, self.side)
        for k, a, b in zip(walk, t1.tolist(), t2.tolist()):
            zeta = pairs[k][0]
            fend = self.f(zeta).sc
            if fend == 0:
                raise CalculusError(f"f vanishes at path endpoint {zeta}")
            value = Bicomplex(a / fend, b / fend)
            sc[k], vec[k] = value.sc, value.vec
        return sc, vec


class DarbouxFundamental:
    """S1(zeta, z) = (1/f(z)) Vec ∫_{z0}^{z} f(tau) Z(j, zeta, tau) dtau, Z(j)
    the ``family``'s, along the detour path from base_of(zeta) to z around
    zeta: log|z - zeta| plus a regular part R.  ``_batch`` gives the
    regular parts at many pairs, running their walks as array jobs; the
    pair face ``on`` and a call add log|z - zeta| to them alike."""

    def __init__(self, family: KernelFamily, f: Field, base_of: Callable[[PlanePoint], PlanePoint], side: float):
        self.family, self.f, self.base_of, self.side = family, f, base_of, side

    def __call__(self, zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        if zeta.dist(z) == 0:
            raise SingularPointError(f"fundamental solution evaluated at {z}")
        return Bicomplex(math.log(zeta.dist(z)) + self.regular(zeta, z), 0)

    def regular(self, zeta: PlanePoint, z: PlanePoint) -> complex:
        (value,) = self._batch(zeta.x, zeta.y, z.x, z.y)
        return value

    def on(self, xi, eta, x, y) -> Values:
        """S1 at every pair ((xi[k], eta[k]), (x[k], y[k]))."""
        pairs, regular = pairs_of(xi, eta, x, y), in_pair_order(self._batch, xi, eta, x, y)
        sc = np.array([Bicomplex(math.log(zeta.dist(z)) + r, 0).sc for (zeta, z), r in zip(pairs, regular)])
        return sc, np.zeros(sc.shape, dtype=complex)

    def _batch(self, xi, eta, x, y) -> list[complex]:
        pairs = pairs_of(xi, eta, x, y)
        values, walk, bases, fzs = [0j] * len(pairs), [], [], []
        for k, (zeta, z) in enumerate(pairs):
            if zeta.dist(z) == 0:
                raise SingularPointError(f"fundamental solution evaluated at {z}")
            base = self.base_of(zeta)
            if z.dist(base) == 0:
                continue  # the path is empty
            fz = self.f(z).sc
            if fz == 0:
                raise CalculusError(f"f vanishes at path endpoint {z}")
            walk.append(k)
            bases.append(base.as_complex)
            fzs.append(fz)

        def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray, cx, cy) -> tuple:
            c = self.family.coefj
            has_on = isinstance(c, (Kernel, PairFace))
            k_sc, k_vec = c.on(cx, cy, xs, ys) if has_on else pairwise([c], cx, cy, xs, ys)[0]
            return (self.f.on(xs, ys)[0] * (k_sc * dz.imag + k_vec * dz.real),)

        if walk:
            ends, avoid = (np.array([pairs[k][i].as_complex for k in walk]) for i in (1, 0))
            frozen = (_per_walk(xi, walk, len(pairs)), _per_walk(eta, walk, len(pairs)))
            (totals,) = detour_integrals(np.array(bases), ends, avoid, one_form, frozen, self.side)
            for k, total, fz in zip(walk, totals.tolist(), fzs):
                values[k] = total / fz
        return [v - math.log(zeta.dist(z)) for v, (zeta, z) in zip(values, pairs)]


def darboux_fundamental(
    kj: KernelFamily,
    f: Field,
    z0: Union[PlanePoint, Callable[[PlanePoint], PlanePoint]],
    side: float = 1.0,
) -> DarbouxFundamental:
    """Fundamental solution of the Darboux-transformed equation:
    S1(zeta, z) = (1/f(z)) Vec ∫_{z0}^{z} f(tau) Z(j, zeta, tau) dtau.

    z0 may be a fixed point or a map zeta -> z0 (e.g. zeta + 1); S1 is 0 at
    z = z0, where the path is empty."""
    return DarbouxFundamental(kj, f, z0 if callable(z0) else (lambda zeta: z0), side)


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

    @functools.lru_cache(maxsize=1)
    def grads(z: PlanePoint) -> tuple[Bicomplex, Bicomplex]:
        # one call serves both partials at z
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
    return KernelFamily(-1, k1, kj)


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
    return KernelFamily(-1, k1, kj)


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


def x_darboux_fundamental() -> Kernel:
    """Closed-form fundamental solution of the q1 = 2/x^2 equation obtained
    from f = x with the path base point zeta + 1."""
    s1 = (
        f"({LOG_RHO}) + (({RHO2})/(2*x*xi))*({LOG_RHO})"
        f" - (({RHO2}) + 2*(y - eta)^2 - 1)/(4*x*xi)"
    )
    return Kernel.make(s1)
