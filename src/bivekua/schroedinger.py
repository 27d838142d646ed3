"""The Schrödinger bridge: potentials from a particular solution f, Cauchy
kernels built from fundamental solutions of the two-dimensional Schrödinger
equation, reproducing kernels for the associated main Vekua equation, and
Darboux-transformed fundamental solutions, together with the closed-form
reference family for f(z) = x.

f, the potentials q and q1 and the fundamental solution S come from
expressions, so the successor Z(1) is a closed-form ``Kernel``; Z(j) and
the Darboux S1 are path integrals of closed-form integrands with exact
partials.  ``schroedinger_residual`` runs on arrays, at every node of a
scan at once or at one point as one node; the one finite difference here
is the Laplacian it takes at a given step h from the second central
differences of ``fields.differences``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Union

import numpy as np

from . import expr as ex
from .bicomplex import Bicomplex, InvalidValueError, PlanePoint
from .calculus import CalculusError, Path, detour_walks, integrals, tf_densities, tf_transform
from .fields import (
    KERNEL_VARS,
    BicomplexArray,
    Field,
    Kernel,
    PairFace,
    SymBC,
    at_nodes,
    differences,
    in_order,
    pairs_of,
    pointwise,
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


def _laplacian(u: Field, xs: np.ndarray, ys: np.ndarray, h: Optional[float]) -> BicomplexArray:
    """Laplacian u at every node (xs[k], ys[k]): exact without a step, else
    twice the sum of the (2, 0) and (0, 2) entries of the degree-2 table of
    step h of ``fields.differences``, the second differences over 2."""
    if h is None:
        return u.dx.dx.on(xs, ys) + u.dy.dy.on(xs, ys)
    *_, cxx, _, cyy = differences(u.on, (xs, ys), h, 2)
    return (cxx + cyy).scale(2)


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
    u: Field, q: Field, z, h: Optional[float] = None
) -> Union[float, np.ndarray]:
    """|Laplacian u - q u|, exact from the partials of u when no step is
    given, else via central differences of step h: at the point z, or at
    every node of the columns z = (xs, ys) at once (``fields.at_nodes``)."""

    def residual(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return (_laplacian(u, xs, ys, h) - q.on(xs, ys) * u.on(xs, ys)).norm

    return at_nodes(residual, z)


# ---------------------------------------------------------------------------
# Main Vekua problem bundle


class MainVekuaProblem:
    """A nonvanishing solution f of the q-equation together with the derived
    potentials and the generating pairs (f, j/f) and its successor."""

    __slots__ = ("f", "q", "q1", "pair", "successor")

    def __init__(self, f: Field, q: Field, q1: Field, pair: GeneratingPair, successor: GeneratingPair):
        self.f, self.q, self.q1, self.pair, self.successor = f, q, q1, pair, successor

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
    return Kernel.from_sym(SymBC(KERNEL_VARS, sc, vec))


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
    minus = Kernel.from_sym(SymBC(KERNEL_VARS, ex.neg(s.sc), ex.neg(s.vec)))  # -Z(1) over (xi, eta, x, y)
    return KernelFamily(order=-1, coef1=coef1, coefj=SuccessorCoefj(minus, f, zeta0, side))


def _walks(face, start, end: int, forms: int, one_form, xi, eta, x, y) -> np.ndarray:
    """Per 1-form of one_form(xs, ys, dz, *other), ``other`` the coordinates
    of each pair's other point at every node, the row of its integrals over
    the detour path from start(zeta) to the pair's point ``end`` (0: zeta,
    1: z) around the other point, divided by f there (face.f, called once
    on all path ends), 0 where the path is empty: ``forms`` rows, all paths
    run as array jobs (``detour_walks`` on face.side, ``integrals``).  A
    pair on the diagonal, f = 0 at a path end or a value past the double
    range raises."""
    pairs = pairs_of(xi, eta, x, y)
    for zeta, z in pairs:
        if zeta.dist(z) == 0:
            raise SingularPointError(f"two-point function evaluated on the diagonal at {z}")
    paths = [(start(p[0]), p[end], p[1 - end]) for p in pairs]  # start, end, avoided point
    walk = [k for k, (a, b, _) in enumerate(paths) if b.dist(a) != 0]  # the pairs with a path
    out = np.zeros((forms, len(pairs)), dtype=complex)
    if walk:
        starts, ends, avoid = (np.array([paths[k][i].as_complex for k in walk]) for i in range(3))
        fends = face.f.on(ends.real, ends.imag).sc.tolist()
        if 0 in fends:
            raise CalculusError(f"f vanishes at path endpoint {paths[walk[fends.index(0)]][1]}")
        # each walk's other point, a number staying one, as a single call freezes it
        other = [float(v) if np.ndim(v) == 0 else np.broadcast_to(v, (len(pairs),))[walk]
                 for v in ((x, y), (xi, eta))[end]]
        totals = integrals(detour_walks(starts, ends, avoid, face.side), one_form, other)
        # Python's complex division, which rounds unlike numpy's
        out[:, walk] = [[t / fend for t, fend in zip(row.tolist(), fends)] for row in totals]
        # not .all(): its reduction loop alone adds 0.1 MB of resident memory
        if np.count_nonzero(~np.isfinite(out)):
            raise InvalidValueError("a path integral over f is outside the double range")
    return out


class SuccessorCoefj(PairFace):
    """The coefficient-j kernel of a successor family: at (zeta, z), T_f of
    u = -Z(1)(., z) (``integrand``) over the detour path from zeta0 to zeta
    around z, componentwise in u = u1 + j u2 (``calculus.tf_transform``).
    Its pair face runs the walks of all pairs as array jobs (``_walks``),
    each evaluating the integrand and f, with their partials, on all its
    nodes at once."""

    def __init__(self, integrand: Kernel, f: Field, zeta0: PlanePoint, side: float = 1.0):
        self.integrand, self.f, self.zeta0, self.side = integrand, f, zeta0, side

    def on(self, xi, eta, x, y) -> BicomplexArray:
        return BicomplexArray(*in_order(self._batch, xi, eta, x, y))

    def partials(self, arg: str, xi, eta, x, y) -> tuple[BicomplexArray, ...]:
        """The value V = I/f and its exact partials in ``arg`` at every pair.
        The 1-form is closed away from z, so a walk may stay fixed near z:
        in z, one walk per pair integrates the integrand and its partial
        kernels in z.  In zeta, the walk's end, V_xi = (I_xi - V f_xi)/f and
        alike in eta, I_xi and I_eta the 1-form's coefficients at zeta."""
        if arg == "z":
            kernels = self.integrand.partial_kernels("z")
            rows = in_order(lambda *pair: self._batch(*pair, kernels), xi, eta, x, y)
            return tuple(BicomplexArray(*rows[i : i + 2]) for i in (0, 2, 4))
        value = self.on(xi, eta, x, y)
        f = self.f.partials(*np.broadcast_arrays(*np.atleast_1d(xi, eta, x, y))[:2])
        u = self.integrand.partials("zeta", xi, eta, x, y)
        # I_xi and I_eta are the 1-form at zeta on dz = 1 and on dz = i
        ends = (BicomplexArray(*tf_densities(u, f, dz)) - value.scale(fd.sc) for dz, fd in zip((1, 1j), f[1:]))
        return (value, *(end.scale(1 / f[0].sc) for end in ends))

    def _batch(self, xi, eta, x, y, kernels: tuple = ()) -> tuple:
        """T_f over the walks of all pairs, of each of ``kernels`` (by default
        the integrand), two rows (u1, u2) per kernel."""
        kernels = kernels or (self.integrand,)

        def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray, zx, zy) -> tuple:
            f = self.f.partials(xs, ys)
            return tuple(d for k in kernels for d in tf_densities(k.partials("zeta", xs, ys, zx, zy), f, dz))

        return tuple(_walks(self, lambda zeta: self.zeta0, 0, 2 * len(kernels), one_form, xi, eta, x, y))


class DarbouxFundamental(PairFace):
    """S1(zeta, z) = (1/f(z)) Vec ∫_{z0}^{z} f(tau) Z(j, zeta, tau) dtau, Z(j)
    the ``family``'s, along the detour path from base_of(zeta) to z around
    zeta: log|z - zeta| plus a regular part R.  ``_batch`` gives the
    regular parts at many pairs, running their walks as array jobs
    (``_walks``, arcs on side 1); the pair face ``on`` adds log|z - zeta|
    to them."""

    side = 1.0

    def __init__(self, family: KernelFamily, f: Field, base_of: Callable[[PlanePoint], PlanePoint]):
        self.family, self.f, self.base_of = family, f, base_of

    def on(self, xi, eta, x, y) -> BicomplexArray:
        """S1 at every pair ((xi[k], eta[k]), (x[k], y[k]))."""
        pairs, regular = pairs_of(xi, eta, x, y), in_order(self._batch, xi, eta, x, y)
        sc = np.array([math.log(zeta.dist(z)) + r for (zeta, z), r in zip(pairs, regular)], dtype=complex)
        return BicomplexArray(sc, np.zeros(sc.shape, dtype=complex))

    def _batch(self, xi, eta, x, y) -> list[complex]:
        def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray, cx, cy) -> tuple:
            c = self.family.coefj
            k = c.on(cx, cy, xs, ys) if isinstance(c, PairFace) else pointwise([c], cx, cy, xs, ys)[0]
            return (self.f.on(xs, ys).sc * (k.sc * dz.imag + k.vec * dz.real),)

        (values,) = _walks(self, self.base_of, 1, 1, one_form, xi, eta, x, y).tolist()
        return [v - math.log(zeta.dist(z)) for v, (zeta, z) in zip(values, pairs_of(xi, eta, x, y))]


def darboux_fundamental(
    kj: KernelFamily, f: Field, z0: Union[PlanePoint, Callable[[PlanePoint], PlanePoint]]
) -> DarbouxFundamental:
    """Fundamental solution of the Darboux-transformed equation:
    S1(zeta, z) = (1/f(z)) Vec ∫_{z0}^{z} f(tau) Z(j, zeta, tau) dtau.

    z0 may be a fixed point or a map zeta -> z0 (e.g. zeta + 1); S1 is 0 at
    z = z0, where the path is empty."""
    return DarbouxFundamental(kj, f, z0 if callable(z0) else (lambda zeta: z0))


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
        # one call serves both partials at z, each of u and f at z as one node
        (uv, ux, uy), (fv, fx, fy) = ([complex(p.sc[0]) for p in w.partials(z.x, z.y)] for w in (u, f))
        v = v_val(z)
        gx = ux * fv - uv * fx
        gy = uy * fv - uv * fy
        vx = (-gy - v * fx) / fv
        vy = (gx - v * fy) / fv
        return Bicomplex(ux, vx), Bicomplex(uy, vy)

    dx = Field(lambda z: grads(z)[0])
    dy = Field(lambda z: grads(z)[1])
    return Field.with_partials(func, dx, dy)


# ---------------------------------------------------------------------------
# Closed-form reference family for f(z) = x
#
# The scalar coordinate f = x solves the Laplace equation; its successor and
# main-equation kernels, negative powers, and Darboux fundamental solution
# all have closed forms, used as oracles throughout the test suite.

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


class _Formula(PairFace):
    """A two-point function given by the numpy function ``parts`` of the
    (sc, vec) parts of its pair face."""

    def __init__(self, parts: Callable[..., tuple]):
        self.parts = parts

    def on(self, xi, eta, x, y) -> BicomplexArray:
        return BicomplexArray(*self.parts(xi, eta, x, y))


def x_negative_power(n: int) -> KernelFamily:
    """Closed-form negative formal powers of order -n for the main Vekua
    equation of f = x (n >= 2), as pair faces on numpy arrays."""
    if n < 2:
        raise ValueError("closed forms start at order -2")

    def parts(xi, eta, x, y):
        d = np.atleast_1d(np.subtract(x, xi) + 1j * np.subtract(y, eta))
        return d, 1 / d**n, 1 / d ** (n - 1), 1 / d ** (n - 2)

    def coef1(xi, eta, x, y) -> tuple:
        d, dn, dn1, dn2 = parts(xi, eta, x, y)
        if n % 2 == 0:
            return dn.real, dn.imag + dn1.imag / ((n - 1) * x)
        c = -dn1.imag + dn2.imag / ((n - 2) * xi)
        return dn.real - dn1.real / ((n - 1) * xi), dn.imag - dn1.imag / ((n - 1) * xi) - c / ((n - 1) * x)

    def coefj(xi, eta, x, y) -> tuple:
        d, dn, dn1, dn2 = parts(xi, eta, x, y)
        if n % 2 == 1:
            return -dn.imag, dn.real + dn1.real / ((n - 1) * x)
        c = dn1.real + np.log(np.hypot(d.real, d.imag)) / xi if n == 2 else dn1.real - dn2.real / ((n - 2) * xi)
        return -dn.imag + dn1.imag / ((n - 1) * xi), dn.real - dn1.real / ((n - 1) * xi) + c / ((n - 1) * x)

    return KernelFamily(order=-n, coef1=_Formula(coef1), coefj=_Formula(coefj))


def x_darboux_fundamental() -> Kernel:
    """Closed-form fundamental solution of the q1 = 2/x^2 equation obtained
    from f = x with the path base point zeta + 1."""
    s1 = (
        f"({LOG_RHO}) + (({RHO2})/(2*x*xi))*({LOG_RHO})"
        f" - (({RHO2}) + 2*(y - eta)^2 - 1)/(4*x*xi)"
    )
    return Kernel.make(s1)
