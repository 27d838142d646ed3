"""Analytic operator toolbox: Wirtinger operators, the area (Teodorescu)
transform, path antiderivatives, the conjugate-building transform, and the
similarity factorization, together with the quadrature primitives they need.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bicomplex import Bicomplex, PlanePoint, bc_exp
from .fields import Field, d_z, d_zbar, partials


class CalculusError(Exception):
    pass


class EmptyRegionError(CalculusError):
    pass


class PathThroughSingularityError(CalculusError):
    pass


# ---------------------------------------------------------------------------
# Paths and quadrature


_GL_NODES_CACHE: dict[int, tuple[list[float], list[float]]] = {}


def _gauss_legendre(n: int) -> tuple[list[float], list[float]]:
    """Nodes and weights of the n-point rule mapped to [0, 1], as Python
    floats, so that path nodes carry floats and complexes, not numpy
    scalars."""
    if n not in _GL_NODES_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_NODES_CACHE[n] = (((x + 1) / 2).tolist(), (w / 2).tolist())
    return _GL_NODES_CACHE[n]


@dataclass
class Path:
    """A quadrature-ready path: nodes (point, dz-weight) plus endpoints.

    The dz weight at a node is gamma'(t) times the quadrature weight, as a
    complex number dx + i dy; line integrals of any 1-form in dx, dy, dz
    are assembled from it.
    """

    nodes: list[tuple[PlanePoint, complex]]
    start: PlanePoint
    end: PlanePoint
    closed: bool = False

    # -- constructors ------------------------------------------------------

    @staticmethod
    def segment(a: PlanePoint, b: PlanePoint, nodes_per_segment: int = 16) -> "Path":
        return Path.polyline([a, b], nodes_per_segment)

    @staticmethod
    def polyline(
        points: Sequence[PlanePoint],
        nodes_per_segment: int = 16,
        grade_toward: Optional[PlanePoint] = None,
    ) -> "Path":
        """Composite Gauss-Legendre quadrature over a polyline.

        Segments longer than 0.25 are subdivided; when grade_toward is
        given, subdivision is refined geometrically near that point (for
        integrands singular there).
        """
        xs, ws = _gauss_legendre(nodes_per_segment)
        nodes: list[tuple[PlanePoint, complex]] = []

        def emit(a: complex, b: complex):
            d = b - a
            for t, w in zip(xs, ws):
                p = a + t * d
                nodes.append((PlanePoint(p.real, p.imag), w * d))

        def refine(a: complex, b: complex, depth: int = 0):
            length = abs(b - a)
            limit = 0.25
            if grade_toward is not None:
                mid = (a + b) / 2
                dist = abs(mid - grade_toward.as_complex)
                limit = min(limit, max(0.5 * dist, 1e-6))
            if length <= limit or depth >= 40:
                emit(a, b)
            else:
                mid = (a + b) / 2
                refine(a, mid, depth + 1)
                refine(mid, b, depth + 1)

        pts = [p.as_complex for p in points]
        for a, b in zip(pts, pts[1:]):
            if a != b:
                refine(a, b)
        closed = points[0].dist(points[-1]) == 0
        return Path(nodes, points[0], points[-1], closed)

    @staticmethod
    def circle(center: PlanePoint, radius: float, nodes: int = 512) -> "Path":
        """Closed circle, trapezoid rule (spectrally accurate when periodic)."""
        c = center.as_complex
        out = []
        dt = 2 * math.pi / nodes
        for k in range(nodes):
            t = k * dt
            e = cmath.exp(1j * t)
            p = c + radius * e
            out.append((PlanePoint(p.real, p.imag), 1j * radius * e * dt))
        start = PlanePoint(c.real + radius, c.imag)
        return Path(out, start, start, closed=True)

    @staticmethod
    def arc(
        center: PlanePoint,
        radius: float,
        theta0: float,
        theta1: float,
        nodes_per_segment: int = 16,
    ) -> "Path":
        """Composite Gauss-Legendre quadrature over pieces of at most 0.2 rad."""
        xs, ws = _gauss_legendre(nodes_per_segment)
        c = center.as_complex
        pieces = max(1, math.ceil(abs(theta1 - theta0) / 0.2))
        out = []
        for k in range(pieces):
            a = theta0 + (theta1 - theta0) * k / pieces
            b = theta0 + (theta1 - theta0) * (k + 1) / pieces
            for t, w in zip(xs, ws):
                th = a + t * (b - a)
                e = cmath.exp(1j * th)
                p = c + radius * e
                out.append((PlanePoint(p.real, p.imag), w * (b - a) * 1j * radius * e))
        p0 = c + radius * cmath.exp(1j * theta0)
        p1 = c + radius * cmath.exp(1j * theta1)
        return Path(out, PlanePoint(p0.real, p0.imag), PlanePoint(p1.real, p1.imag))

    @staticmethod
    def join(parts: Sequence["Path"]) -> "Path":
        nodes = [n for p in parts for n in p.nodes]
        closed = parts[0].start.dist(parts[-1].end) == 0
        return Path(nodes, parts[0].start, parts[-1].end, closed)

    @staticmethod
    def detour(
        start: PlanePoint,
        end: PlanePoint,
        avoid: PlanePoint,
        radius: Optional[float] = None,
        side: float = 1.0,
        nodes_per_segment: int = 16,
    ) -> "Path":
        """Straight path from start to end with a circular-arc detour
        around ``avoid`` when the segment passes too close to it."""
        a, b, c = start.as_complex, end.as_complex, avoid.as_complex
        if abs(a - c) < 1e-12 or abs(b - c) < 1e-12:
            raise PathThroughSingularityError(
                "path endpoint coincides with the excluded point"
            )
        if radius is None:
            radius = max(1e-3, 0.5 * abs(b - c))
        radius = min(radius, 0.5 * abs(a - c), 0.5 * abs(b - c))
        d = b - a
        length = abs(d)
        if length == 0:
            raise PathThroughSingularityError("degenerate path")
        t_foot = ((c - a) / d).real  # projection parameter of avoid
        dist = abs(a + t_foot * d - c) if 0 <= t_foot <= 1 else min(
            abs(a - c), abs(b - c)
        )
        if dist >= radius:
            return Path.polyline([start, end], nodes_per_segment,
                                 grade_toward=avoid)
        half = math.sqrt(max(radius**2 - abs(a + t_foot * d - c) ** 2, 0.0)) / length
        t1 = max(0.0, t_foot - half)
        t2 = min(1.0, t_foot + half)
        p1 = a + t1 * d
        p2 = a + t2 * d
        th1 = cmath.phase(p1 - c)
        th2 = cmath.phase(p2 - c)
        # sweep on the requested side, never through the segment
        if side >= 0:
            while th2 <= th1:
                th2 += 2 * math.pi
            if th2 - th1 > 2 * math.pi:
                th2 -= 2 * math.pi
        else:
            while th2 >= th1:
                th2 -= 2 * math.pi
        parts = []

        def leg(p: complex, q: complex, gap: float) -> None:
            if abs(q - p) > gap:
                ends = [PlanePoint(p.real, p.imag), PlanePoint(q.real, q.imag)]
                parts.append(Path.polyline(ends, nodes_per_segment, grade_toward=avoid))

        # project arc endpoints exactly onto the circle
        q1 = c + radius * cmath.exp(1j * th1)
        q2 = c + radius * cmath.exp(1j * th2)
        leg(a, p1, 1e-14)
        leg(p1, q1, 1e-13)
        parts.append(Path.arc(avoid, radius, th1, th2, nodes_per_segment))
        leg(q2, p2, 1e-13)
        leg(p2, b, 1e-14)
        return Path.join(parts)

    # -- integration --------------------------------------------------------

    def integrate(
        self, fn: Callable[[PlanePoint, complex], complex | Bicomplex], start=0
    ):
        """Sum fn(point, dz_weight) over nodes, in order, onto start; fn
        applies the 1-form.  This is the one loop that sums over a path.
        A Bicomplex-valued fn with start Bicomplex(0, 0) integrates two
        complex 1-forms in one walk, each component summed exactly as its
        complex integral alone would be; ∫ W dz with bicomplex dz = dx + j dy
        is fn = lambda p, w: W(p) * from_cj(w)."""
        return sum((fn(p, w) for p, w in self.nodes), start)


# ---------------------------------------------------------------------------
# Region grids (for area integrals and residual scans)


def midpoints(x0: float, x1: float, y0: float, y1: float, nx: int, ny: int) -> list[PlanePoint]:
    """Centres of the nx-by-ny grid of equal cells over [x0, x1] x [y0, y1]."""
    return [
        PlanePoint(x0 + (i + 0.5) * (x1 - x0) / nx, y0 + (k + 0.5) * (y1 - y0) / ny)
        for i in range(nx)
        for k in range(ny)
    ]


@dataclass
class RegionGrid:
    """Axis-aligned rectangle cut into square cells of size h, with an
    optional inclusion predicate."""

    x0: float
    x1: float
    y0: float
    y1: float
    h: float
    include: Optional[Callable[[PlanePoint], bool]] = None

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("cell size must be positive")

    def _included(self, p: PlanePoint) -> bool:
        return self.include is None or self.include(p)

    def cells(self) -> list[tuple[PlanePoint, float]]:
        nx = max(1, round((self.x1 - self.x0) / self.h))
        ny = max(1, round((self.y1 - self.y0) / self.h))
        area = (self.x1 - self.x0) / nx * ((self.y1 - self.y0) / ny)
        grid = midpoints(self.x0, self.x1, self.y0, self.y1, nx, ny)
        out = [(c, area) for c in grid if self._included(c)]
        if not out:
            raise EmptyRegionError("no cells in region")
        return out

    def sample_points(self, n: int = 20) -> list[PlanePoint]:
        grid = midpoints(self.x0, self.x1, self.y0, self.y1, n, n)
        pts = [p for p in grid if self._included(p)]
        if not pts:
            raise EmptyRegionError("no sample points in region")
        return pts


# ---------------------------------------------------------------------------
# Wirtinger operators


@dataclass(frozen=True)
class GradientSample:
    value: Bicomplex
    dz: Bicomplex
    dzbar: Bicomplex


def wirtinger(w: Field, z: PlanePoint, h: Optional[float] = None) -> GradientSample:
    """d_z = (1/2)(d/dx - j d/dy), d_zbar = (1/2)(d/dx + j d/dy)."""
    value, fx, fy = partials(w, z, h)
    return GradientSample(value=value, dz=d_z(fx, fy), dzbar=d_zbar(fx, fy))


def idempotent_factor_check(w: Field, z: PlanePoint, h: Optional[float] = None) -> float:
    """Residual of the factorization of d_zbar through the idempotent
    components: d_zbar W versus the complex Cauchy-Riemann operators
    acting on W+ (as d_z) and W- (as d_zbar)."""
    _, fx, fy = partials(w, z, h)
    fxp, fxm = fx.idempotent()
    fyp, fym = fy.idempotent()
    dz_plus = 0.5 * (fxp - 1j * fyp)
    dzbar_minus = 0.5 * (fxm + 1j * fym)
    rhs = Bicomplex.from_idempotent_coords(dz_plus, dzbar_minus)
    return (d_zbar(fx, fy) - rhs).norm


# ---------------------------------------------------------------------------
# Teodorescu-type area transform


def _cell_integral_kernel(z: complex, cx: float, cy: float, hx: float, hy: float) -> complex:
    """Exact ∬_cell 1/(z - zeta) dA over the rectangle centered (cx, cy),
    for z strictly inside the cell.

    Uses the boundary form conj(zeta)/(z - zeta) dzeta; since that form is
    singular at zeta = z, Stokes applies on the punctured cell and the
    shrinking inner loop contributes pi * conj(z)."""
    corners = [
        complex(cx - hx / 2, cy - hy / 2),
        complex(cx + hx / 2, cy - hy / 2),
        complex(cx + hx / 2, cy + hy / 2),
        complex(cx - hx / 2, cy + hy / 2),
    ]
    total = 0j
    inside = abs(z.real - cx) < hx / 2 and abs(z.imag - cy) < hy / 2
    for p, q in zip(corners, corners[1:] + corners[:1]):
        d = q - p
        a = z - p
        if a == 0 or a - d == 0:
            raise CalculusError("evaluation point on a cell boundary")
        ell = -cmath.log((a - d) / a)
        total += (p.conjugate() + d.conjugate() * a / d) * ell - d.conjugate()
    total = total / 2j
    if inside:
        total += math.pi * z.conjugate()
    return total


def teodorescu(w: Field, region: RegionGrid, z: PlanePoint) -> Bicomplex:
    """Right inverse of d_zbar: area quadrature of the idempotent-split
    Cauchy transforms, singular cell handled in closed form."""
    zc = z.as_complex
    acc_plus = 0j
    acc_minus = 0j
    for center, area in region.cells():
        wp, wm = w(center).idempotent()
        hx = hy = math.sqrt(area)
        near = (
            abs(z.x - center.x) <= 2.5 * hx and abs(z.y - center.y) <= 2.5 * hy
        )
        if near:
            # exact rectangle integral: removes the near-field midpoint
            # error that otherwise dominates derivative estimates of T
            kint = _cell_integral_kernel(zc, center.x, center.y, hx, hy)
            acc_plus += wp * kint.conjugate()
            acc_minus += wm * kint
        else:
            k = 1.0 / (zc - center.as_complex)
            acc_plus += wp * k.conjugate() * area
            acc_minus += wm * k * area
    return Bicomplex.from_idempotent_coords(acc_plus / math.pi, acc_minus / math.pi)


def analytic_part(w: Field, a: Field, b: Field, region: RegionGrid) -> Field:
    """h = W - T(aW + b conj_j W); W is pseudoanalytic iff h is analytic."""
    integrand = a * w + b * w.conj()
    return Field(lambda z: w(z) - teodorescu(integrand, region, z))


# ---------------------------------------------------------------------------
# Path antiderivative and the conjugate transform


def abar_antiderivative(w: Field, path: Path) -> complex:
    """2 ∫ (u dx + v dy) for W = u + jv; solves d_zbar(phi) = W when the
    compatibility condition u_y = v_x holds."""

    def one_form(p: PlanePoint, dz: complex) -> complex:
        val = w(p)
        return val.sc * dz.real + val.vec * dz.imag

    return 2 * path.integrate(one_form, 0j)


def compatibility_residual(w: Field, z: PlanePoint, h: Optional[float] = None) -> float:
    _, fx, fy = partials(w, z, h)
    return abs(fy.sc - fx.vec)


def _tf_density(u: complex, ux: complex, uy: complex, f: complex, fx: complex,
                fy: complex, dz: complex) -> complex:
    """-(f^2 d(u/f)/dy) dx + (f^2 d(u/f)/dx) dy at one node, for scalar u."""
    gx = ux * f - u * fx
    gy = uy * f - u * fy
    return -gy * dz.real + gx * dz.imag


def tf_transform(f: Field, u: Field, path: Path, h: Optional[float] = None) -> Bicomplex:
    """Conjugate-building transform, componentwise in u = u1 + j u2:
    T_f(u1) + j T_f(u2), where T_f(u) is the value of
    f^{-1} Abar(j f^2 d_zbar(u/f)) at the path endpoint.

    f is a scalar (vec = 0) field; the integrand is expanded so that only
    first partials of f and u are needed:
        f^2 d(u/f)/dx = u_x f - u f_x   (same in y).
    One walk over the path evaluates f, u and their partials once per node
    for both components.
    """

    def one_form(p: PlanePoint, dz: complex) -> Bicomplex:
        uv, ux, uy = partials(u, p, h)
        fv, fx, fy = partials(f, p, h)
        f0, f_x, f_y = fv.sc, fx.sc, fy.sc
        return Bicomplex(
            _tf_density(uv.sc, ux.sc, uy.sc, f0, f_x, f_y, dz),
            _tf_density(uv.vec, ux.vec, uy.vec, f0, f_x, f_y, dz),
        )

    total = path.integrate(one_form, Bicomplex(0, 0))
    fend = f(path.end).sc
    if fend == 0:
        raise CalculusError(f"f vanishes at path endpoint {path.end}")
    return Bicomplex(total.sc / fend, total.vec / fend)


# ---------------------------------------------------------------------------
# Similarity factorization


def similarity_split(
    w: Field, a: Field, b: Field, region: RegionGrid
) -> tuple[Field, Field]:
    """W = Psi * E[S] with S = T(a + (conj_j W / W) b); returns (Psi, S)."""

    def integrand(z: PlanePoint) -> Bicomplex:
        wv = w(z)
        return a(z) + (wv.conj() * wv.inv()) * b(z)

    integrand_field = Field(integrand)

    def s_func(z: PlanePoint) -> Bicomplex:
        return teodorescu(integrand_field, region, z)

    s_field = Field(s_func)
    psi_field = Field(lambda z: w(z) * bc_exp(-s_func(z)))
    return psi_field, s_field
