"""Analytic operator toolbox: Wirtinger operators, the area (Teodorescu)
transform, path antiderivatives, the conjugate-building transform, and the
similarity factorization, together with the quadrature primitives they need.

A path holds its nodes and weights as numpy arrays.  A path integral
evaluates its integrand on all nodes at once and sums the values in node
order (``Path.integrate``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .bicomplex import Bicomplex, InvalidValueError, PlanePoint, bc_exp
from .fields import Field, d_z, d_zbar, partials, partials_on


class CalculusError(Exception):
    pass


class EmptyRegionError(CalculusError):
    pass


class PathThroughSingularityError(CalculusError):
    pass


# ---------------------------------------------------------------------------
# Paths and quadrature


_GL_NODES_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule mapped to [0, 1]."""
    if n not in _GL_NODES_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_NODES_CACHE[n] = ((x + 1) / 2, w / 2)
    return _GL_NODES_CACHE[n]


def _on_segments(a: np.ndarray, d: np.ndarray, t: np.ndarray, w: np.ndarray):
    """Nodes a + t d and weights w d of the rule (t, w) on every segment
    [a, a + d], segment by segment, as flat complex arrays."""
    return (a[:, None] + t * d[:, None]).ravel(), (w * d[:, None]).ravel()


@dataclass(eq=False)
class Path:
    """A quadrature-ready path: node coordinates xs, ys and dz weights, one
    entry per node in path order, plus endpoints.

    The dz weight at a node is gamma'(t) times the quadrature weight, as a
    complex number dx + i dy; line integrals of any 1-form in dx, dy, dz
    are assembled from it.
    """

    xs: np.ndarray
    ys: np.ndarray
    dz: np.ndarray
    start: PlanePoint
    end: PlanePoint

    @staticmethod
    def _of(points: np.ndarray, dz: np.ndarray, start: PlanePoint, end: PlanePoint) -> "Path":
        """The path through the complex node array ``points``."""
        return Path(points.real.copy(), points.imag.copy(), dz, start, end)

    @property
    def nodes(self) -> np.ndarray:
        """The nodes as one complex array x + iy: its length is the node count."""
        return self.xs + 1j * self.ys

    # -- constructors ------------------------------------------------------

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
        pieces: list[tuple[complex, complex]] = []

        def refine(a: complex, b: complex, depth: int = 0):
            length = abs(b - a)
            limit = 0.25
            if grade_toward is not None:
                mid = (a + b) / 2
                dist = abs(mid - grade_toward.as_complex)
                limit = min(limit, max(0.5 * dist, 1e-6))
            if length <= limit or depth >= 40:
                pieces.append((a, b))
            else:
                mid = (a + b) / 2
                refine(a, mid, depth + 1)
                refine(mid, b, depth + 1)

        pts = [p.as_complex for p in points]
        for a, b in zip(pts, pts[1:]):
            if a != b:
                refine(a, b)
        ends = np.array(pieces, dtype=complex).reshape(-1, 2)
        nodes, dz = _on_segments(
            ends[:, 0], ends[:, 1] - ends[:, 0], *_gauss_legendre(nodes_per_segment)
        )
        return Path._of(nodes, dz, points[0], points[-1])

    @staticmethod
    def circle(center: PlanePoint, radius: float, nodes: int = 512) -> "Path":
        """Closed circle, trapezoid rule (spectrally accurate when periodic)."""
        c = center.as_complex
        dt = 2 * math.pi / nodes
        e = np.exp(1j * (np.arange(nodes) * dt))
        start = PlanePoint(c.real + radius, c.imag)
        return Path._of(c + radius * e, 1j * radius * e * dt, start, start)

    @staticmethod
    def arc(
        center: PlanePoint,
        radius: float,
        theta0: float,
        theta1: float,
        nodes_per_segment: int = 16,
    ) -> "Path":
        """Composite Gauss-Legendre quadrature over pieces of at most 0.2 rad."""
        c = center.as_complex
        pieces = max(1, math.ceil(abs(theta1 - theta0) / 0.2))
        k = np.arange(pieces)
        a = theta0 + (theta1 - theta0) * k / pieces
        b = theta0 + (theta1 - theta0) * (k + 1) / pieces
        t, w = _gauss_legendre(nodes_per_segment)
        th, dth = _on_segments(a, b - a, t, w)
        e = np.exp(1j * th)
        p0 = c + radius * cmath.exp(1j * theta0)
        p1 = c + radius * cmath.exp(1j * theta1)
        return Path._of(
            c + radius * e, dth * 1j * radius * e,
            PlanePoint(p0.real, p0.imag), PlanePoint(p1.real, p1.imag),
        )

    @staticmethod
    def join(parts: Sequence["Path"]) -> "Path":
        return Path(
            np.concatenate([p.xs for p in parts]),
            np.concatenate([p.ys for p in parts]),
            np.concatenate([p.dz for p in parts]),
            parts[0].start,
            parts[-1].end,
        )

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

    def integrate(self, one_form: Callable[[np.ndarray, np.ndarray, np.ndarray], object]):
        """∫ of a 1-form over the path: one_form(xs, ys, dz) gives its values
        at the nodes, one array, and they are summed in node order.  This is
        the one summation over a path.

        A one_form that returns a tuple of arrays integrates that many
        complex 1-forms in one walk, each summed exactly as its integral
        alone would be, into the tuple of their integrals.  A non-finite
        value raises InvalidValueError at the first node that has one.
        """
        # a fault in the 1-form's own sums and products, or in the summation,
        # leaves a non-finite partial sum, refused by _total
        with np.errstate(over="ignore", invalid="ignore"):
            values = one_form(self.xs, self.ys, self.dz)
            parts = values if isinstance(values, tuple) else (values,)
            # cumsum adds in node order, where sum would add pairwise
            totals = [self._total(np.cumsum(np.broadcast_to(v, self.dz.shape))) for v in parts]
        return tuple(totals) if isinstance(values, tuple) else totals[0]

    def _total(self, partial: np.ndarray) -> complex:
        """The last of the partial sums; a partial sum is non-finite from the
        first non-finite value (or overflow) on, and that node is named."""
        total = complex(partial[-1]) if partial.size else 0j
        if not cmath.isfinite(total):
            k = int(np.argmin(np.isfinite(partial)))
            node = PlanePoint(float(self.xs[k]), float(self.ys[k]))
            raise InvalidValueError(f"non-finite integral at node {node}")
        return total


# ---------------------------------------------------------------------------
# Region grids (for area integrals and residual scans)


def _centres(a: float, b: float, n: int) -> list[float]:
    """Centres of the n equal cells of [a, b], increasing."""
    return [a + (i + 0.5) * (b - a) / n for i in range(n)]


def grid_columns(
    x0: float, x1: float, y0: float, y1: float, nx: int, ny: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The points of ``midpoints`` one column (one x, every y) at a time, as
    arrays xs, ys, in the same order."""
    ys = np.array(_centres(y0, y1, ny))
    for x in _centres(x0, x1, nx):
        yield np.full(ny, x), ys


def midpoints(x0: float, x1: float, y0: float, y1: float, nx: int, ny: int) -> list[PlanePoint]:
    """Centres of the nx-by-ny grid of equal cells over [x0, x1] x [y0, y1],
    column by column: increasing y for each x, the x increasing."""
    ys = _centres(y0, y1, ny)
    return [PlanePoint(x, y) for x in _centres(x0, x1, nx) for y in ys]


@dataclass
class RegionGrid:
    """Axis-aligned rectangle, cut into square cells of size h for the area
    quadrature (``cells``), with an optional inclusion predicate."""

    x0: float
    x1: float
    y0: float
    y1: float
    h: Optional[float] = None
    include: Optional[Callable[[PlanePoint], bool]] = None

    def __post_init__(self):
        if self.h is not None and self.h <= 0:
            raise ValueError("cell size must be positive")

    def _included(self, p: PlanePoint) -> bool:
        return self.include is None or self.include(p)

    def cells(self) -> list[tuple[PlanePoint, float]]:
        if self.h is None:
            raise CalculusError("region has no cell size h")
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

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray) -> np.ndarray:
        sc, vec = w.on(xs, ys)
        return sc * dz.real + vec * dz.imag

    return 2 * path.integrate(one_form)


def compatibility_residual(w: Field, z: PlanePoint, h: Optional[float] = None) -> float:
    _, fx, fy = partials(w, z, h)
    return abs(fy.sc - fx.vec)


def _tf_density(u, ux, uy, f, fx, fy, dz):
    """-(f^2 d(u/f)/dy) dx + (f^2 d(u/f)/dx) dy at every node, for scalar u:
    each argument is an array of node values."""
    gx = ux * f - u * fx
    gy = uy * f - u * fy
    return -gy * dz.real + gx * dz.imag


def tf_transform(f: Field, u: Field, path: Path) -> Bicomplex:
    """Conjugate-building transform, componentwise in u = u1 + j u2:
    T_f(u1) + j T_f(u2), where T_f(u) is the value of
    f^{-1} Abar(j f^2 d_zbar(u/f)) at the path endpoint.

    f is a scalar (vec = 0) field; the integrand is expanded so that only
    first partials of f and u are needed:
        f^2 d(u/f)/dx = u_x f - u f_x   (same in y).
    One walk over the path evaluates f, u and their partials on all nodes
    at once for both components.
    """

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray) -> tuple:
        (u1, u2), (u1x, u2x), (u1y, u2y) = partials_on(u, xs, ys)
        (f0, _), (fx, _), (fy, _) = partials_on(f, xs, ys)
        return (
            _tf_density(u1, u1x, u1y, f0, fx, fy, dz),
            _tf_density(u2, u2x, u2y, f0, fx, fy, dz),
        )

    t1, t2 = path.integrate(one_form)
    fend = f(path.end).sc
    if fend == 0:
        raise CalculusError(f"f vanishes at path endpoint {path.end}")
    return Bicomplex(t1 / fend, t2 / fend)


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
