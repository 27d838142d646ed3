"""Analytic operator toolbox: the conjugate-building transform, together
with the path quadrature and the region grids it and the checks need.

A path holds its nodes and weights as numpy arrays.  A path integral
evaluates its integrand on all nodes at once and sums the values in node
order (``Path.integrate``).  Many detour paths are built together and laid
end to end (``detour_walks``), so that one array job evaluates and sums
them all (``Walks.integrate``), at most ``NODE_BUDGET`` nodes at a time.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .bicomplex import Bicomplex, InvalidValueError, PlanePoint
from .fields import Field


class CalculusError(Exception):
    pass


class PathThroughSingularityError(CalculusError):
    pass


# ---------------------------------------------------------------------------
# Paths and quadrature


_GL_NODES_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# The most nodes one array job of ``detour_walks`` holds, so that many paths
# at once do not raise peak memory.  A job's cost is mostly per job, not per
# node: 2,048 nodes run the pipeline faster than 1,024 with peak memory flat,
# while 4,096 raise it with no further gain.
NODE_BUDGET = 2048

# The most points of a block of ``grid_columns``: blocks of 2,048 points
# raise the peak memory of a 100-by-100 ``eval-kernel`` grid, with no gain
# in time over 1,024.
GRID_BUDGET = 1024


def _legval(x: np.ndarray, c: list[float]) -> np.ndarray:
    """The Legendre series c at x by Clenshaw recursion, operation for
    operation as numpy.polynomial.legendre.legval."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule mapped to [0, 1].  The rule is
    numpy.polynomial.legendre.leggauss(n) bit for bit, computed as it is
    there: importing numpy.polynomial would cost every run 3-4 ms."""
    if n not in _GL_NODES_CACHE:
        # the roots of P_n: the eigenvalues of its symmetric companion matrix,
        # improved by one Newton step
        scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
        off = np.arange(1, n) * scl[: n - 1] * scl[1:]
        x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        pn = [0.0] * n + [1.0]
        dpn = [float(2 * k + 1) if (n - 1 - k) % 2 == 0 else 0.0 for k in range(n)]  # P_n'
        dy, df = _legval(x, pn), _legval(x, dpn)
        x -= dy / df
        # weights c / (P_n'(x) P_{n-1}(x)), scaled to sum to 2, and symmetrized
        fm = _legval(x, pn[1:])
        fm /= np.abs(fm).max()
        df /= np.abs(df).max()
        w = 1 / (fm * df)
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
        w *= 2.0 / w.sum()
        _GL_NODES_CACHE[n] = ((x + 1) / 2, w / 2)
    return _GL_NODES_CACHE[n]


def _on_segments(a: np.ndarray, d: np.ndarray, t: np.ndarray, w: np.ndarray):
    """Nodes a + t d and weights w d of the rule (t, w) on every segment
    [a, a + d], one row per segment."""
    return a[:, None] + t * d[:, None], w * d[:, None]


def _bisect(a: np.ndarray, b: np.ndarray, toward: Optional[np.ndarray] = None):
    """The pieces of the segments [a[i], b[i]], each halved until it is at
    most 0.25 long and, given ``toward``, at most half its midpoint's
    distance from toward[i] (but not below 1e-6), or 40 times: all segments
    a level at a time, with Python's complex rounding.  Returns the pieces'
    starts, ends and segments, in segment order and along each segment."""
    n = a.size
    t = np.zeros(n, dtype=complex) if toward is None else toward
    # one row per quantity, one column per piece still being halved
    rows = np.array([a.real, a.imag, b.real, b.imag, t.real, t.imag, np.arange(n), np.zeros(n)])
    pieces = [rows[:, :0]]
    depth = 0
    while rows.shape[1]:
        ar, ai, br, bi, tr, ti, _, pos = rows
        length = np.hypot(br - ar, bi - ai)  # abs(b - a)
        sr, si = ar + br, ai + bi
        # (a + b) / 2 as Python divides a complex number by 2
        mr, mi = (sr + si * 0.0) / 2.0, (si - sr * 0.0) / 2.0
        limit = 0.25
        if toward is not None:
            limit = np.minimum(limit, np.maximum(0.5 * np.hypot(mr - tr, mi - ti), 1e-6))
        done = (length <= limit) | (depth >= 40)
        pieces.append(rows[:, done])
        go = ~done
        depth += 1
        left, right = rows[:, go], rows[:, go]
        left[2], left[3] = mr[go], mi[go]
        right[0], right[1], right[7] = mr[go], mi[go], pos[go] + 0.5**depth
        rows = np.concatenate([left, right], axis=1)
    ar, ai, br, bi, _, _, seg, pos = np.concatenate(pieces, axis=1)
    order = np.lexsort((pos, seg))
    starts, ends = ar.astype(complex), br.astype(complex)
    starts.imag, ends.imag = ai, bi
    return starts[order], ends[order], seg.astype(int)[order]


def _detour_plan(a: complex, b: complex, c: complex, radius: Optional[float], side: float):
    """The detour from a to b around c (``Path.detour``) and its radius: the
    legs (p, q) in path order, with the arc's angles (th1, th2) in place."""
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
    foot = abs(a + t_foot * d - c)
    dist = foot if 0 <= t_foot <= 1 else min(abs(a - c), abs(b - c))
    if dist >= radius:
        return [(a, b)], radius
    half = math.sqrt(max(radius**2 - foot**2, 0.0)) / length
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
    # project arc endpoints exactly onto the circle
    q1 = c + radius * cmath.exp(1j * th1)
    q2 = c + radius * cmath.exp(1j * th2)
    legs = [(a, p1, 1e-14), (p1, q1, 1e-13), None, (q2, p2, 1e-13), (p2, b, 1e-14)]
    plan = [(th1, th2) if leg is None else leg[:2] for leg in legs if leg is None or abs(leg[1] - leg[0]) > leg[2]]
    return plan, radius


class Walks:
    """Paths laid end to end for one array job: xs, ys and dz hold the nodes
    of each path in path order, path after path; path k has sizes[k] nodes
    and is path index[k] of the batch it was cut from."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, dz: np.ndarray, sizes: np.ndarray, index: np.ndarray):
        self.xs, self.ys, self.dz, self.sizes, self.index = xs, ys, dz, sizes, index

    def integrate(self, one_form: Callable[[np.ndarray, np.ndarray, np.ndarray], object]):
        """The integral over each path of a 1-form whose values at all nodes
        one_form(xs, ys, dz) gives, summed in node order: one total per
        path.  A tuple of arrays integrates that many 1-forms, each summed
        as it would be alone.  A non-finite total raises InvalidValueError
        at the first node of its path with a non-finite partial sum.  This
        is the one summation over a path."""
        # a fault in the 1-form's own sums and products, or in the summation,
        # leaves a non-finite partial sum, refused by _totals
        with np.errstate(over="ignore", invalid="ignore"):
            values = one_form(self.xs, self.ys, self.dz)
            parts = values if isinstance(values, tuple) else (values,)
            totals = [self._totals(np.broadcast_to(v, self.dz.shape)) for v in parts]
        return tuple(totals) if isinstance(values, tuple) else totals[0]

    def _totals(self, values: np.ndarray) -> np.ndarray:
        """Each path's sum of ``values``, added in node order (cumsum, where
        sum would add pairwise), from one row per path padded with zeros."""
        rows = np.zeros((self.sizes.size, max(1, int(self.sizes.max(initial=0)))), dtype=complex)
        rows[np.arange(rows.shape[1]) < self.sizes[:, None]] = values
        partial = np.cumsum(rows, axis=1)
        totals = np.where(self.sizes > 0, partial[np.arange(self.sizes.size), self.sizes - 1], 0j)
        bad = np.flatnonzero(~np.isfinite(totals))
        if bad.size:
            path = bad[0]
            k = self.sizes[:path].sum() + int(np.argmin(np.isfinite(partial[path])))
            node = PlanePoint(float(self.xs[k]), float(self.ys[k]))
            raise InvalidValueError(f"non-finite integral at node {node}")
        return totals


def detour_walks(start, end, avoid, radius: Optional[float] = None, side: float = 1.0) -> Iterator[Walks]:
    """The detour paths (``Path.detour``) from start[k] to end[k] around
    avoid[k] (complex arrays that broadcast), cut in order into batches of
    whole paths of at most ``NODE_BUDGET`` nodes, or one longer
    path.  Each plan has the scalar arithmetic of one detour; then all legs
    are halved in one bisection and each batch's lines and arcs are built
    as arrays of 16 nodes a piece, bit for bit the nodes of one detour
    each."""
    t, w = _gauss_legendre(16)
    columns = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (start, end, avoid)))
    legs, arcs, parts = [], [], [0]  # parts[k]: the parts of the paths before path k
    for a, b, c in zip(*(v.ravel().tolist() for v in columns)):
        plan, r = _detour_plan(a, b, c, radius, side)
        for part in plan:
            if isinstance(part[0], complex):
                legs.append((*part, c, len(legs) + len(arcs)))
            else:
                arcs.append((*part, c, r, len(legs) + len(arcs)))
        parts.append(len(legs) + len(arcs))

    def table(rows: list, dtypes: tuple) -> list[np.ndarray]:
        return [np.array(v, dtype=d) for v, d in zip(zip(*rows) if rows else [()] * len(dtypes), dtypes)]

    leg_a, leg_b, leg_c, leg_part = table(legs, (complex, complex, complex, int))
    arc_th1, arc_th2, arc_c, arc_r, arc_part = table(arcs, (float, float, complex, float, int))
    line_a, line_b, leg = _bisect(leg_a, leg_b, leg_c)
    # each arc in equal pieces of at most 0.2 rad, from angle arc_a to arc_b
    pieces = np.maximum(1, np.ceil(np.abs(arc_th2 - arc_th1) / 0.2)).astype(int)
    arc = np.repeat(np.arange(pieces.size), pieces)
    k = np.arange(arc.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    span, n, th0 = (arc_th2 - arc_th1)[arc], pieces[arc], arc_th1[arc]
    arc_a, arc_b = th0 + span * k / n, th0 + span * (k + 1) / n
    # every piece of every path in path order: by part, then along the part
    lines = line_a.size
    part = np.concatenate([leg_part[leg], arc_part[arc]])
    order = np.lexsort((np.concatenate([np.arange(lines), k]), part))
    bounds = np.concatenate([[0], np.cumsum(np.bincount(part, minlength=parts[-1]))])[parts]
    sizes = np.diff(bounds) * len(t)
    ends = np.cumsum(sizes)
    first = 0
    while first < sizes.size:
        done = ends[first - 1] if first else 0
        last = max(first + 1, int(np.searchsorted(ends, done + NODE_BUDGET, side="right")))
        rows = order[bounds[first]:bounds[last]]
        line = rows < lines
        i, j = rows[line], rows[~line] - lines  # line pieces, arc pieces
        nodes, dz = np.empty((2, rows.size, len(t)), dtype=complex)
        nodes[line], dz[line] = _on_segments(line_a[i], line_b[i] - line_a[i], t, w)
        th, dth = _on_segments(arc_a[j], arc_b[j] - arc_a[j], t, w)
        e, r = np.exp(1j * th), arc_r[arc[j]][:, None]
        nodes[~line], dz[~line] = arc_c[arc[j]][:, None] + r * e, dth * 1j * r * e
        nodes = nodes.ravel()
        yield Walks(nodes.real.copy(), nodes.imag.copy(), dz.ravel(), sizes[first:last], np.arange(first, last))
        first = last


def detour_integrals(start, end, avoid, one_form: Callable, frozen: tuple, side: float = 1.0) -> list:
    """Per 1-form, the integrals over each detour path of ``detour_walks`` of
    the tuple of 1-forms one_form(xs, ys, dz, *columns) gives, one array
    job per batch: ``frozen`` holds values per path (a number for every
    path), and ``columns`` holds them at every node."""
    totals = []
    for walks in detour_walks(start, end, avoid, side=side):
        columns = [v if np.ndim(v) == 0 else np.repeat(v[walks.index], walks.sizes) for v in frozen]
        totals.append(walks.integrate(lambda xs, ys, dz: one_form(xs, ys, dz, *columns)))
    return [np.concatenate(t) for t in zip(*totals)]


class Path(Walks):
    """A quadrature-ready path: node coordinates xs, ys and dz weights, one
    entry per node in path order, plus endpoints: ``Walks`` of one path.

    The dz weight at a node is gamma'(t) times the quadrature weight, as a
    complex number dx + i dy; line integrals of any 1-form in dx, dy, dz
    are assembled from it.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, dz: np.ndarray, start: PlanePoint, end: PlanePoint):
        super().__init__(xs, ys, dz, np.array([xs.size]), np.zeros(1, dtype=int))
        self.start, self.end = start, end

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
    def polyline(points: Sequence[PlanePoint], nodes_per_segment: int = 16) -> "Path":
        """Composite Gauss-Legendre quadrature over a polyline, its segments
        halved until each piece is at most 0.25 long (``_bisect``)."""
        pts = np.array([p.as_complex for p in points], dtype=complex)
        a, b = pts[:-1][pts[:-1] != pts[1:]], pts[1:][pts[:-1] != pts[1:]]
        starts, ends, _ = _bisect(a, b)
        nodes, dz = _on_segments(starts, ends - starts, *_gauss_legendre(nodes_per_segment))
        return Path._of(nodes.ravel(), dz.ravel(), points[0], points[-1])

    @staticmethod
    def circle(center: PlanePoint, radius: float, nodes: int = 512) -> "Path":
        """Closed circle, trapezoid rule (spectrally accurate when periodic)."""
        c = center.as_complex
        dt = 2 * math.pi / nodes
        e = np.exp(1j * (np.arange(nodes) * dt))
        start = PlanePoint(c.real + radius, c.imag)
        return Path._of(c + radius * e, 1j * radius * e * dt, start, start)

    # -- integration --------------------------------------------------------

    def integrate(self, one_form: Callable[[np.ndarray, np.ndarray, np.ndarray], object]):
        """∫ of a 1-form over the path: ``Walks.integrate``, its one total."""
        totals = super().integrate(one_form)
        return tuple(complex(t[0]) for t in totals) if isinstance(totals, tuple) else complex(totals[0])


# ---------------------------------------------------------------------------
# Region grids (for pair checks, residual scans and kernel tables)


def cell_centres(a: float, b: float, n: int) -> list[float]:
    """Centres of the n equal cells of [a, b], from a to b."""
    return [a + (i + 0.5) * (b - a) / n for i in range(n)]


def grid_columns(
    x0: float, x1: float, y0: float, y1: float, nx: int, ny: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The centres of the nx-by-ny grid of equal cells over [x0, x1] x
    [y0, y1] as arrays xs, ys, column by column (increasing y for each x,
    the x increasing), a block of whole columns of at most ``GRID_BUDGET``
    points, or one column, at a time."""
    ys = cell_centres(y0, y1, ny)
    xs = cell_centres(x0, x1, nx)
    step = max(1, GRID_BUDGET // ny)
    for k in range(0, nx, step):
        block = xs[k:k + step]
        yield np.repeat(block, ny), np.tile(ys, len(block))


class RegionGrid:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]: where pairs are checked
    and residuals sampled."""

    def __init__(self, x0: float, x1: float, y0: float, y1: float):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1

    def sample_columns(self, n: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """The centres of the n-by-n grid of equal cells as arrays xs, ys,
        in the order of ``grid_columns``."""
        xs, ys = zip(*grid_columns(self.x0, self.x1, self.y0, self.y1, n, n))
        return np.concatenate(xs), np.concatenate(ys)


# ---------------------------------------------------------------------------
# The conjugate transform


def tf_densities(u: tuple, f: tuple, dz: np.ndarray) -> tuple:
    """-(f^2 d(u/f)/dy) dx + (f^2 d(u/f)/dx) dy at every node for u = u1
    and for u = u2 of u1 + j u2, u and the scalar f each a (value, d/dx,
    d/dy) triple of node values (``Field.partials``)."""
    (f0, _), (fx, _), (fy, _) = f
    return tuple(-(uy * f0 - v * fy) * dz.real + (ux * f0 - v * fx) * dz.imag for v, ux, uy in zip(*u))


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
        return tf_densities(u.partials(xs, ys), f.partials(xs, ys), dz)

    t1, t2 = path.integrate(one_form)
    fend = f(path.end).sc
    if fend == 0:
        raise CalculusError(f"f vanishes at path endpoint {path.end}")
    return Bicomplex(t1 / fend, t2 / fend)
