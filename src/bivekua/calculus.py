"""Analytic operator toolbox: the conjugate-building transform, together
with the path quadrature and the region grids it and the checks need.

A path holds its nodes and weights as numpy arrays.  A path integral
evaluates its integrand on all nodes at once and sums the values in node
order (``Walks.integrate``).  Detour paths (``detour_walks``) and copies of
one contour (``copies``) are laid end to end, so that one array job
evaluates and sums many, whole paths of at most ``NODE_BUDGET`` nodes at a
time: ``integrals`` is the one loop over the jobs.

Lines and arcs take the one 16-point Gauss-Legendre rule, held as literals
(``GL_NODES``, ``GL_WEIGHTS``): no path computes a rule, so no run makes a
LAPACK call.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .bicomplex import Bicomplex, InvalidValueError, PlanePoint
from .fields import Field


class CalculusError(Exception):
    pass


class PathThroughSingularityError(CalculusError):
    pass


class ContourError(CalculusError, ValueError):
    """A contour argument outside the bounds the CLI's contour keys have."""


# ---------------------------------------------------------------------------
# Paths and quadrature


# The most nodes one array job of ``detour_walks`` holds, so that many paths
# at once do not raise peak memory.  A job's cost is mostly per job, not per
# node: 2,048 nodes run the pipeline faster than 1,024 with peak memory flat,
# while 4,096 raise it with no further gain.
NODE_BUDGET = 2048

# Every piece of a detour, leg or arc, is at most PIECE_LENGTH long and at
# most PIECE_RATIO times its distance from the avoided point.  The 16-point
# Gauss-Legendre error on a piece is at most (64/15) M rho^-32 / (rho^2 - 1),
# rho the Bernstein ellipse parameter of the nearest singularity: a pole a
# piece's length from its midpoint gives rho >= 2 + sqrt(3), so rho^-32 is
# about 5e-19.  The length cap guards against singularities the walk does
# not know, such as zeros of f.
PIECE_LENGTH = 0.25
PIECE_RATIO = 1.0

# A detour refuses a path end within this distance of the point it avoids.
EXCLUSION = 1e-12

# The most points of a block of ``grid_columns``: blocks of 2,048 points
# raise the peak memory of a 100-by-100 ``eval-kernel`` grid, with no gain
# in time over 1,024.
GRID_BUDGET = 1024


# The 16-point Gauss-Legendre rule mapped to [0, 1]: the literals are
# numpy.polynomial.legendre.leggauss(16) bit for bit.  Computing it takes an
# eigenvalue solve, which starts LAPACK (0.9 MB and about 1 ms a process),
# and importing numpy.polynomial would cost every run 3-4 ms.
GL_NODES = (np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
]) + 1) / 2
GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
]) / 2


def _on_segments(a: np.ndarray, d: np.ndarray, t: np.ndarray, w: np.ndarray):
    """Nodes a + t d and weights w d of the rule (t, w) on every segment
    [a, a + d], one row per segment."""
    return a[:, None] + t * d[:, None], w * d[:, None]


def _bisect(a: np.ndarray, b: np.ndarray, toward: Optional[np.ndarray] = None):
    """The pieces of the segments [a[i], b[i]], each halved until it is at
    most ``PIECE_LENGTH`` long and, given ``toward``, at most
    ``PIECE_RATIO`` times its midpoint's distance from toward[i] (but not
    below 1e-6), or 40 times: all segments a level at a time, with Python's
    complex rounding.  Returns the pieces' starts, ends and segments, in
    segment order and along each segment."""
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
        limit = PIECE_LENGTH
        if toward is not None:
            limit = np.minimum(limit, np.maximum(PIECE_RATIO * np.hypot(mr - tr, mi - ti), 1e-6))
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


def _detour_plan(a: complex, b: complex, c: complex, side: float):
    """The detour from a to b around c and its radius: the legs (p, q) in
    path order, with the arc's angles (th1, th2) in place."""
    if abs(a - c) < EXCLUSION or abs(b - c) < EXCLUSION:
        raise PathThroughSingularityError("path endpoint coincides with the excluded point")
    radius = min(0.5 * abs(a - c), 0.5 * abs(b - c))
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

    def integrate(self, one_form: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]) -> tuple:
        """The integrals over each path of the 1-forms whose values at all
        nodes one_form(xs, ys, dz) gives as a tuple of arrays: per 1-form,
        one total per path, summed in node order as it would be alone.  A
        non-finite total raises InvalidValueError at the first node of its
        path with a non-finite partial sum.  The one summation over a path."""
        # a fault in the 1-form's own sums and products, or in the summation,
        # leaves a non-finite partial sum, refused by _totals
        with np.errstate(over="ignore", invalid="ignore"):
            values = one_form(self.xs, self.ys, self.dz)
            return tuple(self._totals(np.broadcast_to(v, self.dz.shape)) for v in values)

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


def detour_walks(start, end, avoid, side: float = 1.0) -> Iterator[Walks]:
    """The detour paths from start[k] to end[k] around avoid[k] (complex
    arrays that broadcast), arcs on ``side``, cut in order into batches of
    whole paths of at most ``NODE_BUDGET`` nodes, or one longer
    path.  Each plan has the scalar arithmetic of one detour; then all legs
    are halved in one bisection and each batch's lines and arcs are built
    as arrays of 16 nodes a piece, bit for bit the nodes of one detour
    each.  Every piece, leg or arc, is at most ``PIECE_LENGTH`` long and at
    most ``PIECE_RATIO`` times its distance from avoid[k], which puts the
    16-point rule's error bound far below rounding (rho^-32 about 5e-19):
    a leg is halved until its midpoint is that far (``_bisect``), and an
    arc of radius r is cut into equal pieces of at most min(PIECE_RATIO
    rad, PIECE_LENGTH / r)."""
    t, w = GL_NODES, GL_WEIGHTS
    columns = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (start, end, avoid)))
    legs, arcs, parts = [], [], [0]  # parts[k]: the parts of the paths before path k
    for a, b, c in zip(*(v.ravel().tolist() for v in columns)):
        plan, r = _detour_plan(a, b, c, side)
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
    # each arc of radius r in equal pieces, from angle arc_a to arc_b, of at
    # most PIECE_RATIO rad (a piece of t rad is t r long and r from the
    # avoided point) and at most PIECE_LENGTH long
    step = np.minimum(PIECE_RATIO, PIECE_LENGTH / arc_r)
    pieces = np.maximum(1, np.ceil(np.abs(arc_th2 - arc_th1) / step)).astype(int)
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
    for first, last in _jobs(sizes):
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


def _jobs(sizes: np.ndarray) -> Iterator[tuple[int, int]]:
    """The paths first..last - 1 of each array job, of paths of sizes[k]
    nodes: whole paths of at most ``NODE_BUDGET`` nodes, or one longer one."""
    ends, first = np.cumsum(sizes), 0
    while first < sizes.size:
        last = max(first + 1, int(np.searchsorted(ends, (ends[first - 1] if first else 0) + NODE_BUDGET, "right")))
        yield first, last
        first = last


def copies(path: "Path", count: int) -> Iterator[Walks]:
    """``count`` copies of ``path`` laid end to end, cut into array jobs as
    ``detour_walks`` cuts its paths: copy k is path k of the batch."""
    sizes = np.full(count, path.xs.size)
    for first, last in _jobs(sizes):
        xs, ys, dz = (np.tile(v, last - first) for v in (path.xs, path.ys, path.dz))
        yield Walks(xs, ys, dz, sizes[first:last], np.arange(first, last))


def integrals(jobs: Iterable[Walks], one_form: Callable, columns: Sequence) -> list[np.ndarray]:
    """Per 1-form, the integrals over each path of the array jobs ``jobs`` of
    the tuple of 1-forms one_form(xs, ys, dz, *at) gives, ``at`` holding
    ``columns`` at every node: a column holds one value per path, or is a
    number for every path.  The one loop over array jobs."""
    totals = []
    for walks in jobs:
        at = [v if np.ndim(v) == 0 else np.repeat(v[walks.index], walks.sizes) for v in columns]
        totals.append(walks.integrate(lambda xs, ys, dz: one_form(xs, ys, dz, *at)))
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
    def polyline(points: Sequence[PlanePoint]) -> "Path":
        """Composite 16-point Gauss-Legendre quadrature over a polyline, its
        segments halved until each piece is at most 0.25 long (``_bisect``)."""
        pts = np.array([p.as_complex for p in points], dtype=complex)
        a, b = pts[:-1][pts[:-1] != pts[1:]], pts[1:][pts[:-1] != pts[1:]]
        starts, ends, _ = _bisect(a, b)
        nodes, dz = _on_segments(starts, ends - starts, GL_NODES, GL_WEIGHTS)
        return Path._of(nodes.ravel(), dz.ravel(), points[0], points[-1])

    @staticmethod
    def circle(center: PlanePoint, radius: float, nodes: int = 512) -> "Path":
        """Closed circle, trapezoid rule (spectrally accurate when periodic):
        ``nodes`` an integer of at least 1, ``radius`` finite, positive and
        not lost at ``center`` (center.x + radius != center.x, and in y)."""
        if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 1:
            raise ContourError(f"nodes must be an integer of at least 1, got {nodes!r}")
        if not (math.isfinite(radius) and radius > 0):
            raise ContourError(f"radius must be a finite positive number, got {radius!r}")
        if center.x + radius == center.x or center.y + radius == center.y:
            raise ContourError(f"radius {radius!r} is lost at center {center}: the nodes would round onto it")
        c = center.as_complex
        dt = 2 * math.pi / nodes
        e = np.exp(1j * (np.arange(nodes) * dt))
        start = PlanePoint(c.real + radius, c.imag)
        return Path._of(c + radius * e, 1j * radius * e * dt, start, start)

    # -- integration --------------------------------------------------------

    def integrate(self, one_form: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]) -> tuple:
        """∫ of each 1-form over the path: ``Walks.integrate``, one total each."""
        return tuple(complex(t[0]) for t in super().integrate(one_form))


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
