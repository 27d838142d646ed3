"""Test oracles: reference code that no command of the library reaches,
kept here so that the tests compare against it."""

from __future__ import annotations

import cmath
import operator
from typing import Optional

import numpy as np

from bivekua.bicomplex import Bicomplex, PlanePoint
from bivekua.calculus import Path, RegionGrid, detour_walks, grid_columns
from bivekua.expr import Call, Expr, Num, Pow, Var
from bivekua.fields import Field, Kernel, d_zbar
from bivekua.pairs import GeneratingPair, pair_operator
from bivekua.schroedinger import MainVekuaProblem


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _log(v):
    if v == 0:
        raise ValueError("log of 0")
    return cmath.log(v)


# The functions of a tree at one point: cmath's, with log of 0 a fault, and
# abs2(v) = v * v (real-argument semantics).  FAULTS are the errors they and
# Python's arithmetic raise there.
CMATH = {
    "exp": cmath.exp, "log": _log, "sin": cmath.sin, "cos": cmath.cos,
    "sinh": cmath.sinh, "cosh": cmath.cosh, "sqrt": cmath.sqrt, "abs2": lambda v: v * v,
}
FAULTS = (ZeroDivisionError, OverflowError, ValueError)
# The same functions on numpy, a real argument taken as complex.
NUMPY = {
    **{name: (lambda f: lambda v: f(np.asarray(v, dtype=complex)))(getattr(np, name)) for name in CMATH if name != "abs2"},
    "abs2": CMATH["abs2"],
}


def fault_message(exc: Exception) -> str:
    """The text of a fault of ``CMATH`` or of Python's arithmetic, as an
    EvaluationError gives it: an overflow of a float power carries an errno
    tuple as its text."""
    if isinstance(exc, ZeroDivisionError):
        return "division by zero"
    if isinstance(exc, OverflowError) and len(exc.args) > 1:
        return "result outside the double range"
    return str(exc)


def evaluate(e: Expr, point: dict, table: dict = CMATH):
    """e at ``point`` (variable name -> value), node by node down the tree:
    a subtree reached twice is evaluated twice.  Each Call takes its
    function from ``table`` (``CMATH`` or ``NUMPY``), and + - * / and
    integer powers are Python's operators."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return point[e.name]
    if isinstance(e, Pow):
        return evaluate(e.base, point, table) ** e.exponent
    if isinstance(e, Call):
        return table[e.func](evaluate(e.arg, point, table))
    return _ARITHMETIC[e.op](evaluate(e.left, point, table), evaluate(e.right, point, table))


def isclose(a: Bicomplex, b: Bicomplex, tol: float = 1e-12) -> bool:
    """Tolerance scaled by max(1, |a|, |b|)."""
    return (a - b).norm <= tol * max(1.0, a.norm, b.norm)


def detour_path(start: PlanePoint, end: PlanePoint, avoid: PlanePoint, side: float = 1.0) -> Path:
    """Straight path from start to end with a circular-arc detour
    around ``avoid`` when the segment passes too close to it (the path
    of ``detour_walks`` for these points)."""
    (walks,) = detour_walks(start.as_complex, end.as_complex, avoid.as_complex, side)
    return Path(walks.xs, walks.ys, walks.dz, start, end)


def abar_antiderivative(w: Field, path: Path) -> complex:
    """2 ∫ (u dx + v dy) for W = u + jv; solves d_zbar(phi) = W when the
    compatibility condition u_y = v_x holds."""

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray) -> tuple:
        sc, vec = w.on(xs, ys)
        return (sc * dz.real + vec * dz.imag,)

    (total,) = path.integrate(one_form)
    return 2 * total


def midpoints(x0: float, x1: float, y0: float, y1: float, nx: int, ny: int) -> list[PlanePoint]:
    """The points of ``grid_columns``, in its order."""
    columns = grid_columns(x0, x1, y0, y1, nx, ny)
    return [PlanePoint(x, y) for xs, ys in columns for x, y in zip(xs.tolist(), ys.tolist())]


def _steps(z: PlanePoint, h: float, axis: str) -> tuple[PlanePoint, PlanePoint]:
    """z + h and z - h in ``axis`` ("x" or "y")."""
    if axis == "x":
        return PlanePoint(z.x + h, z.y), PlanePoint(z.x - h, z.y)
    return PlanePoint(z.x, z.y + h), PlanePoint(z.x, z.y - h)


def central_difference(func, z: PlanePoint, h: float, axis: str) -> Bicomplex:
    """d func / d axis at z (axis "x" or "y"), by the central difference of
    ``Bicomplex`` values with step h."""
    plus, minus = _steps(z, h, axis)
    return (func(plus) - func(minus)).scale(1 / (2 * h))


def second_difference(func, z: PlanePoint, h: float, axis: str) -> Bicomplex:
    """d2 func / d axis2 at z (axis "x" or "y"), by the second difference
    of ``Bicomplex`` values with step h."""
    plus, minus = _steps(z, h, axis)
    value = func(z)
    return ((func(plus) - value) - (value - func(minus))).scale(1 / (h * h))


def at_point(w: Field, z: PlanePoint) -> Bicomplex:
    """w at z by its array face at a one-node array: the value a check on
    arrays sees there (a call, on numbers, may round otherwise)."""
    sc, vec = w.on(np.array([z.x]), np.array([z.y]))
    return Bicomplex(sc[0], vec[0])


def scalar_vekua_residual(w: Field, pair: GeneratingPair, z: PlanePoint, h: Optional[float] = None) -> float:
    """|d_zbar W - a W - b conj_j(W)| at z, point by point on ``Bicomplex``
    values (``at_point``): from the exact partials of W, or given a step h,
    from its central differences, for a field without partials."""
    w_at = lambda p: at_point(w, p)  # noqa: E731
    fx, fy = (at_point(w.dx, z), at_point(w.dy, z)) if h is None else (central_difference(w_at, z, h, a) for a in "xy")
    return pair_operator(d_zbar(fx, fy), at_point(pair.a, z), at_point(pair.b, z), w_at(z)).norm


def scalar_schroedinger_residual(u: Field, q: Field, z: PlanePoint, h: Optional[float] = None) -> float:
    """|Laplacian u - q u| at z, point by point on ``Bicomplex`` values
    (``at_point``): exact from the partials of u, or given a step h, by
    second differences at z + h and z - h in x and in y."""
    u_at = lambda p: at_point(u, p)  # noqa: E731
    if h is None:
        laplacian = at_point(u.dx.dx, z) + at_point(u.dy.dy, z)
    else:
        laplacian = second_difference(u_at, z, h, "x") + second_difference(u_at, z, h, "y")
    return (laplacian - at_point(q, z) * u_at(z)).norm


class _Held(Field):
    """zeta -> kernel(zeta, z), z held: the kernel's own call and face."""

    def __init__(self, kernel: Kernel, z: PlanePoint, partial=None):
        super().__init__(lambda zeta: kernel(zeta, z), partial)
        self.kernel, self.z = kernel, z

    def on(self, xs, ys):
        return self.kernel.on(xs, ys, self.z.x, self.z.y)


def kernel_in_zeta(k: Kernel, z: PlanePoint) -> Field:
    """zeta -> k(zeta, z), z held: a Field of zeta on the kernel's own calls
    and array face, with exact partials from its partial kernels in xi and
    eta (``Field.diff``)."""
    return _Held(k, z, {"x": _Held(k.diff("xi"), z), "y": _Held(k.diff("eta"), z)}.__getitem__)


def is_successor(candidate: GeneratingPair, base: GeneratingPair, region: RegionGrid) -> bool:
    """True iff a_candidate = a_base and b_candidate = -B_base to 1e-8 on a
    20-by-20 sample grid."""
    for p in midpoints(region.x0, region.x1, region.y0, region.y1, 20, 20):
        if (candidate.a(p) - base.a(p)).norm > 1e-8:
            return False
        if (candidate.b(p) + base.B(p)).norm > 1e-8:
            return False
    return True


def x_problem(region=None) -> MainVekuaProblem:
    return MainVekuaProblem.from_f(Field.from_exprs("x"), region)
