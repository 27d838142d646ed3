"""Bicomplex-valued closed forms and fields.

A ``Field`` is a bicomplex function of one plane point z, over (x, y), or
of two, zeta and z, over (xi, eta, x, y): a ``Kernel``.  Symbolic
(``SymBC``) and numeric (``Bicomplex``) values share one ring interface, so
a formula written on it (``d_z``, ``d_zbar`` here, ``pairs.pair_operator``)
runs on either.

One face evaluates every field: a call takes the points, and ``on`` one
column per variable, a number standing for every node.  A closed form is
compiled on its first use, to one program for its (sc, vec) parts, which
``on`` runs on numpy, falling back to the calls node by node
(``pointwise``) on a fault.  ``diff`` builds the exact partial field in a
variable, once, and ``partials`` gives the value and the first partials
from one program.  Every ``on`` gives a ``BicomplexArray``, the ring
interface on node values, so a formula written on it runs on all nodes at
once: the checks (``pairs.vekua_residual``,
``schroedinger.schroedinger_residual``) do, at one point as at many
(``at_nodes``).  ``differences``, a table of Taylor coefficients by central
differences, is the one finite-difference stencil.

Any other two-point function (a path kernel, a slot of a transfer or of a
chain) has a pair face (``PairFace``) that evaluates many pairs (zeta, z)
at once; plain evaluators run pair by pair (``pointwise``).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import expr as ex
from .bicomplex import Bicomplex, PlanePoint


def _program(trees: tuple, variables: tuple[str, ...], table: dict) -> Callable[..., tuple]:
    """The values of trees as one program bound to ``table``, computing their
    shared subexpressions once; constants need no code."""
    if all(isinstance(t, ex.Num) for t in trees):
        values = tuple(t.value for t in trees)
        return lambda *args: values
    return ex.compile_expr(trees, variables, table)


def _as_expr(v: Union[str, ex.Expr, float, complex], variables) -> ex.Expr:
    if isinstance(v, str):
        return ex.parse(v, variables)
    if isinstance(v, (int, float, complex)):
        return ex.Num(complex(v))
    return v


class SymBC(ex.Record):
    """A bicomplex-valued symbolic function: sc(vars) + j * vec(vars); its
    fields are never assigned after construction, which keeps the hash valid."""

    variables: tuple[str, ...]
    sc: ex.Expr
    vec: ex.Expr

    def __init__(self, variables: tuple[str, ...], sc: ex.Expr, vec: ex.Expr):
        self.variables, self.sc, self.vec = variables, sc, vec

    @staticmethod
    def make(sc, vec=0j, variables=("x", "y")) -> "SymBC":
        variables = tuple(variables)
        return SymBC(variables, _as_expr(sc, variables), _as_expr(vec, variables))

    # -- evaluation -------------------------------------------------------

    def _program(self, table: dict) -> Callable[..., tuple]:
        """The (sc, vec) values as one program bound to ``table``."""
        return _program((self.sc, self.vec), self.variables, table)

    def compiled(self) -> Callable[..., Bicomplex]:
        """The value as a function of the variables, built on first use."""
        cache = self.__dict__.get("_compiled")
        if cache is None:
            program = self._program(ex.CMATH)
            cache = lambda *a: Bicomplex(*program(*a))  # noqa: E731
            self._compiled = cache
        return cache

    def compiled_arrays(self) -> Callable[..., tuple]:
        """compiled() bound to numpy, built on first use: arrays in, the
        (sc, vec) values out; a constant part stays a number."""
        cache = self.__dict__.get("_compiled_arrays")
        if cache is None:
            cache = self._program(ex.NUMPY)
            self._compiled_arrays = cache
        return cache

    def __call__(self, *args) -> Bicomplex:
        return self.compiled()(*args)

    # -- algebra (bicomplex ring on expressions) --------------------------

    def _wrap(self, sc: ex.Expr, vec: ex.Expr) -> "SymBC":
        return SymBC(self.variables, ex.simplify(sc), ex.simplify(vec))

    def __add__(self, other: "SymBC") -> "SymBC":
        return self._wrap(ex.binop("+", self.sc, other.sc), ex.binop("+", self.vec, other.vec))

    def __sub__(self, other: "SymBC") -> "SymBC":
        return self._wrap(ex.binop("-", self.sc, other.sc), ex.binop("-", self.vec, other.vec))

    def __mul__(self, other: "SymBC") -> "SymBC":
        sc = ex.binop("-", ex.binop("*", self.sc, other.sc), ex.binop("*", self.vec, other.vec))
        vec = ex.binop("+", ex.binop("*", self.sc, other.vec), ex.binop("*", self.vec, other.sc))
        return self._wrap(sc, vec)

    def __neg__(self) -> "SymBC":
        return self._wrap(ex.neg(self.sc), ex.neg(self.vec))

    def conj(self) -> "SymBC":
        return self._wrap(self.sc, ex.neg(self.vec))

    def mul_j(self) -> "SymBC":
        return self._wrap(ex.neg(self.vec), self.sc)

    def scale(self, c: Union[complex, ex.Expr]) -> "SymBC":
        c = _as_expr(c, self.variables)
        return self._wrap(ex.binop("*", c, self.sc), ex.binop("*", c, self.vec))

    def inv(self) -> "SymBC":
        d = ex.simplify(ex.binop("+", ex.binop("*", self.sc, self.sc), ex.binop("*", self.vec, self.vec)))
        if d == ex.ZERO:
            # d folds to the constant 0 only when both parts are constants,
            # and sc/0 would fold to 0: invert the constant as Bicomplex.inv
            # does (zero, a zero divisor, or a d that underflowed)
            sc, vec = ex.simplify(self.sc), ex.simplify(self.vec)
            w = Bicomplex(sc.value, vec.value).inv()
            return SymBC.make(w.sc, w.vec, self.variables)
        return self._wrap(ex.binop("/", self.sc, d), ex.neg(ex.binop("/", self.vec, d)))

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "SymBC":
        return self._wrap(ex.diff(self.sc, var), ex.diff(self.vec, var))


# -- formulas on the shared ring interface (Bicomplex or SymBC values) -------


def d_z(fx, fy):
    """d_z = (1/2)(d/dx - j d/dy), from the partials fx, fy."""
    return (fx - fy.mul_j()).scale(0.5)


def d_zbar(fx, fy):
    """d_zbar = (1/2)(d/dx + j d/dy), from the partials fx, fy."""
    return (fx + fy.mul_j()).scale(0.5)


class StepError(ValueError):
    """A difference step too small for the nodes it is taken at."""


class MissingPartialError(ValueError):
    """An exact partial asked of a field built without partials."""


def _moves_every_node(h: float, xs: np.ndarray, ys: np.ndarray, degree: int) -> bool:
    """x + h, x - h, y + h and y - h differ from x and y at every node, and
    the highest differences' factor 1/h^degree is a finite number."""
    coords, power = np.concatenate([xs, ys]), math.prod([h] * degree)
    return power != 0 and math.isfinite(1 / power) and bool(np.all((coords + h != coords) & (coords - h != coords)))


def _central(a: int, at: Callable[[int], BicomplexArray]) -> BicomplexArray:
    """The central difference of unit step at offset 0, delta^a for even a
    and 2 mu delta^a for odd a, from at(k), the values at the integer
    offsets k, as repeated differences of neighbours: plus - minus for
    a = 1, (plus - value) - (value - minus) for a = 2."""
    if a % 2:
        return _central(a - 1, lambda k: at(k + 1)) - _central(a - 1, lambda k: at(k - 1))
    row = [at(k) for k in range(-a // 2, a // 2 + 1)]
    for _ in range(a):
        row = [q - p for p, q in zip(row, row[1:])]
    return row[0]


def differences(
    values: Callable[..., BicomplexArray], columns: Sequence, h: float, degree: int
) -> list[BicomplexArray]:
    """The Taylor coefficients in the last two columns (x, y) up to total
    degree ``degree`` at every node of the columns, in the graded order of
    ``jets`` (by total degree, then by the power of y): the partial
    d^(a+b)/dx^a dy^b over a! b!, as the product of the central differences
    of step h in x and in y (``_central``, each O(h^2)).  One call of
    values(*columns) evaluates every node at each offset (i h, j h) that a
    product weighs (5, 9 and 13 at degree 1, 2 and 3); values may stack
    several functions on leading axes, the nodes are on the last.  A step
    that leaves a node in place, or whose 1/h^degree is not finite, raises
    StepError (``_moves_every_node``)."""
    *rest, x, y = columns
    if not _moves_every_node(h, x, y, degree):
        raise StepError(f"step h = {h!r} is too small to move every node")
    monomials = [(s - b, b) for s in range(degree + 1) for b in range(s + 1)]
    reach = [range(-((a + 1) // 2), (a + 1) // 2 + 1) for a in range(degree + 1)]
    offsets = sorted({(i, j) for a, b in monomials for i in reach[a] for j in reach[b]})
    stencil = [np.tile(c, len(offsets)) for c in rest]
    stencil += [np.concatenate([c if k == 0 else c + k * h for k in ks]) for c, ks in zip((x, y), zip(*offsets))]
    parts = (np.moveaxis(np.reshape(p, np.shape(p)[:-1] + (len(offsets), -1)), -2, 0) for p in values(*stencil))
    at = dict(zip(offsets, (BicomplexArray(sc, vec) for sc, vec in zip(*parts))))
    table = []
    for a, b in monomials:
        d = _central(b, lambda j: _central(a, lambda i: at[i, j]))
        scale = 2 ** (a % 2 + b % 2) * math.prod([h] * (a + b)) * math.factorial(a) * math.factorial(b)
        table.append(d if a + b == 0 else d.scale(1 / scale))
    return table


def partials(w: "Field", z: PlanePoint) -> tuple[Bicomplex, Bicomplex, Bicomplex]:
    """The exact (value, d/dx, d/dy) of w at z."""
    return w(z), w.dx(z), w.dy(z)


def at_nodes(check: Callable[[np.ndarray, np.ndarray], np.ndarray], z) -> Union[float, np.ndarray]:
    """check(xs, ys), one number at every node (xs[k], ys[k]), at the
    columns z = (xs, ys); at a point z, the one number there, as a float:
    a check at one point is the same code at one node."""
    if isinstance(z, PlanePoint):
        return float(check(np.array([z.x]), np.array([z.y]))[0])
    return check(*z)


def _shape(columns: Sequence) -> tuple:
    """The shape of the nodes the columns give, a number standing for every
    node; numbers alone give one node."""
    shapes = set(map(np.shape, columns))
    return (shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)) or (1,)


def _spread(values, shape: tuple) -> np.ndarray:
    """values as a complex array of the given shape; a constant is repeated."""
    values = np.asarray(values, dtype=complex)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _finite(*parts) -> bool:
    """Every entry of the parts is finite.  A non-finite entry makes the sum
    non-finite; an overflow of the sum alone only reads as not finite."""
    return cmath.isfinite(sum(np.sum(p) for p in parts))


def _checked(arrays: Callable[[], tuple], scalar: Callable[[], list], columns: Sequence) -> list[BicomplexArray]:
    """The values of the (sc, vec) parts arrays() gives, each spread to the
    nodes of ``columns``, computed with division by zero, invalid operations
    and overflow raising.  On such a fault (a constant 0 to a negative power
    raises ZeroDivisionError, and a constant past the double range
    OverflowError, in Python arithmetic), or a non-finite value, scalar()
    instead: the scalar code, point by point, so a bad point raises the
    scalar call's own error (EvaluationError, InvalidValueError, ...) with
    that point."""
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            parts = arrays()
            finite = _finite(*parts)
        except (FloatingPointError, ZeroDivisionError, OverflowError):
            finite = False
    if not finite:
        return scalar()
    shape = _shape(columns)
    parts = [_spread(p, shape) for p in parts]
    return [BicomplexArray(*parts[i : i + 2]) for i in range(0, len(parts), 2)]


def _coordinates(columns: Sequence) -> list[list[float]]:
    """Each column at every node as Python floats, a number standing for every node."""
    shape = _shape(columns)
    return [np.broadcast_to(np.asarray(c, dtype=float), shape).ravel().tolist() for c in columns]


def _points(columns: Sequence):
    """The points of ``_coordinates``: (z,) from (x, y), (zeta, z) from (xi, eta, x, y)."""
    coords = _coordinates(columns)
    return zip(*(map(PlanePoint, a, b) for a, b in zip(coords[::2], coords[1::2])))


def pointwise(funcs: Sequence[Callable[..., Bicomplex]], *columns) -> list[BicomplexArray]:
    """Each func at every node of the columns (``_points``): func(z), or
    func(zeta, z).  The one loop that evaluates scalar callables on arrays:
    node by node in node order, and at each node the funcs in turn, back to
    back."""
    rows = [[func(*points) for func in funcs] for points in _points(columns)]
    return [
        BicomplexArray(
            np.array([row[i].sc for row in rows], dtype=complex),
            np.array([row[i].vec for row in rows], dtype=complex),
        )
        for i in range(len(funcs))
    ]


def _product(a, b) -> np.ndarray:
    """a * b for complex arrays or numbers, each part rounded as Python rounds
    a complex product: numpy's own complex multiply may fuse a product into
    the sum, which changes last bits."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


class BicomplexArray:
    """Bicomplex values sc + j vec at many nodes at once: sc and vec are
    complex arrays, or complex numbers that stand for every node.  The array
    face of the ring interface ``Bicomplex`` and ``SymBC`` share.

    The operations are those of ``Bicomplex``, op for op and rounded alike,
    so each node gets the value ``Bicomplex`` arithmetic gives it: ``*``
    forms the idempotent products as ``Bicomplex.__mul__`` does.  Where one
    of its results is not finite it multiplies node by node as ``Bicomplex``
    values instead, so that a product near the end of the double range, or
    a non-finite factor, behaves as it does on one node."""

    __slots__ = ("sc", "vec")

    def __init__(self, sc, vec) -> None:
        self.sc = sc
        self.vec = vec

    def __iter__(self):
        """sc, then vec: the parts unpack as ``sc, vec = values``."""
        return iter((self.sc, self.vec))

    def __add__(self, other: "BicomplexArray") -> "BicomplexArray":
        return BicomplexArray(self.sc + other.sc, self.vec + other.vec)

    def __sub__(self, other: "BicomplexArray") -> "BicomplexArray":
        return BicomplexArray(self.sc - other.sc, self.vec - other.vec)

    def __mul__(self, other: "BicomplexArray") -> "BicomplexArray":
        with np.errstate(over="ignore", invalid="ignore"):
            p, m = self.sc - 1j * self.vec, self.sc + 1j * self.vec
            q, n = other.sc - 1j * other.vec, other.sc + 1j * other.vec
            pq, mn = _product(p, q), _product(m, n)
            sc, vec = 0.5 * (pq + mn), 0.5j * (pq - mn)
            finite = _finite(sc, vec)
        if finite:
            return BicomplexArray(sc, vec)
        parts = np.broadcast_arrays(self.sc, self.vec, other.sc, other.vec)
        values = [
            Bicomplex(a, b) * Bicomplex(c, d)
            for a, b, c, d in zip(*(np.asarray(v, dtype=complex).ravel().tolist() for v in parts))
        ]
        shape = parts[0].shape
        return BicomplexArray(
            np.array([v.sc for v in values], dtype=complex).reshape(shape),
            np.array([v.vec for v in values], dtype=complex).reshape(shape),
        )

    def scale(self, c) -> "BicomplexArray":
        """Multiplication by a C_i scalar, or by one at every node."""
        return BicomplexArray(_product(c, self.sc), _product(c, self.vec))

    def conj(self) -> "BicomplexArray":
        return BicomplexArray(self.sc, -self.vec)

    def mul_j(self) -> "BicomplexArray":
        return BicomplexArray(-self.vec, self.sc)

    @property
    def norm(self) -> np.ndarray:
        """|W| = (|W+| + |W-|)/2 at every node, as ``Bicomplex.norm`` gives
        it; where that passes the double range on the way (a W+- or |W+-|
        past it), node by node as ``Bicomplex`` values."""
        sc, vec = np.broadcast_arrays(np.asarray(self.sc, dtype=complex), np.asarray(self.vec, dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            # hypot, as abs of a Python complex: numpy's complex abs differs
            # from it in last bits
            a, b = (np.hypot(p.real, p.imag) for p in (sc - 1j * vec, sc + 1j * vec))
            out = np.where(a + b < np.inf, 0.5 * (a + b), 0.5 * a + 0.5 * b)
        edge = ~np.isfinite(out)
        out[edge] = [Bicomplex(*parts).norm for parts in zip(sc[edge].tolist(), vec[edge].tolist())]
        return out


KERNEL_VARS = ("xi", "eta", "x", "y")


class Field:
    """A bicomplex function of plane points: of z over the variables
    (x, y), or of (zeta, z) over (xi, eta, x, y).

    ``sym`` is set only by ``from_sym``, whose evaluator is that closed form,
    compiled on its first call.  ``partial``, when given, builds the exact
    partial field in a variable, on the first ``diff`` in it; without it,
    asking for a partial raises MissingPartialError.  ``arrays``, when
    given, evaluates the same values on one array per variable, as its
    (sc, vec) parts (see ``on``).
    """

    def __init__(
        self,
        func: Callable[..., Bicomplex],
        arrays: Optional[Callable[..., tuple]] = None,
        partial: Optional[Callable[[str], "Field"]] = None,
    ):
        self._func = func
        self._arrays = arrays
        self._partial = partial
        self._diffs: dict[str, "Field"] = {}
        self._programs: dict[tuple[str, ...], Callable[..., tuple]] = {}
        self.sym: Optional[SymBC] = None

    @classmethod
    def from_sym(cls, sym: SymBC) -> "Field":
        """The closed form sym, over its variables; its partials are the
        same class."""
        if len(sym.variables) == 2:
            func = lambda z: sym.compiled()(z.x, z.y)  # noqa: E731
        else:
            func = lambda zeta, z: sym.compiled()(zeta.x, zeta.y, z.x, z.y)  # noqa: E731
        out = cls(func, lambda *columns: sym.compiled_arrays()(*columns), lambda var: cls.from_sym(sym.diff(var)))
        out.sym = sym
        return out

    @staticmethod
    def from_exprs(sc, vec=0j) -> "Field":
        return Field.from_sym(SymBC.make(sc, vec))

    @staticmethod
    def constant(w: Bicomplex) -> "Field":
        return Field.from_sym(SymBC.make(w.sc, w.vec))

    @staticmethod
    def with_partials(func: Callable[[PlanePoint], Bicomplex], dx: "Field", dy: "Field") -> "Field":
        """A callable field with explicitly supplied exact partials, for
        values defined by integrals whose derivatives are known in closed
        form even though the values themselves are not."""
        return Field(func, partial={"x": dx, "y": dy}.__getitem__)

    def __call__(self, *points: PlanePoint) -> Bicomplex:
        return self._func(*points)

    def on(self, *columns) -> BicomplexArray:
        """The field at every node of the columns, one per variable, a number
        standing for every node: its array code, ``_checked``, or without
        any, its calls node by node."""
        scalar = lambda: pointwise([self._func], *columns)  # noqa: E731
        if self._arrays is None:
            return scalar()[0]
        return _checked(lambda: self._arrays(*columns), scalar, columns)[0]

    def partials(self, *columns) -> tuple[BicomplexArray, ...]:
        """The field, d/dx and d/dy at every node of the columns, each as
        ``on`` gives it (``_partials``)."""
        return self._partials(("x", "y"), columns)

    def _partials(self, variables: tuple[str, ...], columns: Sequence) -> tuple[BicomplexArray, ...]:
        """The field and its partials in ``variables`` at every node of the
        columns, each as ``on`` gives it.  A closed form runs one program of
        them all, which computes their shared subexpressions once, and
        falls back to their separate ``on`` calls on a fault; a field
        without one runs those calls.  A missing partial raises before
        anything is evaluated (``diff``)."""
        fields = (self, *map(self.diff, variables))
        separate = lambda: [w.on(*columns) for w in fields]  # noqa: E731
        if self.sym is None:
            return tuple(separate())
        program = self._programs.get(variables)
        if program is None:
            trees = tuple(t for w in fields for t in (w.sym.sc, w.sym.vec))
            program = self._programs[variables] = _program(trees, self.sym.variables, ex.NUMPY)
        return tuple(_checked(lambda: program(*columns), separate, columns))

    def diff(self, var: str) -> "Field":
        """The exact partial field in ``var``, built once."""
        if var not in self._diffs:
            if self._partial is None:
                raise MissingPartialError(f"the field has no exact partial in {var!r}")
            self._diffs[var] = self._partial(var)
        return self._diffs[var]

    @property
    def dx(self) -> "Field":
        return self.diff("x")

    @property
    def dy(self) -> "Field":
        return self.diff("y")

    def bc_inv(self) -> "Field":
        return Field.from_sym(self.sym.inv())

    def mul_j(self) -> "Field":
        return Field.from_sym(self.sym.mul_j())


class PairFace:
    """A two-point function with a pair face ``on(xi, eta, x, y)``: its
    values at every pair ((xi[k], eta[k]), (x[k], y[k])), a number standing
    for every pair.  A call is the face at one pair, so a value is the same
    bit for bit in any batch (a ``Kernel``'s call is its cmath program, to
    which its face falls back on a fault)."""

    def __call__(self, zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        value = self.on(zeta.x, zeta.y, z.x, z.y)
        return Bicomplex(value.sc[0], value.vec[0])


# the variables of each argument of a two-point function
_ARGUMENTS = {"zeta": ("xi", "eta"), "z": ("x", "y")}


class Kernel(Field, PairFace):
    """A two-point closed form K(zeta, z): the ``Field`` of its ``sym`` over
    (xi, eta, x, y), called at (zeta, z)."""

    @staticmethod
    def make(sc, vec=0j) -> "Kernel":
        return Kernel.from_sym(SymBC.make(sc, vec, KERNEL_VARS))

    def partials(self, arg: str, xi, eta, x, y) -> tuple[BicomplexArray, ...]:
        """K and its partials in ``arg`` ("zeta": in (xi, eta), "z": in
        (x, y)) at every pair, from one program per argument."""
        return self._partials(_ARGUMENTS[arg], (xi, eta, x, y))

    def partial_kernels(self, arg: str) -> tuple["Kernel", ...]:
        """K and its partial kernels in ``arg``."""
        return (self, *map(self.diff, _ARGUMENTS[arg]))


def pairs_of(xi, eta, x, y) -> list[tuple[PlanePoint, PlanePoint]]:
    """The pairs (zeta, z) the columns give (``_points``)."""
    return list(_points((xi, eta, x, y)))


def in_order(batch: Callable[..., object], *columns):
    """batch(*columns), an array job over the nodes of the columns.  When it
    raises, the nodes run again one at a time as numbers (``_coordinates``),
    in order, so that the first that fails raises its own error."""
    try:
        return batch(*columns)
    except Exception:  # any error of a node's evaluation; always re-raised
        nodes = list(zip(*_coordinates(columns)))
        if len(nodes) > 1:
            for node in nodes:
                batch(*node)
        raise
