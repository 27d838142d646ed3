"""Bicomplex-valued fields over the plane.

A Field maps plane points to bicomplex values.  Symbolic (``SymBC``) and
numeric (``Bicomplex``) values share one ring interface, so a formula
written on it (``d_z``, ``d_zbar`` here, ``pairs.pair_operator``) runs on
either.

The fields f, the pairs and the potentials are built from expressions;
``partials`` reads the exact partials of those.  ``five_point`` is the one
finite-difference stencil: the Laplacian ``schroedinger_residual`` takes
at a given step ``h``, and the nested differences of ``powers``.  A
two-point function gives its partials in zeta or in z by ``partials``
(``powers.partials_at``): exact, but for those nested differences.

A symbolic value is compiled on its first call, to one program for its
(sc, vec) parts: a formula builds many fields, and few of them are ever
evaluated.  ``Field.on`` (``partials_on`` for the exact partials)
evaluates a field at every node of a path at once: compiled to numpy when
it has closed forms, else point by point in ``pointwise``.
``BicomplexArray`` is the ring interface on such node values, so a formula
written on it runs on all nodes at once: the checks (``pairs.vekua_residual``,
``schroedinger.schroedinger_residual``) do, at one point as at many
(``at_nodes``).

A two-point function with a pair face (``PairFace``: a ``Kernel``, a path
kernel, a slot of a transfer or of a chain) evaluates many pairs (zeta, z)
at once by ``on``; other evaluators run pair by pair (``pairwise``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import expr as ex
from .bicomplex import Bicomplex, PlanePoint


def _as_expr(v: Union[str, ex.Expr, float, complex], variables) -> ex.Expr:
    if isinstance(v, str):
        return ex.parse(v, variables)
    if isinstance(v, (int, float, complex)):
        return ex.Num(complex(v))
    return v


@dataclass(frozen=True)
class SymBC:
    """A bicomplex-valued symbolic function: sc(vars) + j * vec(vars)."""

    variables: tuple[str, ...]
    sc: ex.Expr
    vec: ex.Expr = ex.ZERO

    @staticmethod
    def make(sc, vec=0j, variables=("x", "y")) -> "SymBC":
        variables = tuple(variables)
        return SymBC(variables, _as_expr(sc, variables), _as_expr(vec, variables))

    # -- evaluation -------------------------------------------------------

    def _program(self, table: dict) -> Callable[..., tuple]:
        """The (sc, vec) values as one program bound to ``table``, computing
        the parts' shared subexpressions once; a constant needs no code."""
        if isinstance(self.sc, ex.Num) and isinstance(self.vec, ex.Num):
            value = (self.sc.value, self.vec.value)
            return lambda *args: value
        return ex.compile_expr((self.sc, self.vec), self.variables, table)

    def compiled(self) -> Callable[..., Bicomplex]:
        """The value as a function of the variables, built on first use."""
        cache = self.__dict__.get("_compiled")
        if cache is None:
            program = self._program(ex.CMATH)
            cache = lambda *a: Bicomplex(*program(*a))  # noqa: E731
            object.__setattr__(self, "_compiled", cache)
        return cache

    def compiled_arrays(self) -> Callable[..., tuple]:
        """compiled() bound to numpy, built on first use: arrays in, the
        (sc, vec) values out; a constant part stays a number."""
        cache = self.__dict__.get("_compiled_arrays")
        if cache is None:
            cache = self._program(ex.NUMPY)
            object.__setattr__(self, "_compiled_arrays", cache)
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


def _moves_every_node(h: float, xs: np.ndarray, ys: np.ndarray) -> bool:
    """x + h, x - h, y + h and y - h differ from x and y at every node, and
    the second difference's factor 1/h^2 is a finite number."""
    coords = np.concatenate([xs, ys])
    return h * h > 0 and math.isfinite(1 / (h * h)) and bool(np.all((coords + h != coords) & (coords - h != coords)))


def five_point(values: Callable[..., Values], columns: Sequence[np.ndarray], h: float) -> tuple["BicomplexArray", ...]:
    """The value, the first differences and the second differences of step
    h in the last two columns (x, y), at every node of the columns: one call
    of values(*columns) at every node's five points (the node, then x + h
    and x - h, then y + h and y - h).  values may stack several functions on
    leading axes; the nodes are on the last.  Returns (value, d/dx, d/dy,
    d2/dx2, d2/dy2), each rounded as the same difference of ``Bicomplex``
    values: (plus - minus)/(2h) and ((plus - value) - (value - minus))/h^2.
    A step that leaves a node in place, or whose 1/h^2 is not finite,
    raises StepError (``_moves_every_node``)."""
    *rest, x, y = columns
    if not _moves_every_node(h, x, y):
        raise StepError(f"step h = {h!r} is too small to move every node")
    stencil = [np.tile(c, 5) for c in rest]
    stencil += [np.concatenate([x, x + h, x - h, x, x]), np.concatenate([y, y, y, y + h, y - h])]
    parts = (np.moveaxis(np.reshape(p, np.shape(p)[:-1] + (5, -1)), -2, 0) for p in values(*stencil))
    value, xp, xm, yp, ym = (BicomplexArray(sc, vec) for sc, vec in zip(*parts))
    first = [(p - m).scale(1 / (2 * h)) for p, m in ((xp, xm), (yp, ym))]
    second = [((p - value) - (value - m)).scale(1 / (h * h)) for p, m in ((xp, xm), (yp, ym))]
    return (value, *first, *second)


def partials(w: "Field", z: PlanePoint) -> tuple[Bicomplex, Bicomplex, Bicomplex]:
    """The exact (value, d/dx, d/dy) of w at z."""
    return w(z), w.dx(z), w.dy(z)


Values = tuple[np.ndarray, np.ndarray]  # (sc, vec) at every node


def partials_on(w: "Field", xs: np.ndarray, ys: np.ndarray) -> tuple[Values, Values, Values]:
    """The exact (value, d/dx, d/dy) of w at every node (xs[k], ys[k]) at
    once, each as its (sc, vec) arrays."""
    return w.on(xs, ys), w.dx.on(xs, ys), w.dy.on(xs, ys)


def at_nodes(check: Callable[[np.ndarray, np.ndarray], np.ndarray], z) -> Union[float, np.ndarray]:
    """check(xs, ys), one number at every node (xs[k], ys[k]), at the
    columns z = (xs, ys); at a point z, the one number there, as a float:
    a check at one point is the same code at one node."""
    if isinstance(z, PlanePoint):
        return float(check(np.array([z.x]), np.array([z.y]))[0])
    return check(*z)


def _spread(values, shape: tuple) -> np.ndarray:
    """values as a complex array of the given shape; a constant is repeated."""
    values = np.asarray(values, dtype=complex)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _finite(*parts) -> bool:
    """Every entry of the parts is finite.  A non-finite entry makes the sum
    non-finite; an overflow of the sum alone only reads as not finite."""
    return cmath.isfinite(sum(np.sum(p) for p in parts))


def _checked(arrays: Callable[[], tuple], scalar: Callable[[], tuple], shape: tuple) -> tuple:
    """The arrays arrays() gives, each spread to ``shape``, computed with
    division by zero, invalid operations and overflow raising.  On such a
    fault (a constant 0 to a negative power raises ZeroDivisionError, and a
    constant past the double range OverflowError, in Python arithmetic), or
    a non-finite value, scalar() instead: the scalar code, point by point,
    so a bad point raises the scalar call's own error (EvaluationError,
    InvalidValueError, ...) with that point."""
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            parts = arrays()
            finite = _finite(*parts)
        except (FloatingPointError, ZeroDivisionError, OverflowError):
            finite = False
    if finite:
        return tuple(_spread(p, shape) for p in parts)
    return scalar()


def pointwise(
    funcs: Sequence[Callable[..., Bicomplex]], xs: np.ndarray, ys: np.ndarray, *columns
) -> list[Values]:
    """The (sc, vec) arrays of each func(PlanePoint(x, y), *column entries)
    at every node: the one loop that evaluates scalar callables on arrays.
    Node by node in node order, and at each node the funcs in turn, back
    to back."""
    nodes = zip(xs.tolist(), ys.tolist(), *(c.tolist() for c in columns))
    rows = [[func(PlanePoint(x, y), *rest) for func in funcs] for x, y, *rest in nodes]
    return [
        (
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
        """sc, then vec: the parts unpack as a pair of ``Values`` does."""
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


class Field:
    """Map PlanePoint -> Bicomplex, optionally with exact partials.

    ``sym`` is set only by ``from_sym``, whose evaluator is that closed form
    over (x, y), compiled on its first call.  ``partial``, when given,
    builds the exact partial field in "x" or "y", on the first ``dx``/``dy``
    read; without it they are None.
    ``arrays``, when given, evaluates the same values on arrays of x and y,
    as a pair (sc, vec) (see ``on``).
    """

    def __init__(
        self,
        func: Callable[[PlanePoint], Bicomplex],
        arrays: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None,
        partial: Optional[Callable[[str], "Field"]] = None,
    ):
        self._func = func
        self._arrays = arrays
        self._partial = partial
        self._partials: dict[str, "Field"] = {}
        self.sym: Optional[SymBC] = None

    @staticmethod
    def from_sym(sym: SymBC) -> "Field":
        out = Field(
            lambda z: sym.compiled()(z.x, z.y),
            lambda xs, ys: sym.compiled_arrays()(xs, ys),
            lambda axis: Field.from_sym(sym.diff(axis)),
        )
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

    def __call__(self, z: PlanePoint) -> Bicomplex:
        return self._func(z)

    def on(self, xs: np.ndarray, ys: np.ndarray) -> Values:
        """The (sc, vec) arrays of the field at every node (xs[k], ys[k]): its
        array code, ``_checked``, or without any, its calls node by node."""
        scalar = lambda: pointwise([self._func], xs, ys)[0]  # noqa: E731
        if self._arrays is None:
            return scalar()
        return _checked(lambda: self._arrays(xs, ys), scalar, xs.shape)

    def _derivative(self, axis: str) -> Optional["Field"]:
        if axis not in self._partials and self._partial is not None:
            self._partials[axis] = self._partial(axis)
        return self._partials.get(axis)

    @property
    def dx(self) -> Optional["Field"]:
        return self._derivative("x")

    @property
    def dy(self) -> Optional["Field"]:
        return self._derivative("y")

    def bc_inv(self) -> "Field":
        return Field.from_sym(self.sym.inv())

    def mul_j(self) -> "Field":
        return Field.from_sym(self.sym.mul_j())


KERNEL_VARS = ("xi", "eta", "x", "y")


class PairFace:
    """A two-point function with a pair face ``on(xi, eta, x, y)``: its
    values at every pair ((xi[k], eta[k]), (x[k], y[k])), a number standing
    for every pair.  A call is the face at one pair, so a value is the same
    bit for bit in any batch (a ``Kernel``'s call is its cmath program, to
    which its face falls back on a fault)."""

    def __call__(self, zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        sc, vec = self.on(zeta.x, zeta.y, z.x, z.y)
        return Bicomplex(sc[0], vec[0])


@dataclass
class Kernel(PairFace):
    """A two-point symbolic function K(zeta, z) over (xi, eta, x, y)."""

    sym: SymBC

    @staticmethod
    def make(sc, vec=0j) -> "Kernel":
        return Kernel(SymBC.make(sc, vec, KERNEL_VARS))

    def __call__(self, zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        return self.sym.compiled()(zeta.x, zeta.y, z.x, z.y)

    def on(self, xi, eta, x, y) -> Values:
        """K at every pair ((xi[k], eta[k]), (x[k], y[k])) as numpy code,
        ``_checked``; a number stands for every pair."""
        return _checked(
            lambda: self.sym.compiled_arrays()(xi, eta, x, y),
            lambda: pairwise([self], xi, eta, x, y)[0],
            _pair_shape(xi, eta, x, y),
        )

    def partials(self, arg: str, xi, eta, x, y) -> tuple["BicomplexArray", ...]:
        """K and its partials in ``arg`` ("zeta": in (xi, eta), "z": in
        (x, y)) at every pair, as ``on`` gives each, from one program per
        argument that computes their shared subexpressions once."""
        kernels = self.partial_kernels(arg)
        programs = self.__dict__.setdefault("_programs", {})
        if arg not in programs:
            trees = tuple(t for k in kernels for t in (k.sym.sc, k.sym.vec))
            programs[arg] = ex.compile_expr(trees, KERNEL_VARS, ex.NUMPY)
        parts = _checked(
            lambda: programs[arg](xi, eta, x, y),
            lambda: tuple(v for k in kernels for v in k.on(xi, eta, x, y)),
            _pair_shape(xi, eta, x, y),
        )
        return tuple(BicomplexArray(*parts[i : i + 2]) for i in (0, 2, 4))

    def partial_kernels(self, arg: str) -> tuple["Kernel", ...]:
        """K and its partial kernels in ``arg``."""
        return (self,) + tuple(self.diff_z(v) for v in {"zeta": ("xi", "eta"), "z": ("x", "y")}[arg])

    def diff_z(self, var: str) -> "Kernel":
        """The partial derivative kernel in ``var``, built once per kernel."""
        cache = self.__dict__.setdefault("_partials", {})
        if var not in cache:
            cache[var] = Kernel(self.sym.diff(var))
        return cache[var]


def _pair_shape(*columns) -> tuple:
    """The shape of the pairs the columns give; numbers give one pair."""
    return np.broadcast_shapes(*(np.shape(c) for c in columns)) or (1,)


def pairwise(coefs: Sequence[Callable[..., Bicomplex]], xi, eta, x, y) -> list[Values]:
    """The (sc, vec) arrays of each evaluator coef(zeta, z) at every pair
    ((xi[k], eta[k]), (x[k], y[k])), a number standing for every pair:
    ``pointwise`` over the pairs, all evaluators at one pair back to back."""
    shape = _pair_shape(xi, eta, x, y)
    xi, eta, x, y = (np.broadcast_to(np.asarray(c, dtype=float), shape) for c in (xi, eta, x, y))
    funcs = [lambda p, u, v, c=c: c(p, PlanePoint(u, v)) for c in coefs]
    return pointwise(funcs, xi, eta, x, y)


def pairs_of(xi, eta, x, y) -> list[tuple[PlanePoint, PlanePoint]]:
    """The pairs (zeta, z) the columns give, as points of Python floats."""
    shape = _pair_shape(xi, eta, x, y)
    columns = (np.broadcast_to(np.asarray(c, dtype=float), shape).ravel().tolist() for c in (xi, eta, x, y))
    return [(PlanePoint(a, b), PlanePoint(c, d)) for a, b, c, d in zip(*columns)]


def in_pair_order(batch: Callable[..., object], xi, eta, x, y):
    """batch(xi, eta, x, y), a pair face's array job.  When it raises, the
    pairs run again one at a time, in order, so that the first pair that
    fails raises its own error, as calls pair by pair would."""
    try:
        return batch(xi, eta, x, y)
    except Exception:  # any error of a pair's evaluation; always re-raised
        pairs = pairs_of(xi, eta, x, y)
        if len(pairs) > 1:
            for zeta, z in pairs:
                batch(zeta.x, zeta.y, z.x, z.y)
        raise

