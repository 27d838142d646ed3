"""Bicomplex-valued fields over the plane.

A Field maps plane points to bicomplex values.  Symbolic (``SymBC``) and
numeric (``Bicomplex``) values share one ring interface, so each formula
written on it (``d_z``, ``d_zbar`` here; the pair and potential formulas in
their modules) runs on either.

Derivatives come from ``partials``: a Field's exact partials when it has
them (built from expressions, or by ``Field.with_partials``), otherwise
central differences at the caller's step ``h``.  A given ``h`` forces a
finite difference only in ``schroedinger.schroedinger_residual``.

``Field.on`` (``partials_on`` for the partials) evaluates a field at every
node of a path at once: compiled to numpy when it has closed forms, else
point by point in ``pointwise``.  ``BicomplexArray`` is the ring interface
on such node values, so a formula written on it runs on all nodes at once.
"""

from __future__ import annotations

import cmath
import math
import operator
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


def _compile(e: ex.Expr, variables: tuple[str, ...], arrays: bool = False) -> Callable:
    """ex.compile_expr, except that a constant tree needs no code."""
    if isinstance(e, ex.Num):
        value = e.value
        return lambda *args: value
    return ex.compile_expr(e, variables, arrays)


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

    def compiled(self) -> Callable[..., Bicomplex]:
        cache = self.__dict__.get("_compiled")
        if cache is None:
            fsc = _compile(self.sc, self.variables)
            if isinstance(self.vec, ex.Num):
                # a scalar function: its constant vec needs no call either
                vec = self.vec.value
                cache = lambda *a: Bicomplex(fsc(*a), vec)  # noqa: E731
            else:
                fvec = ex.compile_expr(self.vec, self.variables)
                cache = lambda *a: Bicomplex(fsc(*a), fvec(*a))  # noqa: E731
            object.__setattr__(self, "_compiled", cache)
        return cache

    def compiled_arrays(self) -> Callable[..., tuple]:
        """compiled() bound to numpy, built on first use: arrays in, the
        (sc, vec) values out; a constant part stays a number."""
        cache = self.__dict__.get("_compiled_arrays")
        if cache is None:
            fsc = _compile(self.sc, self.variables, arrays=True)
            fvec = _compile(self.vec, self.variables, arrays=True)
            cache = lambda *a: (fsc(*a), fvec(*a))  # noqa: E731
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
        d = ex.binop("+", ex.binop("*", self.sc, self.sc), ex.binop("*", self.vec, self.vec))
        return self._wrap(ex.binop("/", self.sc, d), ex.neg(ex.binop("/", self.vec, d)))

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "SymBC":
        return self._wrap(ex.diff(self.sc, var), ex.diff(self.vec, var))

    def d_zbar(self) -> "SymBC":
        """(1/2)(d/dx + j d/dy) with respect to (x, y)."""
        return d_zbar(self.diff("x"), self.diff("y"))

    def d_z(self) -> "SymBC":
        """(1/2)(d/dx - j d/dy) with respect to (x, y)."""
        return d_z(self.diff("x"), self.diff("y"))


# -- formulas on the shared ring interface (Bicomplex or SymBC values) -------


def d_z(fx, fy):
    """d_z = (1/2)(d/dx - j d/dy), from the partials fx, fy."""
    return (fx - fy.mul_j()).scale(0.5)


def d_zbar(fx, fy):
    """d_zbar = (1/2)(d/dx + j d/dy), from the partials fx, fy."""
    return (fx + fy.mul_j()).scale(0.5)


def default_step(z: PlanePoint) -> float:
    """The finite-difference step when the caller gives none: 1e-4 (1 + |z|)."""
    return 1e-4 * (1 + math.hypot(z.x, z.y))


def central_difference(
    func: Callable[[PlanePoint], Bicomplex], z: PlanePoint, h: float, axis: str
) -> Bicomplex:
    """d func / d axis at z (axis "x" or "y"), by the central difference with
    step h."""
    if axis == "x":
        plus, minus = PlanePoint(z.x + h, z.y), PlanePoint(z.x - h, z.y)
    else:
        plus, minus = PlanePoint(z.x, z.y + h), PlanePoint(z.x, z.y - h)
    return (func(plus) - func(minus)).scale(1 / (2 * h))


def partials(
    w: "Field", z: PlanePoint, h: Optional[float] = None
) -> tuple[Bicomplex, Bicomplex, Bicomplex]:
    """(value, d/dx, d/dy) of w at z: exact when the field carries partials,
    else central differences with step h, by default ``default_step(z)``."""
    value = w(z)
    if w.has_exact_partials:
        return value, w.dx(z), w.dy(z)
    if h is None:
        h = default_step(z)
    return value, central_difference(w, z, h, "x"), central_difference(w, z, h, "y")


Values = tuple[np.ndarray, np.ndarray]  # (sc, vec) at every node


def partials_on(w: "Field", xs: np.ndarray, ys: np.ndarray) -> tuple[Values, Values, Values]:
    """``partials`` at every node (xs[k], ys[k]) at once, with the default
    step: (value, d/dx, d/dy), each as its (sc, vec) arrays."""
    value = w.on(xs, ys)
    if w.has_exact_partials:
        return value, w.dx.on(xs, ys), w.dy.on(xs, ys)
    h = 1e-4 * (1 + np.hypot(xs, ys))  # default_step at every node
    scale = 1 / (2 * h)

    def central(plus: Values, minus: Values) -> Values:
        return (plus[0] - minus[0]) * scale, (plus[1] - minus[1]) * scale

    return (
        value,
        central(w.on(xs + h, ys), w.on(xs - h, ys)),
        central(w.on(xs, ys + h), w.on(xs, ys - h)),
    )


def _spread(values, shape: tuple) -> np.ndarray:
    """values as a complex array of the given shape; a constant is repeated."""
    values = np.asarray(values, dtype=complex)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _finite(sc, vec) -> bool:
    """Every entry of sc and vec is finite.  A non-finite entry makes the sum
    non-finite; an overflow of the sum alone only reads as not finite."""
    return cmath.isfinite(np.sum(sc) + np.sum(vec))


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

    def __add__(self, other: "BicomplexArray") -> "BicomplexArray":
        return BicomplexArray(self.sc + other.sc, self.vec + other.vec)

    def __sub__(self, other: "BicomplexArray") -> "BicomplexArray":
        return BicomplexArray(self.sc - other.sc, self.vec - other.vec)

    def __neg__(self) -> "BicomplexArray":
        return BicomplexArray(-self.sc, -self.vec)

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


class Field:
    """Map PlanePoint -> Bicomplex, optionally with exact partials.

    ``sym`` is set only by ``from_sym``, whose evaluator is that closed form
    over (x, y) compiled; then ``dx``/``dy`` are exact symbolic fields,
    otherwise they are None and consumers fall back to finite differences.
    ``arrays``, when given, evaluates the same values on arrays of x and y,
    as a pair (sc, vec) (see ``on``).
    """

    def __init__(
        self,
        func: Callable[[PlanePoint], Bicomplex],
        arrays: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None,
    ):
        self._func = func
        self._arrays = arrays
        self.sym: Optional[SymBC] = None
        self._dx: Optional["Field"] = None
        self._dy: Optional["Field"] = None

    @staticmethod
    def from_sym(sym: SymBC) -> "Field":
        fn = sym.compiled()
        out = Field(lambda z: fn(z.x, z.y), lambda xs, ys: sym.compiled_arrays()(xs, ys))
        out.sym = sym
        return out

    @staticmethod
    def from_exprs(sc, vec=0j) -> "Field":
        return Field.from_sym(SymBC.make(sc, vec))

    @staticmethod
    def constant(w: Bicomplex) -> "Field":
        return Field.from_sym(SymBC.make(w.sc, w.vec))

    @staticmethod
    def with_partials(
        func: Callable[[PlanePoint], Bicomplex], dx: "Field", dy: "Field", arrays=None
    ) -> "Field":
        """A callable field with explicitly supplied exact partials, for
        values defined by integrals whose derivatives are known in closed
        form even though the values themselves are not."""
        out = Field(func, arrays)
        out._dx = dx
        out._dy = dy
        return out

    def __call__(self, z: PlanePoint) -> Bicomplex:
        return self._func(z)

    def on(self, xs: np.ndarray, ys: np.ndarray) -> Values:
        """The (sc, vec) arrays of the field at every node (xs[k], ys[k]).

        Array code runs under np.errstate with division by zero, invalid
        operations and overflow raising.  On such a fault, or a non-finite
        value, and for a field without array code, the field is called node
        by node instead, so a bad node raises the scalar call's own error
        (EvaluationError, InvalidValueError, ...) with that node's point."""
        if self._arrays is not None:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                try:
                    sc, vec = self._arrays(xs, ys)
                    finite = _finite(sc, vec)
                except FloatingPointError:
                    finite = False
            if finite:
                return _spread(sc, xs.shape), _spread(vec, xs.shape)
        return pointwise([self._func], xs, ys)[0]

    @property
    def has_exact_partials(self) -> bool:
        return self.sym is not None or (
            self._dx is not None and self._dy is not None
        )

    @property
    def dx(self) -> Optional["Field"]:
        if self._dx is None and self.sym is not None:
            self._dx = Field.from_sym(self.sym.diff("x"))
        return self._dx

    @property
    def dy(self) -> Optional["Field"]:
        if self._dy is None and self.sym is not None:
            self._dy = Field.from_sym(self.sym.diff("y"))
        return self._dy

    # combinators keep symbolic form when every operand has one

    def _map(self, op) -> "Field":
        if self.sym is not None:
            return Field.from_sym(op(self.sym))
        return Field(lambda z: op(self(z)))

    def _combine(self, other: "Field", op) -> "Field":
        if self.sym is not None and other.sym is not None:
            return Field.from_sym(op(self.sym, other.sym))
        return Field(lambda z: op(self(z), other(z)))

    def __add__(self, other: "Field") -> "Field":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Field") -> "Field":
        return self._combine(other, operator.sub)

    def __mul__(self, other: "Field") -> "Field":
        return self._combine(other, operator.mul)

    def conj(self) -> "Field":
        return self._map(lambda w: w.conj())

    def bc_inv(self) -> "Field":
        return self._map(lambda w: w.inv())

    def scale(self, c: complex) -> "Field":
        return self._map(lambda w: w.scale(c))

    def mul_j(self) -> "Field":
        return self._map(lambda w: w.mul_j())


KERNEL_VARS = ("xi", "eta", "x", "y")


@dataclass
class Kernel:
    """A two-point symbolic function K(zeta, z) over (xi, eta, x, y)."""

    sym: SymBC

    @staticmethod
    def make(sc, vec=0j) -> "Kernel":
        return Kernel(SymBC.make(sc, vec, KERNEL_VARS))

    def __call__(self, zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        return self.sym.compiled()(zeta.x, zeta.y, z.x, z.y)

    def swap_arguments(self) -> "Kernel":
        swap = {"xi": ex.Var("x"), "eta": ex.Var("y"), "x": ex.Var("xi"), "y": ex.Var("eta")}
        s = self.sym
        return Kernel(SymBC(KERNEL_VARS, ex.substitute(s.sc, swap), ex.substitute(s.vec, swap)))

    def diff_z(self, var: str) -> "Kernel":
        """The partial derivative kernel in ``var``, built once per kernel."""
        cache = self.__dict__.setdefault("_partials", {})
        if var not in cache:
            cache[var] = Kernel(self.sym.diff(var))
        return cache[var]

    def field_in_z(self, zeta: PlanePoint) -> Field:
        """Freeze zeta: a Field of z with exact first partials."""
        return self._bind(lambda z: (zeta, z), lambda xs, ys: (zeta.x, zeta.y, xs, ys), "x", "y")

    def field_in_zeta(self, z: PlanePoint) -> Field:
        """Freeze z: a Field of zeta with exact first partials."""
        return self._bind(lambda zeta: (zeta, z), lambda xs, ys: (xs, ys, z.x, z.y), "xi", "eta")

    def _bind(self, points, arrays, dx_var: str, dy_var: str) -> Field:
        """p -> K(*points(p)) and its partials in (dx_var, dy_var), each
        calling a kernel's own compiled function, on numbers or, with the
        kernel arguments arrays(xs, ys), on arrays."""

        def bound(k: "Kernel") -> tuple:
            return (
                lambda p: k(*points(p)),
                lambda xs, ys: k.sym.compiled_arrays()(*arrays(xs, ys)),
            )

        dx, dy = self.diff_z(dx_var), self.diff_z(dy_var)
        func, on_arrays = bound(self)
        return Field.with_partials(func, Field(*bound(dx)), Field(*bound(dy)), on_arrays)


def kernel_in_z(coef, zeta: PlanePoint) -> Field:
    """z -> coef(zeta, z) as a Field: a Kernel's binding, with exact partials
    and array code, else the plain evaluator called per point."""
    if isinstance(coef, Kernel):
        return coef.field_in_z(zeta)
    return Field(lambda z: coef(zeta, z))
