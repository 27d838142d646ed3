"""Bicomplex-valued fields over the plane.

A Field maps plane points to bicomplex values.  Symbolic (``SymBC``) and
numeric (``Bicomplex``) values share one ring interface, so a formula
written on it (``d_z``, ``d_zbar`` here, ``pairs.pair_operator``) runs on
either.

The fields f, the pairs and the potentials are built from expressions,
and their partials are the exact partials of those expressions.  Two
finite differences remain.  ``partials`` differences a field that carries
no partials, a kernel slot without a closed form frozen at its center
(``kernel_in_z``), at the caller's step or ``default_step``: the residual
scans of pipeline kernels and the nested differences of
``powers.negative_powers`` take them.  ``schroedinger.schroedinger_residual``
differences at the step ``h`` a residual scan gives.

A symbolic value is compiled on its first call, to one program for its
(sc, vec) parts: a formula builds many fields, and few of them are ever
evaluated.  ``Field.on`` (``partials_on`` for the exact partials)
evaluates a field at every node of a path at once: compiled to numpy when
it has closed forms, else point by point in ``pointwise``.
``BicomplexArray`` is the ring interface on such node values, so a formula
written on it runs on all nodes at once.

A kernel slot with a pair face (``PairFace``) evaluates many pairs
(zeta, z) at once by ``on``; other evaluators run pair by pair
(``pairwise``).
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

    def _program(self, arrays: bool) -> Callable[..., tuple]:
        """The (sc, vec) values as one program, which computes the parts'
        shared subexpressions once; a constant needs no code."""
        if isinstance(self.sc, ex.Num) and isinstance(self.vec, ex.Num):
            value = (self.sc.value, self.vec.value)
            return lambda *args: value
        return ex.compile_expr((self.sc, self.vec), self.variables, arrays)

    def compiled(self) -> Callable[..., Bicomplex]:
        """The value as a function of the variables, built on first use."""
        cache = self.__dict__.get("_compiled")
        if cache is None:
            program = self._program(False)
            cache = lambda *a: Bicomplex(*program(*a))  # noqa: E731
            object.__setattr__(self, "_compiled", cache)
        return cache

    def compiled_arrays(self) -> Callable[..., tuple]:
        """compiled() bound to numpy, built on first use: arrays in, the
        (sc, vec) values out; a constant part stays a number."""
        cache = self.__dict__.get("_compiled_arrays")
        if cache is None:
            cache = self._program(True)
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
    """The exact (value, d/dx, d/dy) of w at every node (xs[k], ys[k]) at
    once, each as its (sc, vec) arrays."""
    return w.on(xs, ys), w.dx.on(xs, ys), w.dy.on(xs, ys)


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
    fault, or a non-finite value, scalar() instead: the scalar code, point
    by point, so a bad point raises the scalar call's own error
    (EvaluationError, InvalidValueError, ...) with that point."""
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            parts = arrays()
            finite = _finite(*parts)
        except FloatingPointError:
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

    def __add__(self, other: "BicomplexArray") -> "BicomplexArray":
        return BicomplexArray(self.sc + other.sc, self.vec + other.vec)

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


class Field:
    """Map PlanePoint -> Bicomplex, optionally with exact partials.

    ``sym`` is set only by ``from_sym``, whose evaluator is that closed form
    over (x, y), compiled on its first call.  ``partial``, when given,
    builds the exact partial field in "x" or "y", on the first ``dx``/``dy``
    read; without it they are None, and only ``partials`` differences such
    a field.
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

    @property
    def has_exact_partials(self) -> bool:
        return self._partial is not None

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


@dataclass
class Kernel:
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

    def center_partials_on(self, xi, eta, x, y) -> tuple[Values, Values, Values]:
        """(K, dK/dxi, dK/deta) at every pair, as ``on`` gives each, from one
        program that computes their shared subexpressions once."""
        kernels = (self, self.diff_z("xi"), self.diff_z("eta"))
        program = self.__dict__.get("_center_partials")
        if program is None:
            trees = tuple(t for k in kernels for t in (k.sym.sc, k.sym.vec))
            program = self.__dict__["_center_partials"] = ex.compile_expr(trees, KERNEL_VARS, True)
        parts = _checked(
            lambda: program(xi, eta, x, y),
            lambda: tuple(v for k in kernels for v in k.on(xi, eta, x, y)),
            _pair_shape(xi, eta, x, y),
        )
        return parts[0:2], parts[2:4], parts[4:6]

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
        kernel arguments arrays(xs, ys), on arrays; a partial kernel is
        built on the first read of its field."""

        def bound(k: "Kernel") -> tuple:
            return (
                lambda p: k(*points(p)),
                lambda xs, ys: k.sym.compiled_arrays()(*arrays(xs, ys)),
            )

        var = {"x": dx_var, "y": dy_var}
        return Field(*bound(self), lambda axis: Field(*bound(self.diff_z(var[axis]))))


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


class PairFace:
    """A kernel slot with a pair face ``on(xi, eta, x, y)``: its values at
    every pair ((xi[k], eta[k]), (x[k], y[k])), a number standing for every
    pair.  A call is the face at one pair, so a value is the same bit for
    bit in any batch."""

    def __call__(self, zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        sc, vec = self.on(zeta.x, zeta.y, z.x, z.y)
        return Bicomplex(sc[0], vec[0])


def kernel_in_z(coef, zeta: PlanePoint) -> Field:
    """z -> coef(zeta, z) as a Field: a Kernel's binding, with exact partials
    and array code, else the evaluator, on arrays by its pair face if any."""
    if isinstance(coef, Kernel):
        return coef.field_in_z(zeta)
    arrays = (lambda xs, ys: coef.on(zeta.x, zeta.y, xs, ys)) if isinstance(coef, PairFace) else None
    return Field(lambda z: coef(zeta, z), arrays)
