"""Bicomplex-valued closed forms and fields.

A ``Field`` is a bicomplex function of one plane point z, over (x, y), or
of two, zeta and z, over (xi, eta, x, y): a ``Kernel``.  Symbolic
(``SymBC``) and numeric (``Bicomplex``) values share one ring interface, so
a formula written on it (``d_z``, ``d_zbar`` here, ``pairs.pair_operator``)
runs on either.

One face evaluates every field: ``on`` takes one column per variable, a
number standing for every node, and a call the points.  A closed form is
compiled on its first use, to one numpy program for its (sc, vec) parts,
which ``on`` runs on all nodes at once; a call is that face at one node.
A node that faults, or whose value is not finite, raises its error with
its point, the first in node order, as evaluating node by node would
(``_checked``).  ``diff`` builds the exact partial field in a variable,
once, and ``partials`` gives the value and the first partials from one
program.  Every ``on`` gives a ``BicomplexArray``, the ring
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

import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import expr as ex
from .bicomplex import Bicomplex, InvalidValueError, PlanePoint


def _program(trees: tuple, variables: tuple[str, ...]) -> ex.Program:
    """The values of trees as one program, computing their shared
    subexpressions once; constants need no code."""
    if all(isinstance(t, ex.Num) for t in trees):
        arity = len(variables)
        return ex.Program(arity, [t.value for t in trees], [], list(range(arity, arity + len(trees))), True)
    return ex.compile_expr(trees, variables)


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

    def program(self) -> ex.Program:
        """The (sc, vec) values as one program (``_program``), built on first
        use: numbers or arrays in, one per variable; a constant part stays a
        number."""
        cache = self.__dict__.get("_program")
        if cache is None:
            cache = self._program = _program((self.sc, self.vec), self.variables)
        return cache

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


def _require_finite(*parts) -> None:
    """Raise InvalidValueError, as ``Bicomplex`` does, at the first node
    where a part is not finite, naming the first such part there; the
    parts broadcast together."""
    parts = np.broadcast_arrays(*(np.asarray(p, dtype=complex) for p in parts))
    bad = ~np.isfinite(np.reshape(parts, (len(parts), -1)))
    if bad.any():
        node = np.argmax(bad.any(axis=0))
        raise InvalidValueError(f"non-finite component: {complex(parts[np.argmax(bad[:, node])].flat[node])!r}")


def _checked(program: ex.Program, columns: Sequence) -> list[BicomplexArray]:
    """The values of the (sc, vec) parts program(*columns) gives, each
    spread to the nodes of ``columns``.  The first node, in node order,
    that faults or has a value that is not finite raises, as the program
    run at each node in turn would: its EvaluationError with its point, or
    InvalidValueError as ``Bicomplex`` raises it (``expr.Program.checked``
    locates the faults)."""
    shape = _shape(columns)
    parts, faults = program.checked(*columns)
    if faults is not None:
        faults = np.broadcast_to(faults, shape).ravel()
        bad = np.flatnonzero(faults != "")
        stop = bad[0] if bad.size else None
        _require_finite(*(np.broadcast_to(p, shape).ravel()[:stop] for p in parts))
        if stop is not None:
            raise ex.EvaluationError(faults[stop], ex.node(columns, stop))
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


def _norm(sc: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(|W+| + |W-|)/2 at every node, rounded as ``Bicomplex.norm`` rounds
    it: hypot, as abs of a Python complex (numpy's complex abs differs from
    it in last bits), halved after the sum unless that overflows."""
    a, b = (np.hypot(p.real, p.imag) for p in (sc - 1j * vec, sc + 1j * vec))
    return np.where(a + b < np.inf, 0.5 * (a + b), 0.5 * a + 0.5 * b)


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
    forms the idempotent products as ``Bicomplex.__mul__`` does, and at the
    nodes where one of its results is not finite it takes them of the
    halved factors, as that does, so that a product near the end of the
    double range, or a non-finite factor, behaves as it does on one node."""

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

    def _idempotent_products(self, other: "BicomplexArray") -> tuple:
        """W+ V+ and W- V-, each as Python rounds it."""
        p, m = self.sc - 1j * self.vec, self.sc + 1j * self.vec
        q, n = other.sc - 1j * other.vec, other.sc + 1j * other.vec
        return _product(p, q), _product(m, n)

    def __mul__(self, other: "BicomplexArray") -> "BicomplexArray":
        with np.errstate(over="ignore", invalid="ignore"):
            pq, mn = self._idempotent_products(other)
            sc, vec = 0.5 * (pq + mn), 0.5j * (pq - mn)
            if ex.finite(sc, vec):
                return BicomplexArray(sc, vec)
            # as Bicomplex.__mul__: W+- can pass the double range while W
            # does not; (W/2)+- cannot, and WV = 4 (W/2)(V/2)
            parts = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (*self, *other, sc, vec)))
            edge = ~(np.isfinite(parts[4]) & np.isfinite(parts[5]))
            half = [0.5 * v[edge] for v in parts[:4]]
            pq, mn = BicomplexArray(*half[:2])._idempotent_products(BicomplexArray(*half[2:]))
            sc, vec = parts[4].copy(), parts[5].copy()
            sc[edge], vec[edge] = 2 * (pq + mn), 2j * (pq - mn)
        # a factor, then the product, that is not finite at a node is refused there
        _require_finite(*(v[edge] for v in parts[:4]), sc[edge], vec[edge])
        return BicomplexArray(sc, vec)

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
        past it), 2 |W/2|, as that gives it."""
        sc, vec = np.broadcast_arrays(np.asarray(self.sc, dtype=complex), np.asarray(self.vec, dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            out = _norm(sc, vec)
            edge = ~np.isfinite(out)
            if edge.any():
                _require_finite(sc[edge], vec[edge])
                out[edge] = 2 * _norm(0.5 * sc[edge], 0.5 * vec[edge])
        return out


KERNEL_VARS = ("xi", "eta", "x", "y")


class Field:
    """A bicomplex function of plane points: of z over the variables
    (x, y), or of (zeta, z) over (xi, eta, x, y).

    A closed form is made by ``from_sym``, which sets ``sym``: its
    program, compiled on first use, is its face ``on``, and a call is
    that face at one node.  Any other field is a plain evaluator ``func``
    of the points, called node by node (``pointwise``).  ``partial``, when
    given, builds the exact partial field in a variable, on the first
    ``diff`` in it; without it, asking for a partial raises
    MissingPartialError.
    """

    def __init__(self, func: Optional[Callable[..., Bicomplex]], partial: Optional[Callable[[str], "Field"]] = None):
        self._func = func
        self._partial = partial
        self._diffs: dict[str, "Field"] = {}
        self._programs: dict[tuple[str, ...], ex.Program] = {}
        self.sym: Optional[SymBC] = None

    @classmethod
    def from_sym(cls, sym: SymBC) -> "Field":
        """The closed form sym, over its variables; its partials are the
        same class."""
        out = cls(None, lambda var: cls.from_sym(sym.diff(var)))
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
        """The field at the points: a closed form's face at a one-node
        array, so the call has the value of that node in any batch."""
        if self.sym is None:
            return self._func(*points)
        sc, vec = self.on(*(np.array([c]) for p in points for c in (p.x, p.y)))
        return Bicomplex(sc[0], vec[0])

    def on(self, *columns) -> BicomplexArray:
        """The field at every node of the columns, one per variable, a number
        standing for every node: a closed form's program (``_checked``), a
        plain evaluator called node by node."""
        if self.sym is None:
            return pointwise([self._func], *columns)[0]
        return _checked(self.sym.program(), columns)[0]

    def partials(self, *columns) -> tuple[BicomplexArray, ...]:
        """The field, d/dx and d/dy at every node of the columns, each as
        ``on`` gives it (``_partials``)."""
        return self._partials(("x", "y"), columns)

    def _partials(self, variables: tuple[str, ...], columns: Sequence) -> tuple[BicomplexArray, ...]:
        """The field and its partials in ``variables`` at every node of the
        columns, each as ``on`` gives it.  A closed form runs one program of
        them all, which computes their shared subexpressions once; a node
        that fails there raises as their separate ``on`` calls, in turn,
        raise.  A field without one runs those calls.  A missing partial
        raises before anything is evaluated (``diff``)."""
        fields = (self, *map(self.diff, variables))
        if self.sym is None:
            return tuple(w.on(*columns) for w in fields)
        program = self._programs.get(variables)
        if program is None:
            trees = tuple(t for w in fields for t in (w.sym.sc, w.sym.vec))
            program = self._programs[variables] = _program(trees, self.sym.variables)
        try:
            return tuple(_checked(program, columns))
        except (ex.EvaluationError, InvalidValueError):
            return tuple(w.on(*columns) for w in fields)

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
    for every pair.  A call is the face at one pair, its coordinates as
    numbers (a ``Kernel``'s call is its face at a one-node array)."""

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
