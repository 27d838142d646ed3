"""Truncated bivariate Taylor arithmetic: Taylor-mode derivatives of the
expression programs (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., 2008, ch. 13).

A ``Jet`` is the Taylor polynomial of a function at a point (x, y), in
the offsets (dx, dy), truncated at a total degree d: the coefficient of
dx^a dy^b is the partial d^(a+b)/dx^a dy^b over a! b!.  Its coefficients
are numpy arrays over many points at once.  ``TABLE`` runs the programs
of ``expr.compile_expr`` on jets: ``+ - * /`` and integer ``**`` act on
jets, and each name of ``expr.FUNCTIONS`` composes its univariate Taylor
series with the jet.  So one expression program, run on the jets of x
and y, gives every partial up to degree d at the cost of O(d^4) array
operations per operation of the program.

Jet arithmetic raises on faults only where a value is singular: the
inverse and the logarithm of a jet whose value is 0 raise
``EvaluationError``; everything else is left to numpy's error state.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .expr import NUMPY, EvaluationError


def size(degree: int) -> int:
    """The number of monomials of total degree at most ``degree``."""
    return (degree + 1) * (degree + 2) // 2


def _index(a: int, b: int) -> int:
    """The place of dx^a dy^b in the graded order: by total degree, then
    by the power of dy.  A jet of lower degree is a prefix."""
    s = a + b
    return s * (s + 1) // 2 + b


def _monomials(degree: int) -> list[tuple[int, int]]:
    return [(s - b, b) for s in range(degree + 1) for b in range(s + 1)]


@functools.cache
def _product_table(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, starts): the pairs of monomials whose product has total
    degree at most ``degree``, ordered by the place of the product, and the
    first pair of each product's run."""
    terms = sorted(
        (_index(a + c, b + e), _index(a, b), _index(c, e))
        for a, b in _monomials(degree)
        for c, e in _monomials(degree - a - b)
    )
    targets, left, right = (np.array(t) for t in zip(*terms))
    return left, right, np.searchsorted(targets, np.arange(size(degree)))


@functools.cache
def _partial_table(degree: int, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(sources, factors): the partial in dx (axis 0) or dy (axis 1) of a
    jet of the given degree is factors * coefficients[sources]."""
    sources, factors = [], []
    for a, b in _monomials(degree - 1):
        sources.append(_index(a + 1 - axis, b + axis))
        factors.append(a + 1 if axis == 0 else b + 1)
    return np.array(sources), np.array(factors, dtype=float)


class Jet:
    """sum c[k] dx^a dy^b over the monomials k = (a, b) of total degree at
    most ``degree``, c[k] a complex array over the points (and any other
    axes, which broadcast as numpy's do)."""

    __slots__ = ("c", "degree")
    # numpy defers to the reflected operators: array + jet is a jet
    __array_ufunc__ = None

    def __init__(self, c: np.ndarray, degree: int):
        self.c = c
        self.degree = degree

    @staticmethod
    def variable(value, axis: int, degree: int) -> "Jet":
        """The jet of x (axis 0) or y (axis 1) at the points ``value``, in
        the complex type of the value's precision."""
        value = np.asarray(value)
        c = np.zeros((size(degree),) + value.shape, dtype=np.result_type(value, 1j))
        c[0] = value
        if degree:
            c[1 + axis] = 1
        return Jet(c, degree)

    def constant(self, value) -> "Jet":
        """The constant ``value`` as a jet of this degree, points and type."""
        c = np.zeros_like(self.c)
        c[0] = value
        return self._new(c, self.degree)

    def _new(self, c: np.ndarray, degree: int) -> "Jet":
        return type(self)(c, degree)

    @property
    def value(self) -> np.ndarray:
        return self.c[0]

    def truncated(self, degree: int) -> "Jet":
        return self._new(self.c[: size(degree)], degree)

    def partial(self, axis: int) -> "Jet":
        """d/dx (axis 0) or d/dy (axis 1): one degree lower."""
        sources, factors = _partial_table(self.degree, axis)
        return self._new(self.c[sources] * factors.reshape((-1,) + (1,) * (self.c.ndim - 1)), self.degree - 1)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            degree = min(self.degree, other.degree)
            return self._new(self.c[: size(degree)] + other.c[: size(degree)], degree)
        c = self.c.copy()
        c[0] += other
        return self._new(c, self.degree)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return self._new(-self.c, self.degree)

    def __sub__(self, other) -> "Jet":
        return self + -other

    def __rsub__(self, other) -> "Jet":
        return -self + other

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return self._new(self.c * np.asarray(other)[None], self.degree)
        degree = min(self.degree, other.degree)
        left, right, starts = _product_table(degree)
        return self._new(np.add.reduceat(self.c[left] * other.c[right], starts, axis=0), degree)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1 / _nonzero(np.asarray(other) + 0j))

    def __rtruediv__(self, other) -> "Jet":
        return self.reciprocal() * other

    def __pow__(self, exponent: int) -> "Jet":
        if exponent < 0:
            return (self ** -exponent).reciprocal()
        out = self.constant(1)
        square = self
        while exponent:
            if exponent & 1:
                out = out * square
            exponent >>= 1
            if exponent:
                square = square * square
        return out

    # -- univariate series --------------------------------------------------

    def compose(self, coefficients) -> "Jet":
        """f(self) for the series f(v + t) = sum coefficients[k] t^k about the
        value v, by Horner's rule in the offset t."""
        t = self.c.copy()
        t[0] = 0
        t = self._new(t, self.degree)
        out = self.constant(coefficients[self.degree])
        for k in range(self.degree - 1, -1, -1):
            out = out * t
            out.c[0] = coefficients[k]  # set, not added: keeps the sign of a zero
        return out

    def reciprocal(self) -> "Jet":
        r = 1 / _nonzero(self.value)
        return self.compose([r * (-r) ** k for k in range(self.degree + 1)])


class BicomplexJet(Jet):
    """Jets of bicomplex values W = P+ p + P- m, held by their idempotent
    parts p = Sc W - i Vec W and m = Sc W + i Vec W on axis 1 of the
    coefficients.  A product is the product of the parts, conj_j swaps
    them and j multiplies them by -i and i: the ring interface of
    ``Bicomplex`` (``+``, ``-``, ``*``, ``conj``, ``mul_j``, ``scale``), on
    which ``fields.d_z`` and ``pairs.pair_operator`` are written."""

    __slots__ = ()

    @staticmethod
    def stack(parts: tuple, z: Jet) -> "BicomplexJet":
        """The values sc + j vec that ``parts`` gives as (sc, vec, sc, vec,
        ...), each a jet like z or a value free of z (a constant jet), as
        one jet with an axis over the values, after the parts' axis."""
        c = [(p if isinstance(p, Jet) else z.constant(p)).c for p in parts]
        sc, vec = np.stack(c[0::2], axis=1), np.stack(c[1::2], axis=1)
        return BicomplexJet(np.stack([sc - 1j * vec, sc + 1j * vec], axis=1), z.degree)

    def parts(self) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of Sc W and Vec W."""
        p, m = np.moveaxis(self.c, 1, 0)
        return 0.5 * (p + m), 0.5j * (p - m)

    def conj(self) -> "BicomplexJet":
        return BicomplexJet(self.c[:, ::-1], self.degree)

    def mul_j(self) -> "BicomplexJet":
        return BicomplexJet(self.c * _J_PARTS.reshape((2,) + (1,) * (self.c.ndim - 2)), self.degree)

    def scale(self, c) -> "BicomplexJet":
        return self * c


_J_PARTS = np.array([-1j, 1j])  # the idempotent parts of j


def _nonzero(v: np.ndarray) -> np.ndarray:
    if np.any(v == 0):
        raise EvaluationError("division by zero")
    return v


def _periodic(derivatives, v: Jet) -> Jet:
    """f(v) for f whose k-th derivative is derivatives[k % len]."""
    values = [d(v.value) for d in derivatives]
    return v.compose([values[k % len(values)] / math.factorial(k) for k in range(v.degree + 1)])


def _log(v: Jet) -> Jet:
    if np.any(v.value == 0):
        raise EvaluationError("log of 0")
    r = 1 / v.value
    return v.compose([np.log(v.value)] + [-((-r) ** k) / k for k in range(1, v.degree + 1)])


def _sqrt(v: Jet) -> Jet:
    # the value alone is defined at 0, its partials are not
    root, r = np.sqrt(v.value), (1 / _nonzero(v.value) if v.degree else 0)
    binomial, out = 1.0, []
    for k in range(v.degree + 1):
        out.append(binomial * root * r**k)
        binomial *= (0.5 - k) / (k + 1)
    return v.compose(out)


_SERIES = {
    "exp": functools.partial(_periodic, (np.exp,)),
    "log": _log,
    "sqrt": _sqrt,
    "sin": functools.partial(_periodic, (np.sin, np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u))),
    "cos": functools.partial(_periodic, (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u), np.sin)),
    "sinh": functools.partial(_periodic, (np.sinh, np.cosh)),
    "cosh": functools.partial(_periodic, (np.cosh, np.sinh)),
}


def _on_jets(name: str):
    """The function ``name`` of a jet, or of a value that is no jet (it does
    not depend on x and y) as numpy computes it, a real value taken as
    complex, in the value's precision."""
    series, plain = _SERIES[name], getattr(np, name)
    return lambda v: series(v) if isinstance(v, Jet) else plain(np.asarray(v) + 0j)


# The function table that runs an ``expr.compile_expr`` program on jets;
# abs2, v * v, is numpy's, which jets share.
TABLE = {**NUMPY, **{f"_{name}": _on_jets(name) for name in _SERIES}}
