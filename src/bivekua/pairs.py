"""Generating pairs: characteristic coefficients, the derivative and the
Vekua residual in the sense of a pair (F, G), adjoint and successor
relations, and the period-two generating sequence for separable functions
f = phi(x) psi(y).

A pair's coefficient fields are closed forms, built from those of F and G
on their first read.  The residual runs on arrays: at every node of a scan
at once, or at one point as one node.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Union

import numpy as np

from . import expr as ex
from .bicomplex import Bicomplex, PlanePoint
from .calculus import RegionGrid
from .fields import Field, SymBC, at_nodes, d_z, d_zbar


class PairError(Exception):
    pass


class DegeneratePairError(PairError):
    """Vec(conj_j(F) G) vanished at a sampled point."""


class GeneratingPair:
    """A pair (F, G) with Vec(conj_j(F) G) != 0, and its characteristic
    coefficient fields a, b (for d_zbar) and A, B (for d_z), in closed form
    from those of F and G.  A pair is equal only to itself, and hashes so:
    it can key a cache."""

    def __init__(self, F: Field, G: Field):
        self.F, self.G = F, G

    @functools.cached_property
    def _conj_and_d_inv(self) -> tuple[SymBC, SymBC, SymBC]:
        """conj_j(F), conj_j(G) and D^{-1}, where D = F conj_j(G) - conj_j(F) G."""
        F, G = self.F.sym, self.G.sym
        Fc, Gc = F.conj(), G.conj()
        return Fc, Gc, (F * Gc - Fc * G).inv()

    def __getattr__(self, name: str) -> Field:
        """a, b, A or B: its half, (a, b) or (A, B), built on the first read
        of either of its fields, both halves from one ``_conj_and_d_inv``."""
        if name not in ("a", "b", "A", "B"):
            raise AttributeError(name)
        d, half = (d_zbar, "ab") if name in "ab" else (d_z, "AB")
        Fc, Gc, Dinv = self._conj_and_d_inv
        dF, dG = (d(w.dx.sym, w.dy.sym) for w in (self.F, self.G))
        F, G = self.F.sym, self.G.sym
        coefficients = -((Fc * dG - Gc * dF) * Dinv), (F * dG - G * dF) * Dinv
        self.__dict__.update(zip(half, map(Field.from_sym, coefficients)))
        return self.__dict__[name]


def pair_operator(d, a, b, w):
    """d - a W - b conj_j(W).  With d = d_z W and the coefficients (A, B) it
    is the derivative in the sense of the pair; with d = d_zbar W and (a, b)
    it is the residual of the Vekua equation."""
    return d - a * w - b * w.conj()


def make_pair(F: Field, G: Field, region: Optional[RegionGrid] = None) -> GeneratingPair:
    """The pair (F, G), given a region validated on a 20-by-20 sample grid
    of it: Vec(conj_j(F) G) != 0 at every sample point."""
    if region is not None:
        xs, ys = region.sample_columns()
        product = F.on(xs, ys).conj() * G.on(xs, ys)
        bad = np.flatnonzero(np.hypot(product.vec.real, product.vec.imag) < 1e-14)
        if bad.size:
            raise DegeneratePairError(f"Vec(conj_j(F) G) = 0 at {PlanePoint(float(xs[bad[0]]), float(ys[bad[0]]))}")
    return GeneratingPair(F, G)


def fg_derivative(w: Field, pair: GeneratingPair, z: PlanePoint) -> Bicomplex:
    """The derivative in the sense of the pair: d_z W - A W - B conj_j(W),
    from the value and exact partials of W at z as one node."""
    value, fx, fy = (Bicomplex(v.sc[0], v.vec[0]) for v in w.partials(z.x, z.y))
    return pair_operator(d_z(fx, fy), pair.A(z), pair.B(z), value)


def vekua_residual(w: Field, pair: GeneratingPair, z) -> Union[float, np.ndarray]:
    """|d_zbar W - a W - b conj_j(W)| from the exact partials of W: at the
    point z, or at every node of the columns z = (xs, ys) at once
    (``fields.at_nodes``)."""

    def residual(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return vekua_residual_of(pair, xs, ys, *w.partials(xs, ys))

    return at_nodes(residual, z)


def vekua_residual_of(pair: GeneratingPair, xs: np.ndarray, ys: np.ndarray, w, wx, wy) -> np.ndarray:
    """|d_zbar W - a W - b conj_j(W)| at every node (xs[k], ys[k]), from the
    ``BicomplexArray``s of W, dW/dx and dW/dy there."""
    a, b = (c.on(xs, ys) for c in (pair.a, pair.b))
    return pair_operator(d_zbar(wx, wy), a, b, w).norm


def adjoint_fields(pair: GeneratingPair) -> tuple[Field, Field]:
    """(F*, G*) = (-2 conj_j(F) / D, 2 conj_j(G) / D), D = F conj_j(G) - conj_j(F) G."""
    Fc, Gc, Dinv = pair._conj_and_d_inv
    return Field.from_sym(Fc.scale(-2) * Dinv), Field.from_sym(Gc.scale(2) * Dinv)


def adjoint_pair(pair: GeneratingPair) -> GeneratingPair:
    return make_pair(*adjoint_fields(pair))


# ---------------------------------------------------------------------------
# Separable generating sequences


def _expr_of(src) -> ex.Expr:
    return ex.parse(src, ("x", "y")) if isinstance(src, str) else src


def separable_pair(phi, psi, m: int) -> GeneratingPair:
    """Pair number m of the period-two sequence generated by f = phi(x) psi(y):
    (f, j/f) for even m and (psi/phi, j phi/psi) for odd m."""
    phi_e, psi_e = _expr_of(phi), _expr_of(psi)
    prod = ex.binop("*", phi_e, psi_e)
    if m % 2 == 0:
        f_sc, g_vec = prod, ex.binop("/", ex.Num(1 + 0j), prod)
    else:
        f_sc, g_vec = ex.binop("/", psi_e, phi_e), ex.binop("/", phi_e, psi_e)
    F = Field.from_sym(SymBC(("x", "y"), f_sc, ex.ZERO))
    G = Field.from_sym(SymBC(("x", "y"), ex.ZERO, g_vec))
    return make_pair(F, G)


class GeneratingSequence:
    """An indexed family m -> GeneratingPair over the integers."""

    def __init__(self, pair_at: Callable[[int], GeneratingPair]):
        self.pair_at = pair_at

    @staticmethod
    def separable(phi, psi) -> "GeneratingSequence":
        pair = functools.cache(lambda key: separable_pair(phi, psi, key))
        return GeneratingSequence(lambda m: pair(m % 2))
