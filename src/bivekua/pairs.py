"""Generating pairs: characteristic coefficients, the derivative and the
Vekua residual in the sense of a pair (F, G), adjoint and successor
relations, and the period-two generating sequence for separable functions
f = phi(x) psi(y).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

from . import expr as ex
from .bicomplex import Bicomplex, PlanePoint
from .calculus import RegionGrid, wirtinger
from .fields import Field, SymBC, d_z, d_zbar


class PairError(Exception):
    pass


class DegeneratePairError(PairError):
    """Vec(conj_j(F) G) vanished at a sampled point."""


@dataclass(eq=False)
class GeneratingPair:
    """A pair (F, G) with Vec(conj_j(F) G) != 0, plus its characteristic
    coefficient fields a, b (for d_zbar) and A, B (for d_z).  A pair is
    equal only to itself, and hashes so: it can key a cache."""

    F: Field
    G: Field
    a: Field
    b: Field
    A: Field
    B: Field


# -- formulas on the ring interface (SymBC; pair_operator also Bicomplex) -----


def _conj_and_d_inv(F, G):
    """conj_j(F), conj_j(G) and D^{-1}, where D = F conj_j(G) - conj_j(F) G."""
    Fc, Gc = F.conj(), G.conj()
    return Fc, Gc, (F * Gc - Fc * G).inv()


def characteristic_coefficients(F, G, dzbF, dzbG, dzF, dzG):
    """(a, b, A, B) of the pair from the values of F, G and their Wirtinger
    derivatives d_zbar (dzb*) and d_z (dz*)."""
    Fc, Gc, Dinv = _conj_and_d_inv(F, G)
    a = -((Fc * dzbG - Gc * dzbF) * Dinv)
    b = (F * dzbG - G * dzbF) * Dinv
    A = -((Fc * dzG - Gc * dzF) * Dinv)
    B = (F * dzG - G * dzF) * Dinv
    return a, b, A, B


def adjoint_values(F, G):
    """(F*, G*) = (-2 conj_j(F) / D, 2 conj_j(G) / D)."""
    Fc, Gc, Dinv = _conj_and_d_inv(F, G)
    return Fc.scale(-2) * Dinv, Gc.scale(2) * Dinv


def pair_operator(d, a, b, w):
    """d - a W - b conj_j(W).  With d = d_z W and the coefficients (A, B) it
    is the derivative in the sense of the pair; with d = d_zbar W and (a, b)
    it is the residual of the Vekua equation."""
    return d - a * w - b * w.conj()


def make_pair(F: Field, G: Field, region: Optional[RegionGrid] = None) -> GeneratingPair:
    """Validate the pair condition on a 20-by-20 sample grid and attach the
    four characteristic coefficient fields, in closed form from those of F
    and G."""
    if region is not None:
        for p in region.sample_points():
            if abs((F(p).conj() * G(p)).vec) < 1e-14:
                raise DegeneratePairError(f"Vec(conj_j(F) G) = 0 at {p}")
    Fx, Fy, Gx, Gy = F.sym.diff("x"), F.sym.diff("y"), G.sym.diff("x"), G.sym.diff("y")
    coefs = characteristic_coefficients(
        F.sym, G.sym, d_zbar(Fx, Fy), d_zbar(Gx, Gy), d_z(Fx, Fy), d_z(Gx, Gy)
    )
    a, b, A, B = (Field.from_sym(c) for c in coefs)
    return GeneratingPair(F, G, a, b, A, B)


def fg_derivative(w: Field, pair: GeneratingPair, z: PlanePoint) -> Bicomplex:
    """The derivative in the sense of the pair: d_z W - A W - B conj_j(W)."""
    g = wirtinger(w, z)
    return pair_operator(g.dz, pair.A(z), pair.B(z), g.value)


def vekua_residual(w: Field, pair: GeneratingPair, z: PlanePoint) -> float:
    g = wirtinger(w, z)
    return pair_operator(g.dzbar, pair.a(z), pair.b(z), g.value).norm


def adjoint_fields(pair: GeneratingPair) -> tuple[Field, Field]:
    """(F*, G*) = (-2 conj_j(F) / D, 2 conj_j(G) / D), D = F conj_j(G) - conj_j(F) G."""
    Fs, Gs = adjoint_values(pair.F.sym, pair.G.sym)
    return Field.from_sym(Fs), Field.from_sym(Gs)


def adjoint_pair(pair: GeneratingPair, region: Optional[RegionGrid] = None) -> GeneratingPair:
    Fs, Gs = adjoint_fields(pair)
    return make_pair(Fs, Gs, region)


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


@dataclass
class GeneratingSequence:
    """An indexed family m -> GeneratingPair over the integers."""

    pair_fn: Callable[[int], GeneratingPair]

    def pair_at(self, m: int) -> GeneratingPair:
        return self.pair_fn(m)

    @staticmethod
    def separable(phi, psi) -> "GeneratingSequence":
        pair = functools.cache(lambda key: separable_pair(phi, psi, key))
        return GeneratingSequence(lambda m: pair(m % 2))
