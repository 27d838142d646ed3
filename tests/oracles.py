"""Test oracles: reference code that no command of the library reaches,
kept here so that the tests compare against it."""

from __future__ import annotations

from typing import Optional

import numpy as np

from bivekua.bicomplex import Bicomplex, PlanePoint
from bivekua.calculus import Path, RegionGrid, detour_walks
from bivekua.fields import Field, central_difference, d_zbar
from bivekua.pairs import GeneratingPair, pair_operator
from bivekua.schroedinger import MainVekuaProblem


def isclose(a: Bicomplex, b: Bicomplex, tol: float = 1e-12) -> bool:
    """Tolerance scaled by max(1, |a|, |b|)."""
    return (a - b).norm <= tol * max(1.0, a.norm, b.norm)


def detour_path(
    start: PlanePoint,
    end: PlanePoint,
    avoid: PlanePoint,
    radius: Optional[float] = None,
    side: float = 1.0,
    nodes_per_segment: int = 16,
) -> Path:
    """Straight path from start to end with a circular-arc detour
    around ``avoid`` when the segment passes too close to it (the path
    of ``detour_walks`` for these points)."""
    (walks,) = detour_walks(
        start.as_complex, end.as_complex, avoid.as_complex, radius, side, nodes_per_segment
    )
    return Path(walks.xs, walks.ys, walks.dz, start, end)


def abar_antiderivative(w: Field, path: Path) -> complex:
    """2 ∫ (u dx + v dy) for W = u + jv; solves d_zbar(phi) = W when the
    compatibility condition u_y = v_x holds."""

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray) -> np.ndarray:
        sc, vec = w.on(xs, ys)
        return sc * dz.real + vec * dz.imag

    return 2 * path.integrate(one_form)


def differenced_vekua_residual(w: Field, pair: GeneratingPair, z: PlanePoint, h: float) -> float:
    """|d_zbar W - a W - b conj_j(W)| at z, the partials of W by central
    differences of step h: the Vekua residual of a field without partials."""
    fx, fy = (central_difference(w, z, h, axis) for axis in "xy")
    return pair_operator(d_zbar(fx, fy), pair.a(z), pair.b(z), w(z)).norm


def is_successor(candidate: GeneratingPair, base: GeneratingPair, region: RegionGrid) -> bool:
    """True iff a_candidate = a_base and b_candidate = -B_base to 1e-8 on a
    20-by-20 sample grid."""
    for p in region.sample_points():
        if (candidate.a(p) - base.a(p)).norm > 1e-8:
            return False
        if (candidate.b(p) + base.B(p)).norm > 1e-8:
            return False
    return True


def x_problem(region=None) -> MainVekuaProblem:
    return MainVekuaProblem.from_f(Field.from_exprs("x"), region)
