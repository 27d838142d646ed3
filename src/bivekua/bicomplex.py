"""Arithmetic in the commutative ring B of bicomplex numbers.

A bicomplex number is W = u + j*v with u, v complex over the imaginary
unit i, where i and j commute and both square to -1.  The ring has zero
divisors: exactly the nonzero multiples of the idempotents
P+ = (1 + ij)/2 and P- = (1 - ij)/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction


class BicomplexError(Exception):
    pass


class InvalidValueError(BicomplexError):
    """NaN or Inf component fed to a public constructor."""


class ZeroDivisorError(BicomplexError):
    """Attempt to invert a nonzero W with W * conj_j(W) == 0."""


class DivisionByZeroError(BicomplexError):
    """Attempt to invert the zero element."""


class OutOfRangeError(BicomplexError):
    """A component of an inverse or of an idempotent split that is not a
    finite double."""


def _require_finite(c: complex) -> complex:
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise InvalidValueError(f"non-finite component: {c!r}")
    return c


def _pow2_over(e: int, c: complex) -> complex:
    """2**e / c for finite nonzero c.  Near either end of the double range c
    is first scaled by a power of two, so that only the last, correctly
    rounded step can overflow (to inf) or underflow."""
    k = math.frexp(max(abs(c.real), abs(c.imag)))[1]
    if abs(k) < 1000:
        return 2.0**e / c
    r = 1 / complex(math.ldexp(c.real, -k), math.ldexp(c.imag, -k))
    try:
        return complex(math.ldexp(r.real, e - k), math.ldexp(r.imag, e - k))
    except OverflowError:
        return complex(math.inf, math.inf)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    # Knuth's branch-free TwoSum: s + e == a + b exactly.
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


class PlanePoint:
    """A point z = x + j*y of the plane C_j.

    An immutable value: x and y are never assigned after construction
    (a contract, not enforced; the class is slotted for speed).  Equal
    points hash equal, so a point can key a dict."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        # false for inf and NaN; a product with 0, the test of Bicomplex,
        # would warn on numpy scalars
        if not (abs(x) < math.inf and abs(y) < math.inf):
            raise InvalidValueError(f"non-finite plane point ({x}, {y})")
        self.x = x
        self.y = y

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"PlanePoint(x={self.x!r}, y={self.y!r})"

    @property
    def as_complex(self) -> complex:
        """The point as an ordinary complex number x + iy (for C_j algebra)."""
        return complex(self.x, self.y)

    def dist(self, other: "PlanePoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class IdempotentPair:
    """Idempotent coordinates (W+, W-) of a bicomplex number.

    The hidden err_* fields hold the exact rounding residue of the two
    additions in W+- = Sc W -+ i Vec W, making the split lossless:
    ``from_idempotent(idempotent_split(W)) == W`` exactly.
    """

    plus: complex
    minus: complex
    err_plus: complex = 0j
    err_minus: complex = 0j


class Bicomplex:
    """W = sc + j*vec with sc, vec in C_i.

    An immutable value: sc and vec are never assigned after construction
    (a contract, not enforced; the class is slotted for speed).  Equal
    values hash equal."""

    __slots__ = ("sc", "vec")

    def __init__(self, sc: complex, vec: complex) -> None:
        self.sc = complex(sc)
        self.vec = complex(vec)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The finiteness check, run by every construction (bench/tracer.py
        wraps it to count values)."""
        # 0j*sc + 0j*vec is 0 for finite parts and NaN as soon as a part is
        # inf or NaN
        if not 0j * self.sc + 0j * self.vec == 0:
            _require_finite(self.sc)
            _require_finite(self.vec)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.sc == other.sc and self.vec == other.vec
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sc, self.vec))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Bicomplex") -> "Bicomplex":
        return Bicomplex(self.sc + other.sc, self.vec + other.vec)

    def __sub__(self, other: "Bicomplex") -> "Bicomplex":
        return Bicomplex(self.sc - other.sc, self.vec - other.vec)

    def __neg__(self) -> "Bicomplex":
        return Bicomplex(-self.sc, -self.vec)

    def __mul__(self, other: "Bicomplex") -> "Bicomplex":
        # (WV)+- = W+- V+-
        p, m = self.idempotent()
        q, n = other.idempotent()
        try:
            return Bicomplex.from_idempotent_coords(p * q, m * n)
        except InvalidValueError:
            # W+- can pass the double range while W does not (W = 1e308 (1 - i)
            # (1 - j)); (W/2)+- cannot, and WV = 4 (W/2)(V/2)
            p, m = self.scale(0.5).idempotent()
            q, n = other.scale(0.5).idempotent()
            return Bicomplex(2 * (p * q + m * n), 2j * (p * q - m * n))

    def scale(self, c: complex) -> "Bicomplex":
        """Multiplication by a C_i scalar."""
        return Bicomplex(c * self.sc, c * self.vec)

    def conj(self) -> "Bicomplex":
        """Conjugation with respect to j: u + jv -> u - jv."""
        return Bicomplex(self.sc, -self.vec)

    def mul_j(self) -> "Bicomplex":
        """j * W = -v + j u for W = u + j v."""
        return Bicomplex(-self.vec, self.sc)

    @property
    def is_zero(self) -> bool:
        return self.sc == 0 and self.vec == 0

    def times_conj(self) -> complex:
        """W * conj_j(W) as a C_i number; equals W+ * W-."""
        return self.sc * self.sc + self.vec * self.vec

    @property
    def is_zero_divisor(self) -> bool:
        """Exactly one of the idempotent components W+, W- is 0."""
        p, m = self.idempotent()
        return (p == 0) != (m == 0)

    def inv(self) -> "Bicomplex":
        """W^{-1} = P+/W+ + P-/W-."""
        if self.is_zero:
            raise DivisionByZeroError("inverse of zero")
        p, m = self.idempotent()
        if p == 0 or m == 0:
            raise ZeroDivisorError(f"{self!r} is a zero divisor")
        # halving before the sum keeps results up to the largest double finite
        if cmath.isfinite(p) and cmath.isfinite(m):
            hp, hm = _pow2_over(-1, p), _pow2_over(-1, m)
        else:
            # W+- can pass the double range while W does not (see __mul__);
            # (W/2)+- cannot, and 0.5/W+- = 0.25/(W/2)+-
            q, n = self.scale(0.5).idempotent()
            hp = _pow2_over(-1, p) if cmath.isfinite(p) else _pow2_over(-2, q)
            hm = _pow2_over(-1, m) if cmath.isfinite(m) else _pow2_over(-2, n)
        sc, vec = hp + hm, 1j * (hp - hm)
        if not all(math.isfinite(c) for c in (sc.real, sc.imag, vec.real, vec.imag)):
            raise OutOfRangeError(f"the inverse of {self!r} is outside the double range")
        return Bicomplex(sc, vec)

    def __truediv__(self, other: "Bicomplex") -> "Bicomplex":
        return self * other.inv()

    # -- norm and idempotent coordinates ---------------------------------

    @property
    def norm(self) -> float:
        """|W| = (|W+| + |W-|)/2; sub-multiplicative with constant 2."""
        p, m = self.idempotent()
        if cmath.isfinite(p) and cmath.isfinite(m):
            try:
                a, b = abs(p), abs(m)
                # halving after the sum keeps subnormal norms exact; halving
                # before it keeps norms up to the largest double finite
                return 0.5 * (a + b) if a + b < math.inf else 0.5 * a + 0.5 * b
            except OverflowError:  # |W+-| passes the double range
                pass
        # W+- or |W+-| can pass the double range while W does not (see
        # __mul__); |W| = 2 |W/2|
        return 2 * self.scale(0.5).norm

    def __abs__(self) -> float:
        return self.norm

    def idempotent(self) -> tuple[complex, complex]:
        """(W+, W-) = (Sc W - i Vec W, Sc W + i Vec W), without compensation."""
        return self.sc - 1j * self.vec, self.sc + 1j * self.vec

    @staticmethod
    def from_idempotent_coords(plus: complex, minus: complex) -> "Bicomplex":
        """P+ W+ + P- W-: the W with idempotent coordinates (plus, minus)."""
        return Bicomplex(0.5 * (plus + minus), 0.5j * (plus - minus))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "sc": [self.sc.real, self.sc.imag],
            "vec": [self.vec.real, self.vec.imag],
        }

    @staticmethod
    def from_json(obj: dict) -> "Bicomplex":
        return Bicomplex(complex(*obj["sc"]), complex(*obj["vec"]))

    def __repr__(self) -> str:
        return f"Bicomplex({self.sc!r}, {self.vec!r})"


ZERO = Bicomplex(0, 0)
ONE = Bicomplex(1, 0)
J = Bicomplex(0, 1)
P_PLUS = Bicomplex(0.5, 0.5j)
P_MINUS = Bicomplex(0.5, -0.5j)


def from_cj(c: complex) -> Bicomplex:
    """Embed a C_j number a + jb given as the complex a + ib."""
    return Bicomplex(c.real, c.imag)


def idempotent_split(w: Bicomplex) -> IdempotentPair:
    """Unique (W+, W-) with W = P+ W+ + P- W-, plus exact rounding residue."""
    pr, epr = _two_sum(w.sc.real, w.vec.imag)
    pi, epi = _two_sum(w.sc.imag, -w.vec.real)
    mr, emr = _two_sum(w.sc.real, -w.vec.imag)
    mi, emi = _two_sum(w.sc.imag, w.vec.real)
    if not all(math.isfinite(c) for c in (pr, pi, mr, mi)):
        raise OutOfRangeError(f"the idempotent components of {w!r} are outside the double range")
    return IdempotentPair(
        complex(pr, pi), complex(mr, mi), complex(epr, epi), complex(emr, emi)
    )


def _exact_half_sum(a: float, ea: float, b: float, eb: float) -> float:
    # ((a+ea) + (b+eb)) / 2 evaluated exactly; the result is representable
    # because it equals one of the original float components, so fsum (which
    # rounds the true sum once) returns its double and the halving is exact.
    try:
        return math.fsum((a, ea, b, eb)) / 2
    except OverflowError:
        total = Fraction(a) + Fraction(ea) + Fraction(b) + Fraction(eb)
        return float(total / 2)


def from_idempotent(pair: IdempotentPair) -> Bicomplex:
    """Invert idempotent_split exactly."""
    p, m, ep, em = pair.plus, pair.minus, pair.err_plus, pair.err_minus
    sc_re = _exact_half_sum(p.real, ep.real, m.real, em.real)
    sc_im = _exact_half_sum(p.imag, ep.imag, m.imag, em.imag)
    vec_re = _exact_half_sum(m.imag, em.imag, -p.imag, -ep.imag)
    vec_im = _exact_half_sum(p.real, ep.real, -m.real, -em.real)
    return Bicomplex(complex(sc_re, sc_im), complex(vec_re, vec_im))


def bc_exp(w: Bicomplex) -> Bicomplex:
    """E[W] = P+ e^{W+} + P- e^{W-}."""
    p, m = w.idempotent()
    return Bicomplex.from_idempotent_coords(cmath.exp(p), cmath.exp(m))


def isclose(a: Bicomplex, b: Bicomplex, tol: float = 1e-12) -> bool:
    """Tolerance scaled by max(1, |a|, |b|)."""
    return (a - b).norm <= tol * max(1.0, a.norm, b.norm)
