import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bivekua.bicomplex import (
    J,
    ONE,
    P_MINUS,
    P_PLUS,
    ZERO,
    Bicomplex,
    BicomplexError,
    DivisionByZeroError,
    InvalidValueError,
    OutOfRangeError,
    PlanePoint,
    ZeroDivisorError,
    bc_exp,
    from_cj,
    from_idempotent,
    idempotent_split,
)
from bivekua.fields import BicomplexArray
from oracles import isclose

finite = st.floats(allow_nan=False, allow_infinity=False)  # every finite double


@st.composite
def bicomplexes(draw):
    return Bicomplex(
        complex(draw(finite), draw(finite)), complex(draw(finite), draw(finite))
    )


# Exact arithmetic: a complex number as a pair of Fractions (re, im).


def _q(c: complex) -> tuple[Fraction, Fraction]:
    return Fraction(c.real), Fraction(c.imag)


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _in_range(*parts: tuple[Fraction, Fraction]) -> bool:
    """True iff every exact component rounds to a finite double."""
    try:
        for re, im in parts:
            float(re), float(im)
    except OverflowError:
        return False
    return True


def _exact_split(w):
    """(W+, W-) = (Sc W - i Vec W, Sc W + i Vec W)."""
    (sr, si), (vr, vi) = _q(w.sc), _q(w.vec)
    return (sr + vi, si - vr), (sr - vi, si + vr)


def _exact_sum(w, v):
    return tuple(
        (a[0] + b[0], a[1] + b[1]) for a, b in ((_q(w.sc), _q(v.sc)), (_q(w.vec), _q(v.vec)))
    )


def _exact_product(w, v):
    ws, wv, vs, vv = _q(w.sc), _q(w.vec), _q(v.sc), _q(v.vec)
    ss, tt, st_, ts = _mul(ws, vs), _mul(wv, vv), _mul(ws, vv), _mul(wv, vs)
    return (ss[0] - tt[0], ss[1] - tt[1]), (st_[0] + ts[0], st_[1] + ts[1])


def _exact_inverse(w):
    """W^-1 = conj_j(W) / (Sc^2 + Vec^2); W is not a zero divisor."""
    s, v = _q(w.sc), _q(w.vec)
    ss, vv = _mul(s, s), _mul(v, v)
    d = (ss[0] + vv[0], ss[1] + vv[1])
    d2 = d[0] * d[0] + d[1] * d[1]
    dinv = (d[0] / d2, -d[1] / d2)
    neg_v = (-v[0], -v[1])
    return _mul(s, dinv), _mul(neg_v, dinv)


def test_mul_orthogonal_idempotents():
    assert (P_PLUS * P_MINUS).is_zero


def test_mul_j_squared():
    one_plus_j = Bicomplex(1, 1)
    one_minus_j = Bicomplex(1, -1)
    assert one_plus_j * one_minus_j == Bicomplex(2, 0)


def test_mul_i_plus_j_squared():
    w = Bicomplex(1j, 1)
    assert isclose(w * w, Bicomplex(-2, 2j))


def test_inv_scalar():
    assert isclose(Bicomplex(2, 0).inv(), Bicomplex(0.5, 0))


def test_inv_j():
    assert isclose(J.inv(), Bicomplex(0, -1))


def test_inv_zero_divisor():
    with pytest.raises(ZeroDivisorError):
        P_PLUS.inv()


def test_inv_zero():
    with pytest.raises(DivisionByZeroError):
        ZERO.inv()


def test_inv_near_underflow():
    w = Bicomplex(1e-200, 0)  # a unit, not a zero divisor
    assert not w.is_zero_divisor
    assert isclose(w.inv().scale(1e-200), ONE, tol=1e-15)


def test_inv_near_overflow():
    assert isclose(Bicomplex(1e200, 0).inv().scale(1e200), ONE, tol=1e-15)


def test_inv_with_idempotent_components_past_the_range():
    # W+ = 2e308 and W- = -2e308 i overflow although W is finite
    w = Bicomplex(1e308 * (1 - 1j), -1e308 * (1 - 1j))
    got = w.inv()
    want = 2.5e-309 * (1 + 1j)
    for part in (got.sc, got.vec):
        assert abs(part.real - want.real) <= 1e-12 * abs(want.real)
        assert abs(part.imag - want.imag) <= 1e-12 * abs(want.imag)


def test_inv_with_components_near_the_largest_double():
    # 0.5/W+ with W+ = 2^1023 (1 - i) divided by 2^1024 inside the complex
    # division, which overflowed, and the inverse came out as 0
    w = Bicomplex(0, 2.0**1023 * (1 + 1j))
    want = complex(-(2.0**-1024), 2.0**-1024)  # Vec of -j / (2^1023 (1 + i))
    got = w.inv()
    assert got.sc == 0 and got.vec == want
    assert (w * got - ONE).norm <= 1e-15


def test_inv_whose_idempotent_inverse_passes_the_range():
    # W+ = 5e-324 i, so 1/W+ is far past the largest double
    w = Bicomplex(complex(2.0**1000, 5e-324), -(2.0**1000) * 1j)
    with pytest.raises(OutOfRangeError):
        w.inv()


@pytest.mark.parametrize("x", [5e-324, 1.5e-323, 2.2250738585072014e-308])
def test_norm_of_subnormals_is_exact(x):
    # halving before the sum rounded 0.5 * 5e-324 to 0
    assert Bicomplex(x, 0).norm == x


@pytest.mark.parametrize(
    "w, want",
    [
        # 0.5*(|W+| + |W-|) overflowed in the sum before it halved
        (Bicomplex(1.5e308, 0), 1.5e308),
        # W+ = 2e308 overflows; W = 1e308 (1 + ij) = 2e308 P+
        (Bicomplex(1e308, 1e308j), 1e308),
        # W+ = 1.5e308 (1 + i) is finite but |W+| is not; W = P+ W+
        (Bicomplex(0.75e308 * (1 + 1j), 0.75e308 * (1j - 1)), 1.5e308 / math.sqrt(2)),
    ],
)
def test_norm_near_the_largest_double(w, want):
    assert abs(w.norm - want) <= 1e-15 * want


def test_norm_past_the_range_is_inf():
    # |W+| = |W-| = 2e308, so |W| = 2e308 is beyond the largest double
    assert Bicomplex(1e308 * (1 - 1j), -1e308 * (1 - 1j)).norm == math.inf


@pytest.mark.parametrize(
    "w",
    [
        Bicomplex(0, 3.352974370446957e-159j),
        Bicomplex(8j, complex(8, 2.2250738585072014e-308)),
    ],
)
def test_inversion_identity_at_range_edges(w):
    assert (w * w.inv() - ONE).norm <= 1e-15


def test_norm_examples():
    assert ONE.norm == 1.0
    assert J.norm == 1.0
    assert P_PLUS.norm == 0.5


def test_idempotent_split_examples():
    assert ONE.idempotent() == (1, 1)
    assert J.idempotent() == (-1j, 1j)
    assert P_PLUS.idempotent() == (1, 0)


def test_exp_examples():
    assert isclose(bc_exp(ZERO), ONE)
    assert isclose(bc_exp(Bicomplex(0, math.pi)), Bicomplex(-1, 0))
    e = math.e
    assert isclose(bc_exp(P_PLUS), Bicomplex((e + 1) / 2, 1j * (e - 1) / 2))


def test_nan_rejected():
    with pytest.raises(InvalidValueError):
        Bicomplex(float("nan"), 0)
    with pytest.raises(InvalidValueError):
        PlanePoint(0.0, float("inf"))


@pytest.mark.parametrize("box", [complex, np.complex128])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("part", range(4))
def test_non_finite_bicomplex_part_is_refused(box, bad, part):
    parts = [0.5, -1.0, 2.0, 0.25]
    parts[part] = bad
    sc, vec = complex(parts[0], parts[1]), complex(parts[2], parts[3])
    with pytest.raises(InvalidValueError) as e:
        Bicomplex(box(sc), box(vec))
    assert str(e.value) == f"non-finite component: {sc if part < 2 else vec!r}"


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("part", range(2))
def test_non_finite_plane_point_part_is_refused(kind, bad, part):
    x, y = (kind(bad), kind(0.5)) if part == 0 else (kind(0.5), kind(bad))
    with pytest.raises(InvalidValueError) as e:
        PlanePoint(x, y)
    assert str(e.value) == f"non-finite plane point ({x}, {y})"


@given(finite, finite, finite, finite)
def test_finite_parts_are_accepted(a, b, c, d):
    w = Bicomplex(complex(a, b), complex(c, d))
    assert (w.sc, w.vec) == (complex(a, b), complex(c, d))
    p = PlanePoint(a, b)
    assert (p.x, p.y) == (a, b)


def test_value_equality_and_hash():
    assert Bicomplex(1, 0) == Bicomplex(1 + 0j, 0j)
    assert hash(Bicomplex(1, 0)) == hash(Bicomplex(1 + 0j, 0j))
    assert Bicomplex(0.0, -0.0) == Bicomplex(-0.0, 0.0)
    assert hash(Bicomplex(0.0, -0.0)) == hash(Bicomplex(-0.0, 0.0))
    assert PlanePoint(0.0, 1.5) == PlanePoint(-0.0, 1.5)
    assert hash(PlanePoint(0.0, 1.5)) == hash(PlanePoint(-0.0, 1.5))
    assert Bicomplex(1, 2) != Bicomplex(1, 3)
    assert PlanePoint(1, 2) != PlanePoint(2, 1)
    # equality holds only between values of the same class
    assert Bicomplex(1, 2) != (1 + 0j, 2 + 0j)
    assert PlanePoint(1.0, 2.0) != (1.0, 2.0)
    assert Bicomplex(1, 0) != PlanePoint(1, 0)


def test_value_repr():
    assert repr(PlanePoint(1.1, 0.2)) == "PlanePoint(x=1.1, y=0.2)"
    assert repr(Bicomplex(1, 2j)) == "Bicomplex((1+0j), 2j)"


def test_post_init_runs_once_per_construction(monkeypatch):
    seen = []
    post_init = Bicomplex.__post_init__

    def counted(w):
        seen.append(w)
        post_init(w)

    monkeypatch.setattr(Bicomplex, "__post_init__", counted)
    a = Bicomplex(1, 2j)
    values = [a, a + a, a - a, -a, a * a, a.conj(), a.mul_j(), a.scale(2), a.inv()]
    assert [id(w) for w in seen] == [id(w) for w in values]
    with pytest.raises(InvalidValueError):
        Bicomplex(math.nan, 0)
    assert len(seen) == len(values) + 1


def test_from_cj():
    assert from_cj(complex(2, 3)) == Bicomplex(2, 3)


def test_roundtrip_needs_compensation():
    # A case where the naive half-sum reconstruction rounds.
    w = Bicomplex(complex(0.1, 0.0), complex(0.0, 0.3))
    assert from_idempotent(idempotent_split(w)) == w


def test_idempotent_split_past_the_range():
    # W+ = 2 * 8.99e307 overflows although W is finite
    w = Bicomplex(8.98846567431158e307, 8.988465674311579e307j)
    with pytest.raises(OutOfRangeError):
        idempotent_split(w)


@given(bicomplexes())
@example(Bicomplex(8.98846567431158e307, 8.988465674311579e307j))
def test_roundtrip_exact(w):
    if not _in_range(*_exact_split(w)):
        with pytest.raises(OutOfRangeError):
            idempotent_split(w)
        return
    assert from_idempotent(idempotent_split(w)) == w


def _on_nodes(values) -> BicomplexArray:
    return BicomplexArray(
        np.array([v.sc for v in values], dtype=complex),
        np.array([v.vec for v in values], dtype=complex),
    )


@given(st.lists(st.tuples(bicomplexes(), bicomplexes()), min_size=1, max_size=4))
@example([(Bicomplex(1e308 * (1 - 1j), -1e308 * (1 - 1j)), Bicomplex(0.25, 0.5j))])
def test_array_product_is_the_bicomplex_product_at_each_node(pairs):
    # W+- of the example passes the double range while the product does not
    ws, vs = zip(*pairs)
    try:
        want = [w * v for w, v in pairs]
    except BicomplexError as e:
        with pytest.raises(type(e)):
            _on_nodes(ws) * _on_nodes(vs)
        return
    got = _on_nodes(ws) * _on_nodes(vs)
    assert [Bicomplex(a, b) for a, b in zip(got.sc.tolist(), got.vec.tolist())] == want


@given(st.lists(bicomplexes(), min_size=1, max_size=4))
@example([Bicomplex(1.5e308, 0), Bicomplex(1e308, 1e308j), Bicomplex(5e-324, 0)])
@example([Bicomplex(0.75e308 * (1 + 1j), 0.75e308 * (1j - 1)), Bicomplex(1e308 * (1 - 1j), -1e308 * (1 - 1j))])
def test_array_norm_is_the_bicomplex_norm_at_each_node(ws):
    # the examples take each range-edge branch of Bicomplex.norm: a sum of
    # |W+-| past the range, W+ past it, |W+| past it, and the norm past it
    got = _on_nodes(ws).norm
    assert [v.hex() for v in got.tolist()] == [w.norm.hex() for w in ws]


@given(bicomplexes(), bicomplexes())
def test_norm_submultiplicative(w, v):
    if not _in_range(*_exact_product(w, v)):
        with pytest.raises(BicomplexError):
            w * v
        return
    # a norm past the largest double is inf, and inf * 0 is no bound
    bound = 2 * (w.norm * v.norm) if max(w.norm, v.norm) < math.inf else math.inf
    assert (w * v).norm <= bound * (1 + 1e-12) + 1e-300


@given(bicomplexes(), bicomplexes())
def test_norm_triangle(w, v):
    if not _in_range(*_exact_sum(w, v)):
        with pytest.raises(BicomplexError):
            w + v
        return
    assert (w + v).norm <= (w.norm + v.norm) * (1 + 1e-12) + 1e-300


@given(bicomplexes())
def test_norm_component_bounds(w):
    slack = 1 + 1e-12
    # hypot is abs without the OverflowError past the largest double
    sc, vec = math.hypot(w.sc.real, w.sc.imag), math.hypot(w.vec.real, w.vec.imag)
    assert sc <= w.norm * slack
    assert vec <= w.norm * slack
    assert w.norm <= (sc + vec) * slack


small = st.floats(min_value=-20, max_value=20, allow_nan=False)


@st.composite
def small_bicomplexes(draw):
    return Bicomplex(
        complex(draw(small), draw(small)), complex(draw(small), draw(small))
    )


@given(small_bicomplexes(), small_bicomplexes())
def test_exp_homomorphism(w, v):
    lhs = bc_exp(w + v)
    rhs = bc_exp(w) * bc_exp(v)
    # ulp scale: recombining idempotent coordinates cancels against the
    # operand magnitudes, not the result magnitude.
    scale = max(1.0, lhs.norm, bc_exp(w).norm * bc_exp(v).norm)
    assert (lhs - rhs).norm <= 1e-10 * scale


@given(small_bicomplexes())
def test_exp_inverse(w):
    prod = bc_exp(w) * bc_exp(-w)
    scale = max(1.0, bc_exp(w).norm * bc_exp(-w).norm)
    assert (prod - ONE).norm <= 1e-10 * scale


@given(bicomplexes())
def test_zero_divisor_classification(w):
    p, m = w.idempotent()
    if w.is_zero_divisor:
        assert (p == 0) != (m == 0)
    elif not w.is_zero and w.times_conj() != 0:
        assert p != 0 and m != 0


@given(bicomplexes())
@example(Bicomplex(1j, complex(1, 2.225073858507203e-309)))  # W+ ~ 2e-309
@example(Bicomplex(complex(2.225073858507203e-309, 2.225073858507203e-309),
                  complex(2.225073858507203e-309, 2.225073858507203e-309)))  # (W^-1)+ > max
def test_inversion_identity(w):
    if w.is_zero or w.is_zero_divisor:
        return
    if not _in_range(*_exact_inverse(w)):
        with pytest.raises(OutOfRangeError):
            w.inv()
        return
    prod = w * w.inv()
    # Conditioning degrades near the zero-divisor cone; scale by it.
    cond = max(1.0, w.norm * w.inv().norm)
    assert (prod - ONE).norm <= 1e-9 * cond


@given(small_bicomplexes(), st.floats(min_value=0, max_value=0.49))
def test_openness_proxy(w, frac):
    p, m = w.idempotent()
    if w.is_zero or w.times_conj() == 0:
        return
    r = frac * min(abs(p), abs(m))
    v = w + Bicomplex(complex(r / 2, 0), complex(0, r / 3))
    assert (v - w).norm < 0.5 * min(abs(p), abs(m)) + 1e-300
    assert v.is_zero or v.times_conj() != 0 or (v - w).norm == 0


def test_times_conj_equals_plus_times_minus():
    w = Bicomplex(complex(1.25, -0.5), complex(2.0, 0.75))
    p, m = w.idempotent()
    assert abs(w.times_conj() - p * m) <= 1e-12 * max(1.0, abs(p * m))
