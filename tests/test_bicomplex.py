import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivekua.bicomplex import (
    J,
    ONE,
    P_MINUS,
    P_PLUS,
    ZERO,
    Bicomplex,
    DivisionByZeroError,
    InvalidValueError,
    OutOfRangeError,
    PlanePoint,
    ZeroDivisorError,
    bc_exp,
    from_cj,
    from_idempotent,
    idempotent_split,
    isclose,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def bicomplexes(draw):
    return Bicomplex(
        complex(draw(finite), draw(finite)), complex(draw(finite), draw(finite))
    )


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


def test_json_roundtrip():
    w = Bicomplex(complex(1.5, -2.25), complex(0.125, 3))
    assert Bicomplex.from_json(w.to_json()) == w


def test_from_cj():
    assert from_cj(complex(2, 3)) == Bicomplex(2, 3)


def test_roundtrip_needs_compensation():
    # A case where the naive half-sum reconstruction rounds.
    w = Bicomplex(complex(0.1, 0.0), complex(0.0, 0.3))
    assert from_idempotent(idempotent_split(w)) == w


@given(bicomplexes())
def test_roundtrip_exact(w):
    assert from_idempotent(idempotent_split(w)) == w


@given(bicomplexes(), bicomplexes())
def test_norm_submultiplicative(w, v):
    assert (w * v).norm <= 2 * w.norm * v.norm * (1 + 1e-12) + 1e-300


@given(bicomplexes(), bicomplexes())
def test_norm_triangle(w, v):
    assert (w + v).norm <= (w.norm + v.norm) * (1 + 1e-12) + 1e-300


@given(bicomplexes())
def test_norm_component_bounds(w):
    slack = 1 + 1e-12
    assert abs(w.sc) <= w.norm * slack
    assert abs(w.vec) <= w.norm * slack
    assert w.norm <= (abs(w.sc) + abs(w.vec)) * slack


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
    # W^-1 = 2^600 (2^600 W)^-1, and the scaled inverse is well inside the range
    scale = 2.0**600
    scaled = Bicomplex(w.sc * scale, w.vec * scale).inv()
    parts = (scaled.sc.real, scaled.sc.imag, scaled.vec.real, scaled.vec.imag)
    if max(map(abs, parts)) > sys.float_info.max / scale:
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
