import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadlab.scalar import ONE, SQRT2, ZERO, Scalar, sqrt2_pow


def scalars():
    ints = st.integers(min_value=-64, max_value=64)
    exps = st.integers(min_value=0, max_value=8)
    return st.builds(Scalar, ints, ints, exps)


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == Scalar(2)


def test_canonical_form_and_equality():
    assert Scalar(2, 0, 1) == Scalar(1)
    assert Scalar(4, 2, 2) == Scalar(2, 1, 1)
    assert hash(Scalar(2, 0, 1)) == hash(ONE)
    assert Scalar(0, 0, 5) == ZERO


@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars())
def test_float_view_matches_fractions(a):
    r, s = a.to_fractions()
    assert math.isclose(float(a), float(r) + float(s) * math.sqrt(2), abs_tol=1e-12)


def reference_float(x: Scalar) -> float:
    """``(m + n*sqrt2) / 2**e`` through an integer square root 256 bits deep."""
    root = math.isqrt(2 * x.n * x.n << 512)
    num = (x.m << 256) + (root if x.n > 0 else -root)
    return float(Fraction(num, 1 << (256 + x.e)))


@given(scalars(), st.integers(min_value=0, max_value=6), st.sampled_from([1, -1]))
def test_float_view_of_unit_multiples_does_not_cancel(u, k, sign):
    # (3 - 2*sqrt2)**k is a unit: m and n*sqrt2 grow while their sum shrinks
    x = u * Scalar(3, -2) ** k * sign
    want = reference_float(x)
    assert abs(float(x) - want) <= 4 * math.ulp(want)


def test_float_view_of_large_and_tiny_values():
    x = Scalar(99, -70) ** 3  # ~1.2884e-07, from m = 3880899, n = -2744210
    assert abs(float(x) - reference_float(x)) <= 4 * math.ulp(reference_float(x))
    huge = Scalar(10**400, -(10**400) // 2, 1400)
    assert float(huge) == pytest.approx(reference_float(huge), rel=1e-15)
    assert float(Scalar(3, -2, 1200)) == 0.0


@given(scalars(), scalars())
def test_exact_order_matches_float(a, b):
    fa, fb = float(a), float(b)
    if abs(fa - fb) > 1e-9:
        assert (a < b) == (fa < fb)


def test_order_on_close_values():
    # 3 vs 2*sqrt2 = 2.828..., and the reverse
    assert Scalar(3) > Scalar(0, 2)
    assert Scalar(0, 5) > Scalar(7)  # 7.07 > 7
    assert Scalar(-3) < Scalar(0, -2)


def test_sqrt2_pow():
    assert sqrt2_pow(0) == ONE
    assert sqrt2_pow(2) == Scalar(2)
    assert sqrt2_pow(1) == SQRT2
    assert sqrt2_pow(-1) == Scalar(0, 1, 1)
    assert sqrt2_pow(-1) * sqrt2_pow(1) == ONE
    for k in range(-9, 10):
        assert math.isclose(float(sqrt2_pow(k)), 2.0 ** (k / 2))


def test_division_by_units():
    assert Scalar(3) / Scalar(2) == Scalar(3, 0, 1)
    assert Scalar(3) / SQRT2 == Scalar(0, 3, 1)
    assert (Scalar(5, 7, 3) / sqrt2_pow(-3)) * sqrt2_pow(-3) == Scalar(5, 7, 3)
    with pytest.raises(ValueError):
        Scalar(1) / Scalar(3)
    with pytest.raises(ValueError):
        Scalar(1) / Scalar(1, 1)
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / ZERO


def test_immutability():
    a = Scalar(1)
    with pytest.raises(AttributeError):
        a.m = 2
