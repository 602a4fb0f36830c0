from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wba.errors import DivisionByZero, ParseError
from wba.scalars import (
    DELTA,
    ONE,
    ZERO,
    DeltaScalar,
    affine,
    parse_scalar,
    scalar_str,
)


def test_common_denominator_sum():
    # 1/d + 1/(d(d-1)) == 1/(d-1)
    a = ONE / DELTA
    b = ONE / (DELTA * (DELTA - 1))
    assert a + b == ONE / (DELTA - 1)


def test_gcd_cancellation():
    # (d^2 - 1)/(d - 1) reduces to d + 1
    x = (DELTA * DELTA - 1) / (DELTA - 1)
    assert x == DELTA + 1
    assert x.num == (Fraction(1), Fraction(1))
    assert x.den == (Fraction(1),)


def test_inverse_of_golden_prefactor():
    # inv(2d(d-1)) is the overall scalar of the golden (2,2) idempotent
    x = (DeltaScalar.from_int(2) * DELTA * (DELTA - 1)).inverse()
    assert x * (2 * DELTA * (DELTA - 1)) == ONE
    assert x.den == (Fraction(0), Fraction(-1), Fraction(1))  # monic d^2 - d
    assert x.num == (Fraction(1, 2),)


def test_zero_and_one_are_interned():
    assert DeltaScalar.from_int(0) is ZERO
    assert DeltaScalar.from_int(1) is ONE
    assert affine(0, 1) is DELTA


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.inverse()
    with pytest.raises(DivisionByZero):
        DeltaScalar.make((Fraction(1),), ())


def test_canonical_equality_is_structural():
    a = (DELTA**2 - DELTA) / (DELTA - 1)
    b = DELTA
    assert a is b
    assert hash(a) == hash(b)


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def scalars(draw):
    num = draw(st.lists(small_fracs, min_size=0, max_size=3))
    den = draw(st.lists(small_fracs, min_size=1, max_size=3).filter(lambda c: any(c)))
    return DeltaScalar.make(tuple(num), tuple(den))


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    if not a.is_zero:
        assert a * a.inverse() == ONE


@settings(max_examples=150, deadline=None)
@given(scalars())
def test_string_round_trip(x):
    assert parse_scalar(scalar_str(x)) is x


@pytest.mark.parametrize(
    "text,value",
    [
        ("1/d", ONE / DELTA),
        ("(2*d^2-3)/(d*(d-1))", (2 * DELTA**2 - 3) / (DELTA * (DELTA - 1))),
        ("3*d+1/2", affine(Fraction(1, 2), 3)),
        ("-d", -DELTA),
        ("d^3", DELTA**3),
        (" (d + 1) * (d - 1) ", DELTA**2 - 1),
    ],
)
def test_parse_examples(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize(
    "text",
    ["", "d+", "2**d", "(d", "x", "d^d", "1/(d-d)", "d^99999999", "2^257", "(d^100)^3"],
)
def test_parse_errors(text):
    with pytest.raises((ParseError, DivisionByZero)):
        parse_scalar(text)


def test_parse_power_at_the_degree_bound():
    assert parse_scalar("(d^2)^128") == parse_scalar("d^256")


def test_power_matches_repeated_product():
    x = (DELTA + 1) / (DELTA - 2)
    acc = ONE
    for k in range(12):
        assert x**k == acc
        assert x ** (-k) == acc.inverse()
        acc = acc * x
