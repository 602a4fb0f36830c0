import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_scalars import integer_form
from wba.errors import DivisionByZero, NonzeroRemainder, ParseError
from wba.scalars import (
    DELTA,
    ONE,
    ZERO,
    DeltaScalar,
    affine,
    parse_scalar,
    pexquo,
    pgcd,
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
    assert x.num == (1, 1)
    assert x.den == (1,)


def test_inverse_of_golden_prefactor():
    # inv(2d(d-1)) is the overall scalar of the golden (2,2) idempotent
    x = (DeltaScalar.from_int(2) * DELTA * (DELTA - 1)).inverse()
    assert x * (2 * DELTA * (DELTA - 1)) == ONE
    assert x.den == (0, -2, 2)  # 2*d^2 - 2*d, joint content 1
    assert x.num == (1,)
    assert scalar_str(x) == "1/(2*d^2-2*d)"


def test_exact_division_in_z():
    # (d^2 - 1) / (d - 1) = d + 1
    assert pexquo((-1, 0, 1), (-1, 1)) == (1, 1)
    assert pexquo((2, 2), (1, 1)) == (2,)
    assert pexquo((), (3, 1)) == ()
    # d^2 + 1 leaves the remainder 2 by d - 1
    with pytest.raises(NonzeroRemainder):
        pexquo((1, 0, 1), (-1, 1))
    # exact in Q[d], but not in Z[d]: never truncated to an integer quotient
    for a, b in [((1, 1), (2, 2)), ((3,), (2,)), ((0, 3), (0, 2))]:
        with pytest.raises(NonzeroRemainder):
            pexquo(a, b)
    with pytest.raises(NonzeroRemainder):
        pexquo((3,), (0, 1))
    with pytest.raises(DivisionByZero):
        pexquo((1,), ())


def test_primitive_gcd():
    # gcd(2d^2 - 2, -4d - 4) = d + 1 up to a unit
    assert pgcd((-2, 0, 2), (-4, -4)) == (1, 1)
    assert pgcd((0, 6), (0, 0, -9)) == (0, 1)
    assert pgcd((2, 1), (3, 1)) == (1,)
    assert pgcd((6,), ()) == (1,)
    assert pgcd((), ()) == ()


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
    return DeltaScalar.make(*integer_form((tuple(num), tuple(den))))


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
    ["", "d+", "2**d", "(d", "d)", "x", "d^d", "1/(d-d)", "d^99999999", "2^257", "(d^100)^3",
     "(2^200*2^200)^200", "(d+1)^256*(d+1)^256",
     pytest.param("9" * 1001, id="1001-digits"),
     pytest.param("d+" + "1" * 5000, id="5000-digits"),
     "\u00b2", "d^\u00b2"],
)
def test_parse_errors(text):
    with pytest.raises((ParseError, DivisionByZero)):
        parse_scalar(text)


@pytest.mark.parametrize("value", [["1", "2"], ["d"], ("d",), 12, None, b"d"], ids=repr)
def test_parse_refuses_a_non_string(value):
    with pytest.raises(ParseError, match="^expected a string"):
        parse_scalar(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DeltaScalar.from_fraction(0.1),
        lambda: DeltaScalar.from_fraction("3/4"),
        lambda: affine(0.5, 1),
        lambda: affine(0, "1"),
        lambda: DeltaScalar.poly([0.25, "1/3"]),
        lambda: DeltaScalar.poly([1, Fraction(1, 2), 0.5]),
    ],
    ids=["fraction-float", "fraction-str", "affine-float", "affine-str", "poly-mixed",
         "poly-last-float"],
)
def test_rational_constructors_refuse_floats_and_strings(build):
    # numbers enter Q(d) as ints or Fractions only, as in arithmetic
    with pytest.raises(TypeError):
        build()


def test_parse_integer_at_the_digit_bound():
    assert parse_scalar("9" * 1000) == DeltaScalar.from_int(10**1000 - 1)


def test_parse_power_at_the_degree_bound():
    assert parse_scalar("(d^2)^128") == parse_scalar("d^256")


@pytest.mark.parametrize(
    "text",
    [
        "((d+1)^256+1)/((d+2)^256+1)",
        "((d+1)^256+1)/((d+3)^255+7)",
        # no slower than 0.02 s to compute, but a gcd of two degree-256 sides
        "(d+1)^256/(d+2)^256",
        "1/((d+1)^64+1)+1/((d+2)^64+3)",
    ],
)
def test_parse_refuses_an_operation_over_the_gcd_work_bound(text):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="operation too large"):
        parse_scalar(text)
    assert time.perf_counter() - start < 1


def test_parse_keeps_operations_under_the_gcd_work_bound():
    # gcds of degree 32 by 31, and a linear operand of any degree
    x = parse_scalar("((d+1)^32+1)/((d+3)^31+7)")
    assert x == ((DELTA + 1) ** 32 + 1) / ((DELTA + 3) ** 31 + 7)
    assert parse_scalar("((d+1)^256-1)/(d+2)") == ((DELTA + 1) ** 256 - 1) / (DELTA + 2)


@settings(max_examples=100, deadline=None)
@given(scalars(), st.integers(0, 9))
def test_parsed_power_is_the_repeated_product(x, k):
    # the parser raises num and den to the power apart, with no gcd
    assert parse_scalar(f"({scalar_str(x)})^{k}") is x**k


def test_power_matches_repeated_product():
    x = (DELTA + 1) / (DELTA - 2)
    acc = ONE
    for k in range(12):
        assert x**k == acc
        assert x ** (-k) == acc.inverse()
        acc = acc * x
