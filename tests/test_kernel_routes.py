"""The low-degree routes of the Q(d) kernel against its general routes and
against the Fraction kernel.

pmul scales by a constant operand, pgcd tests a linear operand by one
homogeneous Horner sum, and pexquo divides by a linear divisor synthetically.
The general routes they bypass, the convolution `_convolve`, the primitive
remainder sequence `_prs` and the long division `_long_division`, accept the
same operands, so each route must return exactly what its general route
returns, and raise where it raises.  The strategies draw the route's case in
most examples.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_scalars as oracle
from wba.errors import NonzeroRemainder
from wba.scalars import _convolve, _long_division, _prs, pexquo, pgcd, pmul, ptrim

ints = st.integers(-9, 9)
polys = st.lists(ints, max_size=6).map(ptrim)
nonzero_polys = polys.filter(bool)
constants = st.one_of(st.sampled_from([(1,), (-1,)]), ints.filter(bool).map(lambda k: (k,)))
# b0 + b1*d with b1 != 0, with content and either sign of the leading coefficient
linears = st.tuples(ints, ints.filter(bool), st.sampled_from([1, 1, 2, -1, -3])).map(
    lambda t: (t[0] * t[2], t[1] * t[2])
)


def fractions(p) -> tuple:
    return tuple(Fraction(c) for c in p)


def integers(p) -> tuple:
    """p, whose coefficients are Fractions, scaled to coprime integers with a
    positive leading coefficient."""
    scale = lcm(*(c.denominator for c in p))
    q = [int(c * scale) for c in p]
    g = gcd(*q) * (1 if q[-1] > 0 else -1)
    return tuple(c // g for c in q)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(constants, polys), st.tuples(polys, constants), st.tuples(polys, polys)))
@example(((1,), (3, 0, -2)))
@example(((3, 0, -2), (1,)))
@example(((-1,), (3, 0, -2)))
@example(((3, 0, -2), (-1,)))
@example(((5,), ()))
@example(((), (-4,)))
@example(((2,), (-7,)))
def test_pmul_routes_agree(operands):
    a, b = operands
    product = pmul(a, b)
    assert product == _convolve(a, b) == pmul(b, a)
    assert fractions(product) == oracle.pmul(fractions(a), fractions(b))
    if a == (1,) and len(b) != 1:
        assert product is b


@settings(max_examples=300, deadline=None)
@given(nonzero_polys, linears, st.booleans())
@example((0, 1), (4, 2), True)  # content: 2d + 4
@example((1, 2, 1), (4, 2), False)
@example((3, 1), (3, -1), True)  # a negative leading coefficient
@example((-3, -1, 2), (3, -1), False)
@example((2, 1), (2, 1), True)  # the same linear on both sides
@example((4, 2), (2, 1), False)
@example((5,), (1, 1), False)  # a constant against a linear
def test_pgcd_linear_route_agrees(a, b, divides):
    if divides:
        a = pmul(a, b)
    for x, y in ((a, b), (b, a)):
        g = pgcd(x, y)
        longer, shorter = (x, y) if len(x) >= len(y) else (y, x)
        assert g == _prs(longer, shorter)
        assert g == integers(oracle.pgcd(fractions(x), fractions(y)))
    if divides:
        assert len(pgcd(a, b)) == 2


@st.composite
def divisions(draw):
    """(a, b) for a linear b, with a = q*b + r for a drawn r that is 0 in
    about half the examples."""
    q, b = draw(polys), draw(linears)
    r = draw(st.sampled_from([0, 0, 0, 1, -2, 5]))
    a = pmul(q, b)
    return ptrim([(a[0] if a else 0) + r, *a[1:]]), b


@settings(max_examples=300, deadline=None)
@given(divisions())
@example(((-1, 0, 1), (-1, 1)))  # exact: d^2 - 1 = (d + 1)(d - 1)
@example(((1, 0, 1), (-1, 1)))  # d^2 + 1 by d - 1 leaves 2
@example(((1, 1), (2, 2)))  # exact in Q[d], not in Z[d]
@example(((3,), (3, 1)))  # a constant dividend
@example(((), (3, 1)))  # a zero dividend
@example(((8, -4), (4, -2)))  # a negative leading coefficient
def test_pexquo_linear_route_agrees(division):
    a, b = division
    exact_q, rem = oracle.pdivmod(fractions(a), fractions(b))
    try:
        quotient = pexquo(a, b)
    except NonzeroRemainder:
        with pytest.raises(NonzeroRemainder):
            _long_division(a, b)
        assert rem or any(c.denominator != 1 for c in exact_q)
        return
    assert quotient == _long_division(a, b)
    assert (fractions(quotient), ()) == (exact_q, rem)
