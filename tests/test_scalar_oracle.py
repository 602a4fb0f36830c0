"""The integer Q(d) kernel against the Fraction kernel it replaced.

`fraction_scalars` is the old kernel: long division over Q and a monic
denominator.  On random rational numerators and denominators up to degree 5,
canonicalization, the field operations and the text form must agree with it,
and every scalar the kernel interns must be in canonical form.  The linear
combinations of the product's sparse path must agree with repeated memoized
addition.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_scalars as oracle
import wba.scalars as scalars
from wba.scalars import ZERO, DeltaScalar, pgcd, scalar_linear_combination, scalar_str

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(coeffs, min_size=0, max_size=6).map(tuple)
nonzero_polys = st.lists(coeffs, min_size=1, max_size=6).filter(any).map(tuple)


@st.composite
def rationals(draw):
    """An uncanonical Fraction pair (num, den), degrees up to 5."""
    return draw(polys), draw(nonzero_polys)


def to_scalar(x) -> DeltaScalar:
    """The kernel's scalar for a Fraction pair, through make on integers."""
    return DeltaScalar.make(*oracle.integer_form(x))


def assert_canonical(x: DeltaScalar):
    num, den = x.num, x.den
    assert all(type(c) is int for c in num + den)
    assert not num or num[-1]
    assert den and den[-1] > 0
    assert gcd(*num, *den) == 1
    assert pgcd(num, den) == (1,)
    # coprime in Q[d] by the Fraction gcd as well
    assert oracle.pgcd(tuple(map(Fraction, num)), tuple(map(Fraction, den))) == (1,)


def assert_agrees(x: DeltaScalar, y):
    """x is the kernel's result, y the oracle's canonical Fraction pair."""
    assert_canonical(x)
    assert (x.num, x.den) == oracle.integer_form(y)
    assert scalar_str(x) == oracle.scalar_str(y)


@settings(max_examples=300, deadline=None)
@given(rationals())
def test_make_agrees(x):
    assert_agrees(to_scalar(x), oracle.make(*x))


@settings(max_examples=200, deadline=None)
@given(rationals(), rationals())
def test_field_operations_agree(x, y):
    a, b = to_scalar(x), to_scalar(y)
    ox, oy = oracle.make(*x), oracle.make(*y)
    assert_agrees(a + b, oracle.add(ox, oy))
    assert_agrees(a * b, oracle.mul(ox, oy))
    if ox[0]:
        assert_agrees(a.inverse(), oracle.inverse(ox))


def ints(p) -> tuple:
    """p scaled by the lcm of its coefficient denominators."""
    scale = lcm(*(c.denominator for c in p))
    return tuple(int(c * scale) for c in p)


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_gcd_agrees(a, b, common):
    a, b = oracle.pmul(a, common), oracle.pmul(b, common)
    # the primitive gcd is the monic one scaled to integer coefficients
    assert pgcd(ints(a), ints(b)) == ints(oracle.pgcd(a, b))


int_polys = st.lists(st.integers(-6, 6), max_size=4).map(tuple)
denominators = st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any).map(tuple)


@st.composite
def combinations(draw):
    """(items, cancels): (scalar, multiplicity) pairs whose denominators come
    from a pool of at most three, so that many repeat; cancels when the items
    end with the negation of every earlier one."""
    pool = draw(st.lists(denominators, min_size=1, max_size=3))
    drawn = draw(
        st.lists(st.tuples(int_polys, st.sampled_from(pool), st.integers(-3, 3)), max_size=10)
    )
    items = [(DeltaScalar.make(num, den), k) for num, den, k in drawn]
    cancels = draw(st.booleans())
    if cancels:
        items += [(c, -k) for c, k in items]
    return items, cancels


def repeated_sum(items) -> DeltaScalar:
    out = ZERO
    for c, k in items:
        for _ in range(abs(k)):
            out = out + c if k > 0 else out - c
    return out


D = DeltaScalar.make


@settings(max_examples=300, deadline=None)
@given(combinations())
@example(([(D((1,), (0, 1)), 1), (D((2,), (0, 1)), 0), (D((1, 1), (-1, 1)), -2),
           (D((3,), (0, 1)), 1), (D((1,), (-1, 1)), 2)], False))
@example(([(D((1,), (0, 2)), 2), (D((1,), (1, 1)), -1), (D((1,), (0, 2)), -2),
           (D((1,), (1, 1)), 1)], True))
def test_linear_combination_agrees_with_repeated_addition(case):
    items, cancels = case
    got = scalar_linear_combination(items)
    assert got is repeated_sum(items)
    assert_canonical(got)
    if cancels:
        assert got is ZERO


def test_every_interned_scalar_is_canonical():
    assert scalars._INTERN
    for key, x in scalars._INTERN.items():
        assert key == (x.num, x.den)
        assert_canonical(x)
