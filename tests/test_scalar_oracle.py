"""The integer Q(d) kernel against the Fraction kernel it replaced.

`fraction_scalars` is the old kernel: long division over Q and a monic
denominator.  On random rational numerators and denominators up to degree 5,
canonicalization, the field operations and the text form must agree with it,
and every scalar the kernel interns must be in canonical form.  Each field
operation cancels only the factors its canonical operands leave possible; on
operand pairs built to share factors, it must return the very scalar that
make gives for the naive numerator and denominator, also with every memo
emptied.  The linear combinations of the product's sparse path must agree
with repeated memoized addition.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_scalars as oracle
import wba.scalars as scalars
from wba.scalars import (
    DELTA,
    ONE,
    ZERO,
    DeltaScalar,
    padd,
    pgcd,
    pmul,
    pneg,
    scalar_linear_combination,
    scalar_str,
)

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
@example(([(D((1,), (0, 1)), 1), (D((1,), (0, 1)), -1), (D((1, 1), (2, 1)), 1)], False))
def test_linear_combination_agrees_with_repeated_addition(case):
    items, cancels = case
    before = len(scalars._INTERN)
    got = scalar_linear_combination(items)
    # only the total is interned, never a partial sum
    assert len(scalars._INTERN) <= before + 1
    assert got is repeated_sum(items)
    assert_canonical(got)
    if cancels:
        assert got is ZERO


def assert_text(x: DeltaScalar):
    """The cached text is the uncached rendering, and the Fraction kernel's."""
    text = scalar_str(x)
    assert x._text is text
    assert text == scalars._render(x.num, x.den)
    as_fractions = (tuple(map(Fraction, x.num)), tuple(map(Fraction, x.den)))
    assert text == oracle.scalar_str(oracle.make(*as_fractions))


small_polys = st.lists(st.integers(-5, 5), max_size=4).map(tuple)
small_dens = st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(any).map(tuple)
int_dens = st.integers(-6, 6).filter(bool).map(lambda k: (k,))
CONSTANTS = (ZERO, ONE, -ONE, DELTA)


@st.composite
def operand_pairs(draw):
    """Two scalars whose numerators and denominators share factors in the ways
    the cancellations of the field operations must find."""
    n1, n2, d1, d2 = draw(small_polys), draw(small_polys), draw(small_dens), draw(small_dens)
    kind = draw(st.sampled_from(
        ["random", "shared", "common-den-factor", "equal-den", "int-den",
         "negation", "inverse", "constant"]
    ))
    if kind == "shared":
        # a numerator multiplied by the other denominator, on either side or both
        side = draw(st.sampled_from(["left", "right", "both"]))
        if side != "right":
            n1 = pmul(n1, d2)
        if side != "left":
            n2 = pmul(n2, d1)
    elif kind == "common-den-factor":
        f = draw(small_dens)
        d1, d2 = pmul(d1, f), pmul(d2, f)
    elif kind == "equal-den":
        d2 = d1
    elif kind == "int-den":
        d1, d2 = draw(int_dens), draw(st.one_of(int_dens, small_dens))
    a, b = D(n1, d1), D(n2, d2)
    if kind == "negation":
        b = -a
    elif kind == "inverse":
        b = a.inverse() if a else ONE
    elif kind == "constant":
        a = draw(st.sampled_from(CONSTANTS))
        b = draw(st.one_of(st.sampled_from(CONSTANTS), st.just(b)))
    return (b, a) if draw(st.booleans()) else (a, b)


def ppow(p, k: int):
    return reduce(pmul, [p] * k, (1,))


def naive_results(a: DeltaScalar, b: DeltaScalar, k: int):
    """(operation, result, naive numerator, naive denominator) for each
    operation on a and b."""
    out = [
        ("+", a + b, padd(pmul(a.num, b.den), pmul(b.num, a.den)), pmul(a.den, b.den)),
        ("-", a - b, padd(pmul(a.num, b.den), pneg(pmul(b.num, a.den))), pmul(a.den, b.den)),
        ("*", a * b, pmul(a.num, b.num), pmul(a.den, b.den)),
        ("neg", -a, pneg(a.num), a.den),
    ]
    if a:
        out.append(("inverse", a.inverse(), a.den, a.num))
    if a or k >= 0:
        num, den = (a.num, a.den) if k >= 0 else (a.den, a.num)
        out.append(("**", a**k, ppow(num, abs(k)), ppow(den, abs(k))))
    return out


def empty_memos():
    for memo in (scalars._ADD, scalars._MUL, scalars._NEG, scalars._INV):
        memo.clear()


@settings(max_examples=500, deadline=None)
@given(operand_pairs(), st.integers(-3, 3))
@example((D((1,), (0, 1)), D((1,), (0, -1, 1))), 2)  # 1/d + 1/(d(d-1)) = 1/(d-1)
@example((D((1, 1), (0, 2)), D((0, 3), (-1, 1))), -2)
@example((D((-1, 1), (3,)), D((1,), (-3, 3))), 3)
def test_operations_are_the_interned_naive_result(pair, k):
    a, b = pair
    for cold in (False, True):
        if cold:
            empty_memos()
        for op, got, num, den in naive_results(a, b, k):
            assert got is D(num, den), (op, cold)
            assert_canonical(got)
            assert_text(got)
    assert_text(a)
    assert_text(b)


def test_every_interned_scalar_is_canonical():
    assert scalars._INTERN
    for key, x in scalars._INTERN.items():
        assert key == (x.num, x.den)
        assert_canonical(x)
