import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wba.errors import NonzeroRemainder
from wba.scalars import DELTA, ONE, ZERO, DeltaScalar, affine
from wba.upoly import UniPoly
from symbolic_oracle import divide_linear_power, root_multiplicity


def spoly(*coeffs):
    return UniPoly([DeltaScalar.from_fraction(c) if not isinstance(c, DeltaScalar) else c for c in coeffs], ZERO)


def test_exact_linear_factorization():
    # (u^2 - c^2) / (u - c) == u + c, with c = d
    c = DELTA
    p = spoly(-(c * c), ZERO, ONE)
    q = divide_linear_power(p, c, 1)
    assert q == spoly(c, ONE)


def test_double_root_division():
    # build (u - d)^2 * (3 + u) and peel the square off again
    c = DELTA
    lin = spoly(-c, ONE)
    cof = spoly(3, ONE)
    p = lin * lin * cof
    assert divide_linear_power(p, c, 2) == cof
    assert root_multiplicity(p, c) == 2


def test_nonzero_remainder_signals_pole():
    c = affine(2)
    other = affine(3)
    p = spoly(-other, ONE)  # u - 3 is not divisible by u - 2
    with pytest.raises(NonzeroRemainder):
        divide_linear_power(p, c, 1)


def test_eval_examples():
    u = spoly(ZERO, ONE)
    assert u.eval_at(DELTA) == DELTA
    p = spoly(-1, ZERO, ONE)  # u^2 - 1
    assert p.eval_at(ONE) == ZERO
    assert spoly().eval_at(DELTA) == ZERO


def test_algebra_coefficient_evaluation():
    # evaluation with algebra coefficients is E0 + c*E1
    from wba.algebra import AlgebraElement
    from wba.diagrams import Shape
    from algebra_helpers import d_gen

    shape = Shape(1, 1)
    e0 = AlgebraElement.one(shape)
    e1 = AlgebraElement.from_diagram(d_gen(shape))
    p = UniPoly([e0, e1], AlgebraElement.zero(shape))
    c = affine(5)
    assert p.eval_at(c) == e0 + e1.scale(c)


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
coeff = st.builds(DeltaScalar.from_fraction, small_fracs)
polys = st.lists(coeff, min_size=0, max_size=5).map(lambda cs: UniPoly(cs, ZERO))
points = st.builds(affine, small_fracs, st.integers(min_value=-1, max_value=1))


@settings(max_examples=120, deadline=None)
@given(polys, points, st.integers(min_value=0, max_value=3))
def test_divide_after_multiply_round_trip(p, c, m):
    lin = UniPoly([-c, ONE], ZERO)
    prod = p
    for _ in range(m):
        prod = prod * lin
    assert divide_linear_power(prod, c, m) == p


@settings(max_examples=120, deadline=None)
@given(polys, points)
def test_divmod_linear_identity(p, c):
    q, rem = p.divmod_linear(c)
    lin = UniPoly([-c, ONE], ZERO)
    assert lin * q + UniPoly([rem], ZERO) == p
