import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wba.algebra as algebra
import wba.diagrams as diagrams_module
import wba.fusion as fusion
import wba.scalars as scalars
from wba.algebra import (
    AlgebraElement,
    element_from_json,
    element_to_json,
    iota,
    jm_element,
)
from wba.diagrams import (
    Shape,
    _ComposeMemo,
    _shape_entry,
    _transposition,
    all_diagrams,
    compose,
    composition_table,
    d_pair,
    identity,
    make_diagram,
    vertical_flip,
)
from wba.errors import ParseError, ShapeMismatch
from wba.fusion import fusion_idempotent
from wba.scalars import DELTA, ONE, ZERO, DeltaScalar, parse_scalar
from wba.tableaux import enumerate_tableaux
from algebra_helpers import (
    commutator,
    d_gen,
    defining_relations_hold,
    embed,
    s_gen,
    subalgebra_generators,
)

S11 = Shape(1, 1)
S22 = Shape(2, 2)


def one(shape):
    return AlgebraElement.one(shape)


def elem(d):
    return AlgebraElement.from_diagram(d)


def test_linear_space_axioms():
    a = elem(d_gen(S11)).scale(DELTA) + one(S11)
    assert a + AlgebraElement.zero(S11) == a
    assert (a - a).is_zero
    assert elem(d_gen(S11)).scale(DELTA).scale(ONE / DELTA) == elem(d_gen(S11))


def test_d_squared():
    d = elem(d_gen(S11))
    assert d * d == d.scale(DELTA)


def test_s1_difference_times_sum_vanishes():
    s1 = elem(s_gen(S22, 1))
    assert ((one(S22) - s1) * (one(S22) + s1)).is_zero


def test_d_over_delta_is_idempotent():
    e = elem(d_gen(S11)) / DELTA
    assert e * e == e


@pytest.mark.parametrize(
    "c, scalar",
    [
        (3, DeltaScalar.from_int(3)),
        (Fraction(1, 3), DeltaScalar.from_fraction(Fraction(1, 3))),
        (DELTA, DELTA),
    ],
)
def test_scaling_takes_exact_scalars(c, scalar):
    d = d_gen(S11)
    x = AlgebraElement.from_diagram(d, c)
    assert x.terms == {d: scalar}
    assert elem(d).scale(c) == elem(d) * c == c * elem(d) == x
    assert x / c == elem(d)


@pytest.mark.parametrize("c", [0.1, "1/3"])
def test_scaling_refuses_floats_and_strings(c):
    d = d_gen(S11)
    x = elem(d)
    for scale in (
        lambda: x.scale(c),
        lambda: AlgebraElement.from_diagram(d, c),
        lambda: x * c,
        lambda: c * x,
        lambda: x / c,
    ):
        with pytest.raises(TypeError):
            scale()


def test_constructor_coerces_its_coefficients():
    # a 0 is dropped, an int or a Fraction becomes the interned scalar, and
    # a float is refused, so every stored coefficient is a nonzero scalar
    shape = Shape(2, 1)
    i, d = identity(shape), d_gen(shape)
    zero = AlgebraElement(shape, {i: 0, d: ZERO})
    assert zero.is_zero and zero == AlgebraElement.zero(shape)
    assert AlgebraElement(shape, {i: 2}).terms[i] is DeltaScalar.from_int(2)
    half = AlgebraElement(shape, {i: 1, d: Fraction(1, 2)})
    assert half.terms[i] is ONE
    assert half.terms[d] is DeltaScalar.from_fraction(Fraction(1, 2))
    assert (half * half).terms == oracle_product(half, half)
    with pytest.raises(TypeError):
        AlgebraElement(shape, {i: 0.5})


def test_jm_examples():
    assert jm_element(S11, 1).is_zero
    assert jm_element(S11, 2) == one(S11).scale(DELTA) - elem(d_gen(S11))
    x3 = jm_element(S22, 3)
    expected = one(S22).scale(DELTA) - elem(d_pair(S22, 1, 3)) - elem(d_pair(S22, 2, 3))
    assert x3 == expected


def test_iota_is_antiautomorphism_on_generators():
    s1, d = elem(s_gen(S22, 1)), elem(d_gen(S22))
    assert iota(s1 * d) == d * s1
    assert iota(one(S22)) == one(S22)


@pytest.mark.parametrize("shape", [S11, Shape(2, 1), Shape(1, 2), S22])
def test_iota_fixes_jm_elements(shape):
    # oracle: flip each summand diagram of the definition
    for k in range(1, shape.n + 1):
        x = jm_element(shape, k)
        flipped = AlgebraElement(
            shape, {vertical_flip(d): c for d, c in x.terms.items()}
        )
        assert iota(x) == x == flipped


@pytest.mark.parametrize("shape", [S11, Shape(2, 1), Shape(1, 2), S22, Shape(3, 2)])
def test_jm_pairwise_commute(shape):
    xs = [jm_element(shape, k) for k in range(1, shape.n + 1)]
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            assert commutator(xs[i], xs[j]).is_zero


@pytest.mark.parametrize("shape", [S11, Shape(2, 1), S22, Shape(3, 2)])
def test_jm_commutes_with_lower_subalgebra(shape):
    for k in range(1, shape.n + 1):
        x = jm_element(shape, k)
        for g in subalgebra_generators(shape, k - 1):
            assert commutator(x, g).is_zero


def test_element_json_round_trip():
    zero = AlgebraElement.zero(S11)
    assert element_to_json(zero) == {"r": 1, "s": 1, "terms": []}
    e = elem(d_gen(S11)) / DELTA
    obj = element_to_json(e)
    assert obj == {"r": 1, "s": 1, "terms": [{"diagram": [2, 1], "coeff": "1/d"}]}
    assert element_from_json(json.dumps(obj)) == e


def test_golden_element_round_trip():
    s1, d, s3 = elem(s_gen(S22, 1)), elem(d_gen(S22)), elem(s_gen(S22, 3))
    proj = one(S22) - s1
    golden = (proj * d * s1 * s3 * d * proj).scale(
        (DeltaScalar.from_int(2) * DELTA * (DELTA - 1)).inverse()
    )
    assert element_from_json(element_to_json(golden)) == golden


def test_json_parse_errors():
    with pytest.raises(ParseError):
        element_from_json("{not json")
    with pytest.raises(ParseError):
        element_from_json({"r": 1, "terms": []})
    with pytest.raises(ParseError):
        element_from_json({"r": 1, "s": 1, "terms": [{"diagram": [2, 1]}]})


def test_json_parses_each_distinct_coefficient_once(monkeypatch):
    # (4,1) tableau 0: 120 terms with 2 distinct coefficients
    e = fusion_idempotent(enumerate_tableaux(Shape(4, 1))[0])
    obj = element_to_json(e)
    texts = {term["coeff"] for term in obj["terms"]}
    assert len(obj["terms"]) == 120 and len(texts) == 2
    original, calls = algebra.parse_scalar, []
    monkeypatch.setattr(
        algebra, "parse_scalar", lambda text: calls.append(text) or original(text)
    )
    assert element_from_json(obj) == e
    assert sorted(calls) == sorted(texts)


def test_json_reports_a_bad_late_term():
    obj = element_to_json(fusion_idempotent(enumerate_tableaux(Shape(4, 1))[0]))
    last = len(obj["terms"]) - 1
    bad = "1/(d-"
    with pytest.raises(ParseError) as direct:
        parse_scalar(bad)
    obj["terms"][last] = {"diagram": obj["terms"][last]["diagram"], "coeff": bad}
    with pytest.raises(ParseError) as late:
        element_from_json(obj)
    assert str(late.value) == str(direct.value) and late.value.pos == direct.value.pos
    obj["terms"][last] = dict(obj["terms"][0])
    with pytest.raises(ParseError, match=f"^duplicate diagram in term {last}$"):
        element_from_json(obj)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        one(S11) + one(S22)
    with pytest.raises(ShapeMismatch):
        one(S11) * one(S22)


def test_embed_keeps_products():
    # the wall stays put: only the right side may grow
    target = Shape(1, 2)
    a = elem(d_gen(S11))
    big = embed(a, target)
    assert big == elem(d_pair(target, 1, 2))
    assert embed(a * a, target) == big * big
    with pytest.raises(ShapeMismatch):
        embed(a, S22)


@pytest.mark.parametrize("shape", [S22, Shape(3, 3)])
def test_defining_relations(shape):
    results = defining_relations_hold(shape)
    assert len(results) == 8
    assert all(results.values()), results


coeffs = st.builds(
    DeltaScalar.from_fraction,
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
)


@st.composite
def sparse_elements(draw, shape=S22):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        img = draw(st.permutations(list(range(1, shape.n + 1))))
        terms[make_diagram(shape, img)] = draw(coeffs)
    return AlgebraElement(shape, terms)


@settings(max_examples=60, deadline=None)
@given(sparse_elements(), sparse_elements(), sparse_elements())
def test_mul_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(sparse_elements(), sparse_elements())
def test_iota_reverses_products(a, b):
    assert iota(a * b) == iota(b) * iota(a)


def tabulated_product(a, b):
    """a*b with every composition read from the shape's built table: the
    memo is emptied first and must stay empty."""
    composition_table(a.shape)
    memo = _shape_entry(a.shape).cache
    memo.clear()
    product = a * b
    assert not memo
    return product


@pytest.mark.parametrize("shape", [Shape(2, 3), Shape(3, 2)])
def test_tabulated_product_is_the_term_by_term_product(shape):
    # the first two idempotents (at least 84 terms each): a square, and an
    # orthogonal pair whose terms all cancel
    e, f = (fusion_idempotent(t) for t in enumerate_tableaux(shape)[:2])
    assert min(len(e.terms), len(f.terms)) >= 84
    square, cross = tabulated_product(e, e), tabulated_product(e, f)
    assert square.terms == oracle_product(e, e) and square == e
    assert cross.terms == oracle_product(e, f) == {}


@pytest.mark.slow
@pytest.mark.parametrize("r", range(7))
def test_tabulated_product_is_the_term_by_term_product_on_six_sites(r):
    # one product per shape, e * (e + f) for the first two idempotents: the
    # square's terms and the cancelling cross terms land on the same diagrams
    shape = Shape(r, 6 - r)
    e, f = (fusion_idempotent(t) for t in enumerate_tableaux(shape)[:2])
    product = tabulated_product(e, e + f)
    assert product.terms == oracle_product(e, e + f)
    assert product == e


def test_sparse_product_reads_the_built_table(monkeypatch):
    # a product below the tabulation cut-off composes through the memo and
    # builds no table, but once the shape's table is built every product
    # takes every composition from there and composes none
    shape = Shape(2, 2)
    e, f = (fusion_idempotent(t) for t in enumerate_tableaux(shape)[:2])
    g = elem(d_gen(shape))
    space = _shape_entry(shape)
    monkeypatch.setattr(space, "table", None)
    monkeypatch.setattr(space, "cache", _ComposeMemo(space.by_idx, space.stride))
    # with the memo empty, e*g is below the cut-off of 4!^2 / 8 = 72 pairs
    assert algebra._TABULATE_RATIO * len(e.terms) < math.factorial(4) ** 2
    eg = e * g
    assert space.table is None and space.cache
    composition_table(shape)
    space.cache.clear()

    def refuse(upper, lower):
        raise AssertionError("composed a pair the table holds")

    monkeypatch.setattr(diagrams_module, "_compose_raw", refuse)
    assert e * g == eg
    assert e * e == e
    assert e * f == AlgebraElement.zero(shape)
    assert not space.cache


def product_buckets(a, b) -> dict:
    """Each output diagram of a*b mapped to its {value: multiplicity} bucket:
    the scalar c_a * c_b * d^loops of every term pair that lands on it."""
    buckets: dict = {}
    for da, ca in a.terms.items():
        for db, cb in b.terms.items():
            res, loops = compose(da, db)
            value = ca * cb * DELTA**loops
            bucket = buckets.setdefault(res, {})
            bucket[value] = bucket.get(value, 0) + 1
    return buckets


def oracle_product(a, b) -> dict:
    """The terms of a*b, added term pair by term pair with scalar + and *."""
    out: dict = {}
    for res, bucket in product_buckets(a, b).items():
        acc = ZERO
        for value, k in bucket.items():
            for _ in range(k):
                acc = acc + value
        if acc:
            out[res] = acc
    return out


def transpositions(shape):
    return [
        AlgebraElement.from_diagram(_transposition(shape, i, k))
        for i in range(1, shape.n + 1)
        for k in range(i + 1, shape.n + 1)
    ]


# (4,1) tableaux 0 and 18: idempotents with 2 and 44 distinct coefficients
S41_IDEMPOTENTS = (0, 18)


@pytest.mark.parametrize("index", S41_IDEMPOTENTS)
def test_sparse_product_is_the_term_by_term_product(index):
    shape = Shape(4, 1)
    e = fusion_idempotent(enumerate_tableaux(shape)[index])
    gens = transpositions(shape)
    assert len(gens) == 10
    for g in gens:
        assert (e * g).terms == oracle_product(e, g)
        assert (g * e).terms == oracle_product(g, e)
    square = e * e
    assert square.terms == oracle_product(e, e)
    assert square == e


def pool_element(rng, shape, pool, size):
    diagrams = list(all_diagrams(shape))
    return AlgebraElement(
        shape, {d: rng.choice(pool) for d in rng.sample(diagrams, size)}
    )


@pytest.mark.parametrize("shape", [Shape(2, 2), Shape(3, 1)])
def test_sparse_product_with_few_distinct_coefficients(shape):
    # few distinct coefficients give many equal values, and so repeated
    # buckets, some with the same values at other multiplicities
    pool = [ONE, -ONE, DELTA]
    rng = random.Random(7)
    cancelled = 0
    for _ in range(20):
        a = pool_element(rng, shape, pool, 12)
        b = pool_element(rng, shape, pool, 12)
        product = a * b
        assert product.terms == oracle_product(a, b)
        buckets = product_buckets(a, b).items()
        cancelled += sum(
            1 for res, bucket in buckets if len(bucket) > 1 and res not in product.terms
        )
    assert cancelled > 0


@pytest.mark.parametrize("index", S41_IDEMPOTENTS)
def test_sparse_product_sums_each_distinct_bucket_once(monkeypatch, index):
    e = fusion_idempotent(enumerate_tableaux(Shape(4, 1))[index])
    multi = [
        bucket for bucket in product_buckets(e, e).values() if len(bucket) > 1
    ]
    distinct = {frozenset(bucket.items()) for bucket in multi}
    assert len(distinct) < len(multi)

    original = algebra.scalar_linear_combination
    sums = []

    def counted(items):
        items = list(items)
        if len(items) > 1:
            sums.append(frozenset(items))
        return original(items)

    monkeypatch.setattr(algebra, "scalar_linear_combination", counted)
    assert e * e == e
    assert len(sums) == len(distinct)
    assert set(sums) == distinct


# a non-unit scalar that is not a constant, as a fusion factor's coefficient is
C = parse_scalar("-3/(2*d-2)")


def one_coefficient(c, *diagrams) -> AlgebraElement:
    return AlgebraElement(diagrams[0].shape, {d: c for d in diagrams})


@pytest.mark.parametrize("shape", [Shape(2, 2), Shape(3, 1), Shape(4, 1)])
def test_product_with_one_coefficient_operands(shape):
    # an operand whose terms all carry one coefficient goes through the same
    # sums as any other: left only, right only and both sides
    e = fusion_idempotent(enumerate_tableaux(shape)[-1])
    i, s1, d = identity(shape), s_gen(shape, 1), d_gen(shape)
    lone = one_coefficient(C, i, s1, d)
    other = one_coefficient(parse_scalar("5/(d+7)"), s1, d)
    for a, b in [(lone, e), (e, lone), (lone, other), (other, lone), (lone, lone)]:
        product = a * b
        assert product.terms == oracle_product(a, b)
        assert product
    # (1 + s1)(1 - s1) = 0, with C on the left only and on the right only
    plus, minus = one_coefficient(C, i, s1), one(shape) - elem(s1)
    for a, b in [(plus, minus), (minus, plus)]:
        assert oracle_product(a, b) == {}
        assert (a * b).is_zero


def test_product_by_one_coefficient_sums_independently_of_it(monkeypatch):
    # the fold multiplies e by the bare generator and scales the product by
    # the factor's coefficient, so folding e through one factor hands
    # scalar_linear_combination the same sums at every evaluation point
    shape = Shape(4, 1)
    e = fusion_idempotent(enumerate_tableaux(shape)[S41_IDEMPOTENTS[1]])
    g = d_gen(shape)
    original = algebra.scalar_linear_combination
    calls: list = []

    def recorded(items):
        items = list(items)
        calls.append(frozenset(items))
        return original(items)

    monkeypatch.setattr(algebra, "scalar_linear_combination", recorded)
    sums = []
    for c in (C, parse_scalar("5/(d+7)")):
        calls.clear()
        # the factor ((u - 1) - g)/(u - 1) at u = c
        (folded,) = fusion._fold(e, [(ONE, g, -ONE)], c, 0)
        factor = one(shape) - AlgebraElement.from_diagram(g, (c - ONE).inverse())
        assert folded.terms == oracle_product(e, factor)
        sums.append(list(calls))
    assert sums[0] and sums[0] == sums[1]


def test_scale_multiplies_each_distinct_coefficient_once(monkeypatch):
    e = fusion_idempotent(enumerate_tableaux(Shape(4, 1))[S41_IDEMPOTENTS[1]])
    assert e.scale(ONE) is e
    want = {d: c * C for d, c in e.terms.items()}
    original = DeltaScalar.__mul__
    scaled = []

    def counted(self, other):
        if other is C:
            scaled.append(self)
        return original(self, other)

    monkeypatch.setattr(DeltaScalar, "__mul__", counted)
    assert e.scale(C).terms == want
    assert sorted(map(id, scaled)) == sorted(map(id, set(e.terms.values())))
    assert len(scaled) < len(e.terms)


def test_product_coerces_no_number(monkeypatch):
    # a bucket of one value taken k > 1 times is summed, not multiplied by
    # the int k, so no number enters Q(d) inside a product
    e = fusion_idempotent(enumerate_tableaux(Shape(4, 1))[S41_IDEMPOTENTS[0]])
    assert any(
        len(bucket) == 1 and max(bucket.values()) > 1
        for bucket in product_buckets(e, e).values()
    )
    original = scalars._coerce
    numbers = []

    def recorded(x):
        if not isinstance(x, DeltaScalar):
            numbers.append(x)
        return original(x)

    monkeypatch.setattr(scalars, "_coerce", recorded)
    assert e * e == e
    assert numbers == []
