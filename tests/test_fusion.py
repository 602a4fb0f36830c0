import random
from fractions import Fraction

import pytest

import wba.fusion as fusion
from wba.algebra import AlgebraElement, iota, jm_element
from wba.diagrams import Shape
from wba.errors import CancellationFailure, DivisionByZero, IndexOutOfRange, NonGenericH
from wba.fusion import (
    DEFAULT_H,
    _evaluate,
    _evaluate_step_info,
    _linear_factors,
    _step_factors,
    fuse_contents,
    fusion_idempotent,
    fusion_with_minimal_prefactor,
    h_is_generic,
    idempotent_by,
    identity_checks,
    psi_full_numeric,
    psi_step_numeric,
    second_fusion_idempotent,
    step_prefactor,
)
from wba.scalars import DELTA, ONE, ZERO, affine
from wba.tableaux import enumerate_tableaux, exponents, parse_tableau
from wba.upoly import UniPoly
from algebra_helpers import d_gen, s_gen
from symbolic_oracle import _root_poly, baxter_factor, modified_block, step_function

S11 = Shape(1, 1)
S22 = Shape(2, 2)

GOLDEN_SPEC = "L+1,1;L+2,1;L-2,1;L-1,1"


def one(shape):
    return AlgebraElement.one(shape)


def elem(d):
    return AlgebraElement.from_diagram(d)


def sym_group_idempotent(t):
    """The idempotent of the symmetric-group stage (first r steps)."""
    return fuse_contents(t.shape, t.contents(), t.shape.r)


def minimal_prefactor(t):
    """The (k, c_k, p_k) data of the minimal prefactor, after-wall steps only."""
    contents = t.contents()
    p = exponents(t)
    return tuple((k, contents[k - 1], p[k - 1]) for k in range(t.shape.r + 1, t.shape.n + 1))


def golden_element():
    s1, d, s3 = elem(s_gen(S22, 1)), elem(d_gen(S22)), elem(s_gen(S22, 3))
    proj = one(S22) - s1
    return (proj * d * s1 * s3 * d * proj).scale(
        (2 * DELTA * (DELTA - 1)).inverse()
    )


def test_baxter_factor_crossing():
    # s_{1,2}(u) = 1 - s_{1,2}/u as (u*1 - s_12)/u
    f = baxter_factor(S22, "s", 1, 2, ZERO, 1)
    assert f.num.coeffs == (-elem(s_gen(S22, 1)), one(S22))
    assert f.den.coeffs == (ZERO, ONE)


def test_baxter_factor_contraction():
    f = baxter_factor(S11, "d", 1, 2, ZERO, 1)
    assert f.num.coeffs == (-elem(d_gen(S11)), one(S11))
    assert f.den.coeffs == (ZERO, ONE)


def test_baxter_factor_parity_guard():
    with pytest.raises(IndexOutOfRange):
        baxter_factor(S22, "s", 1, 3, ZERO, 1)
    with pytest.raises(IndexOutOfRange):
        baxter_factor(S22, "d", 1, 2, ZERO, 1)


def test_unitarity_as_rational_identity():
    # s(u) s(-u) = (u^2 - 1)/u^2, checked at a rational point
    u = affine(Fraction(5, 3))
    f = one(S22) - elem(s_gen(S22, 1)).scale(u.inverse())
    g = one(S22) - elem(s_gen(S22, 1)).scale((-u).inverse())
    assert f * g == one(S22).scale((u * u - 1) / (u * u))


def test_contraction_unitarity_expansion():
    # (1 - d/u)(1 - d/(delta - u)) = 1; oracle: expand with d^2 = delta*d
    u = affine(Fraction(2, 7))
    d = elem(d_gen(S11))
    lhs = (one(S11) - d.scale(u.inverse())) * (one(S11) - d.scale((DELTA - u).inverse()))
    assert lhs == one(S11)


def test_sym_group_idempotent_rank_one():
    t = parse_tableau("L+1,1;L-1,1", S11)
    assert sym_group_idempotent(t) == one(S11)


@pytest.mark.parametrize(
    "spec,sign",
    [("L+1,1;L+1,2;R+1,1;R+1,2", 1), ("L+1,1;L+2,1;R+1,1;R+1,2", -1)],
)
def test_sym_group_idempotent_rank_two(spec, sign):
    # oracle: JM interpolation (x_2 - a)/(c_2 - a) with the other eigenvalue a
    t = parse_tableau(spec, S22)
    expected = (one(S22) + elem(s_gen(S22, 1)).scale(affine(sign))).scale(
        affine(Fraction(1, 2))
    )
    x2 = jm_element(S22, 2)
    a = affine(-sign)
    interp = (x2 - one(S22).scale(a)).scale((affine(sign) - a).inverse())
    assert sym_group_idempotent(t) == expected == interp


def _value_at(rat, u):
    return rat.num.eval_at(u).scale(rat.den.eval_at(u).inverse())


FACTOR_SITES = [
    (S22, [("s", 1, 2), ("s", 3, 4), ("d", 1, 3), ("d", 2, 4)]),
    (Shape(2, 3), [("s", 3, 5), ("s", 4, 5), ("d", 1, 5), ("d", 2, 3)]),
]
FACTOR_POINT = affine(Fraction(2, 3), 1), affine(Fraction(5, 7))


def _engine_factor(shape, kind, primed, i, j, a, b, u0):
    """The engine's factor of the spec (kind, i, a, b), or of its primed
    form through fusion._primed, on the sites (i, j) at u = u0."""
    spec = fusion._primed(kind, i, a, b, DEFAULT_H) if primed else (kind, i, a, b)
    return _evaluate(one(shape), _linear_factors(shape, [spec], j), u0)


@pytest.mark.parametrize("shape,pairs", FACTOR_SITES)
def test_numeric_factor_is_symbolic_factor_at_a_point(shape, pairs):
    a, u0 = FACTOR_POINT
    for kind, i, j in pairs:
        for primed in (False, True):
            for b in (1, -1):
                symbolic = baxter_factor(shape, kind + "'" * primed, i, j, a, b, DEFAULT_H)
                numeric = _engine_factor(shape, kind, primed, i, j, a, b, u0)
                assert numeric == _value_at(symbolic, u0), (kind, primed, i, j, b)


def test_oracle_catches_an_unreflected_primed_crossing(monkeypatch, fresh_paths):
    # s'(x) as s(x - h), the sign of its generator flipped: the oracle
    # writes s' itself, so it must disagree with the engine, and the second
    # procedure must stop matching the first
    primed = fusion._primed

    def unreflected(kind, i, a, b, h):
        return (kind, i, a - h, b) if kind == "s" else primed(kind, i, a, b, h)

    monkeypatch.setattr(fusion, "_primed", unreflected)
    a, u0 = FACTOR_POINT
    for shape, pairs in FACTOR_SITES:
        for kind, i, j in pairs:
            if kind == "s":
                for b in (1, -1):
                    symbolic = baxter_factor(shape, "s'", i, j, a, b, DEFAULT_H)
                    numeric = _engine_factor(shape, kind, True, i, j, a, b, u0)
                    assert numeric != _value_at(symbolic, u0), (i, j, b)
    t = parse_tableau(GOLDEN_SPEC, S22)
    try:
        second = second_fusion_idempotent(t)
    except CancellationFailure:
        second = None
    assert second != fusion_idempotent(t)


def _modified_block_mismatches(shape) -> tuple:
    """The number of after-wall steps checked, and those (path, k) at which
    the factors that the second procedure multiplies by differ, at a random
    point, from the paper's modified block followed by the step-k product.
    Each step is recorded, not taken, so no path is fused; paths that share
    the contents up to step k share its check."""
    rng = random.Random(shape.n)
    recorded, seen = [], set()

    def record(e_prev, factors, k, z, c, multiply_left=False):
        recorded.append((k, factors))
        return e_prev, 0

    mismatches = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_PATHS", fusion._PathMemo())
        mp.setattr(fusion, "_evaluate_step_info", record)
        for t in enumerate_tableaux(shape):
            recorded.clear()
            second_fusion_idempotent(t)
            contents = t.contents()
            for k, factors in recorded:
                if k <= shape.r or contents[:k] in seen:
                    continue
                seen.add(contents[:k])
                (u0,) = fusion._distinct_points(rng, 1)
                want = one(shape)
                for factor in modified_block(shape, contents, k, DEFAULT_H):
                    want = want * _value_at(factor, u0)
                for kind, i, a, b in _step_factors(shape, contents, k):
                    want = want * _value_at(baxter_factor(shape, kind, i, k, a, b), u0)
                if _evaluate(one(shape), _linear_factors(shape, factors, k), u0) != want:
                    mismatches.append((t.moves_str(), k))
    return len(seen), mismatches


BLOCK_SHAPES = [Shape(r, n - r) for n in range(1, 6) for r in range(n)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=lambda s: f"{s.r},{s.s}")
def test_second_procedure_multiplies_by_the_papers_modified_block(shape):
    steps, mismatches = _modified_block_mismatches(shape)
    assert steps and mismatches == []


@pytest.mark.slow
@pytest.mark.parametrize("shape", [Shape(r, 6 - r) for r in range(6)], ids=lambda s: f"{s.r},{s.s}")
def test_second_procedure_multiplies_by_the_papers_modified_block_on_six_sites(shape):
    steps, mismatches = _modified_block_mismatches(shape)
    assert steps and mismatches == []


def test_modified_block_oracle_catches_an_unreversed_block(monkeypatch):
    # the modified factors in the step product's own order, not read backwards
    def unreversed(factors, h):
        return [fusion._primed(kind, i, a, -b, h) for kind, i, a, b in factors]

    monkeypatch.setattr(fusion, "_modified", unreversed)
    assert _modified_block_mismatches(S22)[1]
    assert _modified_block_mismatches(Shape(2, 3))[1]


@pytest.mark.parametrize("shape", [S22, Shape(2, 3)])
def test_step_function_at_a_point_is_numeric_step(shape):
    us = [affine(q) for q in (Fraction(2, 3), 5, Fraction(7, 2), 11, Fraction(13, 4))]
    for k in range(2, shape.n + 1):
        psi = step_function(shape, us, k)
        assert _value_at(psi, us[k - 1]) == psi_step_numeric(shape, us, k), k


@pytest.mark.parametrize(
    "points,product",
    [
        ((2, 2, 7, 11), lambda us: psi_full_numeric(S22, us)),  # s_{1,2}(u_1 - u_2)
        ((2, 3, -2, 11), lambda us: psi_full_numeric(S22, us)),  # d_{1,3}(u_1 + u_3)
        ((2, 2, 7, 11), lambda us: psi_step_numeric(S22, us, 2)),
    ],
    ids=["full-crossing", "full-contraction", "step"],
)
def test_numeric_word_refuses_a_pole(points, product):
    us = [affine(Fraction(q, 3)) for q in points]
    with pytest.raises(DivisionByZero):
        product(us)


def test_step_function_single_contraction():
    t = parse_tableau("L+1,1;L-1,1", S11)
    psi = step_function(S11, t.contents(), 2)
    assert psi.num.coeffs == (-elem(d_gen(S11)), one(S11))
    assert psi.den.coeffs == (ZERO, ONE)


def test_step_function_ordered_product():
    # two contractions, descending: d_{2,3}(c_2 + u) d_{1,3}(c_1 + u)
    t = parse_tableau(GOLDEN_SPEC, S22)
    contents = t.contents()
    psi = step_function(S22, contents, 3)
    oracle = baxter_factor(S22, "d", 2, 3, contents[1], 1) * baxter_factor(
        S22, "d", 1, 3, contents[0], 1
    )
    assert psi.num == oracle.num and psi.den == oracle.den
    assert psi.num.degree == 2


def test_step_function_after_wall_three_factors():
    t = parse_tableau(GOLDEN_SPEC, S22)
    contents = t.contents()
    psi = step_function(S22, contents, 4)
    oracle = (
        baxter_factor(S22, "d", 2, 4, contents[1], 1)
        * baxter_factor(S22, "d", 1, 4, contents[0], 1)
        * baxter_factor(S22, "s", 3, 4, contents[2], -1)
    )
    assert psi.num == oracle.num and psi.den == oracle.den


def _rat_equal(z, num_coeffs, den_coeffs):
    zeros, poles = z
    return (
        _root_poly(zeros) == UniPoly(num_coeffs, ZERO)
        and _root_poly(poles) == UniPoly(den_coeffs, ZERO)
    )


def test_step_prefactor_first_after_wall_step():
    t = parse_tableau("L+1,1;L-1,1", S11)
    z = step_prefactor(S11, t.contents(), 2)
    # u/(u - delta)
    assert _rat_equal(z, [ZERO, ONE], [-DELTA, ONE])


def test_step_prefactor_with_square_factors():
    t = parse_tableau(GOLDEN_SPEC, S22)
    z = step_prefactor(S22, t.contents(), 4)
    # (u - 0)/(u - delta) * (u - 1)^2 / ((u - 1)^2 - 1)
    num = UniPoly([ZERO, ONE], ZERO) * UniPoly([-ONE, ONE], ZERO) * UniPoly([-ONE, ONE], ZERO)
    sq = UniPoly([-ONE, ONE], ZERO)
    den = UniPoly([-DELTA, ONE], ZERO) * (sq * sq - UniPoly([ONE], ZERO))
    assert _root_poly(z[0]) == num and _root_poly(z[1]) == den


def test_step_prefactor_before_wall():
    # k = 2 with c_1 = 0, c_2 = -1: (u + 1)/u * u^2/(u^2 - 1)
    z = step_prefactor(Shape(2, 1), (ZERO, -ONE, ONE), 2)
    num = UniPoly([ONE, ONE], ZERO) * UniPoly([ZERO, ZERO, ONE], ZERO)
    den = UniPoly([ZERO, ONE], ZERO) * UniPoly([-ONE, ZERO, ONE], ZERO)
    assert _root_poly(z[0]) == num and _root_poly(z[1]) == den


def test_step_prefactor_second_procedure():
    # (u - c_4)(u - h + d)/((u - d)(u + c_4 - h)) * (u - c_3)^2/((u - c_3)^2 - 1)
    t = parse_tableau("L+1,1;R+1,1;R+1,2", Shape(1, 2))
    c, h = t.contents(), DEFAULT_H
    z = step_prefactor(t.shape, c, 3, h)
    lin = UniPoly([-c[1], ONE], ZERO)
    num = UniPoly([-c[2], ONE], ZERO) * UniPoly([DELTA - h, ONE], ZERO) * lin * lin
    den = UniPoly([-DELTA, ONE], ZERO) * UniPoly([c[2] - h, ONE], ZERO)
    den = den * (lin * lin - UniPoly([ONE], ZERO))
    assert _root_poly(z[0]) == num and _root_poly(z[1]) == den


def test_evaluate_step_reaches_contraction_leaf():
    t = parse_tableau("L+1,1;L-1,1", S11)
    factors = _step_factors(S11, t.contents(), 2)
    z = step_prefactor(S11, t.contents(), 2)
    e, _ = _evaluate_step_info(one(S11), factors, 2, z, ZERO)
    assert e == elem(d_gen(S11)).scale(ONE / DELTA)


def test_evaluate_step_other_leaf_cancels_pole():
    t = parse_tableau("L+1,1;R+1,1", S11)
    factors = _step_factors(S11, t.contents(), 2)
    z = step_prefactor(S11, t.contents(), 2)
    e, m = _evaluate_step_info(one(S11), factors, 2, z, DELTA)
    assert e == one(S11) - elem(d_gen(S11)).scale(ONE / DELTA)
    assert m == 1


def test_evaluate_step_degenerate_passthrough():
    z = ([], [])
    e = elem(d_gen(S11)) + one(S11)
    assert _evaluate_step_info(e, [], 2, z, affine(7)) == (e, 0)


def test_evaluate_step_is_zero_when_zeros_outnumber_the_pole():
    # (u - c)^2 / (u - c) vanishes at u = c; the pole order is still 1
    c = affine(1)
    zero = AlgebraElement.zero(S11)
    assert _evaluate_step_info(one(S11), [], 2, ([c, c], [c]), c) == (zero, 1)


def test_golden_idempotent():
    t = parse_tableau(GOLDEN_SPEC, S22)
    assert fusion_idempotent(t) == golden_element()


@pytest.mark.parametrize(
    "spec,expected_sign",
    [("L+1,1;L-1,1", +1), ("L+1,1;R+1,1", -1)],
)
def test_fusion_leaves_11(spec, expected_sign):
    t = parse_tableau(spec, S11)
    d_over = elem(d_gen(S11)).scale(ONE / DELTA)
    expected = d_over if expected_sign > 0 else one(S11) - d_over
    assert fusion_idempotent(t) == expected


@pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_idempotent_system_small_shapes(r, s):
    shape = Shape(r, s)
    tableaux = enumerate_tableaux(shape)
    elements = [fusion_idempotent(t) for t in tableaux]
    total = AlgebraElement.zero(shape)
    for t, e in zip(tableaux, elements):
        assert e * e == e
        assert iota(e) == e
        for k, c in enumerate(t.contents(), 1):
            x = jm_element(shape, k)
            assert x * e == e * x == e.scale(c)
            assert e * x * e == e.scale(c)
        total = total + e
    assert total == one(shape)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            if i != j:
                assert (a * b).is_zero


def test_minimal_prefactor_addition_only_is_trivial():
    t = parse_tableau("L+1,1;L+1,2;R+1,1;R+1,2", S22)
    assert all(p == 0 for _, _, p in minimal_prefactor(t))
    e, diag = fusion_with_minimal_prefactor(t)
    assert not diag.result_is_zero
    assert diag.matches_idempotent


def test_minimal_prefactor_golden_run():
    t = parse_tableau(GOLDEN_SPEC, S22)
    data = minimal_prefactor(t)
    assert [(k, p) for k, _, p in data] == [(3, 1), (4, 0)]
    e, diag = fusion_with_minimal_prefactor(t)
    assert [s.exponent for s in diag.steps] == [0, 1, 0]
    assert diag.matches_idempotent and not diag.result_is_zero


def test_minimal_prefactor_negative_control():
    t = parse_tableau(GOLDEN_SPEC, S22)
    with pytest.raises(CancellationFailure):
        fusion_with_minimal_prefactor(t, override_exponents={3: 0})


@pytest.mark.parametrize("step", [-1, 0, 1, 2, 5])
def test_minimal_prefactor_override_outside_the_steps_after_the_wall(step):
    # (2,2) has steps 3 and 4 after the wall: step 0 would index p[-1], steps
    # 1 and 2 take exponent 0 whatever is asked, and step 5 is past the end
    t = parse_tableau(GOLDEN_SPEC, S22)
    with pytest.raises(IndexOutOfRange):
        fusion_with_minimal_prefactor(t, override_exponents={step: 0})


@pytest.mark.parametrize("r,s", [(1, 2), (2, 1), (2, 2), (1, 3)])
def test_minimal_prefactor_all_tableaux(r, s):
    shape = Shape(r, s)
    for t in enumerate_tableaux(shape):
        _, diag = fusion_with_minimal_prefactor(t)
        assert diag.matches_idempotent, t
        assert not diag.result_is_zero, t


def test_minimal_prefactor_pole_type_exponent():
    # the first path with a -1 exponent: left shape (2,1), all three cells
    # removed; the final removal meets a double pole that the 1/(u - c)
    # minimal factor plus the numerator zero cancel exactly
    shape = Shape(3, 3)
    t = parse_tableau("L+1,1;L+1,2;L+2,1;L-1,2;L-2,1;L-1,1", shape)
    assert exponents(t) == (0, 0, 0, 1, 1, -1)
    e, diag = fusion_with_minimal_prefactor(t)
    assert [(s.exponent, s.pole_order) for s in diag.steps] == [
        (0, 0), (0, 0), (1, 1), (1, 1), (-1, 2),
    ]
    assert diag.matches_idempotent and not diag.result_is_zero
    # withholding the pole-type factor leaves the prefactor leftover singular
    with pytest.raises(CancellationFailure):
        fusion_with_minimal_prefactor(t, override_exponents={6: 0})


def test_second_procedure_small_example():
    t = parse_tableau("L+1,1;L-1,1", S11)
    assert second_fusion_idempotent(t, DEFAULT_H) == elem(d_gen(S11)).scale(ONE / DELTA)


def test_second_procedure_golden_both_variants():
    t = parse_tableau(GOLDEN_SPEC, S22)
    g = golden_element()
    assert second_fusion_idempotent(t) == g
    assert second_fusion_idempotent(t, mirror=True) == g


def test_second_procedure_random_h_values():
    t = parse_tableau(GOLDEN_SPEC, S22)
    g = golden_element()
    for h in (affine(Fraction(1, 3), 2), affine(Fraction(-2, 5), 5), affine(Fraction(7, 2), -1)):
        assert h_is_generic(S22, t.contents(), h)
        assert second_fusion_idempotent(t, h) == g
        assert second_fusion_idempotent(t, h, mirror=True) == g


def test_non_generic_h_is_refused():
    t = parse_tableau("L+1,1;L-1,1", S11)
    # 2*c_2 - h = 0 at h = 0
    assert not h_is_generic(S11, t.contents(), ZERO)
    with pytest.raises(NonGenericH):
        second_fusion_idempotent(t, ZERO)


@pytest.mark.parametrize(
    "r, s, spec",
    [
        # c_1 + c_2 = h: the s'_{1,2} factor's root meets step 2's content
        (0, 3, "R+1,1;R+1,2;R+1,3"),
        # c_2 - c_3 + h - d = 0: the d'_{2,3} factor's root meets step 3's content
        (2, 1, "L+1,1;L+2,1;R+1,1"),
    ],
)
def test_non_generic_h_at_a_primed_factor_root(r, s, spec):
    shape = Shape(r, s)
    t = parse_tableau(spec, shape)
    h = 2 * DELTA + 1
    assert not h_is_generic(shape, t.contents(), h)
    with pytest.raises(NonGenericH):
        second_fusion_idempotent(t, h)


def test_identity_battery_22():
    report = identity_checks(S22, seed=11, points=4)
    assert report["all_pass"]
    assert report["yang_baxter_contractions"]["instances"] > 0
    assert report["uniform_yang_baxter"]["instances"] > 0


def test_identity_battery_23_has_crossing_triples():
    report = identity_checks(Shape(2, 3), seed=5, points=2)
    assert report["all_pass"]
    assert report["yang_baxter_crossings"]["instances"] > 0


# site tuples per identity: same-side triples, mixed triples (twice),
# same-side pairs, cross pairs, disjoint factor pairs, all triples
BATTERY_SITES = {
    Shape(2, 3): (1, 9, 9, 4, 6, 15, 10),
    Shape(4, 1): (4, 6, 6, 6, 4, 15, 10),
}


@pytest.mark.parametrize("shape", list(BATTERY_SITES))
def test_identity_battery_instances(shape):
    report = identity_checks(shape, seed=3, points=2)
    assert list(report) == [
        "yang_baxter_crossings",
        "yang_baxter_contractions",
        "yang_baxter_mixed",
        "crossing_unitarity",
        "contraction_unitarity",
        "distinct_sites_commute",
        "uniform_yang_baxter",
        "all_pass",
    ]
    assert report["all_pass"]
    assert tuple(v["instances"] for v in list(report.values())[:-1]) == tuple(
        2 * count for count in BATTERY_SITES[shape]
    )


@pytest.mark.parametrize("shape", list(BATTERY_SITES))
def test_identity_battery_fails_on_a_flipped_contraction(monkeypatch, fresh_paths, shape):
    # d-factors become 1 + g/arg: every identity with a contraction in it
    # fails, except the commutation of factors on disjoint sites
    linear_factors = fusion._linear_factors

    def flipped(shape, factors, k):
        linear = linear_factors(shape, factors, k)
        return [
            (root, gen, -coeff if spec[0] == "d" else coeff)
            for (root, gen, coeff), spec in zip(linear, factors)
        ]

    monkeypatch.setattr(fusion, "_linear_factors", flipped)
    report = identity_checks(shape, seed=3, points=2)
    passed = {name for name, v in report.items() if name != "all_pass" and v["pass"]}
    assert passed == {"yang_baxter_crossings", "crossing_unitarity", "distinct_sites_commute"}
    assert not report["all_pass"]


def test_fusion_steps_stay_sparse(monkeypatch, fresh_paths):
    # each fold step multiplies by one diagram at a time, far below the
    # product size that tabulates a shape, so fusing a 5-site path (from an
    # empty path memo, so that every step runs) never asks for a table
    import wba.algebra as algebra

    calls = []
    monkeypatch.setattr(algebra, "composition_table", lambda shape: calls.append(shape))
    t = parse_tableau("L+1,1;L+1,2;R+1,1;R+1,2;R+1,3", Shape(2, 3))
    fusion_idempotent(t)
    second_fusion_idempotent(t)
    second_fusion_idempotent(t, mirror=True)
    fusion_with_minimal_prefactor(t)
    assert calls == []


def test_idempotent_by_takes_the_method_directly():
    t = parse_tableau(GOLDEN_SPEC, S22)
    expected = fusion_idempotent(t)
    assert idempotent_by(t) == expected
    assert idempotent_by(t, "second", "mirror", DEFAULT_H) == expected
    assert idempotent_by(t, method="interp") == expected
    with pytest.raises(IndexOutOfRange):
        idempotent_by(t, "third")
    # a misspelt variant is refused, not taken for "fwd"
    for variant in ("mirrr", "Mirror", "forward"):
        with pytest.raises(IndexOutOfRange):
            idempotent_by(t, "second", variant)
