import json
from fractions import Fraction

import pytest

import wba.verify as verify
from wba.algebra import AlgebraElement, sorted_terms
from wba.diagrams import Shape, _ComposeMemo, _shape_entry
from wba.errors import IndexOutOfRange
from wba.fusion import (
    DEFAULT_H,
    _step_factors,
    fuse_contents,
    fusion_idempotent,
    h_is_generic,
    step_prefactor,
)
from wba.scalars import DELTA, ONE, affine
from wba.tableaux import _legal_moves, bratteli, enumerate_tableaux, parse_tableau
from wba.verify import (
    check_exponents,
    check_factorization_identity,
    check_jm_resolvent,
    check_mirror_products,
    check_proof_lemmas,
    check_system,
    check_wall_crossing,
    full_report,
    interp_idempotent,
)
from algebra_helpers import d_gen, embed

S11 = Shape(1, 1)
S22 = Shape(2, 2)

GOLDEN_SPEC = "L+1,1;L+2,1;L-2,1;L-1,1"


def test_legal_moves_have_distinct_contents():
    # so that no interpolation denominator c - a is zero
    for n in range(1, 11):
        for r in range(n + 1):
            levels = bratteli(Shape(r, n - r)).levels
            for t in range(1, n + 1):
                for state in levels[t - 1]:
                    contents = [m.content() for m in _legal_moves(state, t, r)]
                    assert len(set(contents)) == len(contents), (r, n - r, t, state)


def test_interp_contraction_leaf():
    # candidates at step 2: remove (1,1) at content 0, add right (1,1) at d;
    # E = (x_2 - d)/(0 - d) = d/delta since x_2 = d - d_{1,2}
    t = parse_tableau("L+1,1;L-1,1", S11)
    d = AlgebraElement.from_diagram(d_gen(S11))
    assert interp_idempotent(t) == d.scale(ONE / DELTA)


def test_interp_other_leaf():
    t = parse_tableau("L+1,1;R+1,1", S11)
    d = AlgebraElement.from_diagram(d_gen(S11))
    assert interp_idempotent(t) == AlgebraElement.one(S11) - d.scale(ONE / DELTA)


def test_interp_matches_golden():
    t = parse_tableau(GOLDEN_SPEC, S22)
    assert interp_idempotent(t) == fusion_idempotent(t)


@pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (3, 2)])
def test_interp_agrees_with_fusion_everywhere(r, s):
    shape = Shape(r, s)
    for t in enumerate_tableaux(shape):
        assert interp_idempotent(t) == fusion_idempotent(t)


def test_check_system_11():
    report = check_system(S11)
    assert report.ok
    assert len(report.tableaux) == 2
    assert report.completeness_ok and report.completeness_residual_terms == 0


def test_check_system_22():
    report = check_system(S22)
    assert report.ok
    assert len(report.tableaux) == 10
    assert report.orthogonality_pairs == 90
    assert report.spectra_distinct
    js = report.to_json()
    assert js["ok"] and js["completeness_residual_terms"] == 0


def _perturbed(e):
    """e plus half of its first diagram."""
    d, _ = sorted_terms(e)[0]
    return e + AlgebraElement.from_diagram(d, affine(Fraction(1, 2)))


def _perturb_golden(monkeypatch):
    """Make check_system see the golden idempotent perturbed."""

    def fused(t):
        e = fusion_idempotent(t)
        return _perturbed(e) if t.moves_str() == GOLDEN_SPEC else e

    monkeypatch.setattr(verify, "fusion_idempotent", fused)


def test_certificate_of_a_perturbed_idempotent_fails():
    t = parse_tableau(GOLDEN_SPEC, S22)
    cert = verify.certify_tableau(t, _perturbed(fusion_idempotent(t)))
    assert not cert.idempotent
    assert not cert.jm_spectrum
    assert cert.interp_agrees is False
    assert not cert.ok


def test_certificate_reads_the_table_it_builds(monkeypatch):
    # from a shape with no table, certify_tableau tabulates it before its
    # first product, so none of its products composes through the memo
    shape = Shape(2, 3)
    t = enumerate_tableaux(shape)[0]
    e = fusion_idempotent(t)
    space = _shape_entry(shape)
    monkeypatch.setattr(space, "table", None)
    monkeypatch.setattr(space, "cache", _ComposeMemo(space.by_idx, space.stride))
    assert verify.certify_tableau(t, e).ok
    assert space.table is not None
    assert not space.cache


def test_check_system_with_a_perturbed_idempotent_fails(monkeypatch):
    _perturb_golden(monkeypatch)
    report = check_system(S22)
    assert not report.orthogonal
    assert report.orthogonality_failures
    assert all(GOLDEN_SPEC in pair for pair in report.orthogonality_failures)
    assert not report.completeness_ok
    assert report.completeness_residual_terms > 0
    assert not report.ok


def test_verify_cli_with_a_perturbed_idempotent_exits_1(monkeypatch, capsys):
    from wba.cli import main

    _perturb_golden(monkeypatch)
    assert main(["verify", "2", "2", "--suite", "system"]) == 1
    assert not json.loads(capsys.readouterr().out)["ok"]


def test_check_system_12():
    # 4 paths: sum of squared multiplicities over 3 final shapes is 3! = 6
    report = check_system(Shape(1, 2))
    assert report.ok
    assert len(report.tableaux) == 4


def test_factorization_identity_at_pinned_point():
    # frozen numeric point: u = (2/3, 5, 7/2, 11)
    from fractions import Fraction

    from wba.fusion import psi_full_numeric, psi_step_numeric

    us = [affine(Fraction(2, 3)), affine(5), affine(Fraction(7, 2)), affine(11)]
    lhs = psi_full_numeric(S22, us)
    rhs = psi_full_numeric(S22, us, m=3) * psi_step_numeric(S22, us, 4)
    assert lhs == rhs


@pytest.mark.parametrize("shape", [S11, Shape(2, 1), Shape(1, 2), S22])
def test_factorization_identity_random(shape):
    assert check_factorization_identity(shape, seed=2, points=2)["pass"]


# every shape of one to five sites
SHAPES = [Shape(r, n - r) for n in range(1, 6) for r in range(n + 1)]


def shapes_after(first):
    """first, then the other shapes of SHAPES: the ids shape0, shape1, ...
    name the same shapes as when first was the whole list."""
    return first + [shape for shape in SHAPES if shape not in first]


def paths_to(shape, k):
    """The number of distinct paths the shape's tableaux take over their
    first k sites (every path to k sites extends to a tableau)."""
    return len({t.contents()[:k] for t in enumerate_tableaux(shape)})


@pytest.mark.parametrize("r", range(5))
def test_wall_crossing_lemma(r):
    # one instance per path to the r sites left of the wall
    for s in range(1, 6 - r):
        result = check_wall_crossing(Shape(r, s))
        assert result["pass"]
        assert result["instances"] == paths_to(Shape(r, s), r)


@pytest.mark.parametrize("r", range(6))
def test_wall_crossing_needs_a_site_right_of_the_wall(r):
    with pytest.raises(IndexOutOfRange):
        check_wall_crossing(Shape(r, 0))


@pytest.mark.parametrize("shape", shapes_after([S11, Shape(2, 1), Shape(1, 2), S22]))
def test_jm_resolvent_lemma(shape):
    # one instance per path to the first n - 1 sites
    result = check_jm_resolvent(shape)
    assert result["pass"]
    assert result["instances"] == paths_to(shape, shape.n - 1)


@pytest.mark.parametrize("r", range(6))
def test_lemmas_without_right_sites(r):
    # the last step of (r, 0) is a before-wall step, on the paths of (r - 1, 0)
    shape = Shape(r, 0)
    resolvent = check_jm_resolvent(shape)
    factorization = check_factorization_identity(shape, seed=1)
    assert resolvent["pass"] and factorization["pass"]
    assert resolvent["instances"] == [0, 1, 1, 2, 4, 10][r]
    assert factorization["instances"] == (3 if r else 0)


MUTATIONS = {
    "shifted_content": lambda a, b: (a + 1, b),
    "flipped_slope": lambda a, b: (a, -b),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("shape", [S11, Shape(2, 1), Shape(1, 2), S22, Shape(3, 1)])
def test_lemmas_fail_on_a_mutated_factor(monkeypatch, fresh_paths, shape, mutation):
    # the lemmas see the first factor of every spec with its content
    # shifted or its slope flipped; the idempotents they start from do not
    linear_factors = verify._linear_factors

    def mutated(shape, factors, k):
        kind, i, a, b = factors[0]
        changed = (kind, i, *MUTATIONS[mutation](a, b))
        return linear_factors(shape, [changed, *factors[1:]], k)

    monkeypatch.setattr(verify, "_linear_factors", mutated)
    assert not check_wall_crossing(Shape(shape.r, 1))["pass"]
    assert not check_jm_resolvent(shape)["pass"]


@pytest.mark.parametrize("shape", shapes_after([S11, Shape(1, 2), S22]))
def test_mirror_products(shape):
    # one instance per tableau whose contents DEFAULT_H is generic for
    result = check_mirror_products(shape, seed=4)
    assert result["pass"]
    tableaux = enumerate_tableaux(shape)
    generic = [t for t in tableaux if h_is_generic(shape, t.contents(), DEFAULT_H)]
    assert result["instances"] == len(generic)


def test_proof_lemmas_bundle():
    out = check_proof_lemmas(S22, seed=0)
    assert set(out) == {"factorization", "wall_crossing", "jm_resolvent", "mirror_products"}
    assert all(v["pass"] for v in out.values())


@pytest.mark.slow
def test_proof_lemmas_on_a_six_site_shape():
    # (3,3): the mirror lemma folds s' and d' factors over 720 diagrams,
    # with three s' pairs where (4,2) has one
    out = check_proof_lemmas(Shape(3, 3), seed=0)
    assert all(v["pass"] for v in out.values()), out


def test_check_exponents_with_negative_controls():
    out = check_exponents(S22)
    assert out["pass"]
    assert out["runs"] == 10
    assert out["negative_controls"] == out["negative_controls_failed_as_expected"] > 0
    assert out["zero_results"] == 0


def test_full_report_fuses_each_tableau_once(monkeypatch, fresh_paths):
    # the lemma suites, the second procedure's stage up to r and the
    # minimal runs' reference fusions are served from the path memo
    import wba.fusion as fusion

    def signature(shape, factors, k, z, c, multiply_left=False):
        return shape, k, tuple(factors), tuple(map(tuple, z)), c, multiply_left

    calls = []
    evaluate = fusion._evaluate_step_info

    def counted(e_prev, *args):
        calls.append(signature(e_prev.shape, *args))
        return evaluate(e_prev, *args)

    monkeypatch.setattr(fusion, "_evaluate_step_info", counted)
    report = full_report(S22)
    assert report.ok and report.exponent_runs["runs"] == 10
    first = set()
    for t in enumerate_tableaux(S22):
        contents = t.contents()
        for k in range(2, S22.n + 1):
            z = step_prefactor(S22, contents, k)
            first.add(signature(S22, _step_factors(S22, contents, k), k, z, contents[k - 1]))
    assert len(first) == 2 + 4 + 10
    assert all(calls.count(step) == 1 for step in first)


def test_prefix_fusion_matches_embedding():
    # fusing a shorter path inside the ambient shape equals embedding the
    # idempotent fused in its own shape
    small = Shape(1, 1)
    big = Shape(1, 2)
    for t in enumerate_tableaux(small):
        e_small = fusion_idempotent(t)
        e_ambient = fuse_contents(big, t.contents())
        assert e_ambient == embed(e_small, big)


def test_full_report_sections():
    report = full_report(S11, seed=0, suite="all")
    assert report.ok
    assert report.identities is not None
    assert report.lemmas is not None
    assert report.exponent_runs is not None
    js = report.to_json()
    assert js["ok"]
    assert "timings" in js


@pytest.mark.parametrize("suite", ["lemma", "yang_baxter", "ALL", ""])
def test_an_unknown_suite_is_refused(suite):
    # a misspelt suite would run no section and report ok
    with pytest.raises(IndexOutOfRange):
        full_report(S22, seed=0, suite=suite)


SYSTEM_FIELDS = (
    "tableaux", "orthogonal", "orthogonality_pairs", "orthogonality_failures",
    "completeness_ok", "completeness_residual_terms", "spectra_distinct",
)


@pytest.mark.parametrize("suite", ["lemmas", "exponents"])
def test_a_report_prints_only_the_sections_that_ran(suite):
    # check_system did not run, so the system fields claim nothing
    report = full_report(S22, seed=0, suite=suite)
    js = json.loads(json.dumps(report.to_json()))
    assert report.ok and js["ok"]
    assert [js[name] for name in SYSTEM_FIELDS] == [None] * len(SYSTEM_FIELDS)
    assert {name for name in ("identities", "lemmas", "exponents") if js[name]} == {suite}
    assert set(js["timings"]) == {suite}
    # a failed section that ran still fails the report
    if suite == "lemmas":
        report.lemmas["wall_crossing"]["pass"] = False
    else:
        report.exponent_runs["pass"] = False
    assert not report.ok
