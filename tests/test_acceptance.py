"""Acceptance suite: one test per criterion, each printing a pass line.

Run with -s to see the lines; the (3,3) system sweep needs --runslow.
"""

import math
import time
from fractions import Fraction

import pytest

from wba.algebra import (
    AlgebraElement,
    jm_element,
)
from wba.diagrams import Shape, all_diagrams
from wba.errors import CancellationFailure
from wba.fusion import (
    DEFAULT_H,
    fusion_idempotent,
    fusion_with_minimal_prefactor,
    h_is_generic,
    identity_checks,
    second_fusion_idempotent,
)
from wba.scalars import DELTA, affine
from wba.tableaux import (
    enumerate_bipartitions,
    enumerate_tableaux,
    exponents,
    parse_tableau,
)
from wba.verify import check_proof_lemmas, check_system, interp_idempotent
from algebra_helpers import commutator, d_gen, defining_relations_hold, s_gen, subalgebra_generators
from tableau_oracles import laplacian

GOLDEN_SPEC = "L+1,1;L+2,1;L-2,1;L-1,1"

FAST_SHAPES = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1), (2, 3), (3, 2)]


def _report(number, detail):
    print(f"ACCEPTANCE {number}: PASS ({detail})")


def test_criterion_1_golden_idempotent():
    t0 = time.perf_counter()
    shape = Shape(2, 2)
    t = parse_tableau(GOLDEN_SPEC, shape)
    assert [str(c) for c in t.contents()] == ["0", "-1", "1", "0"]

    one = AlgebraElement.one(shape)
    s1 = AlgebraElement.from_diagram(s_gen(shape, 1))
    s3 = AlgebraElement.from_diagram(s_gen(shape, 3))
    d = AlgebraElement.from_diagram(d_gen(shape))
    expected = ((one - s1) * d * s1 * s3 * d * (one - s1)).scale(
        (2 * DELTA * (DELTA - 1)).inverse()
    )

    assert fusion_idempotent(t) == expected
    assert second_fusion_idempotent(t) == expected
    assert second_fusion_idempotent(t, mirror=True) == expected
    assert interp_idempotent(t) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"four constructions coincide structurally in {elapsed:.3f}s")


def _certify_complete_system(r, s):
    report = check_system(Shape(r, s), cross_check=False)
    assert report.ok, report.to_json()
    return report


def test_criterion_2_complete_systems_fast_shapes():
    t0 = time.perf_counter()
    total = 0
    for r, s in FAST_SHAPES:
        report = _certify_complete_system(r, s)
        total += len(report.tableaux)
    _report(
        2,
        f"idempotency/orthogonality/completeness/JM spectra exact for "
        f"{total} tableaux over {len(FAST_SHAPES)} shapes in {time.perf_counter() - t0:.1f}s",
    )


@pytest.mark.slow
def test_criterion_2_complete_system_33_slow():
    t0 = time.perf_counter()
    report = _certify_complete_system(3, 3)
    _report(
        2,
        f"(3,3) system: {len(report.tableaux)} tableaux, "
        f"{report.orthogonality_pairs} ordered pairs in {time.perf_counter() - t0:.0f}s",
    )


def test_criterion_3_dimension_identity():
    checked = 0
    for n in range(0, 7):
        for r in range(0, n + 1):
            s = n - r
            shape = Shape(r, s)
            assert sum(1 for _ in all_diagrams(shape)) == math.factorial(n)
            by_final = {}
            for t in enumerate_tableaux(shape):
                by_final[t.final] = by_final.get(t.final, 0) + 1
            assert sum(m * m for m in by_final.values()) == math.factorial(n)
            checked += 1
    shape = Shape(2, 2)
    by_final = {}
    for t in enumerate_tableaux(shape):
        by_final[t.final] = by_final.get(t.final, 0) + 1
    mult = sorted(by_final[b] for _, b in enumerate_bipartitions(shape))
    assert mult == [1, 1, 1, 1, 2, 4]
    assert sum(m * m for m in mult) == 24
    _report(3, f"diagram and path-square counts equal (r+s)! for {checked} shapes")


def test_criterion_4_two_procedure_agreement():
    random_hs = [affine(Fraction(1, 3), 2), affine(Fraction(-2, 5), 5), affine(Fraction(7, 3), -2)]
    shapes = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
    runs = 0
    for r, s in shapes:
        shape = Shape(r, s)
        for t in enumerate_tableaux(shape):
            e = fusion_idempotent(t)
            assert interp_idempotent(t) == e
            for h in [DEFAULT_H] + random_hs:
                assert h_is_generic(shape, t.contents(), h)
                assert second_fusion_idempotent(t, h) == e
                assert second_fusion_idempotent(t, h, mirror=True) == e
                runs += 2
    _report(4, f"first/second(fwd,mirror)/interpolation agree in {runs} second-procedure runs")


def test_criterion_5_exponent_calculus():
    minimal_runs = 0
    negative_controls = 0
    for r, s in FAST_SHAPES:
        shape = Shape(r, s)
        for t in enumerate_tableaux(shape):
            element, diag = fusion_with_minimal_prefactor(t)
            minimal_runs += 1
            # evaluations finite, leftover scalar finite, and the product
            # recombines to the idempotent
            assert diag.matches_idempotent, t
            assert not diag.result_is_zero, t
            if negative_controls < 10:
                pos = [k for k, pk in enumerate(exponents(t), 1) if pk == 1]
                if pos:
                    with pytest.raises(CancellationFailure):
                        fusion_with_minimal_prefactor(t, override_exponents={pos[0]: 0})
                    negative_controls += 1
    assert negative_controls >= 10
    assert laplacian({(1, 2), (2, 1)}, 0) == -2
    assert laplacian({(1, 1), (1, 2), (2, 1)}, 0) == 0
    assert laplacian({(1, 2)}, 0) == -1
    _report(
        5,
        f"{minimal_runs} minimal-prefactor evaluations finite, "
        f"{negative_controls} negative controls failed as required, "
        f"skew Laplacian values (-2, 0, -1) reproduced",
    )


def test_criterion_6_identity_suite():
    for r, s in [(2, 2), (2, 3)]:
        report = identity_checks(Shape(r, s), seed=20, points=20)
        assert report["all_pass"], report
    for r, s in [(2, 2), (3, 3)]:
        relations = defining_relations_hold(Shape(r, s))
        assert len(relations) == 8 and all(relations.values()), relations
    _report(6, "spectral identities at 20 random points and all 8 defining relations exact")


def test_criterion_7_proof_lemma_suite():
    t0 = time.perf_counter()
    for r, s in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        out = check_proof_lemmas(Shape(r, s), seed=7)
        assert all(v["pass"] for v in out.values()), (r, s, out)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, f"factorization/wall-crossing/resolvent/mirror identities exact in {elapsed:.1f}s")


def test_criterion_8_jm_structure():
    checked = 0
    for n in range(2, 7):
        for r in range(1, n):
            shape = Shape(r, n - r)
            xs = [jm_element(shape, k) for k in range(1, n + 1)]
            for i in range(n):
                for j in range(i + 1, n):
                    assert commutator(xs[i], xs[j]).is_zero
            for k in range(1, n + 1):
                for g in subalgebra_generators(shape, k - 1):
                    assert commutator(xs[k - 1], g).is_zero
            checked += 1
    _report(8, f"JM commutation and tower compatibility exact for {checked} shapes")
