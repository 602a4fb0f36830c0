import math
from fractions import Fraction

import pytest

from wba.diagrams import Shape
from wba.errors import IllegalMove, IndexOutOfRange, ParseError
from wba.scalars import DELTA, ONE, ZERO, affine, scalar_str
from wba.tableaux import (
    Bipartition,
    Move,
    Partition,
    _advance,
    _partitions_of,
    bratteli,
    enumerate_bipartitions,
    enumerate_tableaux,
    exponents,
    is_semisimple,
    parse_tableau,
    theta,
)
from tableau_oracles import (
    TripleTableau,
    cells,
    diag_len,
    laplacian,
    tableau_from_contents,
    tableau_from_triple,
    triple_tableau,
)

S11 = Shape(1, 1)
S22 = Shape(2, 2)
S33 = Shape(3, 3)

GOLDEN_SPEC = "L+1,1;L+2,1;L-2,1;L-1,1"  # the (2,2) path with contents (0,-1,1,0)


def P(*parts):
    return Partition(tuple(parts))


def test_addable_removable():
    assert P().addable_cells() == ((1, 1),)
    assert set(P(2, 1).removable_cells()) == {(1, 2), (2, 1)}
    assert set(P(2, 1).addable_cells()) == {(1, 3), (2, 2), (3, 1)}


def test_bipartition_enumeration_counts():
    def brute(shape):
        # independent oracle: filter all pairs of partitions by sizes
        total = []
        for f in range(min(shape.r, shape.s) + 1):
            for l_size, r_size in [(shape.r - f, shape.s - f)]:
                lefts = [p for n in range(10) for p in _parts(n) if sum(p) == l_size]
                rights = [p for n in range(10) for p in _parts(n) if sum(p) == r_size]
                total += [(f, l, r) for l in lefts for r in rights]
        return total

    def _parts(n, maxp=None):
        if n == 0:
            return [()]
        maxp = maxp or n
        out = []
        for p in range(min(n, maxp), 0, -1):
            out += [(p,) + rest for rest in _parts(n - p, p)]
        return out

    for shape, expected in [(S11, 2), (S22, 6), (Shape(1, 2), 3)]:
        got = enumerate_bipartitions(shape)
        assert len(got) == expected
        assert len(brute(shape)) == expected
    assert [
        (f, b.left.parts, b.right.parts) for f, b in enumerate_bipartitions(S11)
    ] == [(0, (1,), (1,)), (1, (), ())]


def test_tableau_counts_22():
    allt = enumerate_tableaux(S22)
    assert len(allt) == 10
    by_final = {}
    for t in allt:
        by_final.setdefault(t.final, []).append(t)
    assert len(by_final[Bipartition(P(1), P(1))]) == 4
    assert len(by_final[Bipartition(P(), P())]) == 2
    mult = sorted(len(v) for v in by_final.values())
    assert mult == [1, 1, 1, 1, 2, 4]
    assert sum(m * m for m in mult) == 24 == math.factorial(4)


@pytest.mark.parametrize(
    "r,s",
    [(0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (1, 4), (3, 3)],
)
def test_dimension_identity(r, s):
    shape = Shape(r, s)
    by_final = {}
    for t in enumerate_tableaux(shape):
        by_final[t.final] = by_final.get(t.final, 0) + 1
    assert sum(m * m for m in by_final.values()) == math.factorial(r + s)


def test_contents_figure_path():
    t = parse_tableau("L+1,1;L+1,2;R+1,1;R+1,2", S22)
    assert t.contents() == (ZERO, ONE, DELTA, DELTA + 1)


def test_contents_golden_path():
    t = parse_tableau(GOLDEN_SPEC, S22)
    assert t.contents() == (ZERO, -ONE, ONE, ZERO)


EXSEQ_MOVES = "L+1,1;L+1,2;L+2,1;R+1,1;R+1,2;L-1,2;L-2,1;R+2,1"


def test_contents_long_example():
    # (3,5) path ending at [(1),(2,1)]; oracle: apply the three content rules
    t = parse_tableau(EXSEQ_MOVES, Shape(3, 5))
    expected = (
        affine(0),
        affine(1),
        affine(-1),
        affine(0, 1),
        affine(1, 1),
        affine(-1),
        affine(1),
        affine(-1, 1),
    )
    assert t.contents() == expected


def test_triple_tableau_long_example():
    t = parse_tableau(EXSEQ_MOVES, Shape(3, 5))
    tt = triple_tableau(t)
    assert tt.lambda_prime == P(2, 1)
    assert tt.nu == P(1)
    assert tt.lambda_second == P(2, 1)
    assert dict(tt.fill_prime) == {(1, 1): 1, (1, 2): 2, (2, 1): 3}
    assert dict(tt.removed_fill) == {(1, 2): 6, (2, 1): 7}
    assert dict(tt.right_fill) == {(1, 1): 4, (1, 2): 5, (2, 1): 8}


def test_triple_tableau_small():
    t = parse_tableau("L+1,1;L-1,1", S11)
    tt = triple_tableau(t)
    assert (tt.lambda_prime, tt.nu, tt.lambda_second) == (P(1), P(), P())


@pytest.mark.parametrize("shape", [S11, S22, Shape(2, 3), S33])
def test_triple_tableau_bijective(shape):
    seen = set()
    for t in enumerate_tableaux(shape):
        tt = triple_tableau(t)
        assert tt not in seen
        seen.add(tt)
        assert tableau_from_triple(tt, shape) == t


@pytest.mark.parametrize("shape", [S11, S22, Shape(3, 2), S33])
def test_contents_determine_path(shape):
    for t in enumerate_tableaux(shape):
        assert tableau_from_contents(shape, t.contents()) == t


def test_diag_len():
    assert [diag_len(P(2, 1), k) for k in (-1, 0, 1)] == [1, 1, 1]
    assert diag_len(P(), 5) == 0
    assert diag_len(P(2, 2), 0) == 2
    # skew cell sets work directly
    assert diag_len({(1, 2), (2, 1)}, 1) == 1


def test_theta_examples():
    assert theta(P(), 0) == -1
    assert theta(P(1), 0) == 1
    assert theta(P(2, 1), 0) == -1  # adding (2,2) gives (2,2)
    assert theta(P(1, 1), 1) == 1  # removing (2,1) gives (1)
    assert theta(P(1, 1), 0) == 0


def _is_young(cells) -> bool:
    return all((i == 1 or (i - 1, j) in cells) and (j == 1 or (i, j - 1) in cells)
               for i, j in cells)


def test_theta_cases_exclusive_up_to_size_8():
    # theta against the cells of diagonal k: the next cell outward can be
    # added, or the outermost one removed, never both; all partitions of
    # size <= 8
    def parts(n, maxp=None):
        if n == 0:
            yield ()
            return
        maxp = maxp or n
        for p in range(min(n, maxp), 0, -1):
            for rest in parts(n - p, p):
                yield (p,) + rest

    for n in range(9):
        for ps in parts(n):
            gamma = Partition(ps)
            region = set(cells(gamma))
            for k in range(-n - 1, n + 2):
                diagonal = sorted(c for c in region if c[0] - c[1] == k)
                m = len(diagonal) + 1
                outward = (k + m, m) if k >= 0 else (m, m - k)
                can_add = _is_young(region | {outward})
                can_remove = bool(diagonal) and _is_young(region - {diagonal[-1]})
                assert not (can_add and can_remove)
                assert theta(gamma, k) == (-1 if can_add else 1 if can_remove else 0)


def test_theta_is_the_laplacian_form_up_to_size_8():
    # the exponent rule against the paper's diagonal form: theta(gamma, k) is
    # the negative Laplacian of gamma's diagonal lengths at k, less 1 on the
    # main diagonal, for every partition of size <= 8 and |k| <= size + 3
    cases = 0
    for n in range(9):
        for gamma in _partitions_of(n):
            for k in range(-n - 3, n + 4):
                assert theta(gamma, k) == laplacian(gamma, k) - (k == 0), (gamma, k)
                cases += 1
    assert cases == 1301


def test_laplacian_values():
    assert all(laplacian(P(), k) == 0 for k in range(-3, 4))
    assert laplacian(P(1), 0) == 2
    assert laplacian(P(1), 1) == -1
    assert laplacian(P(1), -1) == -1


def test_laplacian_skew_region_cases():
    # the three wall-crossing geometries: diagonal between two removed cells,
    # diagonal through the middle of the strip, diagonal hitting the border
    assert laplacian({(1, 2), (2, 1)}, 0) == -2
    assert laplacian({(1, 1), (1, 2), (2, 1)}, 0) == 0
    assert laplacian({(1, 2)}, 0) == -1


def test_laplacian_telescopes_to_zero():
    for region in [cells(P(3, 1)), {(1, 2), (2, 1)}, {(2, 3), (1, 1)}, cells(P(4, 4, 2))]:
        lo = min(i - j for i, j in region) - 2
        hi = max(i - j for i, j in region) + 2
        assert sum(laplacian(region, k) for k in range(lo, hi + 1)) == 0


def test_exponents_no_removals():
    t = parse_tableau("L+1,1;L+1,2;R+1,1;R+1,2", S22)
    assert exponents(t) == (0, 0, 0, 0)


def test_exponents_golden_path():
    t = parse_tableau(GOLDEN_SPEC, S22)
    assert exponents(t) == (0, 0, 1, 0)


def test_exponents_long_example():
    t = parse_tableau(EXSEQ_MOVES, Shape(3, 5))
    p = exponents(t)
    lam = P(2, 1)
    assert p[5] == theta(lam, -1)
    assert p[6] == theta(lam, 1)
    assert all(p[i] == 0 for i in (0, 1, 2, 3, 4, 7))


def test_is_semisimple():
    assert is_semisimple(2, 2, Fraction(1, 2))
    assert not is_semisimple(2, 2, 2)
    assert is_semisimple(1, 2, 0)
    assert not is_semisimple(2, 2, 0)
    assert is_semisimple(2, 2, 3)
    assert is_semisimple(0, 5, 0)
    assert not is_semisimple(1, 1, 0)


@pytest.mark.parametrize("delta", [0.5, 2.0, "1/2"], ids=repr)
def test_is_semisimple_refuses_a_non_rational_delta(delta):
    with pytest.raises(TypeError):
        is_semisimple(2, 2, delta)


def test_bratteli_22():
    g = bratteli(S22)
    assert [len(level) for level in g.levels] == [1, 1, 2, 3, 6]
    assert sum(len(level) for level in g.levels) == 13
    assert g.path_count() == 10


def test_bratteli_11():
    g = bratteli(S11)
    assert [len(level) for level in g.levels] == [1, 1, 2]
    assert g.path_count() == 2


def test_bratteli_edge_labels_match_figure():
    g = bratteli(S22)
    labels_by_level = [
        sorted(scalar_str(m.content()) for _, _, m in level) for level in g.edges
    ]
    assert labels_by_level[0] == ["0"]
    assert labels_by_level[1] == ["-1", "1"]
    assert labels_by_level[2] == sorted(["1", "-1", "d", "d"])
    assert labels_by_level[3] == sorted(
        ["d-1", "d+1", "1", "d", "0", "d+1", "d-1", "-1"]
    )


def test_bratteli_exports_agree():
    g = bratteli(S22)
    dot = g.to_dot()
    js = g.to_json()
    assert dot.count("->") == len(js["edges"])
    nodes = sum(len(level) for level in js["levels"])
    assert dot.count("[label=") == nodes + len(js["edges"])
    for t, level in enumerate(js["levels"]):
        for i in range(len(level)):
            assert f"n{t}_{i} " in dot
    for e in js["edges"]:
        assert f'n{e["level"]}_{e["from"]} -> n{e["level"] + 1}_{e["to"]}' in dot


def test_parse_tableau_round_trip():
    t = parse_tableau("L+1,1;L-1,1", S11)
    assert t.final == Bipartition()
    golden = parse_tableau(GOLDEN_SPEC, S22)
    assert golden.moves_str() == GOLDEN_SPEC
    assert golden.contents() == (ZERO, -ONE, ONE, ZERO)


def test_parse_tableau_rejects_short_path():
    with pytest.raises(IllegalMove):
        parse_tableau("L+1,1;R+1,1", Shape(1, 2))


def test_parse_tableau_rejects_bad_moves():
    with pytest.raises(ParseError):
        parse_tableau("L+1", S11)
    with pytest.raises(ParseError):
        parse_tableau("R-1,1;L+1,1", S11)
    with pytest.raises(IllegalMove) as err:
        parse_tableau("L+2,1;L-1,1", S11)
    assert err.value.step == 1
    with pytest.raises(IllegalMove):
        parse_tableau("R+1,1;L+1,1", S11)  # additions to the right before the wall


def _emptied_right_fill():
    tt = triple_tableau(parse_tableau("L+1,1;L+1,2;R+1,1;R+1,2", S22))
    emptied = TripleTableau(
        tt.lambda_prime, tt.nu, tt.lambda_second, tt.fill_prime, tt.removed_fill, ()
    )
    return tableau_from_triple(emptied, S22)


@pytest.mark.parametrize(
    "build,error,step",
    [
        # a removal before the wall
        (lambda: parse_tableau("L-1,1;L+1,1", S11), IllegalMove, 1),
        # a right addition before the wall
        (lambda: parse_tableau("R+1,1;L+1,1", S11), IllegalMove, 1),
        # L+ to a cell that is not addable
        (lambda: parse_tableau("L+1,1;L+1,3;R+1,1;R+1,2", S22), IllegalMove, 2),
        # R+ to a cell that is not addable
        (lambda: parse_tableau("L+1,1;L+1,2;R+1,2;R+1,1", S22), IllegalMove, 3),
        # L- of a cell that is not removable
        (lambda: parse_tableau("L+1,1;L+1,2;L-2,1;L-1,2", S22), IllegalMove, 3),
        # the length check reports the first step past the end of the path
        (lambda: parse_tableau("L+1,1;L-1,1;R+1,1", S11), IllegalMove, 3),
        # no legal move at step 2 has content 0
        (lambda: tableau_from_contents(S22, (ZERO, ZERO, DELTA, DELTA)), IllegalMove, 2),
        # the fillings cover steps 1 and 2 only
        (_emptied_right_fill, IllegalMove, 3),
        # the partition layer refuses a bad part or cell; there is no step to name
        (lambda: Partition((0,)), IndexOutOfRange, None),
        (lambda: P(1).with_cell((1, 3)), IndexOutOfRange, None),
        (lambda: P(2, 1).without_cell((1, 1)), IndexOutOfRange, None),
    ],
    ids=["remove-before-wall", "right-before-wall", "left-not-addable",
         "right-not-addable", "left-not-removable", "one-move-too-long",
         "content-matches-no-move", "fillings-miss-steps", "zero-part",
         "cell-not-addable", "cell-not-removable"],
)
def test_illegal_move_names_its_step(build, error, step):
    with pytest.raises(error) as err:
        build()
    if step is not None:
        assert err.value.step == step


def test_enumeration_matches_bratteli_paths():
    for shape in (S11, Shape(1, 2), Shape(2, 1), S22, Shape(2, 3)):
        assert len(enumerate_tableaux(shape)) == bratteli(shape).path_count()



def test_advance_applies_each_move_kind():
    state = Bipartition(P(1), P(1))
    assert _advance(state, Move("L+", 1, 2)) == Bipartition(P(2), P(1))
    assert _advance(state, Move("R+", 2, 1)) == Bipartition(P(1), P(1, 1))
    assert _advance(state, Move("L-", 1, 1)) == Bipartition(P(), P(1))
