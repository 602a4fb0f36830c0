import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wba.diagrams as diagrams_module
from wba.diagrams import (
    Shape,
    _compose_raw,
    _shape_entry,
    all_diagrams,
    compose,
    composition_table,
    d_pair,
    epsilon,
    identity,
    make_diagram,
    s_pair,
    vertical_flip,
)
from wba.errors import IndexOutOfRange, ShapeMismatch
from algebra_helpers import d_gen, s_gen

S11 = Shape(1, 1)
S22 = Shape(2, 2)
S33 = Shape(3, 3)


def test_identity_img():
    assert identity(S22).img == (1, 2, 3, 4)


def test_identity_is_neutral():
    for d in all_diagrams(S22):
        left = compose(identity(S22), d)
        right = compose(d, identity(S22))
        assert left.diagram is d and left.loops == 0
        assert right.diagram is d and right.loops == 0


def test_generator_pictures():
    assert s_gen(S22, 1).img == (2, 1, 3, 4)
    assert d_gen(S22).img == (1, 3, 2, 4)
    assert d_gen(S11).img == (2, 1)
    assert d_pair(S11, 1, 2) is d_gen(S11)


def test_generator_index_ranges():
    with pytest.raises(IndexOutOfRange):
        s_gen(S22, 2)  # s_r does not exist
    with pytest.raises(IndexOutOfRange):
        s_pair(S22, 1, 3)  # crosses the wall
    with pytest.raises(IndexOutOfRange):
        d_pair(S22, 3, 4)  # both right of the wall


def test_d_squared_gives_one_loop():
    d = d_gen(S11)
    res = compose(d, d)
    assert res.diagram is d and res.loops == 1


def test_s_squared_is_identity():
    s1 = s_gen(S22, 1)
    res = compose(s1, s1)
    assert res.diagram is identity(S22) and res.loops == 0


def test_d_s3_d_collapses():
    d, s3 = d_gen(S22), s_gen(S22, 3)
    step = compose(d, s3)
    assert step.loops == 0
    res = compose(step.diagram, d)
    assert res.diagram is d and res.loops == 0


def test_flip_fixes_generators():
    assert vertical_flip(s_gen(S22, 1)) is s_gen(S22, 1)
    assert vertical_flip(d_gen(S22)) is d_gen(S22)
    assert vertical_flip(s_pair(S33, 1, 3)) is s_pair(S33, 1, 3)
    assert vertical_flip(d_pair(S33, 2, 5)) is d_pair(S33, 2, 5)


def test_epsilon():
    assert epsilon(S22, 2) == 0
    assert epsilon(S22, 3) == 1
    assert epsilon(S11, 1) == 0
    with pytest.raises(IndexOutOfRange):
        epsilon(S22, 5)


@pytest.mark.parametrize("r,s", [(0, 1), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_diagram_count_is_factorial(r, s):
    shape = Shape(r, s)
    assert sum(1 for _ in all_diagrams(shape)) == math.factorial(r + s)


def test_interning():
    a = make_diagram(S22, (2, 1, 3, 4))
    b = make_diagram(S22, [2, 1, 3, 4])
    assert a is b


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compose(identity(S11), identity(S22))


def _word(shape, letters):
    """Compose a word of diagrams, accumulating loops."""
    total = 0
    acc = letters[0]
    for nxt in letters[1:]:
        res = compose(acc, nxt)
        acc, total = res.diagram, total + res.loops
    return acc, total


def test_s_pair_word_formula():
    # s_{i,k} = s_i s_{i+1} ... s_{k-2} s_{k-1} s_{k-2} ... s_{i+1} s_i
    for shape in (S22, S33, Shape(4, 1)):
        r, n = shape.r, shape.n
        for lo, hi in ((1, r), (r + 1, n)):
            for i in range(lo, hi + 1):
                for k in range(i + 1, hi + 1):
                    idxs = list(range(i, k - 1)) + [k - 1] + list(range(k - 2, i - 1, -1))
                    word, loops = _word(shape, [s_gen(shape, j) for j in idxs])
                    assert word is s_pair(shape, i, k) and loops == 0


def test_d_pair_word_formula():
    # d_{i,k} = s_i..s_{r-1} s_{k-1}..s_{r+1} d s_{r+1}..s_{k-1} s_{r-1}..s_i
    for shape in (S22, S33, Shape(3, 2)):
        r, n = shape.r, shape.n
        for i in range(1, r + 1):
            for k in range(r + 1, n + 1):
                letters = (
                    [s_gen(shape, j) for j in range(i, r)]
                    + [s_gen(shape, j) for j in range(k - 1, r, -1)]
                    + [d_gen(shape)]
                    + [s_gen(shape, j) for j in range(r + 1, k)]
                    + [s_gen(shape, j) for j in range(r - 1, i - 1, -1)]
                )
                word, loops = _word(shape, letters)
                assert word is d_pair(shape, i, k) and loops == 0


@st.composite
def random_diagram(draw, shape=S22):
    img = draw(st.permutations(list(range(1, shape.n + 1))))
    return make_diagram(shape, img)


@settings(max_examples=80, deadline=None)
@given(random_diagram(), random_diagram())
def test_flip_antihomomorphism(a, b):
    res = compose(a, b)
    flipped = compose(vertical_flip(b), vertical_flip(a))
    assert flipped.diagram is vertical_flip(res.diagram)
    assert flipped.loops == res.loops


@settings(max_examples=80, deadline=None)
@given(random_diagram(), random_diagram(), random_diagram())
def test_compose_associative_with_loop_additivity(a, b, c):
    ab = compose(a, b)
    left = compose(ab.diagram, c)
    bc = compose(b, c)
    right = compose(a, bc.diagram)
    assert left.diagram is right.diagram
    assert ab.loops + left.loops == bc.loops + right.loops


@settings(max_examples=60, deadline=None)
@given(random_diagram())
def test_flip_is_involutive(a):
    assert vertical_flip(vertical_flip(a)) is a


def test_loops_bounded_by_min_side():
    for a in all_diagrams(S22):
        for b in (identity(S22), d_gen(S22), s_gen(S22, 1)):
            assert compose(a, b).loops <= 2
    # the maximal loop count is realized
    d13, d24 = d_pair(S22, 1, 3), d_pair(S22, 2, 4)
    top, _ = _word(S22, [d13, d24])
    assert compose(top, top).loops == 2


def memo_entry(a, b):
    """The composition of a above b, read through the shape's memo, which
    composes and stores a missing pair."""
    space = _shape_entry(a.shape)
    hit = space.cache[a.idx * space.stride + b.idx]
    return space.by_idx[hit >> 8], hit & 0xFF


def test_compose_memo_is_bounded(monkeypatch):
    # the memo empties itself at the scalar memos' limit, and what it returns
    # after a clear is still the composition
    monkeypatch.setattr("wba.scalars._CACHE_LIMIT", 64)
    cache = _shape_entry(S22).cache
    cache.clear()
    diagrams = list(all_diagrams(S22))
    largest = 0
    for a in diagrams:
        for b in diagrams:
            got = memo_entry(a, b)
            largest = max(largest, len(cache))
            assert got == _compose_raw(a, b)
    assert 64 <= largest <= 65


@pytest.fixture
def fresh_registry(monkeypatch, fresh_paths):
    """An empty diagram registry, so each shape's table is built anew, and an
    empty path memo, whose elements hold diagrams of the former registry."""
    monkeypatch.setattr(diagrams_module, "_REGISTRY", {})


def assert_table_is_the_composition(shape):
    """Every entry of the shape's table is `_compose_raw` of its pair, packed
    as result index << 8 | loops."""
    table = composition_table(shape)
    diagrams = _shape_entry(shape).by_idx
    count = len(diagrams)
    assert table.typecode == "i"
    assert len(table) == count * count == _shape_entry(shape).stride ** 2
    for u, a in enumerate(diagrams):
        want = [d.idx << 8 | closed for d, closed in (_compose_raw(a, b) for b in diagrams)]
        assert table[u * count : (u + 1) * count].tolist() == want


@pytest.mark.parametrize(
    "r,s", [(r, n - r) for n in range(6) for r in range(n + 1)]
)
def test_composition_table_matches_compose_raw(fresh_registry, r, s):
    assert_table_is_the_composition(Shape(r, s))


def test_composition_table_matches_compose_raw_on_3_3(fresh_registry):
    assert_table_is_the_composition(S33)


@pytest.mark.slow
@pytest.mark.parametrize("r", range(7))
def test_composition_table_matches_compose_raw_on_six_sites(fresh_registry, r):
    assert_table_is_the_composition(Shape(r, 6 - r))


def test_no_table_above_six_sites(fresh_registry):
    # a product of 2^16 term pairs asks for its shape's table whatever the
    # shape, so asking must be free above six sites: no table, no interning
    shape = Shape(3, 4)
    assert composition_table(shape) is None
    space = _shape_entry(shape)
    assert space.table is None and not space.by_idx


def test_composition_table_agrees_with_the_full_memo(fresh_registry):
    # memo and table share one key and value layout, entry for entry
    shape = Shape(2, 3)
    list(all_diagrams(shape))
    space = _shape_entry(shape)
    keys = range(space.stride**2)
    for key in keys:
        space.cache[key]
    memo = dict(space.cache)
    assert len(memo) == 120 * 120
    table = composition_table(shape)
    assert [memo[key] for key in keys] == table.tolist()


def test_composition_table_follows_the_interning_order(fresh_registry):
    # a few generators, then every diagram in reverse lexicographic order, so
    # by_idx is far from the order all_diagrams interns; the table must follow
    # by_idx and leave the composition memo alone
    shape = Shape(2, 3)
    first = [s_gen(shape, 1), d_gen(shape), s_pair(shape, 3, 5)]
    for img in reversed(list(itertools.permutations(range(1, shape.n + 1)))):
        make_diagram(shape, img)
    space = _shape_entry(shape)
    assert space.by_idx[:3] == first
    assert space.by_idx[3].img == (5, 4, 3, 2, 1)
    for a in first:
        for b in space.by_idx[:10]:
            memo_entry(a, b)
    memo = dict(space.cache)
    assert len(memo) == 30
    assert_table_is_the_composition(shape)
    assert space.cache == memo
