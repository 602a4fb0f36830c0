"""Walled (r, s)-diagrams and their composition.

A diagram of shape (r, s) with n = r + s is a bijection between the point set
(top-left ∪ bottom-right) and (bottom-left ∪ top-right), encoded as a
permutation img of {1, ..., n}:

  * source i <= r is the i-th TOP point, source i > r the i-th BOTTOM point;
  * target j <= r is the j-th BOTTOM point, target j > r the j-th TOP point.

The wall sits between columns r and r+1 and is implicit in the index ranges.
Every permutation is admissible, so there are exactly n! diagrams.  In this
encoding the identity permutation is the identity diagram, the vertical flip
is the inverse permutation, and every named generator (s_i, d, s_{i,k},
d_{i,k}) is a transposition.

Composition places the upper diagram above the lower one, glues the middle
row, traces the boundary paths and counts the closed loops left in the middle
row; the algebra layer turns each loop into a factor of the parameter d.
Shapes, and diagrams per shape, are interned in tables that are never
emptied, so equal values are one object: both hash and compare by identity,
at C speed, and copies and pickles go back through the constructor to the
interned object.  Each shape keeps its compositions in one packed layout: a
memo that empties itself at the scalar memos' size limit and, once built, a
table.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import deque
from operator import index
from typing import Iterator, NamedTuple

from .errors import IndexOutOfRange, ShapeMismatch
from .scalars import _cache_put, _immutable, _setattr


# every shape ever made; never emptied, because shapes hash and compare by
# identity
_SHAPES: dict = {}


class Shape:
    """The numbers r and s of sites left and right of the wall; interned, so
    equal shapes are one object, hashed and compared by identity."""

    __slots__ = ("r", "s")

    def __new__(cls, r: int, s: int):
        # an int, never a float: the first object made for a value is the
        # one every later call returns
        r, s = index(r), index(s)
        shape = _SHAPES.get((r, s))
        if shape is None:
            if r < 0 or s < 0:
                raise IndexOutOfRange(f"shape ({r}, {s}) has a negative side")
            shape = object.__new__(cls)
            _setattr(shape, "r", r)
            _setattr(shape, "s", s)
            _SHAPES[r, s] = shape
        return shape

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return Shape, (self.r, self.s)

    def __repr__(self):
        return f"Shape(r={self.r!r}, s={self.s!r})"

    @property
    def n(self) -> int:
        return self.r + self.s

    def check_site(self, j: int):
        if not 1 <= j <= self.n:
            raise IndexOutOfRange(f"site {j} outside 1..{self.n}")


def epsilon(shape: Shape, j: int) -> int:
    """0 on the left of the wall, 1 on the right."""
    shape.check_site(j)
    return 0 if j <= shape.r else 1


class WalledDiagram:
    """An interned walled diagram; construct through make_diagram.  Equal
    diagrams are the same object, so equality and the inherited hash are
    identity."""

    __slots__ = ("shape", "img", "idx", "_mt", "_mb")

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return make_diagram, (self.shape, self.img)

    def __repr__(self):
        return f"WalledDiagram({self.shape.r},{self.shape.s},{list(self.img)})"


# full tables stay affordable up to six sites (720^2 entries)
_TABLE_MAX_SITES = 6


class _ComposeMemo(dict):
    """A shape's composition memo, in the table's layout: key u * stride + l
    maps to the composition of by_idx[u] above by_idx[l] as result index
    << 8 | loops.  A missing key is composed on the spot and stored; the memo
    empties itself at the scalar memos' size limit."""

    __slots__ = ("by_idx", "stride")

    def __init__(self, by_idx: list, stride: int):
        self.by_idx = by_idx
        self.stride = stride

    def __missing__(self, key):
        upper, lower = divmod(key, self.stride)
        diagram, loops = compose(self.by_idx[upper], self.by_idx[lower])
        assert loops < 1 << 8, "loop count overflows the composition value"
        hit = diagram.idx << 8 | loops
        _cache_put(self, key, hit)
        return hit


class _ShapeSpace:
    """Per-shape interning state: diagrams, composition memo and table, which
    share one layout."""

    __slots__ = ("by_img", "by_idx", "stride", "cache", "table")

    def __init__(self, n: int):
        # never emptied: diagrams hash and compare by identity, so a second
        # object for an img would be a second, unequal key
        # (perfbench/make_expected.py's cold() empties only cache and table)
        self.by_img: dict = {}
        self.by_idx: list = []
        # n! up to six sites, so memo and table keys coincide; never n! of a
        # large shape, whose indices make_diagram bounds instead
        self.stride = math.factorial(n) if n <= _TABLE_MAX_SITES else 1 << 24
        self.cache = _ComposeMemo(self.by_idx, self.stride)
        self.table = None


_REGISTRY: dict = {}


def _shape_entry(shape: Shape) -> _ShapeSpace:
    entry = _REGISTRY.get(shape)
    if entry is None:
        entry = _ShapeSpace(shape.n)
        _REGISTRY[shape] = entry
    return entry


def _matchings(shape: Shape, img):
    """Partner arrays for top and bottom points; +j is top j, -j is bottom j."""
    r, n = shape.r, shape.n
    mt = [0] * (n + 1)
    mb = [0] * (n + 1)
    for i in range(1, n + 1):
        j = img[i - 1]
        if i <= r:
            if j <= r:
                mt[i] = -j
                mb[j] = i
            else:
                mt[i] = j
                mt[j] = i
        else:
            if j <= r:
                mb[i] = -j
                mb[j] = -i
            else:
                mb[i] = j
                mt[j] = -i
    return tuple(mt), tuple(mb)


def make_diagram(shape: Shape, img) -> WalledDiagram:
    img = tuple(img)
    space = _shape_entry(shape)
    by_img, by_idx = space.by_img, space.by_idx
    d = by_img.get(img)
    if d is not None:
        return d
    n = shape.n
    if len(img) != n or sorted(img) != list(range(1, n + 1)):
        raise IndexOutOfRange(f"img {img} is not a permutation of 1..{n}")
    # a composition key is upper.idx * stride + lower.idx
    assert len(by_idx) < space.stride, "diagram index overflows the composition key"
    d = object.__new__(WalledDiagram)
    _setattr(d, "shape", shape)
    _setattr(d, "img", img)
    _setattr(d, "idx", len(by_idx))
    mt, mb = _matchings(shape, img)
    _setattr(d, "_mt", mt)
    _setattr(d, "_mb", mb)
    by_img[img] = d
    by_idx.append(d)
    return d


def identity(shape: Shape) -> WalledDiagram:
    return make_diagram(shape, range(1, shape.n + 1))

def _transposition(shape: Shape, i: int, k: int) -> WalledDiagram:
    img = list(range(1, shape.n + 1))
    img[i - 1], img[k - 1] = k, i
    return make_diagram(shape, img)


def s_pair(shape: Shape, i: int, k: int) -> WalledDiagram:
    """The long crossing s_{i,k} of same-side columns i < k."""
    r, n = shape.r, shape.n
    if not (1 <= i < k <= r or r + 1 <= i < k <= n):
        raise IndexOutOfRange(f"s_({i},{k}) does not exist in shape ({r},{shape.s})")
    return _transposition(shape, i, k)


def d_pair(shape: Shape, i: int, k: int) -> WalledDiagram:
    """The long contraction d_{i,k} joining column i <= r with column k > r."""
    r, n = shape.r, shape.n
    if not (1 <= i <= r < k <= n):
        raise IndexOutOfRange(f"d_({i},{k}) does not exist in shape ({r},{shape.s})")
    return _transposition(shape, i, k)


class CompositionResult(NamedTuple):
    """A composed diagram and the closed loops the composition left."""

    diagram: WalledDiagram
    loops: int


def compose(upper: WalledDiagram, lower: WalledDiagram) -> CompositionResult:
    """Stack upper above lower; return the resulting diagram and loop count."""
    if upper.shape != lower.shape:
        raise ShapeMismatch(f"cannot compose shapes {upper.shape} and {lower.shape}")
    return CompositionResult(*_compose_raw(upper, lower))


def _compose_raw(upper: WalledDiagram, lower: WalledDiagram):
    shape = upper.shape
    r, n = shape.r, shape.n
    umt, umb = upper._mt, upper._mb
    lmt, lmb = lower._mt, lower._mb
    img = [0] * n
    seen = [False] * (n + 1)
    for i in range(1, n + 1):
        if i <= r:
            v, in_upper = umt[i], True
        else:
            v, in_upper = lmb[i], False
        while True:
            if in_upper:
                if v > 0:  # upper top: a target of the result
                    img[i - 1] = v
                    break
                m = -v  # upper bottom: middle row, cross into lower
                seen[m] = True
                v, in_upper = lmt[m], False
            else:
                if v < 0:  # lower bottom: a target of the result
                    img[i - 1] = -v
                    break
                seen[v] = True  # lower top: middle row, cross into upper
                v, in_upper = umb[v], True

    loops = 0
    for m in range(1, n + 1):
        if seen[m]:
            continue
        loops += 1
        cur = m
        while True:
            seen[cur] = True
            nxt = lmt[cur]  # middle-to-middle edge of the lower diagram
            seen[nxt] = True
            cur = -umb[nxt]  # middle-to-middle edge of the upper diagram
            if cur == m:
                break

    return make_diagram(shape, img), loops


# the table packs result index << 8 | loops (below 6! and 6) into 32-bit
# C ints
assert math.factorial(_TABLE_MAX_SITES) << 8 < 2**31
assert array("i").itemsize == 4


def composition_table(shape: Shape):
    """The full composition table of a small shape as one flat row-major
    array('i') in the memo's layout, built once and cached; None when the
    shape is too large to tabulate.

    Entry u*N + l, for N diagrams, is by_idx[u] above by_idx[l], packed as
    result index << 8 | loops.  Each adjacent generator g (the crossings
    s_i, i != r, and the contraction d_{r,r+1}: the transpositions of i and
    i + 1) acts on the left of every diagram x through `_compose_raw`, the
    single-pair oracle, and step[x] packs g∘x the same way.  If g∘a = b
    closes no loop, then b∘x = g∘(a∘x) and b∘x closes the loops of a∘x plus
    those g closes on a∘x, so row b is row a mapped through g's action.  A
    breadth-first walk from the identity row along loop-free edges fills
    every row: every diagram is a loop-free word in the adjacent
    generators, and loops once closed are never undone, so every prefix of
    that word closes none either.  The walk asserts that it reached every
    row.
    """
    space = _shape_entry(shape)
    if space.table is not None:
        return space.table
    if shape.n > _TABLE_MAX_SITES:
        return None

    for _ in all_diagrams(shape):  # intern the rest after those already present
        pass
    diagrams = space.by_idx
    count = len(diagrams)
    actions = []  # each adjacent generator's step
    for i in range(1, shape.n):
        g = _transposition(shape, i, i + 1)
        step = []
        for x in diagrams:
            gx, closed = _compose_raw(g, x)
            step.append(gx.idx << 8 | closed)
        actions.append(step)

    table = array("i", [0]) * (count * count)
    start = identity(shape).idx
    table[start * count : (start + 1) * count] = array("i", [x << 8 for x in range(count)])
    reached = [False] * count
    reached[start] = True
    walk = deque([start])
    while walk:
        a = walk.popleft()
        row = table[a * count : (a + 1) * count].tolist()
        for step in actions:
            b, closed = step[a] >> 8, step[a] & 0xFF
            if closed or reached[b]:
                continue
            reached[b] = True
            # g∘(a∘x): g's packed action on a∘x plus the loops a∘x closed
            table[b * count : (b + 1) * count] = array(
                "i", [step[hit >> 8] + (hit & 0xFF) for hit in row]
            )
            walk.append(b)
    assert all(reached), f"the loop-free walk missed a row of shape {shape}"

    space.table = table
    return table


def vertical_flip(x: WalledDiagram) -> WalledDiagram:
    """Reflection through the horizontal axis; the inverse permutation."""
    inv = [0] * x.shape.n
    for i, j in enumerate(x.img, start=1):
        inv[j - 1] = i
    return make_diagram(x.shape, inv)


def all_diagrams(shape: Shape) -> Iterator[WalledDiagram]:
    for img in itertools.permutations(range(1, shape.n + 1)):
        yield make_diagram(shape, img)
