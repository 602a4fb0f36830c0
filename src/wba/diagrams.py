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
Diagrams are interned per shape, in a table that is never emptied, so equal
diagrams are one object: a diagram hashes and compares by identity, at C
speed, and copies and pickles go back through make_diagram to the interned
object.  Compositions are memoized per shape, in a memo that empties itself
at the scalar memos' size limit.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import deque
from typing import Iterator, NamedTuple

from .errors import IndexOutOfRange, ShapeMismatch
from .scalars import _cache_put


# What the package's hand-written value classes share.  Each lists its
# fields in __slots__; the constructor of an immutable class sets them with
# _setattr.
_setattr = object.__setattr__


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _stored_hash(self):
    return self._hash


class Shape:
    """The numbers r and s of sites left and right of the wall; immutable,
    equal and hashed by value."""

    __slots__ = ("r", "s", "_hash")

    def __init__(self, r: int, s: int):
        if r < 0 or s < 0:
            raise IndexOutOfRange(f"shape ({r}, {s}) has a negative side")
        _setattr(self, "r", r)
        _setattr(self, "s", s)
        _setattr(self, "_hash", hash((r, s)))

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is Shape:
            return self.r == other.r and self.s == other.s
        return NotImplemented

    def __ne__(self, other):
        if self is other:
            return False
        if other.__class__ is Shape:
            return self.r != other.r or self.s != other.s
        return NotImplemented

    __hash__ = _stored_hash

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


class _ShapeSpace:
    """Per-shape interning state: diagrams, compose cache, dense table."""

    __slots__ = ("by_img", "by_idx", "cache", "table")

    def __init__(self):
        # never emptied: diagrams hash and compare by identity, so a second
        # object for an img would be a second, unequal key
        # (perfbench/make_expected.py's cold() empties only cache and table)
        self.by_img: dict = {}
        self.by_idx: list = []
        self.cache: dict = {}
        # row-major result indices array('i') and loop counts array('b')
        self.table = None


_REGISTRY: dict = {}


def _shape_entry(shape: Shape) -> _ShapeSpace:
    key = (shape.r, shape.s)
    entry = _REGISTRY.get(key)
    if entry is None:
        entry = _ShapeSpace()
        _REGISTRY[key] = entry
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
    # compose-cache keys pack an index into the low 24 bits
    assert len(by_idx) < 1 << 24, "diagram index overflows the compose-cache key"
    d = object.__new__(WalledDiagram)
    object.__setattr__(d, "shape", shape)
    object.__setattr__(d, "img", img)
    object.__setattr__(d, "idx", len(by_idx))
    mt, mb = _matchings(shape, img)
    object.__setattr__(d, "_mt", mt)
    object.__setattr__(d, "_mb", mb)
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
    shape = upper.shape
    if shape != lower.shape:
        raise ShapeMismatch(f"cannot compose shapes {upper.shape} and {lower.shape}")
    space = _shape_entry(shape)
    key = (upper.idx << 24) | lower.idx
    hit = space.cache.get(key)
    if hit is not None:
        return CompositionResult(space.by_idx[hit >> 8], hit & 0xFF)
    diagram, loops = _compose_raw(upper, lower)
    assert loops < 1 << 8, "loop count overflows the compose-cache value"
    _cache_put(space.cache, key, (diagram.idx << 8) | loops)
    return CompositionResult(diagram, loops)


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


# dense tables stay affordable up to six sites (720^2 entries)
_TABLE_MAX_SITES = 6

# the table stores result indices (below n!) as C ints, which the dense
# product reads as int32
assert math.factorial(_TABLE_MAX_SITES) < 1 << 31
assert array("i").itemsize == 4


def composition_table(shape: Shape):
    """The full composition table of a small shape as flat row-major arrays
    (result index 'i', loop count 'b'), built once and cached; None when the
    shape is too large to tabulate.

    Entry u*N + l, for N diagrams, is the composition of by_idx[u] above
    by_idx[l].  Each transposition g (every s_{i,k} and d_{i,k}) acts on the
    left of every diagram x through `_compose_raw`, the single-pair oracle:
    g∘x is diagram act[x] and closes closes[x] loops.  If g∘a = b closes no
    loop, then b∘x = g∘(a∘x) and b∘x closes the loops of a∘x plus those g
    closes on a∘x, so row b is row a mapped through g's action.  A
    breadth-first walk from the identity row along loop-free edges fills
    every row: every diagram is a word in the transpositions that closes no
    loop, and loops once closed are never undone, so every prefix of that
    word closes none either.  The walk asserts that it reached every row.
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
    actions = []
    for i, k in itertools.combinations(range(1, shape.n + 1), 2):
        g = _transposition(shape, i, k)
        act, closes = [], []
        for x in diagrams:
            gx, closed = _compose_raw(g, x)
            act.append(gx.idx)
            closes.append(closed)
        actions.append((act, closes))

    idx = array("i", [0]) * (count * count)
    loops = array("b", [0]) * (count * count)
    start = identity(shape).idx
    reached = [False] * count
    reached[start] = True
    pending = {start: (list(range(count)), [0] * count)}
    walk = deque(pending)
    while walk:
        a = walk.popleft()
        row, row_loops = pending.pop(a)
        idx[a * count : (a + 1) * count] = array("i", row)
        loops[a * count : (a + 1) * count] = array("b", row_loops)
        for act, closes in actions:
            b = act[a]
            if closes[a] or reached[b]:
                continue
            reached[b] = True
            pending[b] = (
                [act[x] for x in row],
                [l + closes[x] for x, l in zip(row, row_loops)],
            )
            walk.append(b)
    assert all(reached), f"the loop-free walk missed a row of shape {shape}"

    # the dense product packs loop counts into 3 bits
    assert max(loops) < 8
    space.table = (idx, loops)
    return space.table


def vertical_flip(x: WalledDiagram) -> WalledDiagram:
    """Reflection through the horizontal axis; the inverse permutation."""
    inv = [0] * x.shape.n
    for i, j in enumerate(x.img, start=1):
        inv[j - 1] = i
    return make_diagram(x.shape, inv)


def all_diagrams(shape: Shape) -> Iterator[WalledDiagram]:
    for img in itertools.permutations(range(1, shape.n + 1)):
        yield make_diagram(shape, img)
