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
Diagrams are interned per shape so they can serve as dict keys with identity
semantics, and compositions are memoized per shape, in a memo that empties
itself at the scalar memos' size limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import IndexOutOfRange, ShapeMismatch
from .scalars import _cache_put


@dataclass(frozen=True)
class Shape:
    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise IndexOutOfRange(f"shape ({self.r}, {self.s}) has a negative side")

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
    diagrams are the same object, so equality is identity."""

    __slots__ = ("shape", "img", "idx", "_hash", "_mt", "_mb")

    def __setattr__(self, name, value):
        raise AttributeError("WalledDiagram is immutable")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WalledDiagram({self.shape.r},{self.shape.s},{list(self.img)})"


class _ShapeSpace:
    """Per-shape interning state: diagrams, compose cache, dense table."""

    __slots__ = ("by_img", "by_idx", "cache", "table")

    def __init__(self):
        self.by_img: dict = {}
        self.by_idx: list = []
        self.cache: dict = {}
        self.table = None  # (result_idx, loops) numpy pair once built


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
    object.__setattr__(d, "_hash", hash((shape.r, shape.s, img)))
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


def s_gen(shape: Shape, i: int) -> WalledDiagram:
    """The crossing s_i of adjacent same-side columns i, i+1."""
    r, n = shape.r, shape.n
    if not (1 <= i < r or r < i < n):
        raise IndexOutOfRange(f"s_{i} does not exist in shape ({r},{shape.s})")
    return _transposition(shape, i, i + 1)


def d_gen(shape: Shape) -> WalledDiagram:
    """The contraction d joining columns r and r+1 across the wall."""
    if shape.r < 1 or shape.s < 1:
        raise IndexOutOfRange("d needs at least one column on each side of the wall")
    return _transposition(shape, shape.r, shape.r + 1)


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


@dataclass(frozen=True)
class CompositionResult:
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


def composition_table(shape: Shape):
    """The full composition table of a small shape as numpy arrays
    (result index, loop count), built once and cached; None when the shape is
    too large to tabulate."""
    space = _shape_entry(shape)
    if space.table is not None:
        return space.table
    if shape.n > _TABLE_MAX_SITES:
        return None
    import numpy as np

    diagrams = list(all_diagrams(shape))
    count = len(diagrams)
    diagrams = space.by_idx  # include any interning order already present
    assert len(diagrams) == count
    idx = np.empty((count, count), dtype=np.int32)
    loops_arr = np.empty((count, count), dtype=np.int8)
    for i, da in enumerate(diagrams):
        for j, db in enumerate(diagrams):
            dc, loops = _compose_raw(da, db)
            idx[i, j] = dc.idx
            loops_arr[i, j] = loops
    space.table = (idx, loops_arr)
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
