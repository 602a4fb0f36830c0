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
import math
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
    diagrams are the same object, so equality is identity."""

    __slots__ = ("shape", "img", "idx", "_hash", "_mt", "_mb")

    __setattr__ = __delattr__ = _immutable
    __hash__ = _stored_hash

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

# the table kernel stores result indices (below n!) as int32 and looks each
# result image up by its base-n code (below n^n); both must fit int32
assert math.factorial(_TABLE_MAX_SITES) < 1 << 31
assert _TABLE_MAX_SITES**_TABLE_MAX_SITES < 1 << 31

# term pairs composed at once by the table kernel; bounds its temporaries
_TABLE_BLOCK_PAIRS = 1024


def composition_table(shape: Shape):
    """The full composition table of a small shape as numpy arrays
    (result index, loop count), built once and cached; None when the shape is
    too large to tabulate.

    Entry [u, l] is the composition of by_idx[u] above by_idx[l].  A block of
    upper diagrams meets every lower diagram at once, and the paths of all
    its pairs are traced in lockstep; `_compose_raw` is the single-pair oracle.
    """
    space = _shape_entry(shape)
    if space.table is not None:
        return space.table
    if shape.n > _TABLE_MAX_SITES:
        return None
    import numpy as np

    r, n = shape.r, shape.n
    for _ in all_diagrams(shape):  # intern the rest after those already present
        pass
    diagrams = space.by_idx
    count = len(diagrams)

    # Each pair gets a row of 3(n + 1) positions: 1..n hold the lower
    # diagram's top partners, n+2..2n+1 the upper diagram's bottom partners,
    # and exit + t, the result's target t, maps to itself.  A partner on the
    # middle row names the position that continues the path across it, so
    # one gather is one hop.
    width, exit_ = 3 * (n + 1), 2 * n + 2
    partners = np.array([d._mt + d._mb for d in diagrams], dtype=np.intp) + n
    signed = range(-n, n + 1)
    # seen from the lower diagram, +j is the middle point j and -j the target j
    as_lower = np.array([n + 1 + v if v > 0 else exit_ - v for v in signed])[partners]
    # seen from the upper diagram, -j is the middle point j and +j the target j
    as_upper = np.array([-v if v < 0 else exit_ + v for v in signed])[partners]

    # each diagram's index by the base-n code of its image
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.intp)
    lookup = np.zeros(n**n, dtype=np.int32)
    images = np.array([d.img for d in diagrams], dtype=np.intp).reshape(count, n)
    lookup[(images - 1) @ weights] = np.arange(count, dtype=np.int32)
    code_base = (exit_ + 1) * int(weights.sum())

    uppers = max(1, _TABLE_BLOCK_PAIRS // count)
    rows = np.empty((uppers, count, width), dtype=np.intp)
    rows[:, :, : n + 1] = as_lower[:, : n + 1]
    rows[:, :, exit_:] = np.arange(exit_, width)
    # sources i <= r leave from the upper top row, the others from the lower
    # bottom row
    starts = np.empty((uppers, count, n), dtype=np.intp)
    starts[:, :, r:] = as_lower[:, n + 2 + r :]
    labels = np.arange(n + 1)
    doublings = n.bit_length()  # 2^doublings > n covers every orbit

    idx = np.empty((count, count), dtype=np.int32)
    loops = np.empty((count, count), dtype=np.int8)
    for u0 in range(0, count, uppers):
        k = min(uppers, count - u0)
        rows[:k, :, n + 1 : exit_] = as_upper[u0 : u0 + k, None, n + 1 :]
        starts[:k, :, :r] = as_upper[u0 : u0 + k, None, 1 : r + 1]
        flat = rows[:k].reshape(-1)
        pairs = k * count
        base = np.arange(0, pairs * width, width)[:, None]

        # a path crosses each middle point at most once, so n hops end it
        cur = starts[:k].reshape(pairs, n)
        for _ in range(n):
            cur = flat[cur + base]
        idx[u0 : u0 + k] = lookup[cur @ weights - code_base].reshape(k, count)

        # f(m) = -umb[lmt[m]] steps two middle points along a closed loop, and
        # the two parities of its points make two f-cycles; on an open path f
        # runs into the sink 0.  Pointer doubling finds each orbit's least
        # point, and a point that is its orbit's least closes one f-cycle.
        f = flat[flat[base + labels] + base]
        f = np.where(f <= n, f, 0).ravel()
        least = np.broadcast_to(labels, (pairs, n + 1)).ravel()
        step = np.arange(0, pairs * (n + 1), n + 1).repeat(n + 1)
        for _ in range(doublings):
            jump = f + step
            least = np.minimum(least, least[jump])
            f = f[jump]
        # the sink's orbit and two f-cycles per closed loop
        orbits = (least.reshape(pairs, n + 1) == labels).sum(axis=1)
        loops[u0 : u0 + k] = (orbits // 2).reshape(k, count)

    # the dense product packs loop counts into 3 bits
    assert loops.max() < 8
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
