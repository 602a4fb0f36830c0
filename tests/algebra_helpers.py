"""Algebra helpers that only the tests use: the generators s_i and d, the
embedding of a smaller shape, the generators of the tower's subalgebras, the
commutator, and a check of the algebra's defining relations on its
generators."""

from __future__ import annotations

from wba.algebra import AlgebraElement
from wba.diagrams import Shape, WalledDiagram, d_pair, make_diagram, s_pair
from wba.errors import IndexOutOfRange, ShapeMismatch
from wba.scalars import DELTA


def s_gen(shape: Shape, i: int) -> WalledDiagram:
    """The crossing s_i of adjacent same-side columns i, i+1."""
    return s_pair(shape, i, i + 1)


def d_gen(shape: Shape) -> WalledDiagram:
    """The contraction d joining columns r and r+1 across the wall."""
    return d_pair(shape, shape.r, shape.r + 1)


def embed(a: AlgebraElement, shape: Shape) -> AlgebraElement:
    """View an element of (r, s') inside (r, s), s >= s', via vertical strands."""
    if shape.r != a.shape.r or shape.s < a.shape.s:
        raise ShapeMismatch(f"cannot embed {a.shape} into {shape}")
    extra = range(a.shape.n + 1, shape.n + 1)
    terms = {make_diagram(shape, d.img + tuple(extra)): c for d, c in a.terms.items()}
    return AlgebraElement(shape, terms)


def subalgebra_generators(shape: Shape, k: int) -> list:
    """Generators of the subalgebra of diagrams trivial beyond the first k sites."""
    r, n = shape.r, shape.n
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"subalgebra level {k} outside 0..{n}")
    gens = []
    for i in range(1, k):
        if i != r:
            gens.append(AlgebraElement.from_diagram(s_gen(shape, i)))
    if k >= r + 1 and r >= 1 and shape.s >= 1:
        gens.append(AlgebraElement.from_diagram(d_gen(shape)))
    return gens


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b - b * a


def defining_relations_hold(shape: Shape) -> dict:
    """Check the defining relations of the algebra in the given shape.

    Returns a dict mapping relation name to bool; requires r, s >= 1 and is
    intended for shapes where both sides of the wall have at least two columns
    (the braid and mixed relations need them).
    """
    r, n = shape.r, shape.n
    one = AlgebraElement.one(shape)

    def elem(d):
        return AlgebraElement.from_diagram(d)

    s = {
        i: elem(s_gen(shape, i))
        for i in range(1, n)
        if i != r
    }
    d = elem(d_gen(shape))
    results = {}
    results["s_squared"] = all(s[i] * s[i] == one for i in s)
    results["d_squared"] = (d * d) == d.scale(DELTA)
    results["braid"] = all(
        s[i] * s[i + 1] * s[i] == s[i + 1] * s[i] * s[i + 1]
        for i in s
        if i + 1 in s
    )
    results["distant_s_commute"] = all(
        s[i] * s[j] == s[j] * s[i] for i in s for j in s if j > i + 1
    )
    results["d_s_adjacent"] = all(
        d * s[i] * d == d for i in (r - 1, r + 1) if i in s
    )
    results["d_s_commute"] = all(
        d * s[i] == s[i] * d for i in s if i not in (r - 1, r + 1)
    )
    if r - 1 in s and r + 1 in s:
        results["mixed_braid_1"] = (
            d * s[r + 1] * s[r - 1] * d * s[r - 1]
            == d * s[r + 1] * s[r - 1] * d * s[r + 1]
        )
        results["mixed_braid_2"] = (
            s[r - 1] * d * s[r + 1] * s[r - 1] * d
            == s[r + 1] * d * s[r + 1] * s[r - 1] * d
        )
    return results
