"""The walled Brauer algebra: linear combinations of diagrams over Q(d).

An element is a sparse map diagram -> coefficient with no zero coefficients
stored.  Multiplication extends diagram composition bilinearly, weighting each
composition by d^loops.  The diagram basis is the normal form; equality is
term-by-term.  Also provides the Jucys-Murphy elements, the flip
anti-automorphism, and the JSON wire format.
"""

from __future__ import annotations

import json
from types import MappingProxyType

from .diagrams import (
    Shape,
    WalledDiagram,
    _shape_entry,
    composition_table,
    d_pair,
    identity,
    make_diagram,
    s_pair,
    vertical_flip,
)
from .errors import IndexOutOfRange, ParseError, ShapeMismatch
from .scalars import (
    DELTA,
    ONE,
    ZERO,
    DeltaScalar,
    _coerce,
    _immutable,
    _setattr,
    parse_scalar,
    scalar_linear_combination,
    scalar_str,
)

class AlgebraElement:
    """An immutable element, whose terms are a read-only view, so that the
    path memo can hand out the elements it keeps."""

    __slots__ = ("shape", "terms")

    def __init__(self, shape: Shape, terms: dict):
        # each coefficient becomes a scalar first, so a 0 is dropped like
        # ZERO and a float or string is refused
        out = {}
        for d, c in terms.items():
            c = _scalar(c)
            if c is not ZERO:
                out[d] = c
        _setattr(self, "shape", shape)
        _setattr(self, "terms", MappingProxyType(out))

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # a mappingproxy does not pickle
        return AlgebraElement, (self.shape, self.terms.copy())

    @classmethod
    def zero(cls, shape: Shape) -> "AlgebraElement":
        return _element(shape, {})

    @classmethod
    def one(cls, shape: Shape) -> "AlgebraElement":
        return _element(shape, {identity(shape): ONE})

    @classmethod
    def from_diagram(cls, d: WalledDiagram, coeff=ONE) -> "AlgebraElement":
        c = _scalar(coeff)
        return _element(d.shape, {} if c is ZERO else {d: c})

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def _check_shape(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes {self.shape} and {other.shape} differ")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_shape(other)
        out = self.terms.copy()
        for d, c in other.terms.items():
            prev = out.get(d)
            if prev is None:
                out[d] = c
            elif (total := prev + c) is ZERO:
                del out[d]
            else:
                out[d] = total
        return _element(self.shape, out)

    def __neg__(self):
        return _element(self.shape, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        """c times self; each distinct coefficient is multiplied once, since
        an element carries few of them over many terms."""
        c = _scalar(c)
        if c is ONE:
            return self
        if c is ZERO:
            return AlgebraElement.zero(self.shape)
        scaled = {a: a * c for a in set(self.terms.values())}
        return _element(self.shape, {d: scaled[a] for d, a in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_shape(other)
            return _mul_elements(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars are central, so left and right scaling agree
        return self.scale(other)

    def __truediv__(self, other):
        return self.scale(_scalar(other).inverse())

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        bits = [f"({scalar_str(c)})*{list(d.img)}" for d, c in sorted_terms(self)]
        return "AlgebraElement(" + " + ".join(bits) + ")"


def _element(shape: Shape, terms: dict) -> AlgebraElement:
    """The element with these terms, which the caller hands over and which
    hold no zero coefficient; the arithmetic builds its results here, without
    the public constructor's filtering copy."""
    e = object.__new__(AlgebraElement)
    _setattr(e, "shape", shape)
    _setattr(e, "terms", MappingProxyType(terms))
    return e


def _scalar(c) -> DeltaScalar:
    """An int, a Fraction or a DeltaScalar as a DeltaScalar; a float or a
    string is refused, so no floating point enters an element."""
    scalar = _coerce(c)
    if scalar is NotImplemented:
        raise TypeError(f"not a scalar of Q(d): {type(c).__name__} {c!r}")
    return scalar


# Product route.  Compositions come from the shape's table once it is built,
# else from its memo.  Up to six sites, where composition_table builds the
# table, a product buys it by a rent-or-buy rule: once _TABULATE_RATIO times
# the compositions the memo may still pay for (the product's term pairs) and
# has paid for (its entries) reaches the table's n!^2 entries.  A table entry
# costs 0.12-0.19 us and a memo composition 1.7-4.1 us (one process each,
# 2-core machine), a ratio of about 10 at five sites and 21-34 at six; the
# rule takes 8.  With an empty memo the cut-off is 1 800 term pairs at (4,1)
# and 64 800 at (3,3), where a one-off fusion composes only 700-2 200.  The
# rule counts n!^2, not the diagrams interned so far, since diagrams are
# interned lazily; stride is n! up to six sites, and above that the rule
# cannot fire.
_TABULATE_RATIO = 8


def _mul_elements(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear product.

    Terms are grouped by coefficient so each distinct scalar pair multiplies
    once, and per-diagram sums count repeated values before touching the
    canonicalizing scalar addition.  Elements carry few distinct
    coefficients, so many output diagrams receive the same {value:
    multiplicity} bucket; a dict local to the call sums each distinct bucket
    once, and a bucket of one value taken once is the result as it stands.
    """
    shape = a.shape
    space = _shape_entry(shape)
    if (
        space.table is None
        and _TABULATE_RATIO * (len(a.terms) * len(b.terms) + len(space.cache))
        >= space.stride**2
    ):
        composition_table(shape)
    by_idx, stride = space.by_idx, space.stride
    store = space.cache if space.table is None else space.table

    groups_a: dict = {}
    for d, c in a.terms.items():
        groups_a.setdefault(c, []).append(d)
    groups_b: dict = {}
    for d, c in b.terms.items():
        groups_b.setdefault(c, []).append(d)

    buckets: dict = {}
    for ca, das in groups_a.items():
        for cb, dbs in groups_b.items():
            c0 = ca * cb
            weighted = {0: c0}
            for da in das:
                base = da.idx * stride
                for db in dbs:
                    hit = store[base + db.idx]
                    loops = hit & 0xFF
                    c = weighted.get(loops)
                    if c is None:
                        c = c0 * DELTA**loops
                        weighted[loops] = c
                    bucket = buckets.get(hit >> 8)
                    if bucket is None:
                        buckets[hit >> 8] = {c: 1}
                    else:
                        bucket[c] = bucket.get(c, 0) + 1
    out: dict = {}
    sums: dict = {}
    for idx, bucket in buckets.items():
        if len(bucket) == 1:
            ((c, k),) = bucket.items()
            if k == 1:
                # a product of nonzero scalars, so never zero
                out[by_idx[idx]] = c
                continue
        key = frozenset(bucket.items())
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = scalar_linear_combination(bucket.items())
        if acc is not ZERO:
            out[by_idx[idx]] = acc
    return _element(shape, out)


def sorted_terms(a: AlgebraElement):
    return sorted(a.terms.items(), key=lambda item: item[0].img)


def iota(a: AlgebraElement) -> AlgebraElement:
    """The flip anti-automorphism: reverse products, fix every generator."""
    return _element(a.shape, {vertical_flip(d): c for d, c in a.terms.items()})


def jm_element(shape: Shape, k: int) -> AlgebraElement:
    """The k-th Jucys-Murphy element x_k."""
    r, n = shape.r, shape.n
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"x_{k} outside 1..{n}")
    if k <= r:
        return _element(shape, {s_pair(shape, i, k): ONE for i in range(1, k)})
    # distinct transpositions and the identity, so no two terms meet
    terms = {d_pair(shape, i, k): -ONE for i in range(1, r + 1)}
    terms.update((s_pair(shape, i, k), ONE) for i in range(r + 1, k))
    terms[identity(shape)] = DELTA
    return _element(shape, terms)


def element_to_json(a: AlgebraElement) -> dict:
    return {
        "r": a.shape.r,
        "s": a.shape.s,
        "terms": [
            {"diagram": list(d.img), "coeff": scalar_str(c)} for d, c in sorted_terms(a)
        ],
    }


def _json_int(value) -> int:
    """value if it is a JSON integer: booleans, floats and strings are not."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return value


def element_from_json(obj) -> AlgebraElement:
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    try:
        shape = Shape(_json_int(obj["r"]), _json_int(obj["s"]))
        terms = {}
        # each distinct coefficient text is parsed once (an element has few
        # over many terms)
        parsed: dict = {}
        for i, term in enumerate(obj["terms"]):
            d = make_diagram(shape, [_json_int(v) for v in term["diagram"]])
            text = term["coeff"]
            if type(text) is not str:
                raise ParseError(
                    f"coefficient of term {i} is not a string: {json.dumps(text)}"
                )
            c = parsed.get(text)
            if c is None:
                c = parsed[text] = parse_scalar(text)
            if d in terms:
                raise ParseError(f"duplicate diagram in term {i}")
            terms[d] = c
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed element object: {exc}") from exc
    return AlgebraElement(shape, terms)


def element_to_text(a: AlgebraElement) -> str:
    """Display form, one term per line; not parseable."""
    if not a.terms:
        return "0"
    lines = []
    for d, c in sorted_terms(a):
        lines.append(f"{scalar_str(c)} * {list(d.img)}")
    return "\n".join(lines)
