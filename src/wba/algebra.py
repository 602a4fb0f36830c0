"""The walled Brauer algebra: linear combinations of diagrams over Q(d).

An element is a sparse map diagram -> coefficient with no zero coefficients
stored.  Multiplication extends diagram composition bilinearly, weighting each
composition by d^loops.  The diagram basis is the normal form; equality is
term-by-term.  Also provides the Jucys-Murphy elements, the flip
anti-automorphism, and the JSON wire format.
"""

from __future__ import annotations

import json

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
    _den_lcm,
    padd,
    parse_scalar,
    pmul,
    rescaled_numerator,
    scalar_linear_combination,
    scalar_str,
)

class AlgebraElement:
    __slots__ = ("shape", "terms", "_cleared")

    def __init__(self, shape: Shape, terms: dict):
        self.shape = shape
        self.terms = {d: c for d, c in terms.items() if c is not ZERO}
        self._cleared = None

    def _cleared_form(self):
        """Common denominator and per-diagram integer numerators; cached.

        Putting every coefficient over one denominator keeps the dense product
        loop on plain polynomial additions, with one canonicalization per
        output diagram.
        """
        if self._cleared is None:
            den = (1,)
            for c in self.terms.values():
                den = _den_lcm(den, c.den)
            nums = {d: rescaled_numerator(c, den) for d, c in self.terms.items()}
            self._cleared = (den, nums)
        return self._cleared

    @classmethod
    def zero(cls, shape: Shape) -> "AlgebraElement":
        return _element(shape, {})

    @classmethod
    def one(cls, shape: Shape) -> "AlgebraElement":
        return _element(shape, {identity(shape): ONE})

    @classmethod
    def from_diagram(cls, d: WalledDiagram, coeff=ONE) -> "AlgebraElement":
        return cls(d.shape, {d: _scalar(coeff)})

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
        out = dict(self.terms)
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
        self._check_shape(other)
        out = dict(self.terms)
        for d, c in other.terms.items():
            prev = out.get(d)
            if prev is None:
                out[d] = -c
            elif (total := prev - c) is ZERO:
                del out[d]
            else:
                out[d] = total
        return _element(self.shape, out)

    def scale(self, c) -> "AlgebraElement":
        c = _scalar(c)
        if c is ZERO:
            return AlgebraElement.zero(self.shape)
        return _element(self.shape, {d: a * c for d, a in self.terms.items()})

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
    e.shape = shape
    e.terms = terms
    e._cleared = None
    return e


def _scalar(c) -> DeltaScalar:
    """An int, a Fraction or a DeltaScalar as a DeltaScalar; a float or a
    string is refused, so no floating point enters an element."""
    scalar = _coerce(c)
    if scalar is NotImplemented:
        raise TypeError(f"cannot scale by {type(c).__name__} {c!r}")
    return scalar


# Product route.  Once a shape's composition table is built, a product of at
# least _DENSE_PAIR_THRESHOLD term pairs takes the dense path.  Before that,
# only a product of at least _DENSE_ONE_OFF_PAIRS pairs pays for tabulating
# the shape (plain Python, about 0.1 s at six sites) and for importing numpy,
# which only the dense path loads; callers that make many large products
# build the table first, as verify.check_system does.  One-off `wba mul`
# processes on a 2-core machine, CPU s and peak RSS MiB, sparse against
# dense (medians of 3): (4,1), 120 x 120 idempotents, 0.17 / 18 against
# 0.19 / 30; (3,3) idempotents cut to their first k terms, 181 x 181,
# 0.34 / 20 against 0.43 / 35; 256 x 256 (2^16 pairs), 0.45 / 23 against
# 0.45 / 35; 362 x 362, 0.92 / 30 against 0.48 / 37; 512 x 512, 1.78 / 44
# against 0.45 / 40; 600 x 600, 2.14 / 68 against 0.41 / 41; 720 x 720,
# 3.41 / 69 against 0.47 / 44.  No 5-site product reaches the cut-off.
_DENSE_PAIR_THRESHOLD = 1024
_DENSE_ONE_OFF_PAIRS = 1 << 16


def _mul_elements(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear product, tuned for the certification sweeps.

    Terms are grouped by coefficient so each distinct scalar pair multiplies
    once, and per-diagram sums count repeated values before touching the
    canonicalizing scalar addition.  Elements carry few distinct
    coefficients, so many output diagrams receive the same {value:
    multiplicity} bucket; a dict local to the call sums each distinct
    bucket of two or more values once.  Compositions come from the table
    once built, else from the memo.  Large products on tabulated shapes
    take a vectorized path that aggregates the whole term-pair grid at once.
    """
    shape = a.shape
    space = _shape_entry(shape)
    table = space.table
    pairs = len(a.terms) * len(b.terms)
    if (table is not None and pairs >= _DENSE_PAIR_THRESHOLD) or (
        pairs >= _DENSE_ONE_OFF_PAIRS and composition_table(shape) is not None
    ):
        return _mul_elements_dense(a, b, space)

    by_idx, stride = space.by_idx, space.stride
    store = space.cache if table is None else table
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
            # a product of nonzero scalars, so never zero
            ((c, k),) = bucket.items()
            out[by_idx[idx]] = c if k == 1 else c * k
            continue
        key = frozenset(bucket.items())
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = scalar_linear_combination(bucket.items())
        if acc is not ZERO:
            out[by_idx[idx]] = acc
    return _element(shape, out)


def _mul_elements_dense(a: AlgebraElement, b: AlgebraElement, space) -> AlgebraElement:
    """Vectorized product over the shape's composition table.

    Works in cleared form: each factor becomes a common denominator and
    polynomial numerators per distinct coefficient, so the aggregation loop is
    pure polynomial addition and a single canonicalization closes each output
    diagram.
    """
    import numpy as np

    table = np.frombuffer(composition_table(a.shape), dtype=np.int32)
    count = len(space.by_idx)

    def split(element):
        den, cleared = element._cleared_form()
        values: dict = {}
        nums: list = []
        idx = np.empty(len(element.terms), dtype=np.intp)
        label = np.empty(len(element.terms), dtype=np.int64)
        for pos, d in enumerate(element.terms):
            num = cleared[d]
            lab = values.get(num)
            if lab is None:
                lab = values[num] = len(nums)
                nums.append(num)
            idx[pos] = d.idx
            label[pos] = lab
        return idx, label, nums, den

    ia, la, nums_a, den_a = split(a)
    ib, lb, nums_b, den_b = split(b)
    kb = len(nums_b)
    # one int64 per cell: numerator pair * span + the table's packed entry
    span = count << 8
    assert len(nums_a) * kb * span < 2**63, "dense cell key overflows int64"
    cell = (la[:, None] * kb + lb[None, :]) * span + table[ia[:, None] * count + ib]
    uniq, counts = np.unique(cell.ravel(), return_counts=True)

    products: dict = {}
    acc: dict = {}
    for key, count in zip(uniq.tolist(), counts.tolist()):
        group, hit = divmod(key, span)
        dd, loops = hit >> 8, hit & 0xFF
        pk = (group, loops)
        num = products.get(pk)
        if num is None:
            ga, gb = divmod(group, kb)
            num = pmul(nums_a[ga], nums_b[gb])
            if loops:
                num = (0,) * loops + num  # multiply by d^loops
            products[pk] = num
        if count != 1:
            num = tuple(c * count for c in num)
        prev = acc.get(dd)
        acc[dd] = num if prev is None else padd(prev, num)
    den = pmul(den_a, den_b)
    out: dict = {}
    for idx, num in acc.items():
        if num:
            out[space.by_idx[idx]] = DeltaScalar.make(num, den)
    return _element(a.shape, out)


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
    acc = AlgebraElement.zero(shape)
    if k <= r:
        for i in range(1, k):
            acc = acc + AlgebraElement.from_diagram(s_pair(shape, i, k))
    else:
        for i in range(1, r + 1):
            acc = acc - AlgebraElement.from_diagram(d_pair(shape, i, k))
        for i in range(r + 1, k):
            acc = acc + AlgebraElement.from_diagram(s_pair(shape, i, k))
        acc = acc + AlgebraElement.one(shape).scale(DELTA)
    return acc


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
        for i, term in enumerate(obj["terms"]):
            d = make_diagram(shape, [_json_int(v) for v in term["diagram"]])
            c = parse_scalar(term["coeff"])
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
