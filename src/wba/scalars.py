"""Exact arithmetic in Q(d), the field of rational functions of the loop
parameter d.

A polynomial in d is a trimmed tuple of Python ints indexed by power; the
empty tuple is zero.  A scalar is a fraction num/den of two such polynomials
kept in one canonical form: gcd(num, den) = 1 in Q[d], the gcd of all
coefficients of num and den together is 1, and den has a positive leading
coefficient.  This is also the form the text output prints.  Canonical
scalars are interned, so equal values are the same object: a scalar hashes
and compares with another scalar by identity, at C speed.  The intern table
is never emptied, which is what keeps identity and value equality one
relation.  A scalar still equals the int or Fraction of the same value,
DeltaScalar.from_int(1) == 1, but the two hash differently, so scalars and
numbers must not be mixed as keys of one dict.  Keeping the parameter
formal realizes the generic regime exactly; no numeric d is ever chosen and
no floating point appears anywhere.

Gcds come from a primitive polynomial remainder sequence over Z[d] and
cofactors from exact division in Z[d], so no rational coefficient arises
(von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 6).  Rational input
is cleared to integers once, by the constructors.

Every scalar is interned by one step, _coprime, which takes a numerator and
denominator already coprime in Q[d] and normalizes only the joint integer
content and the sign of the denominator.  DeltaScalar.make reaches it by a
full gcd cancellation, which only copies, pickles and direct calls need:
the constructors (from_int, from_fraction, poly and so affine, and the
parser's atoms through them) all pass a side of degree 0.  The field
operations start from operands coprime in Q[d], so they know in advance
which factors can cancel, and take no gcd of their whole result (Knuth,
*TAOCP* vol. 2, §4.5.1, on Henrici's rational arithmetic):
  - a product (a/b)(c/e) cancels gcd(a, e) and gcd(c, b); a is coprime to b
    and c to e, so no other factor of ac can divide be;
  - a sum a/b + c/e divides by g = gcd(b, e), b = b'g and e = e'g, forms
    t = ae' + cb' over b'e and cancels gcd(t, g) only: t is coprime to b'
    (a is coprime to b, and e' to b') and likewise to e'.  When b = e this
    is gcd(a + c, b);
  - negation, inversion and squaring change no common factor, so they take
    no gcd at all.
A side of degree 0 is a unit of Q[d] and takes no gcd either.  The sum is
the one sum rule: binary + interns its result, and
scalar_linear_combination folds it over many terms and interns only the
total.

Binary operations are memoized in bounded caches keyed by the interned
operands.  The multiplication loops of the diagram algebra hit these caches
constantly, which is what makes exact certification of the larger shapes
affordable.  Each interned scalar renders its text once and keeps it, since
an element repeats few distinct coefficients over many terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZero, NonzeroRemainder, ParseError

Poly = tuple  # tuple[int, ...], trimmed, () == 0


def ptrim(coeffs) -> Poly:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pneg(a: Poly) -> Poly:
    return tuple([-c for c in a])


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def pscale(a: Poly, k: int) -> Poly:
    if not k:
        return ()
    return tuple([c * k for c in a])


def _primitive(a: Poly) -> Poly:
    """a divided by its content, with a positive leading coefficient; a != 0."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple([c // g for c in a])


def _prem(a: Poly, b: Poly) -> Poly:
    """A nonzero integer multiple of the remainder of a by b, where
    len(a) >= len(b) >= 2.  Each step scales the running remainder by only
    lc(b) / gcd(lc(rem), lc(b))."""
    rem = list(a)
    lb, nb = b[-1], len(b)
    while len(rem) >= nb:
        lr = rem.pop()
        if not lr:
            continue
        g = gcd(lr, lb)
        s, t = lb // g, lr // g
        if s != 1:
            rem = [c * s for c in rem]
        shift = len(rem) - nb + 1
        for i in range(nb - 1):
            rem[shift + i] -= t * b[i]
    return ptrim(rem)


def pgcd(a: Poly, b: Poly) -> Poly:
    """The primitive gcd of a and b in Z[d], with a positive leading
    coefficient: a gcd in Q[d], and (1,) when a and b are coprime there.

    A primitive remainder sequence: the content of every pseudo-remainder is
    removed, so coefficients stay as small as the gcd allows.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _primitive(a) if a else ()
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return (1,)


def pexquo(a: Poly, b: Poly) -> Poly:
    """The quotient a / b in Z[d]; raises NonzeroRemainder unless b divides a
    there, so an inexact division is never truncated."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    rem = list(a)
    lb, nb = b[-1], len(b)
    q = [0] * max(len(a) - nb + 1, 0)
    while len(rem) >= nb:
        lr = rem.pop()
        if not lr:
            continue
        f, r = divmod(lr, lb)
        if r:
            raise NonzeroRemainder(f"{pstr(b)} does not divide {pstr(a)} in Z[d]")
        shift = len(rem) - nb + 1
        q[shift] = f
        for i in range(nb - 1):
            rem[shift + i] -= f * b[i]
    if any(rem):
        raise NonzeroRemainder(f"{pstr(b)} does not divide {pstr(a)} in Z[d]")
    return ptrim(q)


def pstr(a: Poly) -> str:
    """Render with descending powers, e.g. '2*d^2-3'."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "d" if k == 1 else f"d^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append(sign + body)
    return "".join(parts)


# every canonical scalar ever made; never emptied, because scalars hash and
# compare by identity, so a second object for a value would be a second,
# unequal key (perfbench/make_expected.py's cold() empties only the memos)
_INTERN: dict = {}
_ADD: dict = {}
_MUL: dict = {}
_NEG: dict = {}
_INV: dict = {}
_CACHE_LIMIT = 1 << 20
# never filled, since no sum takes an lcm; perfbench/make_expected.py still
# empties both between its runs
_LCM: dict = {}
_RESCALE: dict = {}


def _cache_put(cache, key, value):
    if len(cache) > _CACHE_LIMIT:
        cache.clear()
    cache[key] = value


class DeltaScalar:
    """An element of Q(d) in canonical interned form.

    num and den are int-coefficient tuples, coprime in Q[d], with joint
    content 1 and den[-1] > 0.  Instances are immutable and safe to share
    freely.

    Every instance comes from the interning step that make and the field
    operations share, so equal scalars are one object: hashing and equality
    between scalars are identity.  Copies and pickles go through make again
    and so return the interned object, with the text it keeps.
    A scalar equals the int or Fraction of its value, but hashes apart from
    it.
    """

    __slots__ = ("num", "den", "_text")

    def __init__(self, *args, **kwargs):
        raise TypeError("use DeltaScalar.make / from_int / poly constructors")

    @staticmethod
    def make(num: Poly, den: Poly = (1,)) -> "DeltaScalar":
        """The scalar num/den of two int-coefficient polynomials."""
        num, den = ptrim(num), ptrim(den)
        if not den:
            raise DivisionByZero("scalar with zero denominator")
        if not num:
            return _coprime((), (1,))
        # a side of degree 0 is a unit of Q[d]: only the content is shared
        if len(num) > 1 and len(den) > 1:
            g = pgcd(num, den)
            if len(g) > 1:
                num, den = pexquo(num, g), pexquo(den, g)
        return _coprime(num, den)

    @staticmethod
    def from_int(k: int) -> "DeltaScalar":
        return DeltaScalar.make((k,))

    @staticmethod
    def from_fraction(q) -> "DeltaScalar":
        q = Fraction(q)
        return DeltaScalar.make((q.numerator,), (q.denominator,))

    @staticmethod
    def poly(coeffs) -> "DeltaScalar":
        """The polynomial with these rational coefficients, by increasing power."""
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        return DeltaScalar.make(
            tuple(c.numerator * (den // c.denominator) for c in coeffs), (den,)
        )

    def __setattr__(self, name, value):
        raise AttributeError("DeltaScalar is immutable")

    def __reduce__(self):
        return DeltaScalar.make, (self.num, self.den)

    # defining __eq__ drops the inherited hash; interning makes identity the
    # value hash
    __hash__ = object.__hash__

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, DeltaScalar):
            return False
        if isinstance(other, (int, Fraction)):
            return self is _coerce(other)
        return NotImplemented

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        key = (self, other)
        r = _ADD.get(key)
        if r is None:
            r = _coprime(*_sum(self.num, self.den, other.num, other.den))
            _cache_put(_ADD, key, r)
        return r

    __radd__ = __add__

    def __neg__(self):
        r = _NEG.get(self)
        if r is None:
            r = _coprime(pneg(self.num), self.den)
            _cache_put(_NEG, self, r)
        return r

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, DeltaScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if self is ONE:
            return other
        if other is ONE:
            return self
        key = (self, other)
        r = _MUL.get(key)
        if r is None:
            if self is other:
                r = _coprime(pmul(self.num, self.num), pmul(self.den, self.den))
            else:
                r = _product(self.num, self.den, other.num, other.den)
            _cache_put(_MUL, key, r)
        return r

    __rmul__ = __mul__

    def inverse(self) -> "DeltaScalar":
        if not self.num:
            raise DivisionByZero("inverse of zero scalar")
        r = _INV.get(self)
        if r is None:
            r = _coprime(self.den, self.num)
            _cache_put(_INV, self, r)
        return r

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        r, base = ONE, self
        while k:
            if k & 1:
                r = r * base
            k >>= 1
            if k:
                base = base * base
        return r

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"DeltaScalar({scalar_str(self)!r})"


def _coerce(x):
    if isinstance(x, DeltaScalar):
        return x
    if isinstance(x, int):
        return DeltaScalar.from_int(x)
    if isinstance(x, Fraction):
        return DeltaScalar.from_fraction(x)
    return NotImplemented


def _coprime(num: Poly, den: Poly) -> DeltaScalar:
    """The interned scalar num/den of trimmed polynomials already coprime in
    Q[d], with den != 0 (and den = (1,) when num = ()): only the joint
    integer content and the sign of den are left to normalize."""
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple([x // c for x in num])
        den = tuple([x // c for x in den])
    key = (num, den)
    obj = _INTERN.get(key)
    if obj is None:
        obj = object.__new__(DeltaScalar)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        object.__setattr__(obj, "_text", None)
        _INTERN[key] = obj
    return obj


def _product(a: Poly, b: Poly, c: Poly, e: Poly) -> DeltaScalar:
    """(a/b)(c/e) of two nonzero canonical scalars.  a is coprime to b and c
    to e, so gcd(a, e) and gcd(c, b) are the only factors the product can
    cancel; once they are divided out, ac and be are coprime."""
    if len(a) > 1 and len(e) > 1:
        g = pgcd(a, e)
        if len(g) > 1:
            a, e = pexquo(a, g), pexquo(e, g)
    if len(c) > 1 and len(b) > 1:
        g = pgcd(c, b)
        if len(g) > 1:
            c, b = pexquo(c, g), pexquo(b, g)
    return _coprime(pmul(a, c), pmul(b, e))


def _sum(a: Poly, b: Poly, c: Poly, e: Poly) -> tuple:
    """a/b + c/e by Henrici's method, as a pair (t, den) coprime in Q[d],
    neither interned nor normalized in its integer content; ((), (1,)) when
    the sum cancels.  a must be coprime to b and c to e in Q[d], and a, c
    nonzero.

    With g = gcd(b, e), b = b'g and e = e'g, the sum is t / (b'e) where
    t = ae' + cb'.  t is coprime to b' (a is coprime to b and e' to b') and
    to e', so gcd(t, g) is the only factor left to cancel.  Equal
    denominators are the case g = b = e, b' = e' = 1."""
    if b == e:
        g, bq, t = b, (1,), padd(a, c)
    else:
        g = pgcd(b, e) if len(b) > 1 and len(e) > 1 else (1,)
        if len(g) > 1:
            bq, eq = pexquo(b, g), pexquo(e, g)
        else:
            bq, eq = b, e
        t = padd(pmul(a, eq), pmul(c, bq))
    if not t:
        return (), (1,)
    if len(g) > 1 and len(t) > 1:
        h = pgcd(t, g)
        if len(h) > 1:
            t, e = pexquo(t, h), pexquo(e, h)
    return t, e if bq == (1,) else pmul(bq, e)


ZERO = DeltaScalar.make(())
ONE = DeltaScalar.make((1,))
DELTA = DeltaScalar.make((0, 1))


def scalar_linear_combination(items) -> DeltaScalar:
    """Exact sum of (value, integer multiplicity) pairs.

    Folds Henrici's step, the one binary + takes, over the items and interns
    only the total: a partial sum stays a coprime pair of polynomials, so no
    intermediate is interned and no memo is touched.  When the running sum
    cancels, the fold starts again from the next item.  The algebra product
    sums each output diagram's bucket of two or more values with it.
    """
    num: Poly = ()
    den: Poly = (1,)
    for c, k in items:
        if not k or not c.num:
            continue
        a = c.num if k == 1 else pscale(c.num, k)
        if num:
            num, den = _sum(num, den, a, c.den)
        else:
            num, den = a, c.den
    return _coprime(num, den)


def affine(a, b=0) -> DeltaScalar:
    """The scalar a + b*d with rational a, b; the form every content takes."""
    return DeltaScalar.poly((a, b))


def scalar_str(x: DeltaScalar) -> str:
    """Canonical text form with integer coefficients, e.g. '(2*d^2-3)/(d^2-d)'.

    Built once per interned scalar and kept on it, since an element's
    coefficients repeat across its terms."""
    text = x._text
    if text is None:
        text = _render(x.num, x.den)
        object.__setattr__(x, "_text", text)
    return text


def _render(num: Poly, den: Poly) -> str:
    num_s = pstr(num)
    if den == (1,):
        return num_s
    den_s = pstr(den)
    if any(ch in num_s for ch in "+*") or num_s.count("-") > (1 if num_s.startswith("-") else 0):
        num_s = f"({num_s})"
    if any(ch in den_s for ch in "+-*"):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self):
        ch = self.peek()
        if ch is not None:
            self.pos += 1
        return ch


# a parsed power may reach at most this degree in d and coefficients of at
# most this many bits, so that nested powers such as (d^100)^100 or
# (9^100)^100 stay bounded too
_MAX_POWER_DEGREE = 256
_MAX_POWER_BITS = 1 << 16
# an integer literal has at most this many digits, well below the limit of
# Python's int() on decimal strings
_MAX_INT_DIGITS = 1000
# parentheses nest at most this deep, well below the depth at which the
# recursive descent reaches Python's recursion limit
_MAX_NESTING = 100


def parse_scalar(text: str) -> DeltaScalar:
    """Parse an expression in d with + - * / ^ and parentheses.  Only a string
    is read: the tokenizer would index any sequence, so a list of strings
    would parse as their concatenation."""
    if type(text) is not str:
        raise ParseError(f"expected a string, got {type(text).__name__}")
    toks = _Tokens(text)
    value = _parse_sum(toks)
    if toks.peek() is not None:
        raise ParseError(f"unexpected character {toks.peek()!r}", toks.pos)
    return value


def _parse_sum(toks):
    value = _parse_product(toks)
    while True:
        ch = toks.peek()
        if ch == "+":
            toks.take()
            value = value + _parse_product(toks)
        elif ch == "-":
            toks.take()
            value = value - _parse_product(toks)
        else:
            return value


def _parse_product(toks):
    value = _parse_factor(toks)
    while True:
        ch = toks.peek()
        if ch == "*":
            toks.take()
            value = value * _parse_factor(toks)
        elif ch == "/":
            toks.take()
            divisor = _parse_factor(toks)
            if divisor.is_zero:
                raise ParseError("division by zero", toks.pos)
            value = value / divisor
        else:
            return value


def _parse_factor(toks):
    sign = 1
    while toks.peek() in ("+", "-"):
        if toks.take() == "-":
            sign = -sign
    value = _parse_atom(toks)
    if toks.peek() == "^":
        toks.take()
        pos = toks.pos
        exp = _parse_int(toks)
        degree = max(len(value.num), len(value.den), 2) - 1
        if exp * degree > _MAX_POWER_DEGREE:
            raise ParseError(
                f"power too large: exponent times degree over {_MAX_POWER_DEGREE}", pos
            )
        bits = max(abs(c).bit_length() for c in value.num + value.den)
        if exp * bits > _MAX_POWER_BITS:
            raise ParseError(
                f"power too large: exponent times coefficient bits over {_MAX_POWER_BITS}", pos
            )
        value = value**exp
    return value if sign > 0 else -value


def _parse_atom(toks):
    ch = toks.peek()
    if ch is None:
        raise ParseError("unexpected end of input", toks.pos)
    if ch == "(":
        toks.take()
        toks.depth += 1
        if toks.depth > _MAX_NESTING:
            raise ParseError(f"parentheses nested more than {_MAX_NESTING} deep", toks.pos)
        value = _parse_sum(toks)
        if toks.peek() != ")":
            raise ParseError("expected ')'", toks.pos)
        toks.take()
        toks.depth -= 1
        return value
    if ch == "d":
        toks.take()
        return DELTA
    if ch.isdecimal():
        return DeltaScalar.from_int(_parse_int(toks))
    raise ParseError(f"unexpected character {ch!r}", toks.pos)


def _parse_int(toks) -> int:
    ch = toks.peek()
    if ch is None or not ch.isdecimal():
        raise ParseError("expected an integer", toks.pos)
    start = toks.pos
    digits = []
    while toks.peek() is not None and toks.peek().isdecimal():
        digits.append(toks.take())
    if len(digits) > _MAX_INT_DIGITS:
        raise ParseError(
            f"integer literal of {len(digits)} digits, more than {_MAX_INT_DIGITS}", start
        )
    return int("".join(digits))
