"""Exact arithmetic in Q(d), the field of rational functions of the loop
parameter d.

A polynomial in d is a trimmed tuple of Fractions indexed by power; the empty
tuple is zero.  A scalar is a fraction num/den of two such polynomials kept in
canonical form: gcd(num, den) = 1 and den monic.  Canonical scalars are
interned, so equal values are the same object and structural equality is value
equality.  Keeping the parameter formal realizes the generic regime exactly;
no numeric d is ever chosen and no floating point appears anywhere.

Binary operations are memoized in bounded caches keyed by the interned
operands.  The multiplication loops of the diagram algebra hit these caches
constantly, which is what makes exact certification of the larger shapes
affordable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DivisionByZero, ParseError

Poly = tuple  # tuple[Fraction, ...], trimmed, () == 0

_F0 = Fraction(0)
_F1 = Fraction(1)


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
    return tuple(-c for c in a)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ptrim(out)


def pscale(a: Poly, k: Fraction) -> Poly:
    if not k:
        return ()
    return tuple(c * k for c in a)


def pmonic(a: Poly) -> Poly:
    if not a or a[-1] == 1:
        return a
    return pscale(a, 1 / a[-1])


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division over Q; b must be nonzero."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    q = [_F0] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    inv_lead = 1 / b[-1]
    while len(rem) >= len(b):
        if not rem[-1]:
            rem.pop()
            continue
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead
        q[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem.pop()
    return ptrim(q), ptrim(rem)


def pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


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


_INTERN: dict = {}
_ADD: dict = {}
_MUL: dict = {}
_NEG: dict = {}
_INV: dict = {}
_CACHE_LIMIT = 1 << 20


def _cache_put(cache, key, value):
    if len(cache) > _CACHE_LIMIT:
        cache.clear()
    cache[key] = value


class DeltaScalar:
    """An element of Q(d) in canonical interned form.

    num and den are Fraction-coefficient tuples; den is monic and coprime to
    num.  Instances are immutable and safe to share freely.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, *args, **kwargs):
        raise TypeError("use DeltaScalar.make / from_int / poly constructors")

    @staticmethod
    def make(num: Poly, den: Poly = (_F1,)) -> "DeltaScalar":
        num = ptrim(tuple(Fraction(c) for c in num))
        den = ptrim(tuple(Fraction(c) for c in den))
        if not den:
            raise DivisionByZero("scalar with zero denominator")
        if not num:
            num, den = (), (_F1,)
        else:
            g = pgcd(num, den)
            if len(g) > 1:
                num = pdivmod(num, g)[0]
                den = pdivmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                num = pscale(num, 1 / lead)
                den = pscale(den, 1 / lead)
        key = (num, den)
        obj = _INTERN.get(key)
        if obj is None:
            obj = object.__new__(DeltaScalar)
            object.__setattr__(obj, "num", num)
            object.__setattr__(obj, "den", den)
            object.__setattr__(obj, "_hash", hash(key))
            _INTERN[key] = obj
        return obj

    @staticmethod
    def from_int(k) -> "DeltaScalar":
        return DeltaScalar.make((Fraction(k),))

    @staticmethod
    def from_fraction(q: Fraction) -> "DeltaScalar":
        return DeltaScalar.make((Fraction(q),))

    @staticmethod
    def poly(coeffs) -> "DeltaScalar":
        return DeltaScalar.make(tuple(Fraction(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("DeltaScalar is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, DeltaScalar):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == DeltaScalar.make((Fraction(other),))
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
            r = DeltaScalar.make(
                padd(pmul(self.num, other.den), pmul(other.num, self.den)),
                pmul(self.den, other.den),
            )
            _cache_put(_ADD, key, r)
        return r

    __radd__ = __add__

    def __neg__(self):
        r = _NEG.get(self)
        if r is None:
            r = DeltaScalar.make(pneg(self.num), self.den)
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
            r = DeltaScalar.make(pmul(self.num, other.num), pmul(self.den, other.den))
            _cache_put(_MUL, key, r)
        return r

    __rmul__ = __mul__

    def inverse(self) -> "DeltaScalar":
        if not self.num:
            raise DivisionByZero("inverse of zero scalar")
        r = _INV.get(self)
        if r is None:
            r = DeltaScalar.make(self.den, self.num)
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
    if isinstance(x, (int, Fraction)):
        return DeltaScalar.make((Fraction(x),))
    return NotImplemented


ZERO = DeltaScalar.make(())
ONE = DeltaScalar.make((_F1,))
DELTA = DeltaScalar.make((_F0, _F1))

_LCM: dict = {}
_RESCALE: dict = {}


def _den_lcm(a: Poly, b: Poly) -> Poly:
    if a == b:
        return a
    key = (a, b)
    r = _LCM.get(key)
    if r is None:
        g = pgcd(a, b)
        r = pmonic(pmul(pdivmod(a, g)[0], b))
        _cache_put(_LCM, key, r)
    return r


def scalar_linear_combination(items) -> DeltaScalar:
    """Exact sum of (value, integer multiplicity) pairs.

    Accumulates numerators over the lcm of the denominators with plain
    polynomial arithmetic, so the expensive gcd canonicalization runs once for
    the whole sum instead of once per addition.  This is the workhorse of the
    large orthogonality sweeps.
    """
    items = [(c, k) for c, k in items if k and c.num]
    if not items:
        return ZERO
    if len(items) == 1:
        c, k = items[0]
        return c if k == 1 else c * k
    den = items[0][0].den
    for c, _ in items[1:]:
        den = _den_lcm(den, c.den)
    acc: Poly = ()
    for c, k in items:
        num = rescaled_numerator(c, den)
        if k != 1:
            num = pscale(num, Fraction(k))
        acc = padd(acc, num)
    return DeltaScalar.make(acc, den)


def rescaled_numerator(c: DeltaScalar, den: Poly) -> Poly:
    """The numerator of c over the target denominator, which c.den must divide."""
    if c.den == den:
        return c.num
    key = (c, den)
    num = _RESCALE.get(key)
    if num is None:
        num = pmul(c.num, pdivmod(den, c.den)[0])
        _cache_put(_RESCALE, key, num)
    return num


def affine(a, b=0) -> DeltaScalar:
    """The scalar a + b*d with rational a, b; the form every content takes."""
    return DeltaScalar.make((Fraction(a), Fraction(b)))


def scalar_str(x: DeltaScalar) -> str:
    """Canonical text form with integer coefficients, e.g. '(2*d^2-3)/(d^2-d)'."""
    denoms = [c.denominator for c in x.num] + [c.denominator for c in x.den]
    scale = Fraction(lcm(*denoms)) if denoms else _F1
    num = pscale(x.num, scale)
    den = pscale(x.den, scale)
    num_s = pstr(num)
    if den == (_F1,):
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


# a parsed power may reach at most this degree in d, so that nested powers
# such as (d^100)^100 stay bounded too
_MAX_POWER_DEGREE = 256


def parse_scalar(text: str) -> DeltaScalar:
    """Parse an expression in d with + - * / ^ and parentheses."""
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
        value = value**exp
    return value if sign > 0 else -value


def _parse_atom(toks):
    ch = toks.peek()
    if ch is None:
        raise ParseError("unexpected end of input", toks.pos)
    if ch == "(":
        toks.take()
        value = _parse_sum(toks)
        if toks.peek() != ")":
            raise ParseError("expected ')'", toks.pos)
        toks.take()
        return value
    if ch == "d":
        toks.take()
        return DELTA
    if ch.isdigit():
        return DeltaScalar.from_int(_parse_int(toks))
    raise ParseError(f"unexpected character {ch!r}", toks.pos)


def _parse_int(toks) -> int:
    ch = toks.peek()
    if ch is None or not ch.isdigit():
        raise ParseError("expected an integer", toks.pos)
    digits = []
    while toks.peek() is not None and toks.peek().isdigit():
        digits.append(toks.take())
    return int("".join(digits))
