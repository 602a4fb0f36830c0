"""The Fraction-coefficient Q(d) kernel, kept as the reference for the
integer kernel in `wba.scalars`.

A polynomial is a trimmed tuple of Fractions indexed by power; a scalar is a
pair (num, den) with gcd(num, den) = 1 and den monic, reached by long division
over Q.  Its text form scales both sides by the lcm of their coefficient
denominators.  Nothing here is interned or memoized: each function computes
its result from scratch, so it shares no code or state with the kernel under
test.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

_F0 = Fraction(0)
_F1 = Fraction(1)


def ptrim(coeffs) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pmul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ptrim(out)


def pscale(a, k) -> tuple:
    return ptrim(tuple(c * k for c in a))


def pmonic(a) -> tuple:
    if not a:
        return a
    return pscale(a, 1 / a[-1])


def pdivmod(a, b) -> tuple:
    """Long division over Q; b must be nonzero."""
    q = [_F0] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        if not rem[-1]:
            rem.pop()
            continue
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem.pop()
    return ptrim(q), ptrim(rem)


def pgcd(a, b) -> tuple:
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def make(num, den=(_F1,)) -> tuple:
    """The canonical (num, den) of num/den: coprime, den monic."""
    num = ptrim(tuple(Fraction(c) for c in num))
    den = ptrim(tuple(Fraction(c) for c in den))
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if not num:
        return (), (_F1,)
    g = pgcd(num, den)
    num, den = pdivmod(num, g)[0], pdivmod(den, g)[0]
    lead = den[-1]
    return pscale(num, 1 / lead), pscale(den, 1 / lead)


def add(x, y) -> tuple:
    return make(padd(pmul(x[0], y[1]), pmul(y[0], x[1])), pmul(x[1], y[1]))


def mul(x, y) -> tuple:
    return make(pmul(x[0], y[0]), pmul(x[1], y[1]))


def inverse(x) -> tuple:
    return make(x[1], x[0])


def integer_form(x) -> tuple:
    """(num, den) scaled by the lcm of their coefficient denominators."""
    num, den = x
    scale = lcm(*(c.denominator for c in num + den))
    return tuple(int(c * scale) for c in num), tuple(int(c * scale) for c in den)


def _pstr(a) -> str:
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


def scalar_str(x) -> str:
    """Text form with integer coefficients, e.g. '(2*d^2-3)/(d^2-d)'."""
    num, den = integer_form(x)
    num_s = _pstr(num)
    if den == (1,):
        return num_s
    den_s = _pstr(den)
    if any(ch in num_s for ch in "+*") or num_s.count("-") > (1 if num_s.startswith("-") else 0):
        num_s = f"({num_s})"
    if any(ch in den_s for ch in "+-*"):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"
