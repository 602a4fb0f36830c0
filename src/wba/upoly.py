"""Dense polynomials in one evaluation variable over an arbitrary coefficient
ring.

Coefficients only need +, *, unary - and truthiness; they may be scalars or
algebra elements.  The evaluation point is always a central scalar, so Horner
evaluation and synthetic division are valid on both coefficient kinds.  Each
polynomial carries the zero of its coefficient ring explicitly because the
ring (for algebra coefficients) depends on the shape.

No module of wba uses it: the symbolic oracle of the tests builds on it, and
the benchmark's tracer wraps its product and its division by u - c.
"""

from __future__ import annotations


class UniPoly:
    __slots__ = ("coeffs", "zero")

    def __init__(self, coeffs, zero):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.zero = zero

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out, self.zero)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.zero)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Ordered convolution; left factors stay on the left."""
        if not self.coeffs or not other.coeffs:
            return UniPoly((), self.zero)
        out = [self.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b
        return UniPoly(out, self.zero)

    def eval_at(self, c):
        """Horner evaluation at a central scalar."""
        if not self.coeffs:
            return self.zero
        acc = self.coeffs[-1]
        for a in reversed(self.coeffs[:-1]):
            acc = acc * c + a
        return acc

    def divmod_linear(self, c):
        """Divide by (u - c); return (quotient, remainder coefficient)."""
        if not self.coeffs:
            return UniPoly((), self.zero), self.zero
        if len(self.coeffs) == 1:
            return UniPoly((), self.zero), self.coeffs[0]
        rev = list(reversed(self.coeffs))
        quot = [rev[0]]
        for a in rev[1:-1]:
            quot.append(a + quot[-1] * c)
        rem = rev[-1] + quot[-1] * c
        return UniPoly(reversed(quot), self.zero), rem

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"
