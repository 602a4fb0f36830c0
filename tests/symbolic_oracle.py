"""The symbolic form of the fusion factors, kept as the reference for the
series fold in `wba.fusion`.

A factor is a rational function of the live variable u with algebra-valued
numerator and scalar denominator, both `UniPoly`s; a step's product is
multiplied out factor by factor and a pole at u = c is removed by exact
synthetic division.  The engine never builds these polynomials: it folds
each step as a series in u - c and checks the proof lemmas on coefficient
lists, so agreement with this module cross-checks two constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from wba.algebra import AlgebraElement
from wba.diagrams import Shape, d_pair, s_pair
from wba.errors import IndexOutOfRange, NonzeroRemainder
from wba.fusion import _step_factors
from wba.scalars import DELTA, ONE, ZERO, DeltaScalar
from wba.upoly import UniPoly


@dataclass(frozen=True)
class AlgebraRat:
    """An algebra-valued rational function of the live variable."""

    shape: Shape
    num: UniPoly  # AlgebraElement coefficients
    den: UniPoly  # DeltaScalar coefficients

    @staticmethod
    def one(shape: Shape) -> "AlgebraRat":
        return AlgebraRat(
            shape,
            UniPoly([AlgebraElement.one(shape)], AlgebraElement.zero(shape)),
            UniPoly([ONE], ZERO),
        )

    def __mul__(self, other: "AlgebraRat") -> "AlgebraRat":
        return AlgebraRat(self.shape, self.num * other.num, self.den * other.den)


def baxter_factor(shape: Shape, kind: str, i: int, j: int, a, b: int = 1, h=None) -> AlgebraRat:
    """The factor of the given kind at affine argument a + b*u.

    kind "s"  : 1 - s_{i,j}/(a + b*u)
    kind "d"  : 1 - d_{i,j}/(a + b*u)
    kind "s'" : 1 + s_{i,j}/(a + b*u - h)
    kind "d'" : 1 + d_{i,j}/(a + b*u + h - d)
    """
    if b not in (1, -1):
        raise IndexOutOfRange(f"affine argument slope must be +1 or -1, got {b}")
    a = a if isinstance(a, DeltaScalar) else DeltaScalar.from_fraction(a)
    if kind in ("s", "d"):
        shift, sign = ZERO, -ONE
    elif kind == "s'":
        shift, sign = -h, ONE
    elif kind == "d'":
        shift, sign = h - DELTA, ONE
    else:
        raise IndexOutOfRange(f"unknown factor kind {kind!r}")
    gen = (s_pair if kind[0] == "s" else d_pair)(shape, min(i, j), max(i, j))
    one = AlgebraElement.one(shape)
    bs = ONE if b == 1 else -ONE
    den0 = a + shift
    num0 = one.scale(den0) + AlgebraElement.from_diagram(gen, sign)
    num = UniPoly([num0, one.scale(bs)], AlgebraElement.zero(shape))
    den = UniPoly([den0, bs], ZERO)
    return AlgebraRat(shape, num, den)


def step_function(shape: Shape, contents, k: int) -> AlgebraRat:
    """The step-k product of _step_factors at the contents, multiplied out as
    a rational function of u."""
    acc = AlgebraRat.one(shape)
    for kind, i, a, b in _step_factors(shape, contents, k):
        acc = acc * baxter_factor(shape, kind, i, k, a, b)
    return acc


def modified_block(shape: Shape, contents, k: int, h) -> list:
    """The factors of the second procedure's modified block at step k > r,
    in the order the paper writes them:
    s'_{k-1,k}(c_{k-1} + u) ... s'_{r+1,k}(c_{r+1} + u)
    * d'_{1,k}(c_1 - u) ... d'_{r,k}(c_r - u)."""
    r = shape.r
    s_primes = [baxter_factor(shape, "s'", i, k, contents[i - 1], 1, h) for i in range(k - 1, r, -1)]
    d_primes = [baxter_factor(shape, "d'", i, k, contents[i - 1], -1, h) for i in range(1, r + 1)]
    return s_primes + d_primes


def _root_poly(roots) -> UniPoly:
    """prod (u - a) over the roots a, as a scalar polynomial."""
    p = UniPoly([ONE], ZERO)
    for a in roots:
        p = p * UniPoly([-a, ONE], ZERO)
    return p


def divide_linear_power(p: UniPoly, c, m: int) -> UniPoly:
    """Divide p exactly by (u - c)^m, raising NonzeroRemainder on failure."""
    for step in range(m):
        p, rem = p.divmod_linear(c)
        if rem:
            raise NonzeroRemainder(
                f"(u - c)^{m} does not divide the polynomial (failed at factor {step + 1})"
            )
    return p


def root_multiplicity(p: UniPoly, c) -> int:
    """Multiplicity of the root c in a nonzero polynomial."""
    m = 0
    while p:
        q, rem = p.divmod_linear(c)
        if rem:
            return m
        m += 1
        p = q
    return m
