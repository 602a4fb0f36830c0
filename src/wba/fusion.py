"""Baxterized factors and the fusion procedures.

A baxterized factor is a spectral-parameter-dependent element 1 - g/arg built
from a crossing or a contraction, with arg an affine function a + b*u of the
one live evaluation variable.  A fusion run keeps a single variable alive at a
time: each step multiplies the previous idempotent by an ordered product of
factors and a scalar prefactor and evaluates the result at the step's content
c, where the combined denominator has a pole of order m.  Only the Laurent
coefficients at u = c up to order m matter, so a step substitutes
u = c + eps and folds the previous idempotent through its factors, each a
two-term series in eps, keeping the eps^0..eps^m coefficients only.  A pole
that fails to cancel raises CancellationFailure; the theory says this never
happens on legal paths, and the negative-control tests rely on it happening
when a required prefactor is withheld.

The second procedure depends on a free parameter h; its factor blocks use the
modified elements 1 + g/(arg - h) and 1 + g/(arg + h - d) and a different
prefactor, and admits a mirrored variant obtained by reversing every block.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from .algebra import AlgebraElement
from .diagrams import Shape, d_pair, epsilon, identity, s_pair
from .errors import (
    CancellationFailure,
    DivisionByZero,
    IndexOutOfRange,
    NonGenericH,
    ParityViolation,
)
from .scalars import DELTA, ONE, ZERO, DeltaScalar, affine, scalar_str
from .tableaux import WalledTableau, exponents

DEFAULT_H = affine(Fraction(1, 2), 3)
# d/2, where the uniform factor evaluates its contraction kind
_HALF_DELTA = affine(0, Fraction(1, 2))


def _pair_generator(shape: Shape, kind: str, i: int, j: int):
    par = (epsilon(shape, i) + epsilon(shape, j)) % 2
    if kind in ("s", "s'"):
        if par != 0:
            raise ParityViolation(f"s-factor needs same-side sites, got ({i},{j})")
        return s_pair(shape, min(i, j), max(i, j))
    if par != 1:
        raise ParityViolation(f"d-factor needs opposite-side sites, got ({i},{j})")
    return d_pair(shape, min(i, j), max(i, j))


def _factor_kind(shape: Shape, kind: str, i: int, j: int, h):
    """The generator, argument shift and sign of a factor kind: the factor at
    argument arg is 1 + sign * g/(arg + shift)."""
    if kind in ("s", "d"):
        shift, sign = ZERO, -ONE
    elif kind == "s'":
        shift, sign = -h, ONE
    elif kind == "d'":
        shift, sign = h - DELTA, ONE
    else:
        raise IndexOutOfRange(f"unknown factor kind {kind!r}")
    return _pair_generator(shape, kind, i, j), shift, sign


# Factor orderings.  A spec is a list of (kind, i, a_i, b) tuples; the factor
# on the sites (i, k) sits at argument a_i + b*u, with u the variable of step k.

def _d_block(shape: Shape, a) -> list:
    """d_{r,k}(a_r + u) ... d_{1,k}(a_1 + u)."""
    return [("d", i, a[i - 1], 1) for i in range(shape.r, 0, -1)]


def _d_prime_block(shape: Shape, a) -> list:
    """d'_{1,k}(a_1 - u) ... d'_{r,k}(a_r - u)."""
    return [("d'", i, a[i - 1], -1) for i in range(1, shape.r + 1)]


def _step_factors(shape: Shape, a, k: int) -> list:
    """The step-k product on either side of the wall.

    before: s_{1,k}(a_1 - u) ... s_{k-1,k}(a_{k-1} - u)
    after:  d_{r,k}(a_r + u) ... d_{1,k}(a_1 + u)
            * s_{r+1,k}(a_{r+1} - u) ... s_{k-1,k}(a_{k-1} - u)
    """
    r = shape.r
    if k <= r:
        return [("s", i, a[i - 1], -1) for i in range(1, k)]
    return _d_block(shape, a) + [("s", i, a[i - 1], -1) for i in range(r + 1, k)]


def step_prefactor(shape: Shape, contents, k: int, h=None) -> tuple:
    """The step-k scalar prefactor prod (u - a)/prod (u - b) as its roots
    (zeros, poles).

    (u - c_k)/(u - d*eps(k)) times (u - c_j)^2/((u - c_j - 1)(u - c_j + 1))
    for each earlier step j on the same side of the wall; with h (the second
    procedure, after the wall) also (u - h + d)/(u + c_k - h).
    """
    after = k > shape.r
    c = contents[k - 1]
    zeros, poles = [c], [DELTA if after else ZERO]
    for cj in contents[shape.r if after else 0 : k - 1]:
        zeros += [cj, cj]
        poles += [cj + ONE, cj - ONE]
    if h is not None:
        zeros.append(h - DELTA)
        poles.append(h - c)
    return zeros, poles


def _linear_factors(shape: Shape, factors, k: int, h=None) -> list:
    """The factors of a spec on the sites (i, k) as (root, gen, coeff).

    The factor at a + b*u is 1 + sign*g/(a + shift + b*u); as b = +-1 it is
    ((u - root) + coeff*g)/(u - root) with root = -b*(a + shift) and
    coeff = b*sign.
    """
    out = []
    for kind, i, a, b in factors:
        gen, shift, sign = _factor_kind(shape, kind, i, k, h)
        root = -(a + shift) if b == 1 else a + shift
        out.append((root, gen, sign if b == 1 else -sign))
    return out


def _fold(e, factors, c, depth: int, multiply_left=False) -> list:
    """The eps^0..eps^depth coefficients of e times the numerators of the
    factors (root, gen, coeff), as series in eps = u - c; with multiply_left
    the factors stand left of e.

    A numerator (eps + t) + coeff*g, t = c - root, is divided by t, or left
    as it is where t = 0: the two-term series f0 + f1*eps with
    f0 = 1 + coeff*g/t and f1 = 1/t, or f0 = coeff*g and f1 = 1.  Each factor
    maps E_j to E_j*f0 + f1*E_{j-1}, one product with a single diagram.  That
    product is taken by the bare generator g and then scaled by coeff*f1,
    which depends on the point c: sums that carried it would intern a
    point-dependent scalar per term, each kept in the intern table until
    its next sweep.
    """
    series = [e] + [AlgebraElement.zero(e.shape)] * depth
    for root, gen, coeff in reversed(factors) if multiply_left else factors:
        t = c - root
        f1 = t.inverse() if t is not ZERO else ONE
        g, gc = AlgebraElement.from_diagram(gen), coeff * f1
        for j in range(depth, -1, -1):
            ej = series[j]
            term = (g * ej if multiply_left else ej * g).scale(gc) if ej else ej
            if t is not ZERO:
                term = term + ej
            if j and series[j - 1]:
                term = term + series[j - 1].scale(f1)
            series[j] = term
    return series


def _taylor(roots, c, depth: int) -> list:
    """The eps^0..eps^depth coefficients of prod (eps + c - a) over the roots a."""
    taylor = [ONE] + [ZERO] * depth
    for a in roots:
        offset = c - a
        for j in range(depth, -1, -1):
            taylor[j] = taylor[j] * offset + (taylor[j - 1] if j else ZERO)
    return taylor


def _times(series, scalars) -> list:
    """The element series times a scalar series at least as long, truncated
    to the length of the element series."""
    out = []
    for j in range(len(series)):
        coeff = AlgebraElement.zero(series[0].shape)
        for i in range(j + 1):
            if scalars[i] is not ZERO and series[j - i]:
                coeff = coeff + series[j - i].scale(scalars[i])
        out.append(coeff)
    return out


def _evaluate_step_info(e_prev, factors, k: int, z, c, h=None, multiply_left=False):
    """z * e_prev * (the factors of the spec on the sites (i, k)) at u = c,
    after cancelling the (u - c)^m pole; returns (value, m).  z is a scalar
    prefactor as its roots (zeros, poles).  With multiply_left the factors
    stand left of e_prev.

    Each factor is its numerator over u - root (_linear_factors), and _fold
    divides each numerator by c - root where that is nonzero.  So m is the
    number of poles and factor roots at c, and what is left of the
    denominator at eps = u - c = 0 is the product of c - b over the other
    poles b.  If p zeros lie at c, the value needs only the coefficients
    E_0..E_{m-p} of e_prev times the folded numerators, and those of the
    product of eps + c - a over the other zeros a.  The numerator's eps^j
    coefficients below eps^m must vanish, else CancellationFailure.
    """
    shape = e_prev.shape
    zeros, poles = z
    linear = _linear_factors(shape, factors, k, h)
    m = poles.count(c) + [root for root, _, _ in linear].count(c)
    depth = m - zeros.count(c)
    if depth < 0:
        return AlgebraElement.zero(shape), m
    series = _fold(e_prev, linear, c, depth, multiply_left)
    coeffs = _times(series, _taylor([a for a in zeros if a != c], c, depth))
    if any(coeffs[:depth]):
        raise CancellationFailure(f"pole of order {m} at u = {scalar_str(c)} does not cancel")
    lead = _taylor([b for b in poles if b != c], c, 0)[0]
    return coeffs[depth].scale(lead.inverse()), m


# The path memo.  The element after step k depends only on the shape and the
# contents of steps 1..k (and a minimal run's exponents up to k), so paths
# with a common prefix share it.  Key: (shape, contents[:k], None or the
# after-wall exponents up to k); value: (element, pole orders of steps
# 2..k).  A step that raises CancellationFailure is never stored.

# at 7 sites one element has up to 5 040 terms; every prefix of (3,3), 118
# elements with 28 532 terms, fits many times over
_PATH_MEMO_TERMS = 1 << 18


class _PathMemo(dict):
    """The path memo; it empties itself when an entry would take it past
    _PATH_MEMO_TERMS terms."""

    terms = 0

    def clear(self):
        super().clear()
        self.terms = 0

    def put(self, key, value):
        if self.terms + len(value[0].terms) > _PATH_MEMO_TERMS:
            self.clear()
        self[key] = value
        self.terms += len(value[0].terms)


_PATHS = _PathMemo()


def _consecutive(shape: Shape, contents, upto: int, p=None) -> tuple:
    """The element after step `upto` of the first procedure or, with the
    exponents p, of a minimal-prefactor run, and the pole orders of steps
    2..upto; starts from the longest memoized prefix."""
    contents, r = tuple(contents), shape.r
    keys = [(shape, contents[:k], None if p is None else tuple(p[r:k])) for k in range(upto + 1)]
    start = next((k for k in range(upto, 1, -1) if keys[k] in _PATHS), 1)
    e, orders = _PATHS[keys[start]] if start > 1 else (AlgebraElement.one(shape), ())
    for k in range(start + 1, upto + 1):
        c = contents[k - 1]
        if p is None:
            z = step_prefactor(shape, contents, k)
        else:
            z = _minimal_step_prefactor(c, p[k - 1] if k > r else 0)
        e, m = _evaluate_step_info(e, _step_factors(shape, contents, k), k, z, c)
        orders += (m,)
        _PATHS.put(keys[k], (e, orders))
    return e, orders


def fuse_contents(shape: Shape, contents, upto=None) -> AlgebraElement:
    """Consecutive evaluation over the first `upto` steps (all by default)."""
    return _consecutive(shape, contents, len(contents) if upto is None else upto)[0]


def fusion_idempotent(t: WalledTableau) -> AlgebraElement:
    """The primitive idempotent of the path t by the first fusion procedure."""
    return fuse_contents(t.shape, t.contents())


# Minimal prefactor: only the factors (u - c_k)^{p_k} dictated by the exponents.

class MinimalStep(NamedTuple):
    """One step of a minimal-prefactor run: its exponent and pole order."""

    k: int
    exponent: int
    pole_order: int


class MinimalDiagnostics(NamedTuple):
    """What a minimal-prefactor run found; see fusion_with_minimal_prefactor."""

    steps: tuple
    result_is_zero: bool
    leftover_value: DeltaScalar
    matches_idempotent: bool


def _minimal_step_prefactor(c, p: int) -> tuple:
    """(u - c)^p as its roots (zeros, poles)."""
    return [c] * max(p, 0), [c] * max(-p, 0)


def leftover_prefactor_value(shape: Shape, contents, p) -> DeltaScalar:
    """Consecutive evaluations of (full prefactor)/(minimal prefactor), each
    a fusion step with no factors whose value is a multiple of 1.

    Raises CancellationFailure if any step leaves a pole; the value may in
    principle be zero, which callers surface rather than assume away.
    """
    one = AlgebraElement.one(shape)
    total = ONE
    for k in range(1, len(contents) + 1):
        c = contents[k - 1]
        zeros, poles = step_prefactor(shape, contents, k)
        min_zeros, min_poles = _minimal_step_prefactor(c, p[k - 1] if k > shape.r else 0)
        step = _evaluate_step_info(one, [], k, (zeros + min_poles, poles + min_zeros), c)[0]
        total = total * step.terms.get(identity(shape), ZERO)
    return total


def fusion_with_minimal_prefactor(t: WalledTableau, override_exponents=None):
    """Run the fusion with only the exponent-dictated prefactor factors.

    Returns (element, diagnostics).  With override_exponents (a dict step -> p
    over the steps r < k <= n after the wall; any other step raises
    IndexOutOfRange) the run becomes a negative control: withholding a
    required factor makes the engine raise CancellationFailure.
    """
    shape, contents = t.shape, t.contents()
    p = list(exponents(t))
    if override_exponents:
        for k, pk in override_exponents.items():
            if not shape.r < k <= shape.n:
                raise IndexOutOfRange(
                    f"step {k} outside the steps {shape.r + 1}..{shape.n} after the wall"
                )
            p[k - 1] = pk
    e, orders = _consecutive(shape, contents, shape.n, p)
    steps = tuple(
        MinimalStep(k, p[k - 1] if k > shape.r else 0, m) for k, m in enumerate(orders, 2)
    )
    leftover = leftover_prefactor_value(shape, contents, p)
    matches = e.scale(leftover) == fusion_idempotent(t)
    return e, MinimalDiagnostics(steps, e.is_zero, leftover, matches)


# Second fusion procedure.

def h_is_generic(shape: Shape, contents, h: DeltaScalar) -> bool:
    """True when no modified-factor or prefactor denominator vanishes at any
    evaluation point for this content sequence: no root of an s' or d'
    factor, nor the prefactor's pole h - c_k, lies at the content c_k."""
    for k in range(shape.r + 1, len(contents) + 1):
        ck = contents[k - 1]
        linear = _linear_factors(shape, _primed_block(shape, contents, k), k, h)
        if ck in [root for root, _, _ in linear] + [h - ck]:
            return False
    return True


def _primed_block(shape: Shape, contents, k: int) -> list:
    """s'_{k-1,k}(c_{k-1} + u) ... s'_{r+1,k}(c_{r+1} + u), then the d' block."""
    s_prime = [("s'", i, contents[i - 1], 1) for i in range(k - 1, shape.r, -1)]
    return s_prime + _d_prime_block(shape, contents)


def _second_block_factors(shape: Shape, contents, k: int, mirror: bool) -> list:
    """The primed block, then the step-k product; reversed for the mirror
    variant."""
    factors = _primed_block(shape, contents, k) + _step_factors(shape, contents, k)
    if mirror:
        factors.reverse()
    return factors


def second_fusion_idempotent(t: WalledTableau, h=DEFAULT_H, mirror=False) -> AlgebraElement:
    """The idempotent of the path by the free-parameter procedure."""
    shape, contents = t.shape, t.contents()
    if not h_is_generic(shape, contents, h):
        raise NonGenericH(f"h = {scalar_str(h)} collides with the contents of {t}")
    r, n = shape.r, shape.n
    e = fuse_contents(shape, contents, r)
    for k in range(r + 1, n + 1):
        factors = _second_block_factors(shape, contents, k, mirror)
        z = step_prefactor(shape, contents, k, h)
        e = _evaluate_step_info(e, factors, k, z, contents[k - 1], h, mirror)[0]
    return e


def idempotent_by(t: WalledTableau, method="first", variant="fwd", h=DEFAULT_H) -> AlgebraElement:
    """The idempotent of t by method "first", "second" (variant "fwd" or
    "mirror", parameter h) or "interp"."""
    if method == "first":
        return fusion_idempotent(t)
    if method == "second":
        return second_fusion_idempotent(t, h, mirror=variant == "mirror")
    if method == "interp":
        from .verify import interp_idempotent

        return interp_idempotent(t)
    raise IndexOutOfRange(f"unknown method {method!r}")


# Numeric products for the identity battery and the proof-level checks.

def _at(shape: Shape, kind: str, i: int, j: int, arg: DeltaScalar) -> tuple:
    """The factor of the given kind at a numeric argument, as the linear
    factor (root, gen, coeff) of _linear_factors to evaluate at u = 0."""
    return _linear_factors(shape, [(kind, i, arg, 1)], j)[0]


def _evaluate(e, factors, u=ZERO) -> AlgebraElement:
    """e times the linear factors (root, gen, coeff) at the point u."""
    if any(root == u for root, _, _ in factors):
        raise DivisionByZero(f"a factor has a pole at u = {scalar_str(u)}")
    return _fold(e, factors, u, 0)[0]


def psi_full_numeric(shape: Shape, us, m=None) -> AlgebraElement:
    """The literal lexicographic product at fully numeric points, restricted to
    the first m sites (all by default)."""
    r = shape.r
    m = shape.n if m is None else m
    factors = [
        _at(shape, "d", i, j, us[i - 1] + us[j - 1])
        for i in range(1, r + 1)
        for j in range(r + 1, m + 1)
    ]
    for side in (range(1, min(r, m) + 1), range(r + 1, m + 1)):
        factors += [_at(shape, "s", i, j, us[i - 1] - us[j - 1]) for i, j in combinations(side, 2)]
    return _evaluate(AlgebraElement.one(shape), factors)


def psi_step_numeric(shape: Shape, us, k: int) -> AlgebraElement:
    """The step-k product of _step_factors at fully numeric points."""
    factors = _linear_factors(shape, _step_factors(shape, us, k), k)
    return _evaluate(AlgebraElement.one(shape), factors, us[k - 1])


def second_product_numeric(shape: Shape, t: WalledTableau, h, us, mirror=False) -> AlgebraElement:
    """The full second-procedure product at numeric after-wall points us[k].

    us maps site k (r < k <= n) to the numeric value of its variable; the
    before-wall variables are already at the contents through the
    symmetric-group idempotent.  The product is e * A' * S' * A * S, or
    e * A * S' * A' * S mirrored, with A and A' the d and d' blocks of every
    after-wall step and S' and S the lexicographic s' and s products; e is
    folded through it one two-term factor at a time.
    """
    r, n = shape.r, shape.n
    contents = t.contents()
    after = range(r + 1, n + 1)
    a_block = [(j, _d_block(shape, contents)) for j in after]
    a_prime = [(j, _d_prime_block(shape, contents)) for j in after]
    s_prime = [(j, [("s'", i, us[i], 1)]) for i in after for j in range(i + 1, n + 1)]
    s_block = [(j, [("s", i, us[i], -1)]) for i in after for j in range(i + 1, n + 1)]
    order = a_block + s_prime + a_prime if mirror else a_prime + s_prime + a_block
    e = fuse_contents(shape, contents, r)
    for k, factors in order + s_block:
        e = _evaluate(e, _linear_factors(shape, factors, k, h), us[k])
    return e


# Spectral identity battery.

def _distinct_points(rng: random.Random, count: int) -> list:
    """Rationals that avoid every pole of the numeric products: nonzero,
    non-integer, with pairwise nonzero sums and differences."""
    out: list = []
    while len(out) < count:
        q = Fraction(rng.randint(-40, 40), rng.choice([3, 5, 7, 11]))
        if q.denominator == 1 or not q:
            continue
        if any(not (q - p) or not (q + p) for p in out):
            continue
        out.append(q)
    return [DeltaScalar.from_fraction(q) for q in out]


def _battery(shape: Shape) -> list:
    """The spectral identities as rows (name, sites, word).  For each site
    tuple, word(*sites, u, v) gives (factors, rhs): the product of the factors
    equals rhs times 1 or, where rhs is None, the product of the same factors
    in reverse order."""
    r, n = shape.r, shape.n
    sides = (range(1, r + 1), range(r + 1, n + 1))
    pairs = [p for side in sides for p in combinations(side, 2)]
    cross = list(product(*sides))
    # (i, j, k) with i < j on one side of the wall and k on the other
    mixed = [(*p, k) for a, b in (sides, sides[::-1]) for p, k in product(combinations(a, 2), b)]
    factor_sites = [("s", *p) for p in pairs] + [("d", *p) for p in cross]
    disjoint = [(f, g) for f, g in combinations(factor_sites, 2) if not set(f[1:]) & set(g[1:])]

    def s(i, j, u):
        return _at(shape, "s", i, j, u)

    def d(i, j, u):
        return _at(shape, "d", i, j, u)

    def w(i, j, u):
        """The uniform factor: the crossing kind at u, the contraction kind at d/2 - u."""
        if (epsilon(shape, i) + epsilon(shape, j)) % 2 == 0:
            return s(i, j, u)
        return d(i, j, _HALF_DELTA - u)

    return [
        ("yang_baxter_crossings", [t for side in sides for t in combinations(side, 3)],
         lambda i, j, k, u, v: ([s(i, j, u), s(i, k, u + v), s(j, k, v)], None)),
        # two contractions against a crossing
        ("yang_baxter_contractions", mixed,
         lambda j, k, i, u, v: ([d(j, i, u), d(k, i, u - v), s(j, k, v)], None)),
        # contraction, crossing, contraction with the reflected argument
        ("yang_baxter_mixed", mixed,
         lambda i, k, j, u, v: ([d(i, j, u), s(i, k, DELTA - u - v), d(k, j, v)], None)),
        ("crossing_unitarity", pairs,
         lambda i, j, u, v: ([s(i, j, u), s(i, j, -u)], (u * u - ONE) / (u * u))),
        ("contraction_unitarity", cross,
         lambda i, j, u, v: ([d(i, j, u), d(i, j, DELTA - u)], ONE)),
        # factors on four distinct sites commute
        ("distinct_sites_commute", disjoint,
         lambda a, b, u, v: ([_at(shape, *a, u), _at(shape, *b, v)], None)),
        # the uniform Yang-Baxter form across the wall
        ("uniform_yang_baxter", list(combinations(range(1, n + 1), 3)),
         lambda i, j, k, u, v: ([w(i, j, u), w(i, k, u + v), w(j, k, v)], None)),
    ]


def identity_checks(shape: Shape, seed: int = 0, points: int = 20) -> dict:
    """Exact spot checks of the spectral identities of _battery, each at
    `points` random rational pairs (u, v)."""
    rng = random.Random(seed)
    one = AlgebraElement.one(shape)
    results: dict = {}
    for name, sites, word in _battery(shape):
        ok = True
        for _ in range(points):
            u, v = _distinct_points(rng, 2)
            for site in sites:
                factors, rhs = word(*site, u, v)
                lhs = _evaluate(one, factors)
                want = _evaluate(one, factors[::-1]) if rhs is None else one.scale(rhs)
                ok = ok and lhs == want
        results[name] = {"instances": points * len(sites), "pass": ok}
    results["all_pass"] = all(v["pass"] for v in results.values())
    return results
