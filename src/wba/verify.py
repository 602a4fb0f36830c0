"""Independent oracles and certification suites for fused idempotents.

interp_idempotent rebuilds each idempotent level by level from the
Jucys-Murphy elements alone, with no baxterized factors, so agreement with the
fusion output cross-validates two independent constructions.  check_system
certifies a whole shape: idempotency, pairwise orthogonality, completeness,
JM spectra, flip stability and cross-method agreement, all in exact
arithmetic inside the regular representation.  check_proof_lemmas verifies
the factorization, wall-crossing, resolvent and mirror identities that drive
the procedures, either as cleared polynomial identities compared coefficient
by coefficient in a series variable or at random rational points off the
poles.
"""

from __future__ import annotations

import functools
import random
import time
from itertools import permutations
from typing import NamedTuple

from .algebra import AlgebraElement, iota, jm_element
from .diagrams import Shape, composition_table
from .errors import CancellationFailure, IndexOutOfRange
from .fusion import (
    DEFAULT_H,
    _distinct_points,
    _fold,
    _linear_factors,
    _step_factors,
    _taylor,
    _times,
    fuse_contents,
    fusion_idempotent,
    fusion_with_minimal_prefactor,
    h_is_generic,
    identity_checks,
    psi_full_numeric,
    psi_step_numeric,
    second_fusion_idempotent,
    second_product_numeric,
    step_prefactor,
)
from .scalars import DELTA, ZERO, DeltaScalar
from .tableaux import WalledTableau, _legal_moves, enumerate_tableaux, exponents


def interp_idempotent(t: WalledTableau) -> AlgebraElement:
    """Build the idempotent by Jucys-Murphy interpolation, level by level.

    At each step the factor product runs over the contents of the legal moves
    from the current bipartition, skipping the move actually taken.  Those
    contents are pairwise distinct (addable cells lie on distinct diagonals,
    as do removable ones, and an R+ content has d-coefficient 1 where an L-
    content has 0), so no c - a below is zero.
    """
    shape = t.shape
    contents = t.contents()
    e = AlgebraElement.one(shape)
    for k in range(1, shape.n + 1):
        candidates = [m.content() for m in _legal_moves(t.steps[k - 1], k, shape.r)]
        c = contents[k - 1]
        candidates.remove(c)
        if not candidates:
            continue
        x = jm_element(shape, k)
        one = AlgebraElement.one(shape)
        for a in candidates:
            e = e * (x - one.scale(a)).scale((c - a).inverse())
    return e


class TableauCert(NamedTuple):
    """The certificate of one tableau's idempotent; the agreement fields are
    None for a check that was not run."""

    moves: str
    idempotent: bool
    jm_spectrum: bool
    iota_fixed: bool
    interp_agrees: bool | None
    second_fwd_agrees: bool | None
    second_mirror_agrees: bool | None

    @property
    def second_agrees(self) -> bool | None:
        """Both variants of the second procedure agree; None when not run."""
        if self.second_fwd_agrees is None:
            return None
        return self.second_fwd_agrees and self.second_mirror_agrees

    @property
    def ok(self) -> bool:
        checks = [self.idempotent, self.jm_spectrum, self.iota_fixed]
        checks += [v for v in (self.interp_agrees, self.second_agrees) if v is not None]
        return all(checks)


class CertReport:
    """The certification report of a shape.  A field left None belongs to a
    section that did not run, and ok and to_json skip it or print it as
    null: check_system sets the system fields, tableaux through
    spectra_distinct, and full_report the sections its suite selects."""

    __slots__ = (
        "r", "s", "tableaux", "orthogonal", "orthogonality_pairs",
        "orthogonality_failures", "completeness_ok", "completeness_residual_terms",
        "spectra_distinct", "identities", "lemmas", "exponent_runs", "timings",
    )

    def __init__(self, r: int, s: int):
        self.r = r
        self.s = s
        self.tableaux = None
        self.orthogonal = None
        self.orthogonality_pairs = None
        self.orthogonality_failures = None
        self.completeness_ok = None
        self.completeness_residual_terms = None
        self.spectra_distinct = None
        self.identities = None
        self.lemmas = None
        self.exponent_runs = None
        self.timings = {}

    @property
    def ok(self) -> bool:
        parts = [self.orthogonal, self.completeness_ok, self.spectra_distinct]
        if self.tableaux is not None:
            parts += [t.ok for t in self.tableaux]
        if self.identities is not None:
            parts.append(self.identities["all_pass"])
        if self.lemmas is not None:
            parts += [v["pass"] for v in self.lemmas.values()]
        if self.exponent_runs is not None:
            parts.append(self.exponent_runs["pass"])
        return all(p for p in parts if p is not None)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "ok": self.ok,
            "tableaux": None if self.tableaux is None else [
                {
                    "moves": t.moves,
                    "idempotent": t.idempotent,
                    "jm_spectrum": t.jm_spectrum,
                    "iota_fixed": t.iota_fixed,
                    "interp_agrees": t.interp_agrees,
                    "second_agrees": t.second_agrees,
                }
                for t in self.tableaux
            ],
            "orthogonal": self.orthogonal,
            "orthogonality_pairs": self.orthogonality_pairs,
            "orthogonality_failures": self.orthogonality_failures,
            "completeness_ok": self.completeness_ok,
            "completeness_residual_terms": self.completeness_residual_terms,
            "spectra_distinct": self.spectra_distinct,
            "identities": self.identities,
            "lemmas": self.lemmas,
            "exponents": self.exponent_runs,
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
        }


def _timed(run) -> tuple:
    """(run(), the seconds it took): the one clock of the reports."""
    t0 = time.perf_counter()
    result = run()
    return result, time.perf_counter() - t0


def _verdict(instances):
    """Make a lemma suite from a generator function that yields one verdict
    per instance: {"pass": all of them, "instances": their number}.  The
    generator keeps each instance's locals alive into the next, as a loop
    does, so the scalars alive at each intern sweep are a loop's."""

    @functools.wraps(instances)
    def suite(*args, **kwargs) -> dict:
        holds = list(instances(*args, **kwargs))
        return {"pass": all(holds), "instances": len(holds)}

    return suite


def certify_tableau(
    t: WalledTableau,
    e: AlgebraElement,
    cross_check: bool = True,
    h: DeltaScalar = DEFAULT_H,
) -> TableauCert:
    """Certify the idempotent e of the path t: idempotency, the JM spectrum on
    both sides, flip invariance and, with cross_check, agreement with the
    interpolation oracle and with both variants of the second procedure.
    Builds the shape's composition table first (up to six sites), which
    every product below reads, the JM products as well as e*e."""
    composition_table(t.shape)
    contents = t.contents()
    jm_ok = True
    for k in range(1, t.shape.n + 1):
        x = jm_element(t.shape, k)
        scaled = e.scale(contents[k - 1])
        if x * e != scaled or e * x != scaled:
            jm_ok = False
            break
    idempotent = e * e == e
    iota_fixed = iota(e) == e
    interp = fwd = mirror = None
    if cross_check:
        interp = interp_idempotent(t) == e
        fwd = second_fusion_idempotent(t, h) == e
        mirror = second_fusion_idempotent(t, h, mirror=True) == e
    return TableauCert(t.moves_str(), idempotent, jm_ok, iota_fixed, interp, fwd, mirror)


def check_system(shape: Shape, cross_check: bool = True) -> CertReport:
    """Certify the complete idempotent system of a shape."""
    report = CertReport(shape.r, shape.s)
    timings = report.timings
    tableaux = enumerate_tableaux(shape)
    elements, timings["fusion"] = _timed(lambda: [fusion_idempotent(t) for t in tableaux])
    report.tableaux, timings["per_tableau"] = _timed(
        lambda: [certify_tableau(t, e, cross_check) for t, e in zip(tableaux, elements)]
    )
    pairs = list(permutations(range(len(elements)), 2))
    report.orthogonality_failures, timings["orthogonality"] = _timed(lambda: [
        (tableaux[i].moves_str(), tableaux[j].moves_str())
        for i, j in pairs
        if not (elements[i] * elements[j]).is_zero
    ])
    report.orthogonality_pairs = len(pairs)
    report.orthogonal = not report.orthogonality_failures

    total = AlgebraElement.zero(shape)
    for e in elements:
        total = total + e
    residual = total - AlgebraElement.one(shape)
    report.completeness_ok = residual.is_zero
    report.completeness_residual_terms = len(residual.terms)

    spectra = [t.contents() for t in tableaux]
    report.spectra_distinct = len(set(spectra)) == len(spectra)
    return report


@_verdict
def check_factorization_identity(shape: Shape, seed: int = 0, points: int = 3):
    """The step-peeling identity: the full product equals (product on the first
    n-1 sites) times the last step product, at fully numeric points."""
    rng = random.Random(seed)
    n = shape.n
    if not n:
        return
    for _ in range(points):
        us = _distinct_points(rng, n)
        lhs = psi_full_numeric(shape, us)
        rhs = psi_full_numeric(shape, us, m=n - 1) * psi_step_numeric(shape, us, n)
        yield lhs == rhs


def _fold_about_zero(e, factors) -> tuple:
    """(F, K): F = _fold(e, factors, 0, number of factors), the full
    coefficient list of e times the factor numerators (see _linear_factors)
    over K, as a polynomial in eps = u; K, which _fold divides out, is the
    product of -root over the roots other than 0."""
    k = _taylor([root for root, _, _ in factors if root], ZERO, 0)[0]
    return _fold(e, factors, ZERO, len(factors)), k


@_verdict
def check_wall_crossing(shape: Shape):
    """The wall-crossing identity, for every symmetric-group stage
    idempotent E of the shape:

    E * d_{1,r+1}(w - c_1) ... d_{r,r+1}(w - c_r) == (w - d + x_{r+1})/w * E

    The factor d_{i,r+1}(w - c_i) is ((w - c_i) - d_{i,r+1})/(w - c_i).
    Times w * prod (w - c_i) / K, with eps = w and (F, K) from
    _fold_about_zero, the identity is

    eps * F(eps) == prod (eps - a) * E/K + prod (eps - c_i) * x_{r+1} E/K,

    a over the c_i and d.  Both sides are the full coefficient lists of
    polynomials of degree at most r + 1 in eps, so equal lists are the
    cleared identity, and it divided by the nonzero w * prod (w - c_i) / K.
    A shape with no site right of the wall has no x_{r+1}: jm_element
    refuses it with IndexOutOfRange.
    """
    r = shape.r
    x = jm_element(shape, r + 1)
    for prefix in enumerate_tableaux(Shape(r, 0)):
        contents = prefix.contents()
        e = fuse_contents(shape, contents, r)
        spec = [("d", i, -contents[i - 1], 1) for i in range(1, r + 1)]
        folded, k = _fold_about_zero(e, _linear_factors(shape, spec, r + 1))
        e = e.scale(k.inverse())
        xe = x * e
        with_d = _taylor([*contents, DELTA], ZERO, r + 1)
        rhs = [e.scale(p) + xe.scale(q) for p, q in zip(with_d, _taylor(contents, ZERO, r + 1))]
        yield [AlgebraElement.zero(shape)] + folded == rhs


@_verdict
def check_jm_resolvent(shape: Shape):
    """The step identity that produces the JM resolvent, for every
    idempotent E of a path to the first n - 1 sites:

    E * psi_n(u) * (u - x_n) * prod (u - a) == E * prod (u - b)

    with psi_n the step-n product of _step_factors at the path's contents,
    a over the step-n prefactor's zeros less its zero at c_n, whose place
    (u - x_n) takes, and b over its poles.  Each factor of psi_n is its
    numerator over u - root.  Times the product of u - root over K, with
    eps = u and (F, K) from _fold_about_zero, the identity is

    F(eps) * (eps - x_n) * prod (eps - a) == prod (eps - b) * E/K,

    b now also over the roots.  Both sides are the full coefficient lists of
    polynomials of degree at most the number of roots and poles, so equal
    lists are the cleared identity, and it divided by the nonzero product of
    u - root over K.
    """
    r, n = shape.r, shape.n
    if not n:
        return
    zero_elem = AlgebraElement.zero(shape)
    x = jm_element(shape, n)
    first_sites = Shape(r, shape.s - 1) if shape.s else Shape(r - 1, 0)
    for prefix in enumerate_tableaux(first_sites):
        contents = prefix.contents()
        e = fuse_contents(shape, contents, n - 1)
        factors = _linear_factors(shape, _step_factors(shape, contents, n), n)
        zeros, poles = step_prefactor(shape, (*contents, x), n)
        roots = [root for root, _, _ in factors]
        degree = len(roots) + len(poles)
        folded, k = _fold_about_zero(e, factors)
        folded += [zero_elem] * (degree + 1 - len(folded))
        with_x = [(folded[j - 1] if j else zero_elem) - folded[j] * x for j in range(degree + 1)]
        lhs = _times(with_x, _taylor(zeros[1:], ZERO, degree))
        e = e.scale(k.inverse())
        yield lhs == [e.scale(p) for p in _taylor(roots + poles, ZERO, degree)]


@_verdict
def check_mirror_products(shape: Shape, seed: int = 0):
    """flip(forward second-procedure product) equals the mirrored product at
    random rational points, with h = DEFAULT_H."""
    rng = random.Random(seed)
    r, n = shape.r, shape.n
    for t in enumerate_tableaux(shape):
        if not h_is_generic(shape, t.contents(), DEFAULT_H):
            continue
        points = _distinct_points(rng, n - r)
        us = {k: points[k - r - 1] for k in range(r + 1, n + 1)}
        fwd = second_product_numeric(shape, t, DEFAULT_H, us, mirror=False)
        mir = second_product_numeric(shape, t, DEFAULT_H, us, mirror=True)
        yield iota(fwd) == mir


def check_proof_lemmas(shape: Shape, seed: int = 0) -> dict:
    """Run the four proof-level identity suites for a shape."""
    out = {}
    suites = [
        ("factorization", lambda: check_factorization_identity(shape, seed)),
        ("wall_crossing", lambda: check_wall_crossing(Shape(shape.r, 1))),
        ("jm_resolvent", lambda: check_jm_resolvent(shape)),
        ("mirror_products", lambda: check_mirror_products(shape, seed)),
    ]
    for name, run in suites:
        out[name], seconds = _timed(run)
        out[name]["seconds"] = round(seconds, 3)
    return out


def check_exponents(shape: Shape) -> dict:
    """Minimal-prefactor runs for every tableau of the shape, plus three
    negative controls that withhold one required factor and must fail."""
    runs = 0
    ok = True
    zero_results = 0
    controls = 0
    controls_failed_as_expected = 0
    for t in enumerate_tableaux(shape):
        e, diag = fusion_with_minimal_prefactor(t)
        runs += 1
        ok = ok and diag.matches_idempotent
        zero_results += diag.result_is_zero
        if controls < 3:
            p = exponents(t)
            pos = [k for k, pk in enumerate(p, 1) if pk == 1]
            if pos:
                controls += 1
                try:
                    fusion_with_minimal_prefactor(t, override_exponents={pos[0]: 0})
                except CancellationFailure:
                    controls_failed_as_expected += 1
    return {
        "pass": ok and controls == controls_failed_as_expected,
        "runs": runs,
        "zero_results": zero_results,
        "negative_controls": controls,
        "negative_controls_failed_as_expected": controls_failed_as_expected,
    }


def full_report(shape: Shape, seed: int = 0, suite: str = "all") -> CertReport:
    """Assemble the report the CLI emits; suite selects which sections run."""
    if suite not in ("all", "system", "lemmas", "yang-baxter", "exponents"):
        raise IndexOutOfRange(f"unknown suite {suite!r}")
    if suite in ("all", "system"):
        report = check_system(shape)
    else:
        report = CertReport(shape.r, shape.s)
    timings = report.timings
    if suite in ("all", "lemmas"):
        report.lemmas, timings["lemmas"] = _timed(lambda: check_proof_lemmas(shape, seed))
    if suite in ("all", "yang-baxter"):
        report.identities, timings["identities"] = _timed(lambda: identity_checks(shape, seed))
    if suite in ("all", "exponents"):
        report.exponent_runs, timings["exponents"] = _timed(lambda: check_exponents(shape))
    return report
