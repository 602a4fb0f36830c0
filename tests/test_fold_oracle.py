"""The series fold of one fusion step against the full symbolic expansion.

The oracle multiplies a step's factors out as a rational function of u with
algebra coefficients, multiplies the previous idempotent into every numerator
coefficient, divides numerator and denominator by (u - c)^m and evaluates at
u = c.  Every procedure is run twice, once with the engine's step and once
with the oracle patched in its place, and the outcomes must be equal: the
idempotents, the pole order of every minimal-prefactor step, and for each
negative control the step that fails and its message.
"""

import pytest

import wba.fusion as fusion
from wba.algebra import AlgebraElement
from wba.diagrams import Shape
from wba.errors import CancellationFailure, NonzeroRemainder
from wba.scalars import scalar_str
from wba.tableaux import enumerate_tableaux, exponents
from wba.upoly import UniPoly
from symbolic_oracle import (
    AlgebraRat,
    _root_poly,
    baxter_factor,
    divide_linear_power,
    root_multiplicity,
)


def oracle_step(e_prev, factors, k, z, c, multiply_left=False):
    """The step by full expansion; same signature and result as the engine's."""
    shape = e_prev.shape
    psi = AlgebraRat.one(shape)
    for kind, i, a, b in factors:
        psi = psi * baxter_factor(shape, kind, i, k, a, b)
    if multiply_left:
        coeffs = [coef * e_prev for coef in psi.num.coeffs]
    else:
        coeffs = [e_prev * coef for coef in psi.num.coeffs]
    zeros, poles = z
    num = UniPoly(coeffs, AlgebraElement.zero(shape)) * _root_poly(zeros)
    den = psi.den * _root_poly(poles)
    m = root_multiplicity(den, c)
    if m:
        den = divide_linear_power(den, c, m)
        try:
            num = divide_linear_power(num, c, m)
        except NonzeroRemainder as exc:
            raise CancellationFailure(
                f"pole of order {m} at u = {scalar_str(c)} does not cancel"
            ) from exc
    return num.eval_at(c) * den.eval_at(c).inverse(), m


def _minimal(t, override=None):
    e, diag = fusion.fusion_with_minimal_prefactor(t, override)
    steps = [(s.k, s.exponent, s.pole_order) for s in diag.steps]
    return e, steps, diag.leftover_value, diag.matches_idempotent


def _runs(t) -> dict:
    """Every procedure on t, and a negative control per nonzero exponent."""
    runs = {
        "first": lambda: fusion.fusion_idempotent(t),
        "minimal": lambda: _minimal(t),
    }
    if fusion.h_is_generic(t.shape, t.contents(), fusion.DEFAULT_H):
        runs["second_fwd"] = lambda: fusion.second_fusion_idempotent(t)
        runs["second_mirror"] = lambda: fusion.second_fusion_idempotent(t, mirror=True)
    for k, pk in enumerate(exponents(t), 1):
        if pk and k > t.shape.r:
            runs[f"control_{k}"] = lambda k=k: _minimal(t, {k: 0})
    return runs


def _outcome(run, step):
    """run() with step in place of the engine's, from an empty path memo that
    is dropped afterwards, so that step computes every element; a
    CancellationFailure becomes the number of steps taken and its message."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_PATHS", fusion._PathMemo())
        mp.setattr(fusion, "_evaluate_step_info", counted)
        try:
            return run()
        except CancellationFailure as exc:
            return ("CancellationFailure", len(calls), str(exc))


def _assert_fold_matches_oracle(shape):
    engine = fusion._evaluate_step_info
    controls = 0
    for t in enumerate_tableaux(shape):
        for name, run in _runs(t).items():
            got, want = _outcome(run, engine), _outcome(run, oracle_step)
            assert got == want, (t.moves_str(), name)
            controls += name.startswith("control")
    # every shape with sites on both sides has a path with a nonzero exponent
    assert controls or not (shape.r and shape.s)


SMALL = [Shape(r, n - r) for n in range(1, 5) for r in range(n + 1)]
LARGE = [Shape(r, n - r) for n in (5, 6) for r in range(1, n)]


@pytest.mark.parametrize("shape", SMALL, ids=lambda s: f"{s.r},{s.s}")
def test_fold_matches_symbolic_oracle(shape):
    _assert_fold_matches_oracle(shape)


@pytest.mark.slow
@pytest.mark.parametrize("shape", LARGE, ids=lambda s: f"{s.r},{s.s}")
def test_fold_matches_symbolic_oracle_large(shape):
    _assert_fold_matches_oracle(shape)
