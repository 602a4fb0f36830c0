"""The fusion path memo: runs served from memoized prefixes give the same
bytes as runs from an empty memo, a negative control still raises, and the
memo empties itself at its term limit."""

import json

import pytest

import wba.fusion as fusion
from wba.algebra import element_to_json
from wba.diagrams import Shape
from wba.errors import CancellationFailure
from wba.fusion import (
    DEFAULT_H,
    fusion_idempotent,
    fusion_with_minimal_prefactor,
    h_is_generic,
    second_fusion_idempotent,
)
from wba.tableaux import enumerate_tableaux, exponents

SHAPES = [
    pytest.param(Shape(r, n - r), id=f"{r},{n - r}", marks=[pytest.mark.slow] if n > 5 else [])
    for n in range(1, 7)
    for r in range(n + 1)
]


def runs(t):
    """Every memoized procedure on t, each as a function to its JSON text."""

    def minimal():
        e, diag = fusion_with_minimal_prefactor(t)
        return [element_to_json(e), [list(step) for step in diag.steps], diag.matches_idempotent]

    out = [lambda: element_to_json(fusion_idempotent(t)), minimal]
    if h_is_generic(t.shape, t.contents(), DEFAULT_H):
        out += [
            lambda: element_to_json(second_fusion_idempotent(t)),
            lambda: element_to_json(second_fusion_idempotent(t, mirror=True)),
        ]
    return [lambda run=run: json.dumps(run()) for run in out]


def cold_results(tableaux) -> list:
    """Each procedure on each tableau, with the memo emptied before each call."""
    out = []
    for t in tableaux:
        for run in runs(t):
            fusion._PATHS.clear()
            out.append(run())
    return out


def warm_results(tableaux) -> list:
    return [run() for t in tableaux for run in runs(t)]


@pytest.mark.parametrize("shape", SHAPES)
def test_warm_and_cold_memos_give_the_same_bytes(fresh_paths, shape):
    tableaux = enumerate_tableaux(shape)
    cold = cold_results(tableaux)
    fusion._PATHS.clear()
    filling = warm_results(tableaux)  # shares the prefixes fused so far
    warm = warm_results(tableaux)  # every prefix memoized
    assert filling == cold
    assert warm == cold


@pytest.mark.parametrize("shape", [Shape(2, 2), Shape(3, 1), Shape(2, 3)])
def test_a_negative_control_raises_after_its_path_is_memoized(fresh_paths, monkeypatch, shape):
    steps = []
    evaluate = fusion._evaluate_step_info

    def counted(*args):
        steps.append(None)
        return evaluate(*args)

    monkeypatch.setattr(fusion, "_evaluate_step_info", counted)
    controls = 0
    for t in enumerate_tableaux(shape):
        p = exponents(t)
        if 1 not in p:
            continue
        fusion_with_minimal_prefactor(t)
        steps.clear()
        fusion_with_minimal_prefactor(t)
        # the whole run and its reference are memoized; only the leftover
        # prefactor's n steps with no factors run again
        assert len(steps) == shape.n
        for _ in range(2):
            with pytest.raises(CancellationFailure):
                fusion_with_minimal_prefactor(t, override_exponents={p.index(1) + 1: 0})
        controls += 1
    assert controls


def test_a_small_limit_empties_the_memo_and_keeps_the_results(fresh_paths, monkeypatch):
    # every (2,3) element has at most 120 terms, so each entry fits
    limit = 256
    tableaux = enumerate_tableaux(Shape(2, 3))
    want = cold_results(tableaux)
    monkeypatch.setattr(fusion, "_PATH_MEMO_TERMS", limit)
    memo = fusion._PATHS
    memo.clear()
    clears = 0
    got = []
    for _ in range(2):
        for t in tableaux:
            for run in runs(t):
                held = len(memo)
                got.append(run())
                clears += len(memo) < held
                assert memo.terms == sum(len(e.terms) for e, _ in memo.values()) <= limit
    assert clears > 0
    assert got == want + want


def test_a_fused_element_refuses_mutation_and_the_memo_keeps_it(fresh_paths):
    # the memo hands out the element it keeps, so a caller that could empty
    # it would empty every later fusion of the path in the process
    t = enumerate_tableaux(Shape(2, 1))[0]
    e = fusion_idempotent(t)
    want = json.dumps(element_to_json(e))
    d = next(iter(e.terms))
    with pytest.raises(AttributeError):
        e.terms.clear()
    with pytest.raises(TypeError):
        e.terms[d] = e.terms[d] + 1
    with pytest.raises(TypeError):
        del e.terms[d]
    for field in ("shape", "terms"):
        with pytest.raises(AttributeError):
            setattr(e, field, getattr(e, field))
        with pytest.raises(AttributeError):
            delattr(e, field)
    again = fusion_idempotent(t)
    assert again.terms and json.dumps(element_to_json(again)) == want
