"""Scalars and diagrams are interned: equal values are one object, so both
classes hash and compare by identity.  These tests pin that invariant, the
identity hash itself, and copies and pickles that come back interned."""

import copy
import itertools
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wba.scalars as scalars
from wba.diagrams import Shape, WalledDiagram, all_diagrams, identity, make_diagram, s_pair
from wba.fusion import fusion_idempotent
from wba.scalars import DELTA, ONE, ZERO, DeltaScalar, affine, parse_scalar, pmul, pscale
from wba.tableaux import parse_tableau

S22 = Shape(2, 2)
GOLDEN_SPEC = "L+1,1;L+2,1;L-2,1;L-1,1"
FRACTIONS = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]


def _routes(a: Fraction, b: Fraction, x: DeltaScalar):
    """The scalar a + b*d, which x holds, built every other way."""
    yield DeltaScalar.poly((a, b))
    yield DeltaScalar.from_fraction(a) + DeltaScalar.from_fraction(b) * DELTA
    yield parse_scalar(f"{a} + ({b})*d")
    yield DeltaScalar.make(pscale(x.num, -6), pscale(x.den, -6))
    yield DeltaScalar.make(pmul(x.num, (2, 1)), pmul(x.den, (2, 1)))
    yield x * DELTA / DELTA
    yield (x - 1) + 1
    yield -(-x)
    yield x * 2 / 2
    if x is not ZERO:
        yield (x / (DELTA - 1)) * (DELTA - 1)
        yield x.inverse().inverse()
    if b == 0 and a.denominator == 1:
        yield DeltaScalar.from_int(int(a))


@pytest.mark.parametrize("limit", [None, 2], ids=["default-limit", "memos-clear"])
def test_equal_scalars_are_one_object(monkeypatch, limit):
    if limit is not None:
        monkeypatch.setattr(scalars, "_CACHE_LIMIT", limit)
        for memo in ("_ADD", "_MUL", "_NEG", "_INV"):
            monkeypatch.setattr(scalars, memo, {})
    for a, b in itertools.product(FRACTIONS, repeat=2):
        x = affine(a, b)
        for route, y in enumerate(_routes(a, b, x)):
            assert y is x, (a, b, route)
    if limit is not None:
        assert len(scalars._MUL) <= limit + 1 and len(scalars._ADD) <= limit + 1


def test_equal_diagrams_are_one_object():
    for d in all_diagrams(S22):
        assert make_diagram(S22, list(d.img)) is d
        assert make_diagram(Shape(2, 2), d.img) is d


def test_interned_classes_hash_by_identity():
    # a Python-level __hash__ would put a function call back into every dict
    # lookup of the product loop
    for cls in (DeltaScalar, WalledDiagram):
        assert cls.__hash__ is object.__hash__
        assert "_hash" not in cls.__slots__
    assert DELTA == DeltaScalar.make((0, 2), (2,)) and DELTA != ONE
    assert DeltaScalar.from_int(1) == 1 and ONE == Fraction(1) and ONE != 2


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_returns_the_interned_object(protocol):
    values = [ZERO, ONE, (DELTA**2 - 3) / (2 * DELTA + 1), s_pair(S22, 1, 2), identity(S22)]
    for x in values:
        assert pickle.loads(pickle.dumps(x, protocol)) is x
    # the text a scalar keeps comes back with the interned object
    for x in ((DELTA**3 - 7) / (5 * DELTA + 2), (DELTA - 5) / (3 * DELTA**2)):
        text = scalars._render(x.num, x.den)
        assert str(pickle.loads(pickle.dumps(x, protocol))) == text == str(x)
    shape = pickle.loads(pickle.dumps(Shape(3, 1), protocol))
    assert shape == Shape(3, 1) and hash(shape) == hash(Shape(3, 1))


def test_copies_return_the_interned_object():
    for x in ((DELTA - 1) / 3, s_pair(S22, 3, 4)):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
    x = (DELTA**2 + 11) / (DELTA - 4)
    assert str(copy.deepcopy(x)) == "(d^2+11)/(d-4)" == str(copy.copy(x)) == str(x)
    assert copy.deepcopy(S22) == S22 and copy.copy(S22) == S22


def test_copied_idempotent_equals_the_original():
    e = fusion_idempotent(parse_tableau(GOLDEN_SPEC, S22))
    for c in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert c == e
        pairs = zip(c.terms.items(), e.terms.items())
        assert all(d is d0 and v is v0 for (d, v), (d0, v0) in pairs)
        assert c * c == e


# each command runs twice: under different hash seeds, and once after
# allocating throwaway objects, so that every interned object lands at
# another address
_FRESH_PROCESS = """
import runpy, sys
junk = [[None] * (i % 7) for i in range(int(sys.argv[1]))]
del junk[::3]
sys.argv = ["wba", *sys.argv[2:]]
runpy.run_module("wba.cli", run_name="__main__")
"""


def _stdout(argv, hash_seed, junk):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, str(junk), *argv],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(hash_seed)),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _without_timings(out: bytes) -> bytes:
    out = re.sub(rb'"timings": \{[^}]*\}', b'"timings": {}', out)
    return re.sub(rb'"seconds": [0-9.e+-]+', b'"seconds": 0', out)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "2", "2", "--suite", "all", "--seed", "7"],
        ["idempotent", "2", "2", "--tableau", GOLDEN_SPEC, "--check"],
    ],
    ids=["verify-all", "idempotent-check"],
)
def test_output_does_not_depend_on_addresses_or_hash_seed(argv):
    first = _without_timings(_stdout(argv, 0, 0))
    second = _without_timings(_stdout(argv, 4242, 100_000))
    assert first and first == second
