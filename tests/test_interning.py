"""Scalars, diagrams, shapes, partitions and bipartitions are interned:
equal values are one object, so these classes hash and compare by identity.
These tests pin that invariant, the identity hash itself, copies and pickles
that come back interned, values that refuse mutation, and the sweep that
drops the scalars nothing else holds."""

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

import wba.diagrams as diagrams
import wba.scalars as scalars
import wba.tableaux as tableaux
import wba.verify as verify
from wba.algebra import AlgebraElement, jm_element
from wba.diagrams import Shape, WalledDiagram, all_diagrams, identity, make_diagram, s_pair
from wba.errors import IndexOutOfRange
from wba.fusion import DEFAULT_H, fusion_idempotent
from wba.scalars import DELTA, ONE, ZERO, DeltaScalar, affine, parse_scalar, pmul, pscale
from wba.tableaux import (
    Bipartition,
    Partition,
    WalledTableau,
    bratteli,
    enumerate_tableaux,
    parse_tableau,
)
from tableau_oracles import triple_tableau

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


def _sweep_often(monkeypatch):
    """A sweep of the scalar table at every doubling over 8 entries, for the
    test; the floor and the survivor count come back after it."""
    monkeypatch.setattr(scalars, "_SWEEP_FLOOR", 8)
    monkeypatch.setattr(scalars, "_survivors", 0)


@pytest.mark.parametrize(
    "limit, sweeps", [(None, False), (2, False), (None, True)],
    ids=["default-limit", "memos-clear", "table-sweeps"],
)
def test_equal_scalars_are_one_object(monkeypatch, limit, sweeps):
    if limit is not None:
        monkeypatch.setattr(scalars, "_CACHE_LIMIT", limit)
        for memo in ("_ADD", "_MUL", "_NEG", "_INV"):
            monkeypatch.setattr(scalars, memo, {})
    if sweeps:
        _sweep_often(monkeypatch)
    for a, b in itertools.product(FRACTIONS, repeat=2):
        x = affine(a, b)
        if sweeps:
            scalars._sweep()
        for route, y in enumerate(_routes(a, b, x)):
            assert y is x, (a, b, route)
    if limit is not None:
        assert len(scalars._MUL) <= limit + 1 and len(scalars._ADD) <= limit + 1


def test_held_scalars_survive_a_sweep(monkeypatch):
    _sweep_often(monkeypatch)
    pickled = pickle.loads(pickle.dumps((DELTA**2 - 7919) / (3 * DELTA + 7907)))
    held = [ZERO, ONE, DELTA, DEFAULT_H, pickled]
    held += [(DELTA + k) / (DELTA - 7901 - k) for k in range(40)]
    texts = [str(x) for x in held]
    scalars._sweep()
    for x, text in zip(held, texts, strict=True):
        assert scalars._INTERN[x.num, x.den] is x
        assert DeltaScalar.make(x.num, x.den) is x and str(x) == text
    assert DeltaScalar.make(()) is ZERO and DeltaScalar.from_int(1) is ONE
    assert parse_scalar("d") is DELTA and affine(Fraction(1, 2), 3) is DEFAULT_H
    assert (DELTA**2 - 7919) / (3 * DELTA + 7907) is pickled
    assert pickle.loads(pickle.dumps(pickled)) is pickled


def test_a_sweep_drops_unreferenced_scalars_and_empties_the_memos(monkeypatch):
    _sweep_often(monkeypatch)
    keys = []
    for k in range(40):
        x = (DELTA**2 + 7877 + k) / (DELTA - 7873)
        keys.append((x.num, x.den))
        keys.append(((-x).num, (-x).den))
        assert x * x / x is x
    del x
    scalars._sweep()
    assert not [key for key in keys if key in scalars._INTERN]
    assert not (scalars._ADD or scalars._MUL or scalars._NEG or scalars._INV)
    assert scalars._survivors == len(scalars._INTERN)


def test_mirror_products_leave_a_small_table(fresh_paths):
    # in a fresh process, a table that is never swept ends with 3 889
    # scalars, and one swept at the default floor with 335.  The bound counts
    # from the scalars earlier tests left alive, which the forced sweep keeps
    scalars._sweep()
    alive = len(scalars._INTERN)
    verify.check_mirror_products(Shape(4, 1), 0)
    assert len(scalars._INTERN) - alive < 2048


@pytest.mark.slow
def test_fusing_every_seven_site_tableau_leaves_a_small_table(fresh_paths):
    # the 232 tableaux, about 9 s; in a fresh process, a table that is never
    # swept ends with 66 024 scalars and a 67 MiB peak, a swept one with
    # 6 865 and 34 MiB
    import resource

    scalars._sweep()
    for t in enumerate_tableaux(Shape(3, 4)):
        fusion_idempotent(t)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"(3,4): {len(scalars._INTERN)} scalars interned, ru_maxrss {peak} (KiB on Linux)")
    assert len(scalars._INTERN) < 20_000


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
    assert DeltaScalar.from_int(1) != 1 and ONE != Fraction(1) and ONE != 2


def test_a_scalar_equals_only_itself():
    assert DeltaScalar.__eq__ is object.__eq__ and DeltaScalar.__hash__ is object.__hash__
    assert not {"__eq__", "__ne__", "__hash__"} & set(vars(DeltaScalar))
    # equal to no number, so it cannot be a dict key equal to one while
    # hashing apart from it
    assert 1 not in {ONE} and ZERO != 0 and DELTA != Fraction(1)
    # and a comparison with a number coerces and interns nothing
    size = len(scalars._INTERN)
    assert ONE != 10**40 and affine(2) != Fraction(7, 3) and not (DELTA == 10**40 + 1)
    assert len(scalars._INTERN) == size
    # numbers still enter Q(d) through arithmetic
    x = (DELTA - 2) / (DELTA + 5)
    assert x + 1 is x + ONE and 1 - x is ONE - x and 2 * x is x * affine(2)
    assert x / Fraction(2, 3) is x * affine(Fraction(3, 2)) and 1 / x is x.inverse()
    assert DELTA - DELTA is ZERO and str(x + Fraction(1, 2)) == "(3*d+1)/(2*d+10)"


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


def test_equal_shapes_partitions_and_bipartitions_are_one_object():
    p, q = Partition((2, 1)), Partition((1,))
    assert Shape(2, 1) is Shape(r=2, s=1)
    assert Partition((2, 1)) is Partition([2, 1]) is p
    assert Bipartition(p, q) is Bipartition(left=p, right=q)
    assert Bipartition() is Bipartition(Partition(), Partition(()))
    for cls in (Shape, Partition, Bipartition):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__
        assert not {"__eq__", "__ne__", "__hash__"} & set(vars(cls))
        assert "_hash" not in cls.__slots__
    assert not hasattr(diagrams, "_stored_hash")


def test_invalid_values_raise_and_are_not_interned():
    shapes, parts = dict(diagrams._SHAPES), dict(tableaux._PARTITIONS)
    for bad in ((-1, 0), (0, -1)):
        with pytest.raises(IndexOutOfRange):
            Shape(*bad)
    for bad in ((1, 2), (2, 0), (-1,)):
        with pytest.raises(IndexOutOfRange):
            Partition(bad)
    # a float would be the r of every later shape of that value
    with pytest.raises(TypeError):
        Shape(2.0, 1)
    bipartitions = dict(tableaux._BIPARTITIONS)
    with pytest.raises(TypeError):
        Bipartition((1,), Partition())
    assert diagrams._SHAPES == shapes and tableaux._PARTITIONS == parts
    assert tableaux._BIPARTITIONS == bipartitions
    assert Shape(True, 1) is Shape(1, 1) and type(Shape(True, 1).r) is int


def test_partition_parts_must_be_integers():
    # int() would read 2.5 as 2 and "3" as 3, and intern nothing new for them
    parts = dict(tableaux._PARTITIONS)
    for bad in ((2.5, 1.9), ("3",), (2.0,)):
        with pytest.raises(TypeError):
            Partition(bad)
    assert tableaux._PARTITIONS == parts
    assert Partition((True,)) is Partition((1,)) and type(Partition((True,)).parts[0]) is int


def _interned_values():
    p = Partition((3, 1))
    return [(DELTA - 2) / (DELTA + 5), s_pair(S22, 1, 2), Shape(4, 1), p,
            Bipartition(p, Partition((1, 1)))]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_interned_class_pickles_to_the_interned_object(protocol):
    for x in _interned_values():
        assert pickle.loads(pickle.dumps(x, protocol)) is x


def test_every_interned_class_copies_to_the_interned_object():
    for x in _interned_values():
        assert copy.copy(x) is x and copy.deepcopy(x) is x


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_tableaux_and_their_records_pickle_and_copy(clone):
    t = parse_tableau(GOLDEN_SPEC, S22)
    c = clone(t)
    assert c == t and hash(c) == hash(t)
    assert all(x is y for x, y in zip(c.steps, t.steps, strict=True))
    assert clone(triple_tableau(t)) == triple_tableau(t)
    graph = bratteli(S22)
    g = clone(graph)
    assert g.shape is S22 and g.levels == graph.levels and g.edges == graph.edges


def _values():
    """One instance of each immutable value class."""
    t = parse_tableau(GOLDEN_SPEC, S22)
    return [DELTA / 3, s_pair(S22, 1, 2), S22, t.left_shape, t.final, t, jm_element(S22, 3)]


def test_values_refuse_assignment_and_deletion():
    classes = {DeltaScalar, WalledDiagram, Shape, Partition, Bipartition, WalledTableau,
               AlgebraElement}
    values = _values()
    assert {type(x) for x in values} == classes
    # `del x.num` on an interned scalar would strip it from every element
    # that holds it
    for x in values:
        for field in type(x).__slots__:
            before = getattr(x, field)
            with pytest.raises(AttributeError):
                setattr(x, field, before)
            with pytest.raises(AttributeError):
                delattr(x, field)
            assert getattr(x, field) is before
        with pytest.raises(AttributeError):
            setattr(x, "other", None)


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
