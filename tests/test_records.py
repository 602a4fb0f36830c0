"""The package's record classes: plain `__slots__` classes with the value
semantics of dataclasses.  Each is equal to an
instance built separately from equal values, and then hashes equal where it
is hashable; the immutable ones refuse assignment; a default list or dict is
fresh for every instance."""

import pytest

from wba.diagrams import CompositionResult, Shape, identity
from wba.errors import IndexOutOfRange
from wba.fusion import MinimalDiagnostics, MinimalStep
from wba.tableaux import (
    Bipartition,
    Partition,
    bratteli,
    enumerate_tableaux,
    parse_tableau,
    triple_tableau,
)
from wba.verify import CertReport, TableauCert

S22 = Shape(2, 2)
GOLDEN_SPEC = "L+1,1;L+2,1;L-2,1;L-1,1"


def golden():
    return parse_tableau(GOLDEN_SPEC, Shape(2, 2))


# name -> (build, others, immutable, defaults): build() makes a fresh
# instance from fresh values, others() values that differ from it; defaults
# names the fields whose default is a fresh list or dict
RECORDS = {
    "Shape": (lambda: Shape(r=2, s=1), lambda: [Shape(2, 2), Shape(1, 1), (2, 1)], True, ()),
    "CompositionResult": (
        lambda: CompositionResult(identity(S22), loops=1),
        lambda: [CompositionResult(identity(S22), 0)],
        True,
        (),
    ),
    "Partition": (lambda: Partition([2, 1]), lambda: [Partition((3,))], True, ()),
    "Bipartition": (
        lambda: Bipartition(Partition((1,)), right=Partition((1,))),
        lambda: [Bipartition(Partition((1,))), Bipartition(right=Partition((1,)))],
        True,
        (),
    ),
    "WalledTableau": (golden, lambda: [enumerate_tableaux(S22)[0]], True, ()),
    "TripleTableau": (
        lambda: triple_tableau(golden()),
        lambda: [triple_tableau(enumerate_tableaux(S22)[0])],
        True,
        (),
    ),
    "BratteliGraph": (lambda: bratteli(S22), lambda: [bratteli(Shape(2, 1))], False, ()),
    "MinimalStep": (
        lambda: MinimalStep(3, exponent=1, pole_order=2), lambda: [MinimalStep(3, 0, 2)], False, (),
    ),
    "MinimalDiagnostics": (
        lambda: MinimalDiagnostics(), lambda: [MinimalDiagnostics(result_is_zero=True)], False,
        ("steps",),
    ),
    "TableauCert": (
        lambda: TableauCert("L+1,1", True, True, True, interp_agrees=None),
        lambda: [TableauCert("L+1,1", True, True, False)],
        False,
        (),
    ),
    "CertReport": (
        lambda: CertReport(2, 2),
        lambda: [CertReport(2, 2, orthogonal=False)],
        False,
        ("tableaux", "orthogonality_failures", "timings"),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    build, others, immutable, defaults = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name and not hasattr(a, "__dict__")
    assert a is not b and a == b and not a != b
    for other in others():
        assert a != other and not a == other
    if immutable:
        assert hash(a) == hash(b)
        field = type(a).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
    for field in defaults:
        value = getattr(a, field)
        assert not value and value is not getattr(b, field)
        if isinstance(value, list):
            value.append(None)
        else:
            value["key"] = None
        assert not getattr(build(), field)


def test_record_validation_and_reprs():
    with pytest.raises(IndexOutOfRange):
        Shape(r=-1, s=0)
    with pytest.raises(IndexOutOfRange):
        Partition((1, 2))
    assert repr(Shape(1, 1)) == "Shape(r=1, s=1)"
    assert repr(MinimalStep(3, 1, 2)) == "MinimalStep(k=3, exponent=1, pole_order=2)"
    assert repr(CompositionResult(identity(Shape(1, 1)), 0)) == (
        "CompositionResult(diagram=WalledDiagram(1,1,[1, 2]), loops=0)"
    )
    assert repr(golden()) == "WalledTableau(2,2,'L+1,1;L+2,1;L-2,1;L-1,1')"
