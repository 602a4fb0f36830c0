"""The package's record classes.  Each value class, hand-written or a
NamedTuple, is equal and hashes equal to an instance built separately from
equal values, and refuses assignment and deletion.  The report builders are
plain `__slots__` classes filled in place."""

import pytest

from wba.diagrams import CompositionResult, Shape, identity
from wba.errors import IndexOutOfRange
from wba.fusion import MinimalDiagnostics, MinimalStep
from wba.scalars import ONE
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


# name -> (build, others): build() makes a fresh instance from fresh values,
# others() values that differ from it; others is None for a report builder,
# which has no value equality
RECORDS = {
    "Shape": (lambda: Shape(r=2, s=1), lambda: [Shape(2, 2), Shape(1, 1), (2, 1)]),
    "CompositionResult": (
        lambda: CompositionResult(identity(S22), loops=1),
        lambda: [CompositionResult(identity(S22), 0)],
    ),
    "Partition": (lambda: Partition([2, 1]), lambda: [Partition((3,))]),
    "Bipartition": (
        lambda: Bipartition(Partition((1,)), right=Partition((1,))),
        lambda: [Bipartition(Partition((1,))), Bipartition(right=Partition((1,)))],
    ),
    "WalledTableau": (golden, lambda: [enumerate_tableaux(S22)[0]]),
    "TripleTableau": (
        lambda: triple_tableau(golden()),
        lambda: [triple_tableau(enumerate_tableaux(S22)[0])],
    ),
    "BratteliGraph": (lambda: bratteli(S22), None),
    "MinimalStep": (
        lambda: MinimalStep(3, exponent=1, pole_order=2), lambda: [MinimalStep(3, 0, 2)],
    ),
    "MinimalDiagnostics": (
        lambda: MinimalDiagnostics((MinimalStep(2, 0, 1),), False, ONE, True),
        lambda: [MinimalDiagnostics((MinimalStep(2, 0, 1),), True, ONE, True)],
    ),
    "TableauCert": (
        lambda: TableauCert("L+1,1", True, True, True, None, None, None),
        lambda: [TableauCert("L+1,1", True, True, False, None, None, None)],
    ),
    "CertReport": (lambda: CertReport(2, 2), None),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    build, others = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name and not hasattr(a, "__dict__")
    if others is None:
        return
    assert a is not b and a == b and not a != b
    for other in others():
        assert a != other and not a == other
    assert hash(a) == hash(b)
    field = (getattr(type(a), "_fields", None) or type(a).__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


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
