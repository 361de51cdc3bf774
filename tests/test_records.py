"""The value records of the package: built by keyword, immutable, with the
same repr they have always printed, and normalized on construction."""

import pytest

from sncdegen.degeneration import (
    CheckResult,
    DegenerationSpec,
    LocalModelSpec,
    VerificationReport,
)
from sncdegen.grothring import L, ONE
from sncdegen.toriclat import ChartPresentation, Coordinate, FiberCheck

ROW = CheckResult(name="semistable fiber", passed=True, detail="ok")
CHART_COORDS = (Coordinate("t", (0, 1)), Coordinate("y", (1, -1)), Coordinate("z1", (1, 0)))

# (record type, keyword arguments, the repr it prints)
RECORDS = [
    (LocalModelSpec, dict(n=2, k=2), "LocalModelSpec(n=2, k=2)"),
    (DegenerationSpec, dict(n=3, d=4), "DegenerationSpec(n=3, d=4)"),
    (CheckResult, dict(name="semistable fiber", passed=True, detail="ok"),
     "CheckResult(name='semistable fiber', passed=True, detail='ok')"),
    (VerificationReport,
     dict(model=LocalModelSpec(n=1, k=1), checks=(ROW,),
          fiber_class_before=L, fiber_class_after=L - ONE),
     "VerificationReport(model=LocalModelSpec(n=1, k=1), checks=(CheckResult("
     "name='semistable fiber', passed=True, detail='ok'),), "
     "fiber_class_before=GrothClass([0, 1]), fiber_class_after=GrothClass([-1, 1]))"),
    (FiberCheck, dict(reduced=True, smooth=False), "FiberCheck(reduced=True, smooth=False)"),
    (Coordinate, dict(name="z1", monomial=(1, 0)), "Coordinate(name='z1', monomial=(1, 0))"),
    (ChartPresentation, dict(coordinates=CHART_COORDS, relation=((0, 1), (2,))),
     "ChartPresentation(coordinates=(Coordinate(name='t', monomial=(0, 1)), "
     "Coordinate(name='y', monomial=(1, -1)), Coordinate(name='z1', monomial=(1, 0))), "
     "relation=((0, 1), (2,)))"),
]


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_builds_by_keyword_and_is_frozen(cls, kwargs, text):
    record = cls(**kwargs)
    assert {name: getattr(record, name) for name in kwargs} == kwargs
    assert record == cls(*kwargs.values())
    assert repr(record) == text
    for name in [*kwargs, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_records_normalize_their_sequences():
    assert Coordinate("z", [1, 0]).monomial == (1, 0)
    assert type(Coordinate("z", [1, 0]).monomial) is tuple
    with pytest.raises(TypeError):
        Coordinate("z", [1.0, 0])
    chart = ChartPresentation(list(CHART_COORDS), relation=([0, 1], [2]))
    assert chart.coordinates == CHART_COORDS and chart.relation == ((0, 1), (2,))
    assert ChartPresentation(CHART_COORDS).relation is None
    report = VerificationReport(model=DegenerationSpec(n=2, d=3), checks=[ROW],
                                fiber_class_before=L, fiber_class_after=L)
    assert report.checks == (ROW,) and report.passed


@pytest.mark.parametrize("coords, relation, message", [
    ((), None, "at least one coordinate"),
    ((Coordinate("a", (1, 0)), Coordinate("b", (1,))), None, "ambient rank"),
    (CHART_COORDS, ((0, 3), (2,)), "out of range"),
    (CHART_COORDS, ((0,), (2,)), "not a lattice identity"),
])
def test_chart_presentation_checks_its_relation(coords, relation, message):
    with pytest.raises(ValueError, match=message):
        ChartPresentation(coords, relation)
