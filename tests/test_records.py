"""Value semantics of the record classes, which write their constructors
out instead of having them generated (`groupoidal.records`)."""

import pytest

from groupoidal.groupoids import Nerve, ValidationReport
from groupoidal.limits import ColimitElement, DivisibilityResult, EqualityResult, Lim1Report
from groupoidal.skew import ZCocycle
from groupoidal.zlinalg import FgAbGroup, IntMatrix, SnfDecomposition


# each frozen class with a constructor call and the name of one field
FROZEN = [
    (FgAbGroup, lambda: FgAbGroup(1, (2, 4)), "torsion"),
    (ValidationReport, lambda: ValidationReport(False, "associativity", (1, 2, 3)), "ok"),
    (Nerve, lambda: Nerve(1, ((0,), (1,)), {(0,): 0, (1,): 1}), "tuples"),
    (ZCocycle, lambda: ZCocycle((0, 1, -1)), "values"),
    (ColimitElement, lambda: ColimitElement(2, (1, 3)), "vector"),
    (EqualityResult, lambda: EqualityResult("not_equal_up_to", 7, exact=False), "kind"),
    (DivisibilityResult, lambda: DivisibilityResult("witness", 2, (1,)), "vector"),
    (SnfDecomposition, lambda: SnfDecomposition(*(IntMatrix.identity(2) for _ in range(5))), "S"),
]


@pytest.mark.parametrize("cls, make, name", FROZEN, ids=[c.__name__ for c, _, _ in FROZEN])
def test_frozen_records_are_values(cls, make, name):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls is SnfDecomposition:
        # its fields are IntMatrix, which compares by value and is unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.unlisted = 1
    assert a == b


def test_frozen_records_differ_field_by_field():
    assert FgAbGroup(1, (2,)) != FgAbGroup(1, (4,))
    assert FgAbGroup(1) != FgAbGroup(2)
    assert EqualityResult("equal", 1) != EqualityResult("equal", 2)
    assert EqualityResult("equal", 1) != DivisibilityResult("equal", 1)
    assert ColimitElement(0, (1,)) != (0, (1,))
    assert ValidationReport(True) != ValidationReport(True, "x")


def test_fg_ab_group_keeps_its_checks_and_normalisation():
    with pytest.raises(ValueError):
        FgAbGroup(-1)
    with pytest.raises(ValueError):
        FgAbGroup(0, (3, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    g = FgAbGroup(torsion=[2, 4])
    assert g.torsion == (2, 4) and type(g.torsion) is tuple
    assert g == FgAbGroup(0, (2, 4)) and FgAbGroup() == FgAbGroup.trivial()
    assert ColimitElement(1, [True, 2]).vector == (1, 2)


def test_defaults_keywords_and_repr():
    assert EqualityResult("equal") == EqualityResult(kind="equal", stage=None, exact=True)
    assert DivisibilityResult("no", exact=False).vector is None
    assert repr(FgAbGroup(1, (2,))) == "FgAbGroup(free_rank=1, torsion=(2,))"
    assert repr(ValidationReport(True)) == "ValidationReport(ok=True, axiom=None, witness=None)"
    # the string index is left out of a nerve's repr
    assert repr(Nerve(0, ((0,),), {(0,): 0})) == "Nerve(degree=0, tuples=((0,),))"


def test_mutable_records_compare_by_field_and_are_unhashable():
    a = Lim1Report(2, [], True, [], thread_rank=4)
    b = Lim1Report(2, [], ml_certificate=True, nonml_stages=[], thread_rank=4)
    assert a == b
    b.thread_rank = 5
    assert a != b
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        Lim1Report(2, [], True, [])
