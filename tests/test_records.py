"""Value semantics of the record classes, which share one constructor
over their `__slots__` instead of having methods generated
(`groupoidal.records`)."""

from inspect import signature

import pytest

import groupoidal
from groupoidal.groupoids import Nerve, ValidationReport
from groupoidal.limits import ColimitElement, DivisibilityResult, EqualityResult, Lim1Report
from groupoidal.records import FrozenRecord, Record
from groupoidal.skew import ZCocycle
from groupoidal.zlinalg import FgAbGroup, IntMatrix, SnfDecomposition


def _package_records(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith(groupoidal.__name__ + "."):
            yield sub
        yield from _package_records(sub)


RECORDS = sorted(set(_package_records()) - {FrozenRecord},
                 key=lambda c: (c.__module__, c.__qualname__))
# the records that check or normalise their fields, with valid field values
OWN_CONSTRUCTOR = {FgAbGroup: (1, (2, 4)), ColimitElement: (2, (1, 3))}


def test_only_the_checking_records_write_a_constructor():
    assert len(RECORDS) >= 19
    assert {c for c in RECORDS if c.__init__ is not Record.__init__} == set(OWN_CONSTRUCTOR)


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__qualname__ for c in RECORDS])
def test_every_record_takes_its_slots_as_arguments(cls):
    names = cls.__slots__
    values = OWN_CONSTRUCTOR.get(cls) or tuple(object() for _ in names)
    by_name = dict(zip(names, values))
    made = cls(*values)
    assert made == cls(**by_name) == cls(*values[:1], **dict(list(by_name.items())[1:]))
    assert tuple(getattr(made, name) for name in names) == values
    if cls in OWN_CONSTRUCTOR:
        defaults = {p.name: p.default for p in signature(cls).parameters.values()
                    if p.default is not p.empty}
    else:
        defaults = cls.defaults
    for name, default in defaults.items():
        left_out = cls(**{n: v for n, v in by_name.items() if n != name})
        assert getattr(left_out, name) == default
    required = [n for n in names if n not in defaults]
    if required:
        with pytest.raises(TypeError, match=required[-1]):
            cls(**{n: v for n, v in by_name.items() if n != required[-1]})
    with pytest.raises(TypeError, match="unlisted"):
        cls(*values, unlisted=1)
    with pytest.raises(TypeError, match=names[0]):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[0])


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
