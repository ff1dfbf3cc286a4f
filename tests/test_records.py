"""The package's record types behave as frozen dataclasses did: each field in
declaration order, ``repr`` as ``Name(field=value, ...)``, ``==`` within one
class, ``hash`` over the field tuple, no assignment or deletion, positional
and keyword construction with the same defaults, and class patterns by
position and by keyword."""

from fractions import Fraction

import pytest

from homalg import (
    AntipodeResult,
    ComulTensor,
    DefectReport,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    LinearMap,
    LinearSolution,
    MulTensor,
    Vector,
    Witness,
)
from homalg.cli import Flag
from homalg.coalgebra import AdmissibilityReport
from homalg.polysolve import GroebnerResult
from homalg.structio import RegistryEntry
from homalg.tensors import Fields, Perm3

ONE = [[[1]]]
UNITAL = HomAlgebra(MulTensor(ONE), LinearMap([[1]]), Vector([1]))
COUNITAL = HomCoalgebra(ComulTensor(ONE), LinearMap([[1]]), Vector([1]))
# the ground field as a Hom-Hopf algebra: its identity map is the antipode
FIELD = HomBialgebra(UNITAL, COUNITAL)
TENSORS = {
    "mu": "MulTensor((((Fraction(1, 1),),),))",
    "delta": "ComulTensor((((Fraction(1, 1),),),))",
    "id": "LinearMap(((Fraction(1, 1),),))",
    "one": "Vector((Fraction(1, 1),))",
}
ALGEBRA = "HomAlgebra(mul={mu}, alpha={id}, unit={one})".format(**TENSORS)
COALGEBRA = "HomCoalgebra(comul={delta}, beta={id}, counit={one})".format(**TENSORS)

# (class, positional arguments, how many trailing ones are the defaults, repr)
RECORDS = [
    (Perm3, ("(12)", (2, 1, 3), -1), 0, "Perm3(name='(12)', images=(2, 1, 3), sign=-1)"),
    (Flag, ("unital", None, ""), 1, "Flag(check='unital', value=None, skip_reason='')"),
    (LinearSolution, ((Fraction(1, 2),), ((Fraction(1), Fraction(-1)),)), 0,
     "LinearSolution(particular=(Fraction(1, 2),), kernel=((Fraction(1, 1), Fraction(-1, 1)),))"),
    (GroebnerResult, ("ok", (), (), "lex", 0, None), 1,
     "GroebnerResult(status='ok', basis=(), cofactors=(), order='lex', pairs_processed=0, "
     "cap=None)"),
    (RegistryEntry, ("e", "algebra", ("a1",), (("a2", Fraction(1)),), "d", dict), 0,
     "RegistryEntry(name='e', kind='algebra', required=('a1',), "
     "defaults=(('a2', Fraction(1, 1)),), description='d', builder=<class 'dict'>)"),
    (AntipodeResult, ("none", None, 0, None, None, None), 0,
     "AntipodeResult(status='none', antipode=None, kernel_dim=0, hopf=None, unit_fixed=None, "
     "counit_compatible=None)"),
    (AdmissibilityReport,
     (DefectReport("cyclic", ()), DefectReport("alternating", (Witness((0,), Fraction(1, 2)),))),
     0, "AdmissibilityReport(cyclic=DefectReport(check='cyclic', witnesses=()), "
     "alternating=DefectReport(check='alternating', "
     "witnesses=(Witness(indices=(0,), value=Fraction(1, 2), label=''),)))"),
    (HomAlgebra, (MulTensor(ONE), LinearMap([[1]]), None), 1,
     "HomAlgebra(mul={mu}, alpha={id}, unit=None)".format(**TENSORS)),
    (HomCoalgebra, (ComulTensor(ONE), LinearMap([[1]]), None), 1,
     "HomCoalgebra(comul={delta}, beta={id}, counit=None)".format(**TENSORS)),
    (HomBialgebra, (UNITAL, COUNITAL), 0,
     f"HomBialgebra(algebra={ALGEBRA}, coalgebra={COALGEBRA})"),
    (HomHopf, (FIELD, LinearMap([[1]])), 0,
     f"HomHopf(bialgebra=HomBialgebra(algebra={ALGEBRA}, coalgebra={COALGEBRA}), "
     f"antipode={TENSORS['id']})"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def names(cls) -> tuple[str, ...]:
    return tuple(cls.__annotations__)


@pytest.mark.parametrize("cls, args, defaults, text", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, args, defaults, text):
    assert repr(cls(*args)) == text
    assert cls.__match_args__ == names(cls) and len(names(cls)) == len(args)


@pytest.mark.parametrize("cls, args, defaults, text", RECORDS, ids=IDS)
def test_equality_and_hash_read_the_fields_within_one_class(cls, args, defaults, text):
    record, again = cls(*args), cls(*args)
    assert record == again and record is not again and not record != again
    assert hash(record) == hash(again) == hash(args)
    assert len({record, again}) == 1
    # a class with the same fields and constructor is another record type
    twin = type("Twin", (Fields,), {"__annotations__": dict(cls.__annotations__),
                                   "__init__": cls.__init__})(*args)
    assert record != twin and twin != record and not record == twin
    assert record != args and record.__eq__(twin) is NotImplemented


@pytest.mark.parametrize("cls, args, defaults, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, defaults, text):
    record = cls(*args)
    for name in names(cls):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in names(cls)) == args


@pytest.mark.parametrize("cls, args, defaults, text", RECORDS, ids=IDS)
def test_construction_by_position_keyword_and_default(cls, args, defaults, text):
    record = cls(*args)
    assert cls(**dict(zip(names(cls), args))) == record
    assert cls(*args[:len(args) - defaults]) == record
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[:len(args) - defaults - 1])


def by_pattern(record) -> tuple:
    """The fields a class pattern captures, all but the last by position."""
    match record:
        case Perm3(name, images, sign=sign):
            return name, images, sign
        case Flag(check, value, skip_reason=reason):
            return check, value, reason
        case LinearSolution(particular, kernel=kernel):
            return particular, kernel
        case GroebnerResult(status, basis, cofactors, order, pairs, cap=cap):
            return status, basis, cofactors, order, pairs, cap
        case RegistryEntry(name, kind, required, defaults, description, builder=builder):
            return name, kind, required, defaults, description, builder
        case AntipodeResult(status, antipode, kernel_dim, hopf, fixed, counit_compatible=comp):
            return status, antipode, kernel_dim, hopf, fixed, comp
        case AdmissibilityReport(cyclic, alternating=alternating):
            return cyclic, alternating
        case HomAlgebra(mul, alpha, unit=unit):
            return mul, alpha, unit
        case HomCoalgebra(comul, beta, counit=counit):
            return comul, beta, counit
        case HomBialgebra(algebra, coalgebra=coalgebra):
            return algebra, coalgebra
        case HomHopf(bialgebra, antipode=antipode):
            return bialgebra, antipode
    return ()


@pytest.mark.parametrize("cls, args, defaults, text", RECORDS, ids=IDS)
def test_class_patterns_match_by_position_and_keyword(cls, args, defaults, text):
    assert by_pattern(cls(*args)) == args
    # a record is no sequence, so a sequence pattern of its length misses it
    match cls(*args):
        case (_, _) | (_, _, _) | (_, _, _, _, _, _):
            pytest.fail("a record matched a sequence pattern")


def test_cached_properties_live_beside_the_frozen_fields():
    bialgebra = HomBialgebra(HomAlgebra(MulTensor(ONE), LinearMap([[1]]), Vector([1])),
                             HomCoalgebra(ComulTensor(ONE), LinearMap([[1]]), Vector([1])))
    assert bialgebra.weak_defects is bialgebra.weak_defects
    assert bialgebra == FIELD and hash(bialgebra) == hash(FIELD)
