"""The package's records against the dataclasses they replace.

Every record derives from :class:`sqlinear.arrangement.Record`. Each test
compares one feature with the frozen dataclass of the same name and fields,
which ``dataclasses`` builds here as the reference.
"""

import copy
import dataclasses
import importlib
import pickle
from fractions import Fraction

import pytest

from sqlinear import catalog
from sqlinear.arrangement import Arrangement, CharacteristicPolynomial, KernelComplement, Record, Region, SignVector
from sqlinear.errors import AnchorNotUnique, RankDeficient, ValidationError

MODULES = ("arrangement", "model", "geometry", "degeneration", "dpp", "mle")
# The records whose constructor checks or converts its arguments.
CHECKED = ("Arrangement", "SquaredLinearModel", "TropicalData", "DPPModel")


def records():
    for name in MODULES:
        importlib.import_module(f"sqlinear.{name}")
    found, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo += cls.__subclasses__()
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


def twin(cls):
    """The frozen dataclass ``cls`` replaces: same name and fields."""
    return dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)


PLAIN = [cls for cls in records() if cls.__name__ not in CHECKED]


def test_every_layer_has_its_records():
    assert len(records()) == 22
    assert {cls.__module__.rsplit(".", 1)[1] for cls in records()} == set(MODULES)
    for cls in records():
        assert cls.__slots__ and cls.__dictoffset__ == 0, cls  # the fields are slots, and there is no __dict__


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_eq_hash_and_repr_match_the_dataclass(cls):
    values = tuple(range(len(cls.__slots__)))
    record, reference = cls(*values), twin(cls)(*values)
    assert repr(record) == repr(reference)
    assert hash(record) == hash(reference) == hash(values)
    assert record == cls(*values) and record != cls(*values[:-1], -1)
    assert record != reference and record != values


def test_equality_only_within_a_class():
    # Same field tuple, other class: unequal, as with dataclasses, though the hashes agree.
    assert KernelComplement((1, 2)) != CharacteristicPolynomial((1, 2))
    assert hash(KernelComplement((1, 2))) == hash(CharacteristicPolynomial((1, 2)))
    assert (KernelComplement((1, 2)) == CharacteristicPolynomial((1, 2))) is False
    assert KernelComplement((1, 2)).__eq__(CharacteristicPolynomial((1, 2))) is NotImplemented


@pytest.mark.parametrize("name", ["Region", "TropicalPoint", "CriticalPoint"])  # own __init__s, and Record's
def test_construction_by_position_or_keyword(name):
    cls = next(cls for cls in records() if cls.__name__ == name)
    names, values = cls.__slots__, tuple(range(1, len(cls.__slots__) + 1))
    first, rest = names[0], dict(zip(names[1:], values[1:]))
    record = cls(*values)
    assert cls(**dict(zip(names, values))) == cls(values[0], **rest) == record
    assert tuple(getattr(record, field) for field in names) == values
    for args, kwargs in [
        (values[:-1], {}),  # the last field missing
        (values + (0,), {}),  # one field too many
        (values[:-1], {first: 1}),  # the first field twice, the last missing
        ((), rest),  # the first field missing
        (values, {"other": 3}),  # an unknown field
    ]:
        with pytest.raises(TypeError, match=name):
            cls(*args, **kwargs)


@pytest.mark.parametrize("name, action", [("assign to", setattr), ("delete", delattr)])
def test_frozen_records_refuse_assignment(name, action):
    region = Region(SignVector((1,)), (1,))
    reference = twin(Region)(region.sign, region.ray)
    args = ("ray", ()) if action is setattr else ("ray",)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot {name} field 'ray'") as expected:
        action(reference, *args)
    with pytest.raises(AttributeError, match=str(expected.value)):
        action(region, *args)
    # The witness is read off the ray, and cannot be set or deleted either.
    with pytest.raises(AttributeError, match=f"cannot {name} field 'witness'"):
        action(region, *(("witness", (Fraction(1),)) if action is setattr else ("witness",)))
    assert region.ray == (1,) and region.witness == (Fraction(1),)
    # So does the solve's result, the last record that assigned.
    from sqlinear.mle import SolveAllResult

    result = SolveAllResult([], 0, [])
    with pytest.raises(AttributeError, match=f"cannot {name} field 'failures'"):
        action(result, *(("failures", None) if action is setattr else ("failures",)))
    assert result.failures == []


def test_region_holds_its_ray_and_reads_the_witness_off_it():
    sign = SignVector((1, -1, 1))
    region = Region(sign, (4, -6, 3))
    assert region == Region(sign=sign, ray=(4, -6, 3)) != Region(sign, (2, -3, 3))
    assert hash(region) == hash((sign, (4, -6, 3)))
    assert repr(region) == "Region(sign=SignVector(signs=(1, -1, 1)), ray=(4, -6, 3))"
    assert region.witness == (Fraction(2, 3), Fraction(-1), Fraction(1, 2))
    clone = pickle.loads(pickle.dumps(region))
    assert clone == region and clone.ray == (4, -6, 3) and clone.witness == region.witness
    assert "witness" not in Region.__slots__ and pickle.dumps(region) == pickle.dumps(clone)


def test_defaults():
    assert Arrangement(((1, 0), (0, 1))).labels is None


def test_validation_runs_at_construction():
    from sqlinear.degeneration import TropicalData
    from sqlinear.dpp import DPPModel
    from sqlinear.model import SquaredLinearModel, make_model

    with pytest.raises(RankDeficient, match="row 1 of the coefficient matrix is zero"):
        Arrangement(((1, 0), (0, 0)))
    with pytest.raises(RankDeficient, match="labels must match"):
        Arrangement(((1, 0), (0, 1)), labels=("a",))
    square = Arrangement(((1, 0), (0, 1)))
    with pytest.raises(RankDeficient, match="model needs n > d > 1, got n = 2, d = 2"):
        SquaredLinearModel(square, KernelComplement(()))
    with pytest.raises(AnchorNotUnique, match="minimum of w attained at states"):
        TropicalData((0, 0, 1), 0)
    with pytest.raises(ValidationError, match="need k < n"):
        DPPModel(((1, 2, 3),), 3, 3)
    # Checks normalize what they store, as __post_init__ did.
    assert Arrangement(((1, 0), (0, 1)), labels=[1, 2]).labels == ("1", "2")
    assert TropicalData(("1/2", 1, 2), 0).w == (Fraction(1, 2), Fraction(1), Fraction(2))
    model = make_model(catalog.steiner_arrangement())
    assert SquaredLinearModel(model.arr, model.B) == model


@pytest.mark.parametrize("make", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(make):
    from sqlinear.arrangement import enumerate_regions

    arrangement = Arrangement(catalog.steiner_arrangement().A, labels=("a", "b", "c", "d"))
    region = enumerate_regions(arrangement)[0]
    for record in (region, arrangement):
        clone = make(record)
        assert type(clone) is type(record) and clone == record and hash(clone) == hash(record)
