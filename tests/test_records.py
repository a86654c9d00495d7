"""The library's records: equality, hashing, repr, immutability and copying.

Every record is a plain class on ``mat2._Record``.  Each case builds one
record by keyword and pins its repr to a literal, the repr the records had
as frozen dataclasses.
"""

import copy
import inspect
import pickle
import struct

import pytest

from bilin2 import (
    BilinearSystem,
    ControlPlan,
    Direction,
    FormClass,
    InvalidSystem,
    LineSetKind,
    LineUnion,
    Mat2,
    OracleReport,
    Reduction,
    StructureReport,
    SystemKind,
    TolerancePolicy,
    Vec2,
    Verdict,
    VerdictClass,
    plan_transfer,
)
from bilin2.mat2 import _Record
from bilin2.quadform import QuadraticForm

X_AXIS = Direction(Vec2(1.0, 0.0))
IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)

# (class, keyword arguments, repr, the keyword arguments of an unequal record)
CASES = [
    (TolerancePolicy, dict(abs_eps=1e-6, rel_eps=1e-8),
     "TolerancePolicy(abs_eps=1e-06, rel_eps=1e-08)",
     dict(abs_eps=1e-6, rel_eps=1e-9)),
    (Vec2, dict(x=1.5, y=-2),
     "Vec2(x=1.5, y=-2.0)",
     dict(x=1.5, y=2.0)),
    (Mat2, dict(a11=1, a12=2.0, a21=-0.0, a22=4.0),
     "Mat2(a11=1.0, a12=2.0, a21=-0.0, a22=4.0)",
     dict(a11=1.0, a12=2.0, a21=0.5, a22=4.0)),
    (Direction, dict(vector=Vec2(0.6, 0.8)),
     "Direction(vector=Vec2(x=0.6, y=0.8))",
     dict(vector=Vec2(0.8, 0.6))),
    (QuadraticForm, dict(a=1, b=-3.0, c=2.0),
     "QuadraticForm(a=1.0, b=-3.0, c=2.0)",
     dict(a=1.0, b=-3.0, c=2.5)),
    (LineUnion, dict(kind=LineSetKind.ONE_LINE, lines=(X_AXIS,)),
     "LineUnion(kind=<LineSetKind.ONE_LINE: 'one-line'>, "
     "lines=(Direction(vector=Vec2(x=1.0, y=0.0)),))",
     dict(kind=LineSetKind.ONE_LINE, lines=(Direction(Vec2(0.0, 1.0)),))),
    (StructureReport,
     dict(form_class=FormClass.UPPER_TRIANGULAR, transform=IDENTITY, transform_inv=IDENTITY,
          canonical_forms=(Mat2(1.0, 2.0, 0.0, 3.0),), common_eigenvector=X_AXIS),
     "StructureReport(form_class=<FormClass.UPPER_TRIANGULAR: 'upper-triangular'>, "
     "transform=Mat2(a11=1.0, a12=0.0, a21=0.0, a22=1.0), "
     "transform_inv=Mat2(a11=1.0, a12=0.0, a21=0.0, a22=1.0), "
     "canonical_forms=(Mat2(a11=1.0, a12=2.0, a21=0.0, a22=3.0),), "
     "common_eigenvector=Direction(vector=Vec2(x=1.0, y=0.0)))",
     dict(form_class=FormClass.UPPER_TRIANGULAR, transform=IDENTITY, transform_inv=IDENTITY,
          canonical_forms=(Mat2(1.0, 2.0, 0.0, 3.0),), common_eigenvector=None)),
    (BilinearSystem,
     dict(kind=SystemKind.WITH_DRIFT, drift=Mat2(0.0, -1.0, 1.0, 0.0),
          inputs=[Mat2(1.0, 0.0, 0.0, 0.0), Mat2(0.0, 0.0, 0.0, 1.0)],
          tol=TolerancePolicy(abs_eps=1e-9, rel_eps=1e-9)),
     "BilinearSystem(kind=<SystemKind.WITH_DRIFT: 'drift'>, "
     "drift=Mat2(a11=0.0, a12=-1.0, a21=1.0, a22=0.0), "
     "inputs=(Mat2(a11=1.0, a12=0.0, a21=0.0, a22=0.0), "
     "Mat2(a11=0.0, a12=0.0, a21=0.0, a22=1.0)), "
     "tol=TolerancePolicy(abs_eps=1e-09, rel_eps=1e-09))",
     dict(kind=SystemKind.WITH_DRIFT, drift=Mat2(0.0, -1.0, 1.0, 0.0),
          inputs=[Mat2(1.0, 0.0, 0.0, 0.0), Mat2(0.0, 0.0, 0.0, 1.0)],
          tol=TolerancePolicy(abs_eps=1e-9, rel_eps=1e-6))),
    (Reduction, dict(pinned_index=0, pinned_value=1.0, combined_indices=(1, 2),
                     combined_coeffs=(0.5, -0.5)),
     "Reduction(pinned_index=0, pinned_value=1.0, combined_indices=(1, 2), "
     "combined_coeffs=(0.5, -0.5))",
     dict(pinned_index=0, pinned_value=0.0, combined_indices=(1, 2),
          combined_coeffs=(0.5, -0.5))),
    (Verdict, dict(klass=VerdictClass.NEARLY_CONTROLLABLE,
                   excluded_initial=LineUnion(LineSetKind.ONE_LINE, (X_AXIS,)),
                   largest_region=None, structure=None, reduction=Reduction()),
     "Verdict(klass=<VerdictClass.NEARLY_CONTROLLABLE: 'nearly-controllable'>, "
     "excluded_initial=LineUnion(kind=<LineSetKind.ONE_LINE: 'one-line'>, "
     "lines=(Direction(vector=Vec2(x=1.0, y=0.0)),)), largest_region=None, structure=None, "
     "reduction=Reduction(pinned_index=None, pinned_value=0.0, combined_indices=None, "
     "combined_coeffs=None))",
     dict(klass=VerdictClass.CONTROLLABLE, excluded_initial=None,
          largest_region=None, structure=None, reduction=Reduction())),
    (ControlPlan, dict(steps=[[0, 0], (5, 16.0)], residual=1e-12),
     "ControlPlan(steps=((0.0, 0.0), (5.0, 16.0)), residual=1e-12)",
     dict(steps=[[0.0, 0.0], [5.0, 16.5]], residual=1e-12)),
    (OracleReport, dict(samples=(Vec2(1.0, 2.0), Vec2(-1.0, 0.5)), covariance_rank=2),
     "OracleReport(samples=(Vec2(x=1.0, y=2.0), Vec2(x=-1.0, y=0.5)), covariance_rank=2)",
     dict(samples=(Vec2(1.0, 2.0), Vec2(-1.0, 0.5)), covariance_rank=1)),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_record_is_covered():
    assert {case[0] for case in CASES} == set(_Record.__subclasses__())


@pytest.mark.parametrize("cls, kwargs, text, other", CASES, ids=IDS)
def test_record_is_built_by_keyword_and_prints_its_fields(cls, kwargs, text, other):
    record = cls(**kwargs)
    assert repr(record) == text
    assert list(inspect.signature(cls).parameters) == list(cls._fields)
    assert cls(*kwargs.values()) == record


@pytest.mark.parametrize("cls, kwargs, text, other", CASES, ids=IDS)
def test_record_equality_and_hash(cls, kwargs, text, other):
    record, twin, different = cls(**kwargs), cls(**kwargs), cls(**other)
    assert record == twin and hash(record) == hash(twin)
    assert record != different and not record == different
    # Equality holds within one class only, as it did for the dataclasses.
    assert record != tuple(getattr(record, name) for name in cls._fields)
    assert type("Sub", (cls,), {"__slots__": ()})(**kwargs) != record


def test_control_plan_residual_is_outside_equality_and_hash():
    plan = ControlPlan([[0.0, 0.0], [5.0, 16.0]], residual=1e-12)
    bare = ControlPlan([[0.0, 0.0], [5.0, 16.0]])
    assert plan == bare and hash(plan) == hash(bare)
    assert repr(bare) == "ControlPlan(steps=((0.0, 0.0), (5.0, 16.0)), residual=None)"


@pytest.mark.parametrize("cls, kwargs, text, other", CASES, ids=IDS)
def test_record_copies_and_pickles(cls, kwargs, text, other):
    record = cls(**kwargs)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == record and repr(twin) == text


def test_system_copies_and_pickles_through_its_constructor():
    """An analysed system copies and round-trips at its fresh size, with none
    of its memos; a pickle edited to dependent inputs is refused on loading."""
    def readme_system():
        return BilinearSystem(SystemKind.WITH_DRIFT, Mat2(0.0, -1.0, 1.0, 0.0),
                              (Mat2(1.0, -1.0, 0.0, 2.0), Mat2(0.0, 0.0, 1.0, 0.0)))

    system = readme_system()
    plan_transfer(system, Vec2(1.0, 1.0), Vec2(-11.0, -7.0))
    assert {"_verdict", "_effective", "_steering"} <= set(vars(system))
    twins = [copy.copy(system), copy.deepcopy(system)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(system, protocol)
        assert len(data) == len(pickle.dumps(readme_system(), protocol))
        twins.append(pickle.loads(data))
    for twin in twins:
        assert twin == system and set(vars(twin)) == set(BilinearSystem._fields)

    data = pickle.dumps(BilinearSystem(SystemKind.DRIFTLESS, None,
                                       (Mat2(1.0, 2.0, 3.0, 4.0), Mat2(2.0, 4.0, 6.0, 8.5))))
    edited = data.replace(struct.pack(">d", 8.5), struct.pack(">d", 8.0))   # B2 = 2 B1
    assert edited != data
    with pytest.raises(InvalidSystem):
        pickle.loads(edited)


@pytest.mark.parametrize("cls, kwargs, text, other", CASES, ids=IDS)
def test_record_refuses_assignment_and_deletion(cls, kwargs, text, other):
    record = cls(**kwargs)
    for name in cls._fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "unknown")
    assert repr(record) == text and record == cls(**kwargs)
