"""The value records of every module: repr, equality, hashing, immutability, keywords, validation."""

import copy
import math
import pickle

import numpy as np
import pytest

from apollonius.diophantine import IntTriple
from apollonius.fourpoint import FourConfig, Geometry, Witness
from apollonius.halfplane import (
    AngleResidual,
    AxisPoint,
    GeometryError,
    HPoint,
    OrderingError,
)
from apollonius.locus import (
    AxisCircle,
    Curve,
    EuclideanLocus,
    HorizontalLine,
    QuarticCoeffs,
    TripleConfig,
)
from apollonius.probability import HyperProbSetup, ProbEstimate

from _geodesics import Arc, VerticalRay

NAN = math.nan
EUCLID, HYPER = Geometry.EUCLIDEAN, Geometry.HYPERBOLIC

# each value record, built twice from equal values, with its repr
RECORDS = [
    (lambda: HPoint(1, 2.5), "HPoint(x=1.0, y=2.5)"),
    (lambda: AxisPoint(3), "AxisPoint(h=3.0)"),
    # the test reference's geodesics, which the frozen witness path builds
    (lambda: VerticalRay(0.5), "VerticalRay(x0=0.5)"),
    (lambda: Arc(-1.5, 2.0), "Arc(center=-1.5, radius=2.0)"),
    (lambda: AngleResidual(-0.25), "AngleResidual(value=-0.25)"),
    (lambda: TripleConfig(4, 2, 1), "TripleConfig(a=4.0, b=2.0, c=1.0)"),
    (lambda: QuarticCoeffs(-9.0, 0.0, 64.0), "QuarticCoeffs(alpha=-9.0, beta=0.0, gamma=64.0)"),
    (lambda: HorizontalLine(3.0), "HorizontalLine(height=3.0)"),
    (lambda: AxisCircle(2.5, 1.5), "AxisCircle(center_y=2.5, radius=1.5)"),
    (
        lambda: FourConfig(10, 6, 5, 1, HYPER),
        "FourConfig(a=10.0, b=6.0, c=5.0, d=1.0, geometry=<Geometry.HYPERBOLIC: 'hyper'>)",
    ),
    (lambda: Witness(1.0, 2.0, (1e-12, -0.0)), "Witness(x=1.0, y=2.0, residuals=(1e-12, -0.0))"),
    (lambda: IntTriple(7, -5, 1), "IntTriple(a=7, b=-5, c=1)"),
    (lambda: ProbEstimate(0.5, 0.25, 4, 7), "ProbEstimate(mean=0.5, stderr=0.25, n=4, seed=7)"),
    (lambda: HyperProbSetup(2.0), "HyperProbSetup(ratio=2.0)"),
]
RECORD_IDS = [text.split("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("make,text", RECORDS, ids=RECORD_IDS)
class TestValueRecord:
    def test_repr(self, make, text):
        assert repr(make()) == text

    def test_equal_values_compare_and_hash_equal(self, make, text):
        first, second = make(), make()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_never_equals_another_type(self, make, text):
        record = make()
        assert record.__eq__(object()) is NotImplemented
        assert record != tuple(getattr(record, name) for name in vars(record))

    def test_fields_cannot_be_assigned_or_deleted(self, make, text):
        record = make()
        for name in vars(record):
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 1


@pytest.mark.parametrize("make,text", RECORDS, ids=RECORD_IDS)
def test_copies_and_pickles_equal_the_original(make, text):
    record = make()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is type(record)


def test_records_differ_by_value():
    assert HPoint(1, 2) != HPoint(1, 3)
    assert hash(TripleConfig(4, 2, 1)) != hash(TripleConfig(4, 3, 1))
    assert FourConfig(4, 3, 2, 1, EUCLID) != FourConfig(4, 3, 2, 1, HYPER)
    assert len({IntTriple(3, 2, 1), IntTriple(3, 2, 1), IntTriple(1, 2, 3)}) == 2


def test_records_of_one_shape_but_different_types_differ():
    assert HorizontalLine(1.0) != AngleResidual(1.0)
    assert IntTriple(3, 2, 1) != TripleConfig(3, 2, 1)
    assert TripleConfig(3, 2, 1) != QuarticCoeffs(3.0, 2.0, 1.0)


def test_keyword_construction():
    assert HorizontalLine(height=3.0) == HorizontalLine(3.0)
    assert AxisCircle(center_y=2.5, radius=1.5) == AxisCircle(2.5, 1.5)
    assert ProbEstimate(mean=0.5, stderr=0.25, n=4, seed=7) == ProbEstimate(0.5, 0.25, 4, 7)
    assert HPoint(x=1.0, y=2.0) == HPoint(1.0, 2.0)
    assert FourConfig(a=4, b=3, c=2, d=1, geometry=EUCLID) == FourConfig(4, 3, 2, 1, EUCLID)
    assert Witness(x=1.0, y=2.0, residuals=(0.0, 0.0)) == Witness(1.0, 2.0, (0.0, 0.0))


def test_unconverted_fields_keep_their_type():
    assert type(HorizontalLine(1).height) is int
    assert type(AxisCircle(0, 1).radius) is int
    assert type(HPoint(1, 2).x) is float
    assert type(FourConfig(4, 3, 2, 1, EUCLID).d) is float


def _curve(y: float = 1.0) -> Curve:
    column = np.array([0.5])
    return Curve(column, column, column, np.array([y]), np.array([0]))


class TestCurve:
    def test_compares_and_hashes_by_identity(self):
        first, second = _curve(), _curve()
        assert first == first and first != second
        assert hash(first) == object.__hash__(first)
        assert len({first, second}) == 2

    def test_repr_lists_the_columns(self):
        column = np.array([0.5])
        curve = _curve()
        assert repr(curve) == (
            f"Curve(theta={column!r}, r={column!r}, x={column!r}, y={np.array([1.0])!r}, rank={np.array([0])!r})"
        )

    def test_is_frozen(self):
        curve = _curve()
        with pytest.raises(AttributeError):
            curve.theta = np.array([1.0])
        with pytest.raises(AttributeError):
            del curve.rank

    def test_rejects_points_off_the_half_plane(self):
        with pytest.raises(GeometryError, match=r"^curve points require y > 0, got y=-1\.0$"):
            _curve(-1.0)
        with pytest.raises(GeometryError, match=r"^curve points must have finite x and y$"):
            _curve(NAN)


def test_union_aliases_hold_their_members():
    assert isinstance(HorizontalLine(1.0), EuclideanLocus)
    assert isinstance(AxisCircle(1.0, 1.0), EuclideanLocus)


# invalid inputs: the exception's exact class and message, which name the
# first failing check in the order the constructor makes them
INVALID = [
    (lambda: HPoint(NAN, -1.0), GeometryError, "x must be finite, got nan"),
    (lambda: HPoint(NAN, math.inf), GeometryError, "x must be finite, got nan"),
    (lambda: HPoint(1.0, math.inf), GeometryError, "y must be finite, got inf"),
    (lambda: HPoint(NAN, "y"), ValueError, "could not convert string to float: 'y'"),
    (lambda: HPoint(1.0, 0), GeometryError, "HPoint requires y > 0, got y=0.0"),
    (lambda: AxisPoint(-math.inf), GeometryError, "h must be finite, got -inf"),
    (lambda: AxisPoint(0), GeometryError, "AxisPoint requires h > 0, got 0.0"),
    (lambda: Arc(0.0, 0), GeometryError, "Arc radius must be positive, got 0"),
    (lambda: Arc(0.0, NAN), GeometryError, "Arc radius must be positive, got nan"),
    (lambda: TripleConfig(NAN, "b", 1), GeometryError, "a must be finite, got nan"),
    (lambda: TripleConfig(4, NAN, -1), GeometryError, "b must be finite, got nan"),
    (lambda: TripleConfig("a", NAN, 1), ValueError, "could not convert string to float: 'a'"),
    (lambda: TripleConfig(1, 2, 3), OrderingError, "heights must satisfy a > b > c > 0, got (1.0, 2.0, 3.0)"),
    (lambda: TripleConfig(2, 1, 0), OrderingError, "heights must satisfy a > b > c > 0, got (2.0, 1.0, 0.0)"),
    (lambda: AxisCircle(1.0, -1), GeometryError, "circle radius must be positive, got -1"),
    (
        lambda: FourConfig(1, 2, NAN, -1, HYPER),
        GeometryError,
        "heights must be finite, got (1.0, 2.0, nan, -1.0)",
    ),
    (
        lambda: FourConfig(4, 3, 3, -1, HYPER),
        OrderingError,
        "heights must satisfy a > b > c > d, got (4.0, 3.0, 3.0, -1.0)",
    ),
    (lambda: FourConfig(4, 3, 2, -1, HYPER), GeometryError, "hyperbolic heights must be positive, got d=-1.0"),
    (lambda: FourConfig(4, 3, 2, 0, HYPER), GeometryError, "hyperbolic heights must be positive, got d=0.0"),
    (lambda: Witness(1.0, 1.0, (NAN, 0.0)), GeometryError, "witness residual nan exceeds 1e-08"),
    (lambda: Witness(1.0, 1.0, (0.0, -2e-8)), GeometryError, "witness residual 2.000e-08 exceeds 1e-08"),
    (lambda: Witness(1.0, 1.0, (0.0, NAN)), GeometryError, "witness residual nan exceeds 1e-08"),
    (lambda: HyperProbSetup(1.0), GeometryError, "ratio must be finite and > 1, got 1.0"),
    (lambda: HyperProbSetup(math.inf), GeometryError, "ratio must be finite and > 1, got inf"),
]


@pytest.mark.parametrize("make,error,message", INVALID, ids=[m for _, _, m in INVALID])
def test_invalid_input_names_the_first_failing_check(make, error, message):
    with pytest.raises(Exception) as caught:
        make()
    assert type(caught.value) is error
    assert str(caught.value) == message
