import numpy as np
import pytest

from qlatwit import bosonic, channels, criteria, optimize, qcore, spinchain
from qlatwit.qcore import HilbertSpace, ProductState, PureState, Record

# every value class of the package, by how it compares
FIELD_EQUAL = [
    qcore.HilbertSpace, bosonic.SiteFockSpace, bosonic.FockLatticeSpec, optimize.PulseParams,
    optimize.PulseSearchResult, criteria.Direction, criteria.CriterionReport,
    channels.DecoherenceModel, channels.LifetimeComparison, spinchain.ChainSpec,
    spinchain.ClusterSpec,
]
IDENTITY_EQUAL = [
    qcore.PureState, qcore.DensityMatrix, qcore.ProductState, qcore.LinearOperator,
    qcore.GroundState, criteria.MomentComparison,
]


class Point(Record):
    x: float
    y: float = 0.0
    label: str = "p"


class Box(Record, eq=False):
    width: float


class LabeledPoint(Point):
    note: str = ""


def test_positional_keyword_and_default_construction():
    p = Point(1.0, 2.0, "a")
    assert (p.x, p.y, p.label) == (1.0, 2.0, "a")
    p = Point(1.0, label="b")
    assert (p.x, p.y, p.label) == (1.0, 0.0, "b")
    assert Point(y=3.0, x=2.0) == Point(2.0, 3.0)
    assert Point._fields == ("x", "y", "label")
    assert LabeledPoint._fields == ("x", "y", "label", "note")
    assert LabeledPoint(1.0, note="n").note == "n"


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "missing required arguments: x"),
    ((1.0,), {"z": 2.0}, "unexpected keyword argument 'z'"),
    ((1.0,), {"x": 2.0}, "multiple values for argument 'x'"),
    ((1.0, 2.0, "a", "extra"), {}, "takes 3 arguments but 4 were given"),
])
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_assignment_and_deletion_raise():
    p = Point(1.0)
    with pytest.raises(AttributeError):
        p.x = 2.0
    with pytest.raises(AttributeError):
        p.other = 2.0
    with pytest.raises(AttributeError):
        del p.x
    space = HilbertSpace((2, 2))
    with pytest.raises(AttributeError):
        space.dims = (2,)
    assert p.x == 1.0 and space.dims == (2, 2)


def test_field_equality_and_hash():
    assert Point(1.0, 2.0) == Point(1.0, 2.0)
    assert Point(1.0, 2.0) != Point(1.0, 3.0)
    assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
    # a subclass with the same field values is a different value
    assert LabeledPoint(1.0) != Point(1.0)
    assert HilbertSpace((3, 3), "generic") == HilbertSpace(dims=(3, 3), kind="generic")
    assert {HilbertSpace((2, 2)): 1}[HilbertSpace((2, 2))] == 1
    assert spinchain.ChainSpec(4) == spinchain.ChainSpec(4) != spinchain.ChainSpec(5)
    # a list-valued field is stored as a tuple, so it compares and hashes alike
    assert HilbertSpace([2, 2]).dims == (2, 2)
    assert {HilbertSpace([2, 2]): 1}[HilbertSpace((2, 2))] == 1
    chain = spinchain.ChainSpec(2)
    assert {spinchain.ClusterSpec(chain, [1, -1]): 1}[spinchain.ClusterSpec(chain, (1, -1))] == 1


def test_identity_equality():
    a, b = Box(1.0), Box(1.0)
    assert a == a and a != b
    assert hash(a) != hash(b)
    space = HilbertSpace((2,))
    u, v = PureState(space, [1.0, 0.0]), PureState(space, [1.0, 0.0])
    assert u == u and u != v


@pytest.mark.parametrize("cls", FIELD_EQUAL + IDENTITY_EQUAL, ids=lambda c: c.__name__)
def test_package_value_classes_are_records(cls):
    assert issubclass(cls, Record)
    assert (cls.__eq__ is object.__eq__) == (cls in IDENTITY_EQUAL)


def test_repr():
    assert repr(Point(1.0, label="q")) == "Point(x=1.0, y=0.0, label='q')"
    assert repr(HilbertSpace((2, 2))) == "HilbertSpace(dims=(2, 2), kind='qubit', fock_cutoff=None)"
    assert repr(spinchain.ChainSpec(3)) == "ChainSpec(n_sites=3)"


def test_post_init_validates_and_may_set_attributes():
    with pytest.raises(ValueError, match="qubit spaces"):
        HilbertSpace((3,))
    state = PureState(HilbertSpace((2,)), [1, 0])
    assert state.amplitudes.dtype == np.complex128 and not state.amplitudes.flags.writeable
    product = ProductState((state, state))
    assert product.space == HilbertSpace((2, 2))
    assert ProductState._fields == ("blocks",)


def test_patched_post_init_runs_on_construction(monkeypatch):
    calls = []
    original = PureState.__post_init__
    monkeypatch.setattr(PureState, "__post_init__", lambda self: calls.append(self) or original(self))
    state = PureState(HilbertSpace((2,)), [0, 1])
    assert calls == [state]
