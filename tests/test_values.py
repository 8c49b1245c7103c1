"""The package's value types, each held to a ``@dataclass(frozen=True)`` twin.

The value types are plain classes on one immutable base.  Each twin is a
frozen dataclass with the same name, fields and defaults, declared here from
its own table rather than read from the class under test, and it referees
the repr, equality, hash, immutability, copying, keyword construction,
defaults and positional ``match`` of the real class.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import field, make_dataclass

import pytest

from treeabel import (
    Branch,
    Classification,
    ComparisonReport,
    Component,
    CurveTree,
    DivisorRep,
    GenSpec,
    Multidegree,
    Node,
    NodePoint,
    Polarization,
    SmoothPoint,
    StabilityVerdict,
    Subcurve,
    Tail,
    TwistDelta,
    ValidationReport,
)

TREE = CurveTree.build([("A", 2), ("B", 2)], [("n", "A", "B")])
OTHER_TREE = CurveTree.build([("A", 3), ("B", 1)], [("n", "A", "B")])
TAIL_A, TAIL_B = Tail("n", Subcurve(1)), Tail("n", Subcurve(2))
MD_A, MD_B = Multidegree((1, 0)), Multidegree((0, 1))
REP_A = DivisorRep(((SmoothPoint("A", "p"), 1),))
REP_B = DivisorRep(((Branch("n", "A"), -1), (Branch("n", "B"), 1)))

# class, its fields in declaration order, the fields' defaults, and two
# instances' field values that differ
SPECS = [
    (ValidationReport, "violations", {"violations": ()}, (("bad",),), (("worse",),)),
    (Component, "id genus", {}, ("A", 1), ("A", 2)),
    (Node, "id ends", {}, ("n", ("A", "B")), ("m", ("A", "B"))),
    (Subcurve, "mask", {}, (1,), (2,)),
    (Tail, "node side", {}, ("n", Subcurve(1)), ("n", Subcurve(2))),
    (Multidegree, "degrees", {}, ((1, 0),), ((0, 1),)),
    (CurveTree, "components nodes", {}, (TREE.components, TREE.nodes),
     (OTHER_TREE.components, OTHER_TREE.nodes)),
    (Classification, "central semicentral in_delta_half principal", {},
     (("A",), ("A",), False, "A"), ((), ("A", "B"), True, "A")),
    (SmoothPoint, "component label", {}, ("A", "p"), ("A", "q")),
    (NodePoint, "node", {}, ("n",), ("m",)),
    (Branch, "node component", {}, ("n", "A"), ("n", "B")),
    (DivisorRep, "coeffs", {"coeffs": ()}, (REP_A.coeffs,), (REP_B.coeffs,)),
    (TwistDelta, "tail multidegree divisor", {}, (TAIL_A, MD_A, REP_A), (TAIL_B, MD_B, REP_B)),
    (StabilityVerdict, "semistable witnesses", {"witnesses": ()},
     (True, ()), (False, ((Subcurve(1), "upper"),))),
    (Polarization, "tree d", {}, (TREE, 2), (TREE, 3)),
    (ComparisonReport, "x1 x2 y1 y2 eta ok e1_sequence e2_sequence", {},
     ("A", "B", TAIL_B, TAIL_A, (1, 0), True, (MD_A,), (MD_B,)),
     ("A", "B", TAIL_B, TAIL_A, (1, 1), True, (MD_A,), (MD_A,))),
    (GenSpec, "genus max_components seed force_delta_half", {"force_delta_half": False},
     (4, 3, 1, False), (4, 3, 2, True)),
]
IDS = [spec[0].__name__ for spec in SPECS]


def twin(cls, names: str, defaults: dict):
    """The frozen dataclass the class must behave as."""
    return make_dataclass(
        cls.__name__,
        [
            (name, object, field(default=defaults[name])) if name in defaults else (name, object)
            for name in names.split()
        ],
        frozen=True,
    )


def test_every_public_value_type_is_refereed():
    import treeabel
    from treeabel.curves import _Value

    public = {getattr(treeabel, name) for name in treeabel.__all__}
    values = {obj for obj in public if isinstance(obj, type) and issubclass(obj, _Value)}
    assert values == {spec[0] for spec in SPECS}
    assert len(values) == 17


@pytest.mark.parametrize("cls, names, defaults, a, b", SPECS, ids=IDS)
class TestAgainstTwin:
    def test_repr(self, cls, names, defaults, a, b):
        ref = twin(cls, names, defaults)
        for values in (a, b):
            assert repr(cls(*values)) == repr(ref(*values))

    def test_equality_and_hash(self, cls, names, defaults, a, b):
        ref = twin(cls, names, defaults)
        x, y, z = cls(*a), cls(*a), cls(*b)
        assert (x == y, x != y, x == z, x != z) == (True, False, False, True)
        assert (x == y, x != z) == (ref(*a) == ref(*a), ref(*a) != ref(*b))
        assert hash(x) == hash(y) == hash(a) == hash(ref(*a))
        # equal only to instances of the same class
        assert x != ref(*a) and x != a and x != object()

    def test_fields_cannot_be_set_or_deleted(self, cls, names, defaults, a, b):
        x = cls(*a)
        for name in [*names.split(), "extra"]:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        for name in names.split():
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == cls(*a)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trips(self, cls, names, defaults, a, b, round_trip):
        x = cls(*a)
        y = round_trip(x)
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)

    def test_keywords_and_defaults(self, cls, names, defaults, a, b):
        ref = twin(cls, names, defaults)
        fields = names.split()
        assert cls(**dict(zip(fields, a))) == cls(*a)
        required = a[: len(fields) - len(defaults)]
        assert repr(cls(*required)) == repr(ref(*required))
        for name, default in defaults.items():
            assert getattr(cls(*required), name) == default

    def test_positional_match(self, cls, names, defaults, a, b):
        assert cls.__match_args__ == twin(cls, names, defaults).__match_args__
        Pattern.cls = cls
        match cls(*a):
            case Pattern.cls(first):
                assert first == a[0]
            case _:
                pytest.fail("no match on the first field")
        if len(a) > 1:
            match cls(*a):
                case Pattern.cls(first, second):
                    assert (first, second) == a[:2]
                case _:
                    pytest.fail("no match on the first two fields")


class Pattern:
    """Holds the class a pattern matches, since class patterns take dotted names."""

    cls: type = object


def test_a_smooth_point_is_not_a_branch_with_the_same_fields():
    point, branch = SmoothPoint("A", "B"), Branch("A", "B")
    assert point != branch and hash(point) == hash(branch)
    assert len({point: 1, branch: 2}) == 2


def test_a_tree_compares_on_its_components_and_nodes_only():
    indexed = CurveTree(TREE.components, TREE.nodes)
    assert indexed.tails and "tails" in indexed.__dict__
    fresh = CurveTree(TREE.components, TREE.nodes)
    assert "tails" not in fresh.__dict__
    assert indexed == fresh and hash(indexed) == hash(fresh) and repr(indexed) == repr(fresh)
