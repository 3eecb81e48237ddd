"""Vertices and group elements are tuples: hashes, reprs, validation and the
unchecked constructors of the tree maps and ``encode``."""

import pickle
from dataclasses import dataclass
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dl_harmonics.dl_graph import DLVertex
from dl_harmonics.lamplighter import GroupElement, encode
from dl_harmonics.tree import (
    OMEGA,
    ROOT,
    TreeEnd,
    TreeVertex,
    confluent_omega,
    confluent_omega_end,
    confluent_root,
    predecessor,
    shift,
    successor,
)


# The frozen dataclasses these types replaced, as a reference for their hashes.
@dataclass(frozen=True)
class OldTreeVertex:
    level: int
    labels: tuple = ()


@dataclass(frozen=True)
class OldDLVertex:
    x1: object
    x2: object


@dataclass(frozen=True)
class OldGroupElement:
    eta: tuple = ()
    k: int = 0


V = TreeVertex(2, ((-1, 1), (2, 2)))
W = TreeVertex(-2, ((-3, 1),))


def test_hashes_are_the_field_tuple_hashes_of_the_old_dataclasses():
    for level, labels in ((0, ()), (2, ((-1, 1), (2, 2))), (-2, ((-3, 1),))):
        v = TreeVertex(level, labels)
        assert hash(v) == hash((level, labels)) == hash(OldTreeVertex(level, labels))
    assert hash(DLVertex(V, W)) == hash((V, W))
    assert hash(DLVertex(V, W)) == hash(
        OldDLVertex(OldTreeVertex(*V), OldTreeVertex(*W))
    )
    eta = ((-1, 2), (3, 1))
    assert hash(GroupElement(eta, 4)) == hash((eta, 4)) == hash(OldGroupElement(eta, 4))


def test_reprs_name_the_fields():
    assert repr(V) == "TreeVertex(level=2, labels=((-1, 1), (2, 2)))"
    assert repr(DLVertex(ROOT, W)) == (
        "DLVertex(x1=TreeVertex(level=0, labels=()), "
        "x2=TreeVertex(level=-2, labels=((-3, 1),)))"
    )
    assert repr(GroupElement(((0, 1),), -1)) == "GroupElement(eta=((0, 1),), k=-1)"
    assert GroupElement() == GroupElement((), 0)
    assert TreeVertex(3) == TreeVertex(3, ())


def test_vertices_are_their_field_tuples():
    assert TreeVertex(0, ()) == (0, ())
    assert DLVertex(ROOT, ROOT) == ((0, ()), (0, ()))
    assert GroupElement(((1, 1),), 2) == (((1, 1),), 2)
    assert (V.level, V.labels) == tuple(V)
    assert pickle.loads(pickle.dumps(DLVertex(V, W))) == DLVertex(V, W)
    assert type(pickle.loads(pickle.dumps(V))) is TreeVertex


@pytest.mark.parametrize(
    "level, labels, message",
    [
        (0, ((0, 0),), "zero labels must not be stored"),
        (0, ((1, 1),), "label key 1 above vertex level 0"),
        (2, ((1, 1), (0, 1)), "strictly increasing"),
        (2, ((1, 1), (1, 2)), "strictly increasing"),
    ],
)
def test_direct_construction_rejects_non_canonical_labels(level, labels, message):
    with pytest.raises(ValueError, match=message):
        TreeVertex(level, labels)


def test_types_never_compare_equal_across_each_other():
    values = [
        ROOT,
        TreeVertex(1, ((1, 1),)),
        TreeEnd.word({}),
        TreeEnd.word({1: 1}),
        OMEGA,
        DLVertex(ROOT, ROOT),
        GroupElement(),
        GroupElement(((0, 1),), 0),
    ]
    for a, b in combinations(values, 2):
        if type(a) is not type(b):
            assert a != b and not a == b
    assert len(set(values)) == len(values)


def test_direct_construction_validates_through_post_init(monkeypatch):
    assert "__post_init__" in TreeVertex.__dict__
    calls = []
    original = TreeVertex.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(TreeVertex, "__post_init__", counted)
    v = TreeVertex(1, ((1, 1),))
    TreeVertex.make(0, {-1: 1})
    assert len(calls) == 2
    # the tree maps and ``encode`` build through the unchecked constructor
    successor(v, 1, 2), predecessor(v), shift(v, 3), confluent_omega(v, ROOT)
    encode(GroupElement(((0, 1), (2, 1)), 1))
    assert len(calls) == 2


@st.composite
def vertices(draw, q):
    level = draw(st.integers(-6, 6))
    keys = draw(st.sets(st.integers(level - 8, level), max_size=6))
    return TreeVertex.make(level, {j: draw(st.integers(0, q - 1)) for j in keys})


@st.composite
def cases(draw):
    q = draw(st.sampled_from((2, 3)))
    a, b = draw(vertices(q)), draw(vertices(q))
    keys = draw(st.sets(st.integers(-9, 9), max_size=5))
    word = TreeEnd.word({j: draw(st.integers(1, q - 1)) for j in keys})
    # the second end shares a's word, so confluents sit high on its ray
    return q, a, b, [OMEGA, TreeEnd.word(a.labels), word], draw(st.integers(-4, 4))


def assert_canonical(v):
    assert type(v) is TreeVertex
    assert v == TreeVertex.make(v.level, v.labels)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_unchecked_tree_maps_build_canonical_vertices(case):
    q, a, b, ends, m = case
    for label in range(q):
        assert_canonical(successor(a, label, q))
    assert_canonical(predecessor(a))
    assert_canonical(shift(a, m))
    assert_canonical(confluent_omega(a, b))
    for xi in ends:
        if not xi.is_omega:
            assert_canonical(confluent_omega_end(a, xi))
        assert_canonical(confluent_root(a, xi))


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(-8, 8), st.integers(0, 3), max_size=8),
    st.integers(-6, 6),
)
def test_encode_builds_canonical_coordinates(lamps, k):
    v = encode(GroupElement.make(lamps, k))
    assert type(v) is DLVertex
    assert_canonical(v.x1)
    assert_canonical(v.x2)
    assert v.x1.level + v.x2.level == 0
