import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dl_harmonics.tree import (
    OMEGA,
    ROOT,
    TreeEnd,
    TreeVertex,
    busemann_wrt_end,
    confluent_omega,
    confluent_omega_end,
    confluent_root,
    distance,
    end_from_json,
    end_to_json,
    geodesic,
    neighbours,
    predecessor,
    random_vertex as tree_random_vertex,
    shift,
    successor,
    vertex_from_json,
    vertex_to_json,
)
from dl_harmonics.tree import _half_excess

RNG_SEED = 20240811

# Labels are keyed by the absolute level of the edge they decorate, so the
# marked point of the two-lamps example sits at level -1 with labels at the
# edges entering levels -1 and -3.
MARKED = TreeVertex.make(-1, {-1: 1, -3: 1})


def random_vertex(rng, q=2, span=5):
    level = rng.randrange(-span, span + 1)
    labels = {}
    for j in range(level - span, level + 1):
        v = rng.randrange(q)
        if v:
            labels[j] = v
    return TreeVertex.make(level, labels)


def random_end(rng, q=2, span=4):
    labels = {}
    for j in range(-span, span + 1):
        v = rng.randrange(q)
        if v and rng.random() < 0.5:
            labels[j] = v
    return TreeEnd.word(labels)


def bfs_distance(a, b, q, cap=16):
    # independent oracle: breadth-first search over the neighbour relation
    if a == b:
        return 0
    seen = {a}
    frontier = [a]
    for dist in range(1, cap + 1):
        nxt = []
        for v in frontier:
            for w in neighbours(v, q):
                if w == b:
                    return dist
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    raise AssertionError("BFS cap exceeded")


def chain_to_level(v, level):
    while v.level > level:
        v = predecessor(v)
    return v


def test_vertex_validation():
    with pytest.raises(ValueError):
        TreeVertex.make(0, {1: 1})  # label above the vertex level
    with pytest.raises(ValueError):
        TreeVertex(0, ((0, 0),))  # zero labels must stay implicit
    assert TreeVertex.make(0, {0: 0}) == ROOT  # make() canonicalizes
    assert TreeVertex.make(0, {}) == ROOT


def test_end_validation():
    with pytest.raises(ValueError, match="the reference end carries no labels"):
        TreeEnd(((1, 1),), True)
    with pytest.raises(ValueError, match="zero labels must not be stored"):
        TreeEnd(((1, 0),))
    with pytest.raises(ValueError, match="label keys must be strictly increasing"):
        TreeEnd(((2, 1), (1, 1)))
    assert TreeEnd.word({2: 1, 1: 1, 3: 0}) == TreeEnd(((1, 1), (2, 1)))


def test_successor_refuses_a_label_outside_the_branching():
    with pytest.raises(ValueError, match=r"label 2 at 1 outside range\(0, 2\)"):
        successor(ROOT, 2, 2)
    with pytest.raises(ValueError, match=r"label -1 at 3 outside range\(0, 3\)"):
        successor(TreeVertex(2, ()), -1, 3)


def test_predecessor_examples():
    assert predecessor(ROOT) == TreeVertex(-1, ())
    assert predecessor(MARKED) == TreeVertex.make(-2, {-3: 1})
    assert predecessor(TreeVertex.make(2, {2: 1})) == TreeVertex(1, ())


def test_successor_examples():
    assert successor(ROOT, 0, 2) == TreeVertex(1, ())
    assert successor(ROOT, 1, 2) == TreeVertex.make(1, {1: 1})
    for q in (2, 3, 4):
        succ = [successor(ROOT, l, q) for l in range(q)]
        assert len(set(succ)) == q
        assert all(s.level == 1 for s in succ)
        assert all(predecessor(s) == ROOT for s in succ)


def test_neighbours_root():
    nb = neighbours(ROOT, 2)
    assert len(nb) == 3
    assert sorted(v.level for v in nb) == [-1, 1, 1]


def test_neighbour_symmetry():
    rng = random.Random(RNG_SEED)
    for _ in range(100):
        q = rng.choice((2, 3))
        v = random_vertex(rng, q)
        for w in neighbours(v, q):
            assert abs(w.level - v.level) == 1
            assert v in neighbours(w, q)


def test_confluent_omega_golden():
    # mismatches at j in {-3, -1} force the merge below level -3
    assert confluent_omega(MARKED, ROOT) == TreeVertex(-4, ())
    assert confluent_omega(ROOT, MARKED) == TreeVertex(-4, ())


def test_confluent_omega_is_common_ancestor():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(200):
        q = rng.choice((2, 3))
        a = random_vertex(rng, q)
        b = random_vertex(rng, q)
        c = confluent_omega(a, b)
        assert confluent_omega(a, a) == a
        assert confluent_omega(a, b) == confluent_omega(b, a)
        # oracle: walk both predecessor chains down to the meeting level
        lv = min(a.level, b.level)
        pa, pb = chain_to_level(a, lv), chain_to_level(b, lv)
        while pa != pb:
            pa, pb = predecessor(pa), predecessor(pb)
        assert c == pa
        # highest common vertex: one level further up they differ
        assert chain_to_level(a, c.level) == chain_to_level(b, c.level)


def test_confluent_omega_end_examples():
    assert confluent_omega_end(ROOT, TreeEnd.word({})) == ROOT
    assert confluent_omega_end(ROOT, TreeEnd.word({1: 1})) == ROOT
    assert confluent_omega_end(TreeVertex.make(2, {2: 1}), TreeEnd.word({})) == TreeVertex(1, ())
    with pytest.raises(ValueError):
        confluent_omega_end(ROOT, OMEGA)


def test_distance_golden():
    assert distance(ROOT, MARKED) == 7
    assert bfs_distance(ROOT, MARKED, 2) == 7


def test_distance_properties():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(60):
        q = rng.choice((2, 3))
        a, b, c = (random_vertex(rng, q, 3) for _ in range(3))
        assert distance(a, a) == 0
        assert distance(a, b) == distance(b, a)
        assert distance(a, c) <= distance(a, b) + distance(b, c)
    for _ in range(25):
        a = random_vertex(rng, 2, 2)
        b = random_vertex(rng, 2, 2)
        assert distance(a, b) == bfs_distance(a, b, 2)


def test_geodesic():
    assert geodesic(ROOT, ROOT) == [ROOT]
    assert geodesic(ROOT, predecessor(ROOT)) == [ROOT, predecessor(ROOT)]
    rng = random.Random(RNG_SEED + 3)
    for _ in range(50):
        a = random_vertex(rng, 2, 3)
        b = random_vertex(rng, 2, 3)
        path = geodesic(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == distance(a, b) + 1
        for i in range(len(path)):
            for j in range(len(path)):
                assert distance(path[i], path[j]) == abs(i - j)


def ray_vertices(xi, depth):
    # oracle: enumerate the ray from the root towards a word end
    low = [j for j, _ in xi.labels if j <= 0]
    bottom = min(low) - 1 if low else 0
    verts = [chain_to_level(ROOT, lv) for lv in range(bottom, 1)]
    word = dict(xi.labels)
    for lv in range(bottom + 1, depth + 1):
        verts.append(TreeVertex.make(lv, {j: word[j] for j in word if bottom < j <= lv}))
    return verts


def test_confluent_root_examples():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(40):
        xi = random_end(rng)
        assert confluent_root(ROOT, xi) == ROOT
    x = TreeVertex.make(1, {1: 1})
    assert confluent_root(x, TreeEnd.word({1: 1, 2: 1})) == x
    for _ in range(100):
        x = random_vertex(rng, 2, 3)
        assert confluent_root(x, OMEGA) == confluent_omega(x, ROOT)


def test_confluent_root_against_ray_enumeration():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(200):
        x = random_vertex(rng, 2, 3)
        xi = random_end(rng, 2, 3)
        got = confluent_root(x, xi)
        ray = ray_vertices(xi, 8)
        geo = geodesic(ROOT, x)
        common = [v for v in geo if v in ray]
        assert common, "rays from the root always share the root"
        best = max(common, key=lambda v: geo.index(v))
        assert got == best


def test_busemann():
    rng = random.Random(RNG_SEED + 6)
    for _ in range(50):
        xi = random_end(rng)
        assert busemann_wrt_end(ROOT, xi) == 0
        x = random_vertex(rng, 2, 3)
        assert busemann_wrt_end(x, OMEGA) == x.level


def test_busemann_parity_exhaustive():
    # hor(x, xi) - hor(x) is even for every vertex of the radius-6 ball and
    # every zero-tail end with support in [-4, 4]
    ball = {ROOT}
    frontier = [ROOT]
    for _ in range(6):
        nxt = []
        for v in frontier:
            for w in neighbours(v, 2):
                if w not in ball:
                    ball.add(w)
                    nxt.append(w)
        frontier = nxt
    supports = range(-4, 5)
    ends = []
    for mask in range(2 ** 9):
        labels = {j: 1 for bit, j in enumerate(supports) if (mask >> bit) & 1}
        ends.append(TreeEnd.word(labels))
    for x in ball:
        for xi in ends:
            assert (busemann_wrt_end(x, xi) - x.level) % 2 == 0


def test_shift():
    rng = random.Random(RNG_SEED + 7)
    for _ in range(100):
        v = random_vertex(rng, 2)
        m = rng.randrange(-4, 5)
        assert shift(v, 0) == v
        assert shift(shift(v, m), -m) == v
        w = random_vertex(rng, 2)
        assert distance(shift(v, m), shift(w, m)) == distance(v, w)


def test_json_round_trip():
    rng = random.Random(RNG_SEED + 8)
    for _ in range(50):
        v = random_vertex(rng, 3)
        assert vertex_from_json(json.loads(json.dumps(vertex_to_json(v)))) == v
        xi = random_end(rng, 3)
        assert end_from_json(json.loads(json.dumps(end_to_json(xi)))) == xi
    assert end_from_json(end_to_json(OMEGA)) == OMEGA
    assert vertex_to_json(ROOT) == {"level": 0, "labels": []}


# Reference definitions that build vertices and label sets: a confluent is a
# vertex, and a distance is read off the levels of the confluent.
def ref_split(a, b, m):
    wa, wb = dict(a), dict(b)
    bad = [j for j in set(wa) | set(wb) if j <= m and wa.get(j, 0) != wb.get(j, 0)]
    return min(bad) - 1 if bad else m


def ref_confluent_omega(a, b):
    lvl = ref_split(a.labels, b.labels, min(a.level, b.level))
    return TreeVertex.make(lvl, {j: v for j, v in a.labels if j <= lvl})


def ref_distance(a, b):
    c = ref_confluent_omega(a, b)
    return (a.level - c.level) + (b.level - c.level)


def ref_confluent_root(x, xi):
    bx = ref_confluent_omega(x, ROOT).level
    bxi = ref_split(xi.labels, (), 0)
    if bx != bxi:
        return TreeVertex(max(bx, bxi), ())
    lvl = ref_split(x.labels, xi.labels, x.level)
    return TreeVertex.make(lvl, {j: v for j, v in x.labels if j <= lvl})


def ref_busemann(x, xi):
    c = ref_confluent_root(x, xi)
    return ref_distance(x, c) - ref_distance(ROOT, c)


@st.composite
def words(draw, q, low, high, prefix=()):
    """A label word on ``[low, high]``, sharing a random prefix of ``prefix``."""
    cut = draw(st.integers(low - 1, high))
    shared = {j: v for j, v in prefix if j <= cut}
    if cut == high:
        return shared
    rest = draw(st.dictionaries(st.integers(cut + 1, high), st.integers(0, q - 1), max_size=6))
    return {**shared, **rest}


@st.composite
def vertex_pair_and_end(draw):
    q = draw(st.sampled_from((2, 3)))
    la, lb = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    a = TreeVertex.make(la, draw(words(q, la - 8, la)))
    b = TreeVertex.make(lb, draw(words(q, lb - 8, lb, a.labels)))
    xi = TreeEnd.word(draw(words(q, -8, 8, a.labels)))
    return a, b, xi


@settings(max_examples=300, deadline=None)
@given(vertex_pair_and_end())
def test_split_level_matches_vertex_building_reference(case):
    a, b, xi = case
    assert confluent_omega(a, b) == ref_confluent_omega(a, b)
    assert distance(a, b) == ref_distance(a, b)
    lvl = ref_split(a.labels, xi.labels, a.level)
    assert confluent_omega_end(a, xi) == TreeVertex.make(lvl, {j: v for j, v in a.labels if j <= lvl})
    for x in (a, b):
        assert confluent_root(x, xi) == ref_confluent_root(x, xi)
        assert busemann_wrt_end(x, xi) == ref_busemann(x, xi)


@settings(max_examples=300, deadline=None)
@given(vertex_pair_and_end())
def test_half_excess_matches_vertex_building_reference(case):
    # the label-only helper against d(x, c) - d(o, c) with c = x ∧ xi built
    # as a vertex; the excess over level(x) is always even
    a, b, xi = case
    for x in (a, b):
        c = confluent_root(x, xi)
        excess = distance(x, c) - distance(ROOT, c) - x.level
        assert excess % 2 == 0
        assert _half_excess(x.level, x.labels, xi.labels) == excess // 2
        assert busemann_wrt_end(x, xi) == x.level + excess


def test_tree_random_vertex_stays_in_the_ball_and_repeats_for_a_seed():
    for q in (2, 3):
        for radius in range(7):
            rng = random.Random(RNG_SEED + radius)
            drawn = [tree_random_vertex(q, radius, rng) for _ in range(40)]
            # ``radius`` steps on a bipartite tree: at most that far, same parity
            assert all(distance(ROOT, v) <= radius for v in drawn)
            assert all((distance(ROOT, v) - radius) % 2 == 0 for v in drawn)
            assert all(0 < val < q for v in drawn for _, val in v.labels)
            again = random.Random(RNG_SEED + radius)
            assert [tree_random_vertex(q, radius, again) for _ in range(40)] == drawn
