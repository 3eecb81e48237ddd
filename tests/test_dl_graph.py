import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dl_harmonics.dl_graph import (
    DLParams,
    DLVertex,
    ball,
    ball_size,
    check_vertex,
    dl_distance,
    dl_neighbours,
    dls_neighbours,
    export_dot,
    export_json,
    factor_map,
    origin,
    random_vertex,
    siblings,
    translation_to,
)
from dl_harmonics.tree import TreeVertex, distance, predecessor, successor

RNG_SEED = 7041


def test_params_validation():
    with pytest.raises(ValueError):
        DLParams(1, 2)
    with pytest.raises(ValueError):
        DLParams(2, 1)
    DLParams(2, 2)


def test_vertex_level_constraint():
    p = DLParams(2, 2)
    off_sheet = DLVertex(TreeVertex(1, ()), TreeVertex(1, ()))
    with pytest.raises(ValueError):
        check_vertex(off_sheet, p)
    with pytest.raises(ValueError):
        dl_neighbours(off_sheet, p)
    assert origin(p).x1.level == 0


def test_degree_dl():
    rng = random.Random(RNG_SEED)
    p = DLParams(2, 2)
    for _ in range(50):
        v = random_vertex(p, rng.randrange(5), rng)
        assert len(dl_neighbours(v, p)) == 4

    p23 = DLParams(2, 3)
    for _ in range(50):
        v = random_vertex(p23, rng.randrange(5), rng)
        nb = dl_neighbours(v, p23)
        ups = [w for w in nb if w.x1.level == v.x1.level + 1]
        downs = [w for w in nb if w.x1.level == v.x1.level - 1]
        assert len(ups) == 2 and len(downs) == 3


def test_dl_adjacency_symmetric():
    rng = random.Random(RNG_SEED + 1)
    for q, r in ((2, 2), (2, 3)):
        p = DLParams(q, r)
        for _ in range(100):
            v = random_vertex(p, rng.randrange(6), rng)
            for w in dl_neighbours(v, p):
                assert v in dl_neighbours(w, p)


def test_degree_dls():
    rng = random.Random(RNG_SEED + 2)
    p = DLParams(2, 2)
    for _ in range(50):
        v = random_vertex(p, rng.randrange(5), rng)
        nb = dls_neighbours(v, p)
        assert len(nb) == 8  # q^2 up + q*r down
        assert set(dl_neighbours(v, p)) <= set(nb)


def test_dls_adjacency_symmetric():
    rng = random.Random(RNG_SEED + 3)
    for q, r in ((2, 2), (2, 3)):
        p = DLParams(q, r)
        for _ in range(100):
            v = random_vertex(p, rng.randrange(5), rng, "dls")
            for w in dls_neighbours(v, p):
                assert v in dls_neighbours(w, p)


def test_sibling_classes():
    rng = random.Random(RNG_SEED + 4)
    for q, r in ((2, 2), (3, 2)):
        p = DLParams(q, r)
        for _ in range(60):
            v = random_vertex(p, rng.randrange(5), rng)
            members = {DLVertex(u1, v.x2) for u1 in siblings(v.x1, q)}
            assert len(members) == q
            assert DLVertex(successor(predecessor(v.x1), 0, q), v.x2) in members
            assert v in members
            for l in range(q):
                w = DLVertex(successor(predecessor(v.x1), l, q), v.x2)
                assert {DLVertex(u1, w.x2) for u1 in siblings(w.x1, q)} == members
            assert len({factor_map(m, p) for m in members}) == 1


def test_factor_map_edge_preservation():
    # exhaustive on the radius-3 ball: a sibling edge either collapses or
    # projects onto a base edge
    p = DLParams(2, 2)
    verts = ball(p, 3, "dls")
    vset = set(verts)
    for v in verts:
        fv = factor_map(v, p)
        for w in dls_neighbours(v, p):
            if w not in vset:
                continue
            fw = factor_map(w, p)
            assert fv == fw or fw in dl_neighbours(fv, p)


@pytest.mark.parametrize("variant", ["dl", "dls"])
def test_ball_size_counts_the_ball(variant):
    for q, r, level_sum in ((2, 2, 0), (2, 3, 0), (3, 2, 1), (3, 3, 0), (4, 2, -2)):
        p = DLParams(q, r, level_sum)
        for radius in range(6 if q * r < 9 else 5):
            assert ball_size(p, radius, variant) == len(ball(p, radius, variant))
    with pytest.raises(ValueError, match="unknown variant"):
        ball_size(DLParams(2, 2), 1, "dlx")


def test_unknown_variant_is_refused():
    p = DLParams(2, 2)
    for build in (
        lambda: ball(p, 1, "dlx"),
        lambda: random_vertex(p, 2, random.Random(RNG_SEED), "dlx"),
        lambda: export_dot(p, 1, "dlx"),
        lambda: export_json(p, 1, "dlx"),
    ):
        with pytest.raises(ValueError, match="unknown variant 'dlx'"):
            build()


def test_ball_and_distance():
    p = DLParams(2, 2)
    b1 = ball(p, 1)
    assert len(b1) == 5
    # dl distance agrees with BFS on the radius-4 ball
    b = ball(p, 4)
    o = origin(p)
    depth = {o: 0}
    frontier = [o]
    for d in range(1, 5):
        nxt = []
        for v in frontier:
            for w in dl_neighbours(v, p):
                if w not in depth:
                    depth[w] = d
                    nxt.append(w)
        frontier = nxt
    for v in b:
        assert dl_distance(o, v) == depth[v]


def test_dl_distance_formula():
    rng = random.Random(RNG_SEED + 5)
    p = DLParams(2, 3)
    for _ in range(80):
        a = random_vertex(p, rng.randrange(6), rng)
        b = random_vertex(p, rng.randrange(6), rng)
        d1 = distance(a.x1, b.x1)
        d2 = distance(a.x2, b.x2)
        assert dl_distance(a, b) == d1 + d2 - abs(a.x1.level - b.x1.level)


def test_translation_transitivity():
    rng = random.Random(RNG_SEED + 6)
    p = DLParams(2, 2)
    o = origin(p)
    for _ in range(40):
        v = random_vertex(p, rng.randrange(6), rng)
        phi = translation_to(v, p)
        assert phi(o) == v
        # automorphism: preserves adjacency
        for w in dl_neighbours(o, p):
            assert phi(w) in dl_neighbours(v, p)


def label_loop_translation(target, params):
    """``translation_to`` as a union-of-keys loop over the shifted labels and
    the target's, each key reduced and zero-dropped on its own."""
    t1, t2 = dict(target.x1.labels), dict(target.x2.labels)

    def move(x, shift_by, t, mod):
        new_level = x.level + shift_by
        shifted = {j + shift_by: val for j, val in x.labels}
        out = {}
        for j in set(shifted) | set(t):
            if j > new_level:
                continue
            val = (shifted.get(j, 0) + t.get(j, 0)) % mod
            if val:
                out[j] = val
        return TreeVertex.make(new_level, out)

    h1, h2 = target.x1.level, target.x2.level - params.level_sum
    return lambda v: DLVertex(move(v.x1, h1, t1, params.q), move(v.x2, h2, t2, params.r))


@pytest.mark.parametrize("p", [DLParams(2, 3), DLParams(3, 2, level_sum=1)], ids=["DL(2,3)", "DL(3,2)+1"])
def test_translation_equals_the_label_loop(p):
    vertices = ball(p, 3)
    for target in ball(p, 2):
        phi, loop = translation_to(target, p), label_loop_translation(target, p)
        assert phi(origin(p)) == target
        for v in vertices:
            got = phi(v)
            assert got == loop(v)
            check_vertex(got, p)


def test_exports():
    p = DLParams(2, 2)
    dot = export_dot(p, 1)
    assert dot.startswith("graph")
    assert dot.count("--") == 4
    data = export_json(p, 1)
    assert len(data["vertices"]) == 5
    assert len(data["edges"]) == 4
    assert json.dumps(data)  # serializable
    adj = data["adjacency"]
    for a, row in enumerate(adj):
        for b in row:
            assert a in adj[b]


@pytest.mark.parametrize("variant", ["dl", "dls"])
@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (3, 3)])
def test_export_edges_equal_a_scan_of_every_ball_vertex(q, r, variant):
    # The export scans only the inner ball; a scan from every vertex finds
    # the same edges, so none joins two vertices of the outer shell.
    p = DLParams(q, r)
    nbrs = dl_neighbours if variant == "dl" else dls_neighbours
    for radius in range(5):
        data = export_json(p, radius, variant)
        vertices = ball(p, radius, variant)
        index = {v: i for i, v in enumerate(vertices)}
        want = set()
        for i, v in enumerate(vertices):
            for w in nbrs(v, p):
                if w in index:
                    want.add((min(i, index[w]), max(i, index[w])))
        assert data["edges"] == [list(e) for e in sorted(want)]
        assert export_dot(p, radius, variant).count(" -- ") == len(want)


def ref_siblings(x, q):
    return [successor(predecessor(x), m, q) for m in range(q)]


def ref_dl_neighbours(v, p):
    up = [DLVertex(successor(v.x1, l, p.q), predecessor(v.x2)) for l in range(p.q)]
    return up + [DLVertex(predecessor(v.x1), successor(v.x2, m, p.r)) for m in range(p.r)]


def ref_dls_neighbours(v, p):
    up = [
        DLVertex(successor(u1, l, p.q), predecessor(v.x2))
        for u1 in ref_siblings(v.x1, p.q)
        for l in range(p.q)
    ]
    return up + [
        DLVertex(u1, successor(v.x2, m, p.r))
        for u1 in ref_siblings(predecessor(v.x1), p.q)
        for m in range(p.r)
    ]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.sampled_from((2, 3, 4)), st.lists(st.integers(0, 10**6), max_size=12))
def test_neighbour_lists_match_the_successor_reference_in_order(q, r, moves):
    # the walk follows the reference lists, so it does not lean on the lists it checks
    p = DLParams(q, r)
    v = origin(p)
    for move in moves:
        assert siblings(v.x1, q) == ref_siblings(v.x1, q)
        assert dl_neighbours(v, p) == ref_dl_neighbours(v, p)
        dls = ref_dls_neighbours(v, p)
        assert dls_neighbours(v, p) == dls
        v = dls[move % len(dls)]
