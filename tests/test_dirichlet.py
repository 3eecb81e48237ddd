import hashlib
import json
import random
import re
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dl_harmonics import cli, dirichlet as dct
from dl_harmonics.dirichlet import (
    FiniteChain,
    build_truncation,
    closed_tree_table,
    decompose,
    hitting_table,
    kernel_approx,
    represent,
    restricted_hitting,
    verify_product_formula,
)
from dl_harmonics.dl_graph import DLParams, DLVertex, origin
from dl_harmonics.kernels import KernelSpec, combine, martin_kernel_tree
from dl_harmonics.serialize import table_to_json
from dl_harmonics.tree import OMEGA, ROOT, TreeEnd, TreeVertex, confluent_omega, predecessor
from dl_harmonics.walks import DLWalk, apply, p1_walk

RNG_SEED = 16180

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def gauss_jordan(a, b):
    """Independent oracle: ``A^-1 B`` by Gauss-Jordan over Fractions, no
    shared code with the package; None if A is singular.  Each elimination
    subtracts only the pivot row's nonzero entries."""
    m = len(a)
    aug = [[Fraction(x) for x in a[i] + b[i]] for i in range(m)]
    for col in range(m):
        piv = next((i for i in range(col, m) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        pivot = aug[col] = [x / pv for x in aug[col]]
        support = [(j, y) for j, y in enumerate(pivot) if y]
        for i, row in enumerate(aug):
            f = row[col]
            if i != col and f:
                for j, y in support:
                    row[j] -= f * y
    return [row[m:] for row in aug]


def exact_rank(rows):
    """Independent oracle: rank over the rationals by plain exact elimination."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    col = 0
    ncols = len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                factor = mat[i][col] / pv
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def solve_dense(chain, op):
    """The hitting table by ``gauss_jordan`` on the unscaled system."""
    interior = list(chain.interior)
    pos = {v: i for i, v in enumerate(interior)}
    bpos = {y: b for b, y in enumerate(chain.boundary)}
    m = len(interior)
    nb = len(chain.boundary)
    a = [[Fraction(0)] * m for _ in range(m)]
    b = [[Fraction(0)] * nb for _ in range(m)]
    for i, v in enumerate(interior):
        a[i][i] += 1
        for w, p in op.transitions(v):
            if w in pos:
                a[i][pos[w]] -= p
            else:
                b[i][bpos[w]] += p
    x = gauss_jordan(a, b)
    out = {}
    for y in chain.boundary:
        for z in chain.boundary:
            out[(y, z)] = Fraction(1 if y == z else 0)
    for i, v in enumerate(interior):
        for y in chain.boundary:
            out[(v, y)] = x[i][bpos[y]]
    return out


def test_truncation_sizes():
    c = build_truncation(1, DLParams(2, 2), HALF, "dl")
    assert (len(c.vertices), len(c.boundary), len(c.interior)) == (12, 8, 4)
    c = build_truncation(2, DLParams(2, 2), HALF, "dl")
    assert (len(c.vertices), len(c.boundary)) == (80, 32)
    c = build_truncation(1, DLParams(2, 3), HALF, "dl")
    assert (len(c.vertices), len(c.boundary)) == (19, 13)
    c = build_truncation(1, DLParams(2, 2), HALF, "tree1")
    assert (len(c.vertices), len(c.boundary), len(c.interior)) == (7, 5, 2)


def test_truncation_validation():
    with pytest.raises(ValueError):
        build_truncation(0, DLParams(2, 2), HALF)
    with pytest.raises(ValueError):
        build_truncation(9, DLParams(2, 2), HALF, "dl")  # larger than the cap
    with pytest.raises(ValueError):
        build_truncation(1, DLParams(2, 2), HALF, "cube")


BAD_ALPHAS = [Fraction(3, 2), 0, 1, Fraction(-1, 3)]


@pytest.mark.parametrize("build", [build_truncation, lambda n, p, a, kind: dct.FiniteChain(kind, n, p, a)])
def test_chains_are_checked_when_built(build):
    p = DLParams(2, 3)
    for alpha in BAD_ALPHAS:
        for kind in ("dl", "tree1", "tree2"):
            with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
                build(2, p, alpha, kind)
    for n in (0, -1):
        with pytest.raises(ValueError, match="stage must be >= 1"):
            build(n, p, HALF, "tree1")
    with pytest.raises(ValueError, match="unknown chain kind 'cube'"):
        build(2, p, HALF, "cube")
    # alpha is stored as a Fraction, so equal rates make equal chains
    c = build(2, p, "1/3", "dl")
    assert c.alpha == THIRD and type(c.alpha) is Fraction
    assert c == build(2, p, THIRD, "dl") and hash(c) == hash(build(2, p, THIRD, "dl"))


def test_lookup_dicts_built_once():
    c = build_truncation(1, DLParams(2, 2), HALF, "dl")
    fresh = build_truncation(1, DLParams(2, 2), HALF, "dl")
    assert c.index is c.index
    assert c.index == {v: i for i, v in enumerate(c.vertices)}
    t = hitting_table(c)
    assert t.boundary_index is t.boundary_index
    assert t.boundary_index == {y: b for b, y in enumerate(c.boundary)}
    # the cached dicts take no part in equality or hashing
    assert c == fresh and hash(c) == hash(fresh)
    other = dct.HittingTable(fresh, t.rows)
    assert t == other and hash(t) == hash(other)
    assert repr(c) == repr(fresh)


def never_enumerate(chain):
    raise RuntimeError("the vertices were enumerated")


def test_exact_layer_reads_no_vertex(monkeypatch):
    # Truncations, tables, their certificate and the product check run from
    # the level sizes alone.
    monkeypatch.setattr(dct, "_enumerate", never_enumerate)
    for kind, shape in (("dl", (211, 97)), ("tree1", (31, 17)), ("tree2", (121, 82))):
        c = build_truncation(2, DLParams(2, 3), THIRD, kind)
        assert c == build_truncation(2, DLParams(2, 3), THIRD, kind)
        assert hash(c) == hash(build_truncation(2, DLParams(2, 3), THIRD, kind))
        assert hitting_table(c).nums.shape == shape
    c = build_truncation(2, DLParams(2, 3), THIRD, "dl")
    assert verify_product_formula(c) == dct.ProductReport(211 * 97, ())
    with pytest.raises(RuntimeError, match="enumerated"):
        c.vertices


def two_leaf_partition(chain):
    """Test-local oracle: the boundary and the interior as filters of
    ``vertices`` by the two-leaf-set description."""
    n, apex = chain.n, TreeVertex(-chain.n, ())
    if chain.kind == "dl":
        on = lambda v: (v.x1.level == n and v.x2 == apex) or (v.x1 == apex and v.x2.level == n)
    else:
        on = lambda v: v == apex or v.level == n
    return tuple(v for v in chain.vertices if on(v)), tuple(v for v in chain.vertices if not on(v))


@pytest.mark.parametrize("kind", ["dl", "tree1", "tree2"])
@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lazy_partition_equals_the_two_leaf_sets(n, q, r, kind):
    c = build_truncation(n, DLParams(q, r), Fraction(2, 5), kind)
    fresh = build_truncation(n, DLParams(q, r), Fraction(2, 5), kind)
    assert (c.boundary, c.interior) == two_leaf_partition(c)
    assert c.boundary is c.boundary and c.interior is c.interior
    assert len(set(c.vertices)) == len(c.vertices)
    # enumerated or not, chains compare and hash by their description
    assert c == fresh and hash(c) == hash(fresh)


def test_table_from_rows_equals_the_solved_table():
    for p, n, alpha in ((DLParams(2, 2), 1, HALF), (DLParams(2, 3), 1, THIRD)):
        c = build_truncation(n, p, alpha, "dl")
        t = hitting_table(c)
        again = dct.HittingTable(c, t.rows)
        assert again == t and hash(again) == hash(t)
        assert again.dens == t.dens and (again.nums == t.nums).all()
        assert again.rows == t.rows


# Every chain with q, r in {2, 3}, n <= 2 and each kind; alpha 12345/67891
# gives wide denominators wherever the dense oracle below stays fast.
ORACLE_SWEEP = [
    (n, DLParams(q, r), Fraction(2, 5) if kind == "dl" and n == 2 else Fraction(12345, 67891), kind)
    for kind in ("dl", "tree1", "tree2")
    for q in (2, 3)
    for r in (2, 3)
    for n in (1, 2)
]


def assert_columns_reduced_to_the_lcm(table):
    for column, d in zip(table.nums.T.tolist(), table.dens):
        assert type(d) is int
        assert d == lcm(*(Fraction(x, d).denominator for x in column))


def test_solved_columns_are_reduced_to_the_lcm():
    # Both constructors give canonical columns: the common denominator of a
    # column is the lcm of its entries' reduced denominators.
    for args in ORACLE_SWEEP:
        c = build_truncation(*args)
        t = hitting_table(c)
        assert_columns_reduced_to_the_lcm(t)
        again = dct.HittingTable(c, t.rows)
        assert_columns_reduced_to_the_lcm(again)
        assert again.dens == t.dens and (again.nums == t.nums).all()


def test_golden_row_at_origin():
    p = DLParams(2, 2)
    c = build_truncation(1, p, HALF, "dl")
    t = hitting_table(c)
    o = origin(p)
    for y in c.boundary:
        side = y.x1 if y.x2 == c.a2 else y.x2
        blocked = dict(side.labels).get(0, 0) != 0
        assert t.value(o, y) == (0 if blocked else Fraction(1, 4))


def test_table_matches_dense_oracle():
    # The certified closed form against a plain solve of the full system.
    for args in ORACLE_SWEEP:
        c = build_truncation(*args)
        t = hitting_table(c)
        want = solve_dense(c, dct.default_operator(c))
        for x, row in zip(c.vertices, t.rows):
            assert list(row) == [want[(x, y)] for y in c.boundary]


def test_table_matches_monte_carlo():
    # third route: run the absorbed walk with a plain seeded sampler and
    # compare exit frequencies from the origin against the exact row
    p = DLParams(2, 2)
    chain = build_truncation(2, p, THIRD, "dl")
    table = hitting_table(chain)
    rows = {v: DLWalk(p, THIRD).transitions(v) for v in chain.interior}
    absorbed = set(chain.boundary)
    rng = random.Random(RNG_SEED)
    trials = 20000
    counts = dict.fromkeys(chain.boundary, 0)
    for _ in range(trials):
        v = origin(p)
        while v not in absorbed:
            x = rng.random()
            acc = 0.0
            for t, w in rows[v]:
                acc += float(w)
                if x < acc:
                    v = t
                    break
        counts[v] += 1
    o = origin(p)
    for y in chain.boundary:
        want = float(table.value(o, y))
        sigma = (want * (1 - want) / trials) ** 0.5
        assert abs(counts[y] / trials - want) <= 4 * sigma


def test_rows_sum_to_one_and_boundary_deltas():
    c = build_truncation(1, DLParams(2, 3), Fraction(2, 5), "dl")
    t = hitting_table(c)
    for x in c.vertices:
        assert sum(t.rows[c.index[x]]) == 1
    for y in c.boundary:
        assert t.value(y, y) == 1
        assert all(t.value(y, z) == 0 for z in c.boundary if z != y)


def one_edge_factors(n, branch, up):
    """Per-level edge probabilities inside the stage-``n`` tree truncation, as
    one-edge ``_level_product``s: ``d[k]`` (``-n < k <= n``) reaches the
    predecessor before the boundary, ``u[k]`` (``-n <= k < n``) one fixed
    successor."""
    d = {k: dct._level_product(n, branch, up, k - 1, k, k - 1) for k in range(n, -n, -1)}
    u = {k: dct._level_product(n, branch, up, k, k, k + 1) for k in range(-n, n)}
    return d, u


def test_edge_factors_golden():
    d, u = one_edge_factors(2, 2, HALF)
    # at the driftless point d_k collapses to (n-k)/(n-k+1)
    for k in (-1, 0, 1, 2):
        assert d[k] == Fraction(2 - k, 3 - k)
    assert u == {-2: Fraction(0), -1: Fraction(3, 10), 0: Fraction(10, 29), 1: Fraction(29, 96)}
    assert u[0] * u[1] == Fraction(5, 48)


def test_driftless_down_factors_all_stages():
    for n in (1, 2, 3, 5):
        d, _ = one_edge_factors(n, 2, HALF)
        for k in range(-n + 1, n + 1):
            assert d[k] == Fraction(n - k, n - k + 1)


def recursion(n, branch, up):
    """Independent oracle: the per-level factors by their Fraction recursions,
    ``d_k`` (reach the predecessor before the boundary) and ``u_k`` (reach
    one fixed successor), in the order ``one_edge_factors`` lists them::

        d_n = 0,      d_k = (1-a) / (1 - a d_{k+1})
        u_{-n} = 0,   u_k = (a/q) / (1 - (1-a) u_{k-1} - a (q-1)/q d_{k+1})
    """
    d = {n: Fraction(0)}
    for k in range(n - 1, -n, -1):
        d[k] = (1 - up) / (1 - up * d[k + 1])
    u = {-n: Fraction(0)}
    for k in range(-n + 1, n):
        u[k] = (up / branch) / (1 - (1 - up) * u[k - 1] - up * (branch - 1) * d[k + 1] / branch)
    return d, u


def test_cached_edge_factors_equal_a_fresh_recursion():
    cases = [(n, branch, up) for n in range(1, 13) for branch in (1, 2, 3) for up in (THIRD, HALF, Fraction(5, 7))]
    cases += [(n, 2, up) for n in (32, 64) for up in (THIRD, HALF, Fraction(2, 3))]
    for n, branch, up in cases:
        d, u = one_edge_factors(n, branch, up)
        d0, u0 = recursion(n, branch, up)
        assert (list(d.items()), list(u.items())) == (list(d0.items()), list(u0.items()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_level_product_equals_the_recursion_edge_by_edge(data):
    n = data.draw(st.integers(1, 24))
    branch = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(2, 200))
    up = Fraction(data.draw(st.integers(1, m - 1)), m)
    c = data.draw(st.integers(-n, n))
    lx, ly = data.draw(st.integers(c, n)), data.draw(st.integers(c, n))
    d, u = recursion(n, branch, up)
    want = Fraction(1)
    for k in range(c + 1, lx + 1):
        want *= d[k]
    for k in range(c, ly):
        want *= u[k]
    assert dct._level_product(n, branch, up, c, lx, ly) == want


def test_sequences_cache_has_a_fixed_size():
    maxsize = dct._sequences.cache_parameters()["maxsize"]
    assert type(maxsize) is int and maxsize > 0
    # equal rates share one entry: the string, the Fraction and the pointwise path
    one_edge_factors(5, 3, "1/2")
    before = dct._sequences.cache_info()
    one_edge_factors(5, 3, Fraction(1, 2))
    restricted_hitting(5, 3, HALF, TreeVertex.make(1, {1: 1}), TreeVertex.make(2, {2: 2}))
    after = dct._sequences.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses) and after.hits > before.hits
    # a refusal is not cached: each call misses and refuses again
    for _ in range(2):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            one_edge_factors(5, 3, "3/2")
    refused = dct._sequences.cache_info()
    assert (refused.currsize, refused.misses) == (after.currsize, after.misses + 2)
    # more keys than the size leave the cache full, not larger
    for a in range(1, maxsize + 10):
        dct._sequences(1, 2, a, maxsize + 10)
    assert dct._sequences.cache_info().currsize == maxsize


def test_restricted_hitting_golden():
    assert restricted_hitting(2, 2, HALF, ROOT, TreeVertex.make(2, {})) == Fraction(5, 48)
    assert restricted_hitting(1, 2, HALF, ROOT, ROOT) == 1
    with pytest.raises(ValueError):
        restricted_hitting(1, 2, HALF, TreeVertex.make(3, {}), ROOT)


def test_up_rate_outside_the_unit_interval_is_refused():
    size = dct._sequences.cache_info().currsize
    for up in BAD_ALPHAS:
        for _ in range(2):  # a refusal is not cached: the second call refuses again
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                one_edge_factors(2, 2, up)
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                restricted_hitting(3, 2, Fraction(up), ROOT, TreeVertex(3, ()))
    assert dct._sequences.cache_info().currsize == size


def test_closed_form_equals_matrix_solve():
    for alpha in (THIRD, HALF):
        c = build_truncation(2, DLParams(2, 2), alpha, "tree1")
        want = solve_dense(c, dct.default_operator(c))
        assert closed_tree_table(c).rows == tuple(tuple(want[(x, y)] for y in c.boundary) for x in c.vertices)
    c = build_truncation(1, DLParams(2, 3), THIRD, "tree2")
    assert closed_tree_table(c) == hitting_table(c)
    with pytest.raises(ValueError):
        closed_tree_table(build_truncation(1, DLParams(2, 3), THIRD, "dl"))


def test_value_reads_one_entry_without_building_the_rows():
    c = build_truncation(2, DLParams(2, 3), THIRD, "dl")
    t = hitting_table(c)
    values = [[t.value(x, y) for y in c.boundary] for x in c.vertices]
    assert "_rows" not in t.__dict__
    assert tuple(map(tuple, values)) == t.rows


def test_slab_goldens():
    p = DLParams(2, 2)
    c = build_truncation(2, p, HALF, "dl")
    t = hitting_table(c)
    o = origin(p)
    top = DLVertex(TreeVertex.make(2, {}), c.a2)
    assert t.value(o, top) == Fraction(5, 48)
    assert sum(t.value(o, y) for y in c.boundary if y.x2 == c.a2) == HALF

    c = build_truncation(2, p, THIRD, "dl")
    t = hitting_table(c)
    assert t.value(o, DLVertex(TreeVertex.make(2, {}), c.a2)) == Fraction(3, 70)
    assert t.value(o, DLVertex(c.a1, TreeVertex.make(2, {}))) == Fraction(6, 35)
    # exit through the top slab is a plain gambler's ruin on the level
    assert sum(t.value(o, y) for y in c.boundary if y.x2 == c.a2) == Fraction(1, 5)

    p = DLParams(2, 3)
    c = build_truncation(1, p, THIRD, "dl")
    t = hitting_table(c)
    o = origin(p)
    assert t.value(o, DLVertex(TreeVertex.make(1, {}), c.a2)) == Fraction(1, 6)
    assert t.value(o, DLVertex(c.a1, TreeVertex.make(1, {}))) == Fraction(2, 9)
    assert sum(t.value(o, y) for y in c.boundary if y.x2 == c.a2) == THIRD


def test_product_formula_stage1():
    report = verify_product_formula(build_truncation(1, DLParams(2, 2), THIRD, "dl"))
    assert report.checked == 96
    assert report.discrepancies == ()
    with pytest.raises(ValueError):
        verify_product_formula(build_truncation(1, DLParams(2, 2), THIRD, "tree1"))


def test_verify_table_rejects_each_tampered_entry():
    # Each entry off by 1/7, alone or together, fails the certificate; the
    # pairwise oracle names exactly the entries changed.
    c = build_truncation(1, DLParams(2, 3), THIRD, "dl")
    t, lay = hitting_table(c), dct._layout(c)
    dct._verify_table(t, lay)
    changed = [(c.interior[0], c.boundary[0]), (c.interior[-1], c.boundary[-1])]
    for entries in ([changed[0]], [changed[1]], changed):
        rows = [list(row) for row in t.rows]
        for x, y in entries:
            rows[c.index[x]][t.boundary_index[y]] += Fraction(1, 7)
        tampered = dct.HittingTable(c, tuple(map(tuple, rows)))
        with pytest.raises(AssertionError):
            dct._verify_table(tampered, lay)
        report = product_report_by_pairs(c, tampered)
        assert [(x, y) for x, y, _, _ in report.discrepancies] == entries
        for x, y, got, want in report.discrepancies:
            assert got == t.value(x, y) + Fraction(1, 7) and want == t.value(x, y)


def product_report_by_pairs(chain, table):
    """Test-local oracle: the product check entry by entry, through
    ``restricted_hitting`` and the table's Fraction rows."""
    n, p, alpha = chain.n, chain.params, chain.alpha
    bad = []
    for x, row in zip(chain.vertices, table.rows):
        for y, got in zip(chain.boundary, row):
            if y.x2 == chain.a2:
                want = restricted_hitting(n, p.q, alpha, x.x1, y.x1)
            else:
                want = restricted_hitting(n, p.r, 1 - alpha, x.x2, y.x2)
            if got != want:
                bad.append((x, y, got, want))
    return dct.ProductReport(len(chain.vertices) * len(chain.boundary), tuple(bad))


@pytest.mark.parametrize("q, r, n, alpha", [(2, 3, 2, THIRD), (3, 2, 2, Fraction(3, 5)), (3, 3, 1, Fraction(2, 3))])
def test_product_report_equals_the_pairwise_check(q, r, n, alpha):
    # Every certified entry equals its one-tree factor, and a tampered table
    # fails the certificate.
    c = build_truncation(n, DLParams(q, r), alpha, "dl")
    t = hitting_table(c)
    assert verify_product_formula(c) == product_report_by_pairs(c, t) == dct.ProductReport(t.nums.size, ())
    rng = random.Random(RNG_SEED + 100 * q + 10 * r + n)
    rows = [list(row) for row in t.rows]
    for _ in range(6):  # single entries, boundary rows included
        rows[rng.randrange(len(rows))][rng.randrange(len(c.boundary))] += Fraction(1, 7)
    for b in (0, len(c.boundary) - 1):  # whole columns at 0: dens 1
        for row in rows:
            row[b] = Fraction(0)
    tampered = dct.HittingTable(c, tuple(map(tuple, rows)))
    with pytest.raises(AssertionError):
        dct._verify_table(tampered, dct._layout(c))
    assert len(product_report_by_pairs(c, tampered).discrepancies) > 6


def test_verify_table_rejects_entries_swapped_over_the_same_denominators():
    # Two unequal entries of one column swapped: the column keeps its
    # denominator, the certificate fails, and the pairwise oracle names both
    # entries.
    c = build_truncation(2, DLParams(2, 3), THIRD, "dl")
    t = hitting_table(c)
    rows = [list(row) for row in t.rows]
    b = len(c.boundary) - 1
    i = len(c.vertices) // 2  # a row on level 0 of S
    j = next(j for j in range(i + 1, len(rows)) if rows[j][b] != rows[i][b])
    rows[i][b], rows[j][b] = rows[j][b], rows[i][b]
    tampered = dct.HittingTable(c, tuple(map(tuple, rows)))
    assert tampered.dens == t.dens
    with pytest.raises(AssertionError):
        dct._verify_table(tampered, dct._layout(c))
    report = product_report_by_pairs(c, tampered)
    assert {(x, y) for x, y, _, _ in report.discrepancies} == {
        (c.vertices[i], c.boundary[b]),
        (c.vertices[j], c.boundary[b]),
    }


boundary_values = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-50, 50), st.integers(1, 60)),
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_represent_equals_the_row_sum(data):
    c = build_truncation(1, DLParams(2, 3), Fraction(2, 5), "dl")
    t = hitting_table(c)
    boundary = {y: data.draw(boundary_values) for y in c.boundary}
    values = represent(c, boundary)
    assert list(values) == list(c.vertices)
    for x, row in zip(c.vertices, t.rows):
        want = sum((row[b] * Fraction(boundary[y]) for b, y in enumerate(c.boundary)), Fraction(0))
        assert type(values[x]) is Fraction and values[x] == want


def test_represent_constants_and_deltas():
    c = build_truncation(1, DLParams(2, 2), HALF, "dl")
    t = hitting_table(c)
    values = represent(c, {y: Fraction(3) for y in c.boundary})
    assert all(v == 3 for v in values.values())
    y0 = c.boundary[0]
    delta = represent(c, {y: Fraction(1 if y == y0 else 0) for y in c.boundary})
    for x in c.vertices:
        assert delta[x] == t.value(x, y0)
    with pytest.raises(ValueError):
        represent(c, {y0: Fraction(1)})


def test_represent_min_principle():
    rng = random.Random(RNG_SEED)
    c = build_truncation(1, DLParams(2, 3), Fraction(2, 5), "dl")
    for _ in range(50):
        data = {y: Fraction(rng.randrange(0, 100), 100) for y in c.boundary}
        values = represent(c, data)
        lo, hi = min(data.values()), max(data.values())
        assert all(lo <= v <= hi for v in values.values())


def test_decompose_splits_harmonic_functions():
    p = DLParams(2, 2)
    alpha = HALF
    h = KernelSpec(1, TreeEnd.word({1: 1}), alpha, p).evaluate
    dec = decompose(h, 2, p, alpha)
    o = origin(p)
    assert dec.h1[o.x1] + dec.h2[o.x2] == h(o)
    apex = TreeVertex(-2, ())
    assert dec.lambda1[apex] == 0 and dec.lambda2[apex] == 0
    assert all(v >= 0 for v in dec.lambda1.values())
    assert all(v >= 0 for v in dec.lambda2.values())
    # h only depends on the first coordinate, so the second summand is the
    # kernel value at the apex times the exit mass through the second slab
    chain = build_truncation(2, p, alpha, "dl")
    leaves2 = [y.x2 for y in chain.boundary if y.x1 == chain.a1]
    at_apex = h(DLVertex(chain.a1, leaves2[0]))
    for x2 in {v.x2 for v in chain.vertices}:
        exit2 = sum(restricted_hitting(2, p.r, 1 - alpha, x2, y) for y in leaves2)
        assert dec.h2[x2] == at_apex * exit2
    # the two-sided split of the constant gives the slab exit masses
    ones = decompose(lambda v: Fraction(1), 1, p, alpha)
    assert ones.h1[ROOT] == HALF
    assert ones.h2[ROOT] == HALF


def test_decompose_evaluates_h_once_per_vertex():
    p = DLParams(2, 3)
    h = KernelSpec(2, TreeEnd.word({1: 2}), THIRD, p).evaluate
    calls = {}

    def counted(v):
        calls[v] = calls.get(v, 0) + 1
        return h(v)

    decompose(counted, 2, p, THIRD)
    chain = build_truncation(2, p, THIRD, "dl")
    assert set(calls) == set(chain.vertices)
    assert set(calls.values()) == {1}


def test_decompose_rejects_non_harmonic():
    p = DLParams(2, 2)
    with pytest.raises(ValueError):
        decompose(lambda v: Fraction(v.x1.level * v.x1.level), 1, p, HALF)


def decompose_by_pairs(h, n, params, alpha):
    """Test-local oracle: the splitting one (vertex, leaf) pair at a time,
    through ``restricted_hitting``, with harmonicity by ``walks.apply``;
    returns ``(h1, h2, lambda1, lambda2)``."""
    chain = build_truncation(n, params, alpha, "dl")
    hv = {v: h(v) for v in chain.vertices}
    op = DLWalk(params, alpha)
    for v in chain.interior:
        if apply(op, hv.__getitem__, v) != hv[v]:
            raise ValueError(f"h is not harmonic on the interior; witness {v}")
    key = lambda t: (t.level, t.labels)
    parts = []
    for side, branch, up in ((1, params.q, alpha), (2, params.r, 1 - alpha)):
        coord = (lambda v: v.x1) if side == 1 else (lambda v: v.x2)
        apex = chain.a1 if side == 1 else chain.a2
        other = (lambda v: v.x2) if side == 1 else (lambda v: v.x1)
        slab = {coord(y): hv[y] for y in chain.boundary if other(y) == apex}
        tree = sorted({coord(v) for v in chain.vertices}, key=key)
        hi = {x: sum((restricted_hitting(n, branch, up, x, y) * b for y, b in slab.items()), Fraction(0)) for x in tree}
        lam = {apex: Fraction(0)}
        for y, b in slab.items():
            f = restricted_hitting(n, branch, up, ROOT, y)
            if f:
                lam[y] = b / f
        parts.append((hi, lam))
    (h1, lambda1), (h2, lambda2) = parts
    return h1, h2, lambda1, lambda2


@pytest.mark.parametrize("alpha", [HALF, THIRD, Fraction(2, 3)])
@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("n", [1, 2])
def test_decompose_equals_the_pairwise_splitting(n, q, r, alpha):
    p = DLParams(q, r)
    rng = random.Random(RNG_SEED + 1000 * n + 100 * q + 10 * r + alpha.denominator)
    for _ in range(2):
        terms = []
        for side in (1, 2):
            branch = q if side == 1 else r
            end = TreeEnd.word({j: rng.randrange(1, branch) for j in range(-n, n + 1) if rng.random() < 0.4})
            terms.append((Fraction(rng.randrange(1, 6), rng.randrange(1, 6)), KernelSpec(side, end, alpha, p)))
        h = combine(terms, Fraction(rng.randrange(0, 4), 3))
        dec = decompose(h, n, p, alpha)
        want = decompose_by_pairs(h, n, p, alpha)
        got = (dec.h1, dec.h2, dec.lambda1, dec.lambda2)
        assert [list(part.items()) for part in got] == [list(part.items()) for part in want]
        assert all(type(v) is Fraction for part in got for v in part.values())
    # A defect at one interior vertex: the same witness as the walk's own rows.
    chain = build_truncation(n, p, alpha, "dl")
    spot = chain.interior[rng.randrange(len(chain.interior))]
    broken = lambda v: h(v) + (v == spot)
    with pytest.raises(ValueError) as want:
        decompose_by_pairs(broken, n, p, alpha)
    with pytest.raises(ValueError) as got:
        decompose(broken, n, p, alpha)
    assert str(got.value) == str(want.value)


BENCH_ALPHAS = (HALF, Fraction(2, 3), THIRD, Fraction(3, 5), Fraction(2, 5))


def decompose_by_fractions(h, n, params, alpha):
    """Test-local oracle: the class splitting with every sum in Fractions, as
    ``decompose`` computed it before it ran on integers; returns ``(h1, h2,
    lambda1, lambda2)``."""
    chain = build_truncation(n, params, alpha, "dl")
    values = [h(v) for v in chain.vertices]
    lay = dct._layout(chain)
    at = lay.interior.start
    for i, slots in enumerate(lay.slots.tolist()):
        if sum(c * values[j] for c, j in zip(lay.coeffs, slots)) != lay.denom * values[at + i]:
            raise ValueError(f"h is not harmonic on the interior; witness {chain.vertices[at + i]}")
    parts = []
    for (branch, up, _), slab in zip(dct._slabs(chain), (values[: lay.size[0]], values[-lay.size[-1] :])):
        levels = dct._tree_levels(n, branch)
        weights = {chain.a1: Fraction(0)}
        for y, b in zip(levels[n], slab):
            f = restricted_hitting(n, branch, up, ROOT, y)
            if f:
                weights[y] = b / f
        below = {n: slab}
        for c in range(n - 1, -n - 1, -1):
            prev = below[c + 1]
            below[c] = [sum(prev[a : a + branch]) for a in range(0, len(prev), branch)]
        out = []
        for k in range(-n, n + 1):
            products = [dct._level_product(n, branch, up, c, k, n) for c in range(-n, k + 1)]
            steps = [(c, p - prev) for c, p, prev in zip(range(-n, k + 1), products, [0, *products])]
            for i, x in enumerate(levels[k]):
                out.append((x, sum(w * below[c][i // branch ** (k - c)] for c, w in steps)))
        out.sort(key=lambda item: (item[0].level, item[0].labels))
        parts.append((dict(out), weights))
    (h2, lambda2), (h1, lambda1) = parts
    for v, value in zip(chain.vertices, values):
        if h1[v.x1] + h2[v.x2] != value:
            raise AssertionError(f"splitting failed to reconstruct h at {v}")
    return h1, h2, lambda1, lambda2


@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("n", [1, 2])
def test_integer_decompose_equals_the_fraction_splitting(n, q, r):
    p = DLParams(q, r)
    rng = random.Random(RNG_SEED + 10 * n + q + r)
    for alpha in BENCH_ALPHAS:
        terms = [(Fraction(rng.randrange(1, 9), rng.randrange(1, 9)), KernelSpec(side, end, alpha, p))
                 for side, end in ((1, TreeEnd.word({1: 1})), (2, TreeEnd.word({1 - n: 1, n: 1})))]
        h = combine(terms, Fraction(rng.randrange(0, 5), rng.randrange(1, 5)))
        dec = decompose(h, n, p, alpha)
        got = (dec.h1, dec.h2, dec.lambda1, dec.lambda2)
        want = decompose_by_fractions(h, n, p, alpha)
        assert [list(part.items()) for part in got] == [list(part.items()) for part in want]
        assert all(type(v) is Fraction for part in got for v in part.values())


def test_decompose_of_an_int_valued_h():
    p = DLParams(2, 3)
    dec = decompose(lambda v: 3, 2, p, THIRD)
    want = decompose_by_fractions(lambda v: 3, 2, p, THIRD)
    assert [list(part.items()) for part in (dec.h1, dec.h2, dec.lambda1, dec.lambda2)] == [
        list(part.items()) for part in want
    ]
    assert all(type(v) is Fraction for v in dec.h1.values())
    assert dec.h1[ROOT] + dec.h2[ROOT] == 3
    with pytest.raises(ValueError, match="not harmonic"):
        decompose(lambda v: v.x1.level**2, 1, p, THIRD)


def test_kernel_approx_normalised_and_guarded():
    p = DLParams(2, 2)
    stage = FiniteChain("tree1", 3, p, HALF)
    assert kernel_approx(stage, ROOT, TreeEnd.word({1: 1})) == 1
    assert kernel_approx(stage, ROOT, OMEGA) == 1
    chain = build_truncation(3, p, HALF, "tree1")
    assert kernel_approx(chain, ROOT, TreeEnd.word({1: 1})) == 1
    # a ray that grazes the apex leaves a 0/0 ratio at this stage
    with pytest.raises(ValueError):
        kernel_approx(stage, ROOT, TreeEnd.word({-2: 1}))
    # x outside the interior
    with pytest.raises(ValueError):
        kernel_approx(stage, TreeVertex.make(3, {}), TreeEnd.word({1: 1}))
    # boundary target vertex form
    y = TreeVertex.make(3, {1: 1})
    got = kernel_approx(chain, TreeVertex.make(1, {1: 1}), y)
    assert got == restricted_hitting(3, 2, HALF, TreeVertex.make(1, {1: 1}), y) / restricted_hitting(
        3, 2, HALF, ROOT, y
    )
    with pytest.raises(ValueError):
        kernel_approx(chain, ROOT, TreeVertex.make(2, {1: 1}))


def test_labels_outside_the_branching_are_refused():
    # label 5 on a binary tree used to give F = 5/96, and a kernel_approx of 1/2
    with pytest.raises(ValueError, match="outside range"):
        restricted_hitting(2, 2, HALF, TreeVertex.make(1, {1: 5}), TreeVertex.make(2, {}))
    with pytest.raises(ValueError, match="outside range"):
        restricted_hitting(2, 2, HALF, ROOT, TreeVertex.make(2, {2: 2}))
    chain = FiniteChain("tree1", 3, DLParams(2, 2), HALF)
    for x, target in [(TreeVertex.make(1, {1: 5}), TreeEnd.word({1: 1})),
                      (TreeVertex.make(1, {1: 1}), TreeEnd.word({2: 7})),
                      (ROOT, TreeVertex.make(3, {3: 2}))]:
        with pytest.raises(ValueError, match="outside range"):
            kernel_approx(chain, x, target)
    # the second tree of DL(2, 3) takes labels 0-2
    assert kernel_approx(FiniteChain("tree2", 3, DLParams(2, 3), HALF), ROOT, TreeEnd.word({1: 2})) > 0


def test_kernel_approx_converges():
    # one fixed pair, drifted and driftless: the stage-n values approach the
    # Martin kernel, fast with drift and slowly without
    p = DLParams(2, 2)
    x = TreeVertex.make(1, {1: 1})
    xi = TreeEnd.word({1: 1})
    for alpha, final_bound in ((THIRD, 2e-3), (HALF, 0.18)):
        limit = martin_kernel_tree(1, x, xi, alpha, p)
        errs = []
        for n in range(2, 11):
            stage = FiniteChain("tree1", n, p, alpha)
            errs.append(abs(kernel_approx(stage, x, xi) - limit))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < final_bound
    assert martin_kernel_tree(1, x, xi, THIRD, p) == 4
    assert martin_kernel_tree(1, x, xi, HALF, p) == 2
    # the second tree of DL(2, 3), which its chain climbs at 1 - alpha
    p = DLParams(2, 3)
    x = TreeVertex.make(1, {1: 2})
    xi = TreeEnd.word({1: 2})
    for alpha, want, final_bound in ((THIRD, 3, 2e-3), (Fraction(2, 3), 6, 3e-3)):
        limit = martin_kernel_tree(2, x, xi, alpha, p)
        assert limit == want
        errs = [abs(kernel_approx(FiniteChain("tree2", n, p, alpha), x, xi) - limit) for n in range(2, 11)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < final_bound


def test_deep_stage_reads_no_vertex(monkeypatch):
    # A stage-64 tree chain has about 2**129 vertices; kernel_approx reads
    # only its description, and ``TruncationStage`` names the same class.
    monkeypatch.setattr(dct, "_enumerate", never_enumerate)
    assert dct.TruncationStage is dct.FiniteChain
    p = DLParams(2, 2)
    x, xi = TreeVertex.make(1, {1: 1}), TreeEnd.word({1: 1})
    got = kernel_approx(dct.FiniteChain("tree1", 64, p, THIRD), x, xi)
    assert got == kernel_approx(FiniteChain("tree1", 64, p, THIRD), x, xi)
    assert abs(got - martin_kernel_tree(1, x, xi, THIRD, p)) < Fraction(1, 10**12)
    with pytest.raises(ValueError, match="tree chains"):
        kernel_approx(dct.FiniteChain("dl", 64, p, THIRD), x, xi)


def test_exact_rank():
    assert exact_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert exact_rank([[Fraction(1, 2), Fraction(1, 4)], [Fraction(2), Fraction(1)]]) == 1
    assert exact_rank([]) == 0
    # kernels at distinct ends are linearly independent as functions
    p = DLParams(2, 2)
    ends = [TreeEnd.word({}), TreeEnd.word({1: 1}), TreeEnd.word({-1: 1}), OMEGA]
    pts = [TreeVertex.make(l, lab) for l, lab in
           ((0, {}), (1, {1: 1}), (-1, {}), (1, {}), (2, {1: 1, 2: 1}), (-2, {}), (0, {-1: 1}))]
    rows = [
        [martin_kernel_tree(1, v, xi, HALF, p) for v in pts] for xi in ends
    ]
    assert exact_rank(rows) == len(ends)


# ---------------------------------------------------------------------------
# The certificate.


def solved_with_rows(monkeypatch, chain):
    """The solved table of ``chain`` and the scaled rows it was verified on."""
    dct._certified.cache_clear()  # the certificate runs on this call
    seen = []
    verify = dct._verify_table

    def recording(table, scaled_rows):
        seen.append(scaled_rows)
        verify(table, scaled_rows)

    monkeypatch.setattr(dct, "_verify_table", recording)
    table = hitting_table(chain)
    monkeypatch.setattr(dct, "_verify_table", verify)
    return table, seen[-1]


def assert_verify_catches_each_defect(monkeypatch, alpha, bits):
    verify = dct._verify_table
    c = build_truncation(1, DLParams(2, 3), alpha, "dl")
    table, scaled_rows = solved_with_rows(monkeypatch, c)
    assert max(max(abs(x) for x in table.nums.flat), *table.dens).bit_length() in bits
    verify(table, scaled_rows)

    def tampered(v, change):
        rows = list(table.rows)
        i = c.index[v]
        rows[i] = change(list(rows[i]))
        return dct.HittingTable(c, tuple(rows))

    def moved(row):
        # shift mass between two columns: the row sum stays 1
        b = next(b for b, x in enumerate(row) if x)
        row[b] -= Fraction(1, 10**9)
        row[b - 1] += Fraction(1, 10**9)
        return tuple(row)

    def one_entry(row):
        b = len(row) // 2
        row[b] += Fraction(1, 7)
        return tuple(row)

    x = c.interior[0]
    y = c.boundary[0]
    for bad, message in (
        (tampered(x, moved), "residual"),
        (tampered(x, one_entry), "sum to 1"),
        (tampered(x, lambda row: (row[0] + 1, *row[1:])), "sum to 1"),
        (tampered(y, lambda row: tuple(reversed(row))), "Kronecker"),
    ):
        with pytest.raises(AssertionError, match=message):
            verify(bad, scaled_rows)


def test_verify_table_catches_each_defect(monkeypatch):
    # small entries: the check runs in int64
    assert_verify_catches_each_defect(monkeypatch, THIRD, range(1, 32))


@pytest.mark.parametrize(
    "alpha, bits",
    [
        # entries fit in int64 but their products with the row weights may not
        (Fraction(10**15 + 37, 3 * 10**15 + 1), range(32, 64)),
        (Fraction(10**20 + 39, 3 * 10**20 + 7), range(64, 200)),  # entries outgrow int64
    ],
)
def test_verify_table_catches_each_defect_with_wide_entries(monkeypatch, alpha, bits):
    # Each defect is caught also where the check falls back to Python ints.
    assert_verify_catches_each_defect(monkeypatch, alpha, bits)


@pytest.mark.parametrize("kind", ["dl", "tree1"])
def test_both_readers_of_the_residual_check_the_last_interior_row(kind):
    # At n = 1 every move of the last interior vertex ends on the boundary, so
    # no other row reads its value: only its own equation catches a change.
    p = DLParams(2, 3)
    c = build_truncation(1, p, THIRD, kind)
    t, lay = hitting_table(c), dct._layout(c)
    last = c.interior[-1]
    assert c.index[last] == lay.interior.stop - 1
    rows = list(t.rows)
    row = list(rows[c.index[last]])
    b = next(b for b, x in enumerate(row) if x)  # mass moves between columns b and b - 1
    row[b] -= Fraction(1, 10**9)
    row[b - 1] += Fraction(1, 10**9)
    rows[c.index[last]] = tuple(row)
    with pytest.raises(AssertionError, match="exact residual"):
        dct._verify_table(dct.HittingTable(c, tuple(rows)), lay)
    if kind != "dl":
        return
    values = represent(c, {y: Fraction(c.index[y] % 5, 3) for y in c.boundary})
    decompose(values.__getitem__, 1, p, THIRD)
    off = lambda v: values[v] + (Fraction(1, 7) if v == last else 0)
    with pytest.raises(ValueError, match=re.escape(f"not harmonic on the interior; witness {last}")):
        decompose(off, 1, p, THIRD)


def test_certificate_rejects_a_corrupted_class_value(monkeypatch, capsys):
    # One wrong entry of the class table, F1 from level 0 to a leaf above it
    # (x ⋏ y on level 0) on DL(2,2) n = 1, alpha 1/3: the table laid out from
    # it fails the exact check, and the command line reports the failure as
    # JSON with exit 1.  The builder is wrapped from a cleared cache, and the
    # real cache never sees the corrupted copy.
    class_values = dct._class_values
    class_values.cache_clear()

    def one_wrong(n, branch, num, den):
        common, levels = class_values(n, branch, num, den)
        if (n, branch, num, den) != (1, 2, 1, 3):
            return common, levels
        level = levels[n].copy()
        level[-1] *= 2
        return common, levels[:n] + (level,) + levels[n + 1 :]

    chain = build_truncation(1, DLParams(2, 2), THIRD, "dl")
    want = hitting_table(chain)
    dct._certified.cache_clear()  # the certificate runs on the calls below
    monkeypatch.setattr(dct, "_class_values", one_wrong)
    with pytest.raises(AssertionError):
        hitting_table(chain)
    code = cli.main(["dirichlet-solve", "--n", "1", "--alpha", "1/3"])
    out = capsys.readouterr().out
    assert code == 1 and set(json.loads(out)) == {"error"}
    monkeypatch.undo()
    assert hitting_table(chain) == want


def edge_by_edge(n, branch, up, x, y):
    """Test-local oracle: walk the geodesic ``x -> y`` one edge at a time."""
    d, u = one_edge_factors(n, branch, up)
    out = Fraction(1)
    while x != y:
        if x.level >= y.level:
            out *= d[x.level]  # x steps down to its predecessor
            x = predecessor(x)
        else:
            out *= u[y.level - 1]  # the last edge into y goes up
            y = predecessor(y)
    return out


@pytest.mark.parametrize("branch", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_restricted_hitting_equals_an_edge_by_edge_product(n, branch):
    # Every pair on the small chains; 1,500 seeded pairs on the larger ones.
    rng = random.Random(RNG_SEED + 10 * n + branch)
    vertices = build_truncation(n, DLParams(branch, 2), HALF, "tree1").vertices
    if len(vertices) ** 2 <= 1000:
        pairs = [(x, y) for x in vertices for y in vertices]
    else:
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(1500)]
    for up in (HALF, THIRD, Fraction(3, 5)):
        for x, y in pairs:
            assert restricted_hitting(n, branch, up, x, y) == edge_by_edge(n, branch, up, x, y)


def slab_keys(n, params, alpha):
    """The ``(branch, up)`` of every slab of the dl, tree1 and tree2 chains."""
    return {(branch, up) for kind in ("dl", "tree1", "tree2")
            for branch, up, _ in dct._slabs(FiniteChain(kind, n, params, alpha))}


@pytest.mark.parametrize("branch", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_values_equal_an_edge_by_edge_product(n, branch):
    # Every class of every level: x on level lv, the leaf y = (n, ()), and
    # x ⋏ y on level c, x leaving y's ancestors just above c.  The tree
    # chains' line slabs (branch 1) are swept too.
    y = TreeVertex(n, ())
    for alpha in BENCH_ALPHAS:
        for b, up in slab_keys(n, DLParams(branch, branch), alpha):
            common, levels = dct._class_values(n, b, up.numerator, up.denominator)
            assert len(levels) == 2 * n + 1
            got, want = [], []
            for lv in range(-n, n + 1):
                classes = dct._classes(n, b, lv)
                assert len(levels[n + lv]) == len(classes)
                for c, scaled in zip(classes, levels[n + lv].tolist()):
                    x = TreeVertex.make(lv, {c + 1: 1} if c < lv else {})
                    assert confluent_omega(x, y).level == c
                    got.append(Fraction(scaled, common))
                    want.append(edge_by_edge(n, b, up, x, y))
            assert got == want
            assert common == lcm(*(f.denominator for f in want))


def test_cached_class_values_and_walk_rows_are_read_only():
    chains = [build_truncation(2, DLParams(2, 3), THIRD, kind) for kind in ("dl", "tree1", "tree2")]
    for chain in chains:
        hitting_table(chain)
        for branch, up, _ in dct._slabs(chain):
            common, levels = dct._class_values(chain.n, branch, up.numerator, up.denominator)
            assert type(common) is int and type(levels) is tuple
            for level in levels:
                with pytest.raises(ValueError):
                    level[0] = 1
                with pytest.raises(ValueError):
                    level += 1
        lay = dct._layout(chain)
        assert type(lay.denom) is int and type(lay.coeffs) is tuple


def test_equal_rates_share_one_cache_entry():
    p = DLParams(2, 3)
    tables = []
    for alpha in (Fraction(1, 3), "1/3"):
        before = (dct._class_values.cache_info(), dct._walk_row.cache_info())
        tables.append(hitting_table(build_truncation(2, p, alpha, "dl")))
        decompose(lambda v: 1, 2, p, alpha)
        after = (dct._class_values.cache_info(), dct._walk_row.cache_info())
    assert [a.currsize for a in after] == [b.currsize for b in before]
    assert [a.misses for a in after] == [b.misses for b in before]
    assert tables[0] == tables[1]


def test_hitting_table_refuses_a_dense_solve_past_the_cap(monkeypatch):
    c = build_truncation(1, DLParams(2, 2), HALF, "dl")
    need = dct.check_solve_size(1, DLParams(2, 2))
    monkeypatch.setattr(dct, "_MAX_SOLVE_BYTES", need)
    hitting_table(c)
    monkeypatch.setattr(dct, "_MAX_SOLVE_BYTES", need - 1)
    with pytest.raises(ValueError, match="GiB"):
        hitting_table(c)


@pytest.mark.parametrize("kind", ["dl", "tree1", "tree2"])
@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_solve_size_from_the_level_sizes(n, q, r, kind):
    # The closed form equals the sum over the enumerated level sizes.
    a, b = {"dl": (q, r), "tree1": (q, 1), "tree2": (r, 1)}[kind]
    sizes = [a ** (n + k) * b ** (n - k) for k in range(-n, n + 1)]
    interior, nb = sizes[1:-1], sizes[0] + sizes[-1]
    want = 8 * (2 * sum(sizes) + 2 * sum(interior)) * nb
    if want <= dct._MAX_SOLVE_BYTES:
        assert dct.check_solve_size(n, DLParams(q, r), kind) == want
    else:
        with pytest.raises(ValueError, match="GiB"):
            dct.check_solve_size(n, DLParams(q, r), kind)


def test_dense_solve_cap_keeps_dl22_n5():
    # DL(2,2) n = 5: 11,264 vertices, 2,048 of them on the boundary.
    assert dct.check_solve_size(5, DLParams(2, 2)) <= dct._MAX_SOLVE_BYTES
    with pytest.raises(ValueError, match="12.0 GiB"):
        dct.check_solve_size(6, DLParams(2, 2))


def system_from_transitions(chain):
    """Test-local oracle: the scaled interior rows from the walk's own
    ``transitions`` and the chain's vertex index."""
    op = dct.default_operator(chain)
    at, denoms, slots, coeffs = [], [], [], []
    for v in chain.interior:
        moves = op.transitions(v)
        denom = lcm(*(p.denominator for _, p in moves))
        at.append(chain.index[v])
        denoms.append(denom)
        slots.append([chain.index[w] for w, _ in moves])
        coeffs.append(tuple(p.numerator * (denom // p.denominator) for _, p in moves))
    return at, denoms, slots, coeffs


@pytest.mark.parametrize("kind", ["dl", "tree1", "tree2"])
@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_layout_rows_equal_the_walk_transitions(n, q, r, kind):
    # The level argument on real vertices: every interior move stays in the
    # chain (``chain.index[w]`` fails otherwise), and every boundary vertex
    # has a move out of it.
    c = build_truncation(n, DLParams(q, r), Fraction(2, 5), kind)
    lay = dct._layout(c)
    at, denoms, slots, coeffs = system_from_transitions(c)
    assert sum(lay.size) == len(c.vertices)
    assert at == list(range(len(c.vertices))[lay.interior])
    assert lay.boundary.tolist() == [c.index[y] for y in c.boundary]
    assert set(denoms) == {lay.denom} and set(coeffs) == {lay.coeffs}
    assert lay.slots.tolist() == slots
    op = dct.default_operator(c)
    for y in c.boundary:
        assert any(w not in c.index for w, _ in op.transitions(y))


@pytest.mark.parametrize("branch", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_grid_equals_the_confluent_level_of_real_vertices(n, branch):
    levels = dct._tree_levels(n, branch)
    for level in range(-n, n + 1):
        grid = dct._confluent_levels(n, branch, level)
        assert grid.tolist() == [[confluent_omega(x, y).level + n for y in levels[n]] for x in levels[level]]


def test_cached_shapes_are_read_only():
    grid = dct._confluent_levels(2, 3, 1)
    lay = dct._layout(build_truncation(2, DLParams(2, 3), THIRD, "dl"))
    assert grid is dct._confluent_levels(2, 3, 1) and type(lay.size) is tuple
    for cached in (grid, lay.slots):
        with pytest.raises(ValueError):
            cached[0, 0] = 1
        with pytest.raises(ValueError):
            cached += 1
    assert lay.slots is dct._layout(build_truncation(2, DLParams(2, 3), HALF, "dl")).slots


def test_a_class_grid_past_the_byte_bound_is_built_for_the_call():
    # n = 4, branch 3, level 1: 3**7 x 3**8 int8 entries, 1.6 MB
    assert 3**13 > dct._MAX_KEPT_BYTES
    size = dct._confluent_levels.cache_info().currsize
    grid = dct._class_grid(4, 3, 1)
    assert dct._confluent_levels.cache_info().currsize == size
    assert not grid.flags.writeable and (grid == dct._confluent_levels.__wrapped__(4, 3, 1)).all()
    assert dct._class_grid(2, 3, 1) is dct._confluent_levels(2, 3, 1)


@pytest.mark.parametrize("kind", ["dl", "tree1", "tree2"])
def test_chains_of_one_shape_share_one_vertex_tuple(kind):
    p = DLParams(2, 3)
    third, half = build_truncation(2, p, THIRD, kind), build_truncation(2, p, HALF, kind)
    assert third != half and third.vertices is half.vertices
    assert third.vertices is dct._enumerate(FiniteChain(kind, 2, p, Fraction(2, 3)))
    vertices = third.vertices
    with pytest.raises(TypeError):
        vertices[0] = vertices[1]
    with pytest.raises(AttributeError):
        vertices[-1].labels = ()


def test_kept_tree_levels_are_read_only():
    levels = dct._tree_levels(2, 3)
    assert levels is dct._tree_levels(2, 3) and all(type(vs) is tuple for vs in levels.values())
    with pytest.raises(TypeError):
        levels[0] = ()
    with pytest.raises(TypeError):
        del levels[-2]
    with pytest.raises(AttributeError):
        levels.clear()
    assert list(levels) == list(range(-2, 3)) and levels[-2] == (TreeVertex(-2, ()),)


def test_a_shape_past_the_vertex_bound_is_enumerated_for_the_call():
    # DL(2,2) n = 5 has 11,264 vertices; its subtrees, 2,047 each, are kept.
    p = DLParams(2, 2)
    size = dct._shape_vertices.cache_info().currsize
    third, half = build_truncation(5, p, THIRD).vertices, build_truncation(5, p, HALF).vertices
    assert len(third) == 11264 > dct._KEPT_VERTICES
    assert dct._shape_vertices.cache_info().currsize == size
    assert third == half and third is not half
    # the stage-6 binary subtree has 8,191 vertices
    size = dct._kept_levels.cache_info().currsize
    levels = dct._tree_levels(6, 2)
    assert sum(map(len, levels.values())) == 8191 > dct._KEPT_VERTICES
    assert dct._kept_levels.cache_info().currsize == size
    assert levels == dct._tree_levels(6, 2) and levels is not dct._tree_levels(6, 2)
    with pytest.raises(TypeError):
        levels[0] = ()


def test_the_vertex_cap_refuses_a_kept_shape_on_every_read(monkeypatch):
    p = DLParams(2, 2)
    kept = build_truncation(1, p, HALF).vertices
    monkeypatch.setattr(dct, "_MAX_VERTICES", 11)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^truncation would have 12 vertices \(cap 11\)$"):
            FiniteChain("dl", 1, p, THIRD).vertices
        with pytest.raises(ValueError, match=r"^truncation would have 12 vertices \(cap 11\)$"):
            dct._enumerate(FiniteChain("dl", 1, p, HALF))
    monkeypatch.undo()
    assert FiniteChain("dl", 1, p, THIRD).vertices is kept


def test_every_kept_shape_stays_under_the_byte_bound():
    # Each shape within _KEPT_VERTICES, built cold with its subtrees, for
    # branching 2 to 7: DL(2,7) n = 2 (3,355 vertices) peaks highest, near 0.6 MB.
    shapes = [(True, q, r) for q in range(2, 8) for r in range(2, 8)] + [(False, q, 1) for q in range(2, 8)]
    peaks = []
    for dl, ups, downs in shapes:
        n = 1
        while sum(dct._counts(n, ups, downs)[:2]) <= dct._KEPT_VERTICES:
            dct._kept_levels.cache_clear()
            tracemalloc.start()
            try:
                dct._shape_vertices.__wrapped__(dl, n, ups, downs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            n += 1
    assert len(peaks) > len(shapes) and max(peaks) <= dct._MAX_KEPT_BYTES


def test_an_equal_chain_reads_its_table_from_the_cache(monkeypatch):
    p = DLParams(2, 3)
    first = hitting_table(build_truncation(2, p, "1/3", "dl"))

    def never(*args):
        raise RuntimeError("the table was built again")

    monkeypatch.setattr(dct, "_closed_form", never)
    monkeypatch.setattr(dct, "_verify_table", never)
    chain = build_truncation(2, p, Fraction(1, 3), "dl")
    second = hitting_table(chain)
    assert second == first and second.chain is chain and first.chain is not chain


def test_a_cached_table_is_read_only():
    chain = build_truncation(1, DLParams(2, 2), THIRD)
    hitting_table(chain)
    t = hitting_table(chain)
    with pytest.raises(ValueError):
        t.nums[0, 0] = 1
    with pytest.raises(ValueError):
        t.nums += 1
    with pytest.raises(ValueError):
        t.nums.flags.writeable = True
    assert t == hitting_table(chain)


def test_a_table_past_the_byte_bound_is_certified_for_the_call():
    # DL(2,2) n = 4: 2,304 x 512 entries, 9.4 MB at eight bytes an entry
    assert 8 * 2304 * 512 > dct._MAX_KEPT_BYTES
    dct._certified.cache_clear()
    t = hitting_table(build_truncation(4, DLParams(2, 2), HALF, "dl"))
    assert t.nums.shape == (2304, 512) and dct._certified.cache_info().currsize == 0
    hitting_table(build_truncation(3, DLParams(2, 2), HALF, "dl"))  # 448 x 128 entries, kept
    assert dct._certified.cache_info().currsize == 1


def test_a_failed_certificate_is_never_kept(monkeypatch):
    # A corrupted class value fails the check; the next call builds afresh.
    chain = build_truncation(1, DLParams(2, 3), Fraction(2, 7), "dl")
    dct._certified.cache_clear()
    real = dct._class_values.__wrapped__

    def one_wrong(n, branch, num, den):
        common, levels = real(n, branch, num, den)
        level = levels[n].copy()
        level[-1] *= 2
        return common, levels[:n] + (level,) + levels[n + 1 :]

    monkeypatch.setattr(dct, "_class_values", one_wrong)
    with pytest.raises(AssertionError):
        hitting_table(chain)
    monkeypatch.undo()
    assert dct._certified.cache_info().currsize == 0
    want = solve_dense(chain, dct.default_operator(chain))
    for x, row in zip(chain.vertices, hitting_table(chain).rows):
        assert list(row) == [want[(x, y)] for y in chain.boundary]


def clear_every_cache():
    for cached in vars(dct).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


def test_alpha_sweeps_in_either_order_give_the_same_tables():
    # Shapes are cached without alpha, class values and walk rows per rate,
    # and tree chains share keys with the DL chain's slabs: a key that is too
    # coarse hands one chain the entry of whichever filled the cache first,
    # so the two orders would disagree.
    p = DLParams(2, 3)
    chains = [(kind, n) for kind in ("dl", "tree1", "tree2") for n in (1, 2, 3) if (kind, n) != ("dl", 3)]
    h = combine([(Fraction(2, 7), KernelSpec(1, TreeEnd.word({1: 1}), THIRD, p))], Fraction(1, 5))

    def sweep(alphas):
        clear_every_cache()
        tables = {
            (kind, n, alpha): hitting_table(build_truncation(n, p, alpha, kind))
            for alpha in alphas
            for kind, n in chains
        }
        # h is harmonic for THIRD only; a constant is harmonic for every alpha
        splits = {
            (n, alpha): decompose(h if alpha == THIRD else (lambda v: Fraction(3, 4)), n, p, alpha)
            for alpha in alphas
            for n in (1, 2)
        }
        return tables, splits

    first, first_splits = sweep(BENCH_ALPHAS)
    second, second_splits = sweep(BENCH_ALPHAS[::-1])
    assert first.keys() == second.keys()
    for key, table in first.items():
        assert second[key].dens == table.dens and (second[key].nums == table.nums).all()
    assert first_splits.keys() == second_splits.keys()
    for key, dec in first_splits.items():
        assert dec == second_splits[key]


# SHA-256 of ``json.dumps(table_to_json(...))`` for DL(2,2) n = 4, alpha 1/2
# (2,304 vertices, 512 boundary columns), as the dense per-pivot solver gave it.
DL22_N4_SHA256 = "8966e74b5c48e120fd40fec76cf74e8ce4afc6300f7fdd40e479fade527e86fe"


def test_dl22_n4_table_is_pinned():
    t = hitting_table(build_truncation(4, DLParams(2, 2), HALF, "dl"))
    assert hashlib.sha256(json.dumps(table_to_json(t)).encode()).hexdigest() == DL22_N4_SHA256


@pytest.mark.parametrize("read", ["vertices", "boundary", "interior", "index"])
def test_a_directly_built_chain_past_the_vertex_cap_is_refused(monkeypatch, read):
    # DL(2,2) n = 1 has 12 vertices: with the cap at 11 the first read refuses
    # before a tree level is built, with build_truncation's message.
    def no_levels(n, branch):
        raise RuntimeError("a tree level was built")

    p, real_levels = DLParams(2, 2), dct._tree_levels
    monkeypatch.setattr(dct, "_MAX_VERTICES", 11)
    monkeypatch.setattr(dct, "_tree_levels", no_levels)
    chain = dct.FiniteChain("dl", 1, p, HALF)
    for attempt in (lambda: getattr(chain, read), lambda: build_truncation(1, p, HALF)):
        with pytest.raises(ValueError, match=r"^truncation would have 12 vertices \(cap 11\)$"):
            attempt()
    monkeypatch.setattr(dct, "_MAX_VERTICES", 12)
    monkeypatch.setattr(dct, "_tree_levels", real_levels)
    assert len(chain.vertices) == 12 and chain == build_truncation(1, p, HALF)


HUGE_STAGES = [(q, r, kind, n) for n in (10**5, 10**9) for q, r in ((2, 2), (3, 2)) for kind in ("dl", "tree1")]


@pytest.mark.parametrize("q, r, kind, n", HUGE_STAGES,
                         ids=[f"{q}-{r}-{kind}" + ("-1e9" if n == 10**9 else "") for q, r, kind, n in HUGE_STAGES])
def test_a_huge_stage_is_refused_at_once_naming_the_cap(q, r, kind, n):
    # |S| and the solve size are counted in closed form, and a figure past 40
    # digits is shown by its digit count, not by str.
    for refuse, cap in ((lambda: build_truncation(n, DLParams(q, r), HALF, kind), "(cap 500000)"),
                        (lambda: dct.check_solve_size(n, DLParams(q, r), kind), "(cap 2 GiB)")):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            refuse()
        assert time.perf_counter() - start < 1
        assert cap in str(info.value) and "-digit number of" in str(info.value)
        assert "Exceeds the limit" not in str(info.value)


@pytest.mark.parametrize("kind", ["dl", "tree1", "tree2"])
def test_a_stage_past_the_counted_one_is_refused_by_a_floor(kind):
    # The counted stage's boundary alone passes both caps and 10**40 for the
    # smallest shape, so a capped count refuses and its figure is a floor.
    top = dct._MAX_COUNTED_STAGE
    assert dct._counts(top, 2, 1)[1] > max(10**40, dct._MAX_VERTICES, dct._MAX_SOLVE_BYTES)
    p = DLParams(2, 3)
    assert dct._counts(top + 1, 2, 3) == (*dct._counts(top, 2, 3)[:2], "at least ")
    shape = dct._walk_shape(kind, p)
    assert sum(dct._level_sizes(top, *shape)) == sum(dct._counts(top, *shape)[:2])
    for n, floor in ((top, False), (top + 1, True), (10**18, True)):
        for refuse in (lambda: build_truncation(n, p, HALF, kind), lambda: dct.check_solve_size(n, p, kind)):
            with pytest.raises(ValueError, match="-digit number of") as info:
                refuse()
            assert ("at least" in str(info.value)) == floor


def test_the_vertex_count_is_the_sum_of_the_level_sizes(monkeypatch):
    # The closed-form count refuses exactly past the enumerated size.
    for n, p, kind in ((1, DLParams(2, 3), "dl"), (3, DLParams(3, 2), "dl"), (4, DLParams(2, 3), "tree2")):
        size = sum(dct._level_sizes(n, *dct._walk_shape(kind, p)))
        monkeypatch.setattr(dct, "_MAX_VERTICES", size)
        assert build_truncation(n, p, HALF, kind).n == n
        monkeypatch.setattr(dct, "_MAX_VERTICES", size - 1)
        with pytest.raises(ValueError, match=rf"^truncation would have {size} vertices \(cap {size - 1}\)$"):
            build_truncation(n, p, HALF, kind)


@pytest.mark.parametrize("level_sum", [1, -2])
def test_a_shifted_sheet_is_refused_when_the_chain_is_built(level_sum):
    p = DLParams(2, 2, level_sum)
    for build in (lambda: build_truncation(1, p, HALF), lambda: dct.FiniteChain("tree1", 1, p, HALF),
                  lambda: decompose(lambda v: Fraction(1), 1, p, HALF)):
        with pytest.raises(ValueError, match=rf"level sum 0 sheet, got level_sum {level_sum}$"):
            build()


def test_table_is_unequal_to_a_foreign_object():
    table = hitting_table(build_truncation(1, DLParams(2, 2), HALF))
    assert (table == 3) is False and table.__eq__(3) is NotImplemented


def test_solve_size_refuses_stage_0():
    with pytest.raises(ValueError, match="stage must be >= 1"):
        dct.check_solve_size(0, DLParams(2, 2))


def test_restricted_hitting_reads_a_string_rate():
    y = TreeVertex.make(2, {1: 2})
    assert restricted_hitting(2, 3, "1/3", ROOT, y) == restricted_hitting(2, 3, THIRD, ROOT, y)


def table_dot_product(table, data):
    """Test-local oracle: ``x -> sum_b F(x, y_b) data[y_b]`` from the table's
    integer columns, as one dot product over the lcm of ``data[y_b] / dens[b]``."""
    chain = table.chain
    weights = [Fraction(data[y]) / d for y, d in zip(chain.boundary, table.dens)]
    common = lcm(*(w.denominator for w in weights))
    ints = np.array([w.numerator * (common // w.denominator) for w in weights], dtype=object)
    return {x: Fraction(total, common) for x, total in zip(chain.vertices, table.nums.dot(ints).tolist())}


def kept_tables():
    """``(kind, n, q, r)`` of every chain with ``q, r`` in {2, 3} whose table
    is kept by ``_certified``: at most ``_MAX_KEPT_BYTES`` at eight an entry."""
    for kind in ("dl", "tree1", "tree2"):
        for q in (2, 3):
            for r in (2, 3):
                n = 1
                while True:
                    interior, nb, _ = dct._counts(n, *dct._walk_shape(kind, DLParams(q, r)))
                    if 8 * (interior + nb) * nb > dct._MAX_KEPT_BYTES:
                        break
                    yield kind, n, q, r
                    n += 1


def test_represent_equals_the_table_dot_product():
    # the extension by the product formula equals the table's dot product with
    # the data, on every chain kind and shape whose table is kept
    rng = random.Random(RNG_SEED + 16)
    cases = list(kept_tables())
    assert len(cases) == 29 and ("dl", 3, 2, 2) in cases and ("dl", 2, 3, 3) in cases
    for kind, n, q, r in cases:
        for alpha in (THIRD, HALF, Fraction(5, 7)):
            c = build_truncation(n, DLParams(q, r), alpha, kind)
            data = {y: Fraction(rng.randrange(-60, 60), rng.randrange(1, 40)) for y in c.boundary}
            values = represent(c, data)
            assert list(values) == list(c.vertices)
            assert values == table_dot_product(hitting_table(c), data)


def test_represent_solves_a_stage_past_the_table_cap(monkeypatch):
    # DL(2,2) n = 6 has no table (12.0 GiB), but its extension is solved and
    # certified: equal to the data on the boundary, with a zero residual on
    # all 53,248 vertices, and harmonic under the walk's own transitions.
    p = DLParams(2, 2)
    with pytest.raises(ValueError, match="12.0 GiB"):
        dct.check_solve_size(6, p)
    c = build_truncation(6, p, THIRD)
    rng = random.Random(RNG_SEED + 6)
    data = {y: Fraction(rng.randrange(0, 9), rng.randrange(1, 4)) for y in c.boundary}
    seen = []
    residual = dct._residual

    def recording(ints, lay):
        out = residual(ints, lay)
        seen.append((len(ints), int(np.count_nonzero(out))))
        return out

    monkeypatch.setattr(dct, "_residual", recording)
    values = represent(c, data)
    assert seen == [(53248, 0)]
    assert all(values[y] == data[y] for y in c.boundary)
    op = dct.default_operator(c)
    for v in rng.sample(c.interior, 40):
        assert apply(op, values.__getitem__, v) == values[v]


def raise_one_class_value(monkeypatch, key, lv=0):
    """Monkeypatch ``_class_values`` so that the entry of ``key`` for ``x`` on
    level ``lv`` of the tree and ``x ⋏ y`` on the same level is one larger.
    The corrupted copy is built from the uncached builder, so no cache keeps
    it."""
    build = dct._class_values.__wrapped__

    def one_raised(*args):
        common, levels = build(*args)
        if args != key:
            return common, levels
        n = args[0]
        level = levels[n + lv].copy()
        level[-1] += 1
        return common, levels[: n + lv] + (level,) + levels[n + lv + 1 :]

    monkeypatch.setattr(dct, "_class_values", one_raised)


def test_represent_certificate_rejects_a_corrupted_class_value(monkeypatch):
    # alpha 4/13 is this test's own rate key: the caches are cleared around
    # the corrupted run and nothing else reads the key.
    p, alpha = DLParams(2, 2), Fraction(4, 13)
    c = build_truncation(2, p, alpha)
    data = {y: Fraction(1 + i % 5, 3) for i, y in enumerate(c.boundary)}
    want = represent(c, data)
    dct._class_values.cache_clear()
    for key in ((2, 2, 4, 13), (2, 2, 9, 13)):  # the first tree's slab, then the second's
        raise_one_class_value(monkeypatch, key)
        with pytest.raises(AssertionError, match="exact residual"):
            represent(c, data)
        with pytest.raises(AssertionError, match="splitting failed to reconstruct h"):
            decompose(want.__getitem__, 2, p, alpha)
        monkeypatch.undo()
    # on a leaf's own class the extension misses the data on the boundary
    raise_one_class_value(monkeypatch, (2, 2, 4, 13), lv=2)
    with pytest.raises(AssertionError, match="differs from the boundary data"):
        represent(c, data)
    monkeypatch.undo()
    dct._class_values.cache_clear()
    assert represent(c, data) == want
    dec = decompose(want.__getitem__, 2, p, alpha)
    assert dec.h1[ROOT] + dec.h2[ROOT] == want[origin(p)]


def test_a_table_of_an_equal_chain_is_read():
    # demo 06: the chain's own table, or one of an equal chain built apart
    p = DLParams(2, 2)
    chain = build_truncation(1, p, HALF)
    data = {y: Fraction(int(y.x1.level == chain.n)) for y in chain.boundary}
    values = represent(chain, data)
    assert values[origin(p)] == Fraction(1, 2)
    for table in (hitting_table(chain), hitting_table(build_truncation(1, p, "1/2"))):
        assert values == {x: sum(f * data[y] for f, y in zip(row, chain.boundary))
                          for x, row in zip(chain.vertices, table.rows)}
    assert verify_product_formula(chain) == dct.ProductReport(12 * 8, ())


def test_decompose_reports_a_failed_reconstruction(monkeypatch):
    # alpha 5/17 is this test's own rate key.  h = 1 is harmonic, so the
    # splitting fails only through the raised class value of the second
    # tree's slab (rate 12/17).
    dct._class_values.cache_clear()
    raise_one_class_value(monkeypatch, (1, 2, 12, 17))
    with pytest.raises(AssertionError, match="splitting failed to reconstruct h"):
        decompose(lambda v: Fraction(1), 1, DLParams(2, 2), Fraction(5, 17))
    monkeypatch.undo()
    dct._class_values.cache_clear()
    dec = decompose(lambda v: Fraction(1), 1, DLParams(2, 2), Fraction(5, 17))
    assert dec.h1[ROOT] + dec.h2[ROOT] == 1


def test_kernel_approx_refuses_a_zero_measure_leaf():
    # the leaf's ray leaves the root's ray at the apex, so the root reaches
    # it only through the boundary
    n = 3
    chain = FiniteChain("tree1", n, DLParams(2, 2), THIRD)
    with pytest.raises(ValueError, match="zero harmonic measure"):
        kernel_approx(chain, ROOT, TreeVertex.make(n, {1 - n: 1}))


@st.composite
def approx_case(draw):
    """A tree chain at stages 1-8, an interior ``x`` whose ray leaves the
    root's above the apex, and a boundary vertex: the apex or a leaf."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("tree1", "tree2")))
    p = draw(st.sampled_from((DLParams(2, 3), DLParams(3, 2), DLParams(2, 2))))
    alpha = draw(st.sampled_from((Fraction(1, 4), THIRD, HALF, Fraction(3, 5), Fraction(4, 5))))
    branch, up = (p.q, alpha) if kind == "tree1" else (p.r, 1 - alpha)
    lx = draw(st.integers(1 - n, n - 1))
    labels = st.dictionaries(st.integers(2 - n, lx), st.integers(0, branch - 1), max_size=6)
    x = TreeVertex.make(lx, draw(labels) if 2 - n <= lx else {})
    leaf = TreeVertex.make(n, draw(st.dictionaries(st.integers(1 - n, n), st.integers(0, branch - 1), max_size=6)))
    y = draw(st.sampled_from((leaf, TreeVertex(-n, ()))))
    return FiniteChain(kind, n, p, alpha), branch, up, x, y


@settings(max_examples=300, deadline=None)
@given(approx_case())
def test_kernel_approx_is_the_quotient_of_two_restricted_hitting_probabilities(case):
    chain, branch, up, x, y = case
    n = chain.n
    denom = restricted_hitting(n, branch, up, ROOT, y)
    if denom == 0:
        with pytest.raises(ValueError, match="zero harmonic measure"):
            kernel_approx(chain, x, y)
        return
    want = restricted_hitting(n, branch, up, x, y) / denom
    got = kernel_approx(chain, x, y)
    assert type(got) is Fraction and got == want
    if y.level == n and all(j > 1 - n for j, _ in y.labels):
        # the end through the leaf routes to it
        assert kernel_approx(chain, x, TreeEnd.word(y.labels)) == want
